"""Property tests for the sweep writers.

Round trip: tables are drawn with float cells (NaN and +-inf included), bool
cells (a column of both is an object array) and free-text diagnostics,
written with ``write_result`` and read back with ``read_csv`` and
``read_json`` of ``oracles.py``, the JSON reader rejecting non-standard
tokens. Every cell must come back with its type and
value (NaN as NaN); CSV diagnostics come back with commas as semicolons.

Byte oracle: ``json_chunks`` and ``csv_chunks`` must give the same
bytes as the row-at-a-time encoders they replaced (kept below as
``_oracle_json`` and ``_oracle_csv``), on tables with signed zeros,
subnormals, NaN and +-inf, bool columns holding NaN, ints drawn into float
columns, awkward
column names and diagnostics, zero rows, and meta with tuples, None and inf.
The writers emit the table in blocks of ``BLOCK_ROWS`` rows: the drawn
tables are written with blocks of 1, 2 and 3 rows as well, and fixed tables
sit on either side of one and two block boundaries. A float block is
spelled one distinct value at a time where at most 3/4 of its cells are
distinct, else cell by cell: drawn columns of at most 3 distinct floats,
and a fixed column at exactly 3/4, take both branches.

Float spelling: a CSV float column of at least ``_NUMPY_SPELL_MIN`` cells is
spelled in numpy, with the builtin ``'.17g'`` as the reference. A fixed
table of powers of ten, their neighbours, a tie and the ends of the double
range goes through ``csv_chunks`` on both branches; 200,000 random bit
patterns and doubles next to a tie go through the spelling, also under
``python -O``, and only the zeros and the near-ties take the builtin.
"""

import contextlib
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oracles import (column, near_tie_doubles, random_doubles,  # noqa: E402
                     read_csv, read_json)
from unruh_steer import __version__, sweeps  # noqa: E402
from unruh_steer.sweeps import (BLOCK_ROWS, DIAGNOSTICS_COLUMN,  # noqa: E402
                                SweepResult, _timestamp, _to_json, csv_chunks,
                                json_chunks, write_result)

CELLS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.booleans())
# printable ASCII: CSV is line based, so a diagnostic holds no line break
DIAGNOSTICS = st.one_of(st.just(""), st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=40))


@st.composite
def sweep_results(draw):
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 6))
    data = [column([draw(CELLS) for _ in range(n_rows)])
            for _ in range(n_cols)]
    diagnostics = [draw(DIAGNOSTICS) for _ in range(n_rows)]
    meta = {"bound": draw(st.floats(allow_nan=False, allow_infinity=True))}
    return SweepResult(columns=tuple(f"c{i}" for i in range(n_cols)),
                       data=data, diagnostics=diagnostics, meta=meta)


def _same_cell(got, want):
    if type(got) is not type(want):
        return False
    return got == want or (math.isnan(got) and math.isnan(want))


def _assert_same_rows(back, res):
    assert back.columns == res.columns
    assert len(back.rows) == len(res.rows)
    for got, want in zip(back.rows, res.rows):
        assert all(_same_cell(g, w) for g, w in zip(got, want)), (got, want)


# block sizes the drawn tables are written with; the tables hold 0-6 rows
BLOCKS = st.sampled_from([1, 2, 3, BLOCK_ROWS])


@contextlib.contextmanager
def _blocks_of(rows):
    """Context in which the writers emit blocks of ``rows`` rows."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweeps, "BLOCK_ROWS", rows)
        yield


@settings(max_examples=60, deadline=None)
@given(sweep_results(), BLOCKS)
def test_csv_and_json_round_trip(res, block_rows):
    with tempfile.TemporaryDirectory() as tmp, _blocks_of(block_rows):
        csv_path = os.path.join(tmp, "out.csv")
        json_path = os.path.join(tmp, "out.json")
        write_result(res, csv_path, "csv")
        write_result(res, json_path, "json")
        from_csv = read_csv(csv_path)
        from_json = read_json(json_path)
    _assert_same_rows(from_csv, res)
    assert from_csv.diagnostics == [d.replace(",", ";") for d in res.diagnostics]
    _assert_same_rows(from_json, res)
    assert from_json.diagnostics == res.diagnostics
    assert from_json.meta["bound"] == res.meta["bound"]


# ----- byte oracle: the row-at-a-time encoders -----

def _oracle_json(result):
    meta = dict(result.meta, version=__version__, timestamp=_timestamp())
    rows = []
    for row, diag in zip(result.rows, result.diagnostics):
        entry = dict(zip(result.columns,
                         row if math.isfinite(sum(row)) else _to_json(row)))
        if diag:
            entry[DIAGNOSTICS_COLUMN] = diag
        rows.append(entry)
    return json.dumps({"meta": _to_json(meta), "rows": rows}, indent=2,
                      allow_nan=False) + "\n"


def _oracle_format_column(values):
    kinds = set(map(type, values))
    if kinds <= {bool, np.bool_}:
        return ["true" if x else "false" for x in values]
    if kinds == {float}:
        return [f"{x:.17g}" for x in values]
    if kinds == {str}:
        return list(values)
    if len(kinds) == 1:
        return [f"{float(x):.17g}" for x in values]
    return [_oracle_format_column((x,))[0] for x in values]


def _oracle_csv(result):
    cells = [_oracle_format_column(col) for col in zip(*result.rows)]
    header = list(result.columns)
    if result.has_diagnostics:
        header.append(DIAGNOSTICS_COLUMN)
        cells.append([diag.replace(",", ";") for diag in result.diagnostics])
    lines = [",".join(header)] + [",".join(row) for row in zip(*cells)]
    return "\n".join(lines) + "\n"


SPECIAL = (-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308,
           math.nan, math.inf, -math.inf)
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats())
# a float column whose cells are sampled from at most 3 floats: blocks of
# 1, 2, 3 and BLOCK_ROWS rows of it fall on both sides of the writers' 3/4
# rule, each distinct float spelled once or every cell spelled
FEW_FLOATS = st.lists(st.one_of(
    st.sampled_from((math.nan, math.inf, -math.inf, -0.0, 0.0)),
    st.floats(allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=3).map(st.sampled_from)
COLUMN_CELLS = st.one_of(st.sampled_from([
    FLOATS,                                           # float column
    st.booleans(),                                    # flag column
    st.one_of(st.booleans(), st.just(math.nan)),      # flag column, NaN rows
    st.one_of(FLOATS, st.integers(-10**20, 10**20)),  # ints among floats
]), FEW_FLOATS)                                       # few distinct floats
AWKWARD = st.sampled_from('"\\%,é√\n')
NAMES = st.text(alphabet=st.one_of(st.sampled_from("ab"), AWKWARD),
                min_size=1, max_size=6).filter(lambda n: n != DIAGNOSTICS_COLUMN)
ORACLE_DIAGNOSTICS = st.one_of(st.just(""), st.text(
    alphabet=st.one_of(st.sampled_from("xy "), AWKWARD), max_size=12),
    st.text(max_size=8))
META_VALUES = st.one_of(
    st.none(), st.floats(), st.text(max_size=4),
    st.tuples(st.floats(), st.integers()), st.lists(st.floats(), max_size=2))


@st.composite
def oracle_tables(draw):
    names = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    n_rows = draw(st.integers(0, 6))
    data = []
    for _ in names:
        cells = draw(COLUMN_CELLS)
        data.append(column([draw(cells) for _ in range(n_rows)]))
    diagnostics = [draw(ORACLE_DIAGNOSTICS) for _ in range(n_rows)]
    meta = draw(st.dictionaries(st.text(max_size=4), META_VALUES, max_size=3))
    return SweepResult(columns=tuple(names), data=data,
                       diagnostics=diagnostics, meta=meta)


@settings(max_examples=200, deadline=None)
@given(oracle_tables(), BLOCKS)
def test_json_bytes_equal_row_encoder(res, block_rows):
    with _blocks_of(block_rows):
        assert "".join(json_chunks(res)) == _oracle_json(res)


@settings(max_examples=200, deadline=None)
@given(oracle_tables(), BLOCKS)
def test_csv_bytes_equal_row_encoder(res, block_rows):
    with _blocks_of(block_rows):
        assert "".join(csv_chunks(res)) == _oracle_csv(res)


def _boundary_table(n_rows):
    """Floats with signed zeros, +-inf and NaN, a column of repeated values
    (one spelling per block), a flag column with NaN rows, a diagnostic in
    the last row only, and a column at the writers' 3/4 rule: a full block
    of it holds exactly 3/4 distinct floats, NaN and +-inf among them, so
    that its blocks of BLOCK_ROWS - 1 and BLOCK_ROWS rows fall on either
    side."""
    rng = np.random.default_rng(n_rows)
    floats = rng.normal(size=n_rows).tolist()
    floats[::5] = [SPECIAL[k % len(SPECIAL)] for k in range(0, n_rows, 5)]
    flags = [math.nan if k % 3 == 0 else bool(k % 2) for k in range(n_rows)]
    repeated = [float(k % 7) - 3.0 for k in range(n_rows)]
    distinct = 3 * BLOCK_ROWS // 4
    pool = [math.nan, math.inf, -math.inf, -0.0, *rng.normal(size=distinct - 4)]
    at_rule = [pool[k % BLOCK_ROWS % distinct] for k in range(n_rows)]
    diagnostics = [""] * n_rows
    if n_rows:
        diagnostics[-1] = "DomainError: last row, last block"
    return SweepResult(columns=("x", "flag", "r", "q"),
                       data=[column(floats), column(flags), column(repeated),
                             column(at_rule)],
                       diagnostics=diagnostics,
                       meta={"bound": math.inf})


@pytest.mark.parametrize("n_rows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS,
                                    BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
def test_bytes_equal_row_encoder_at_block_boundaries(n_rows, tmp_path):
    res = _boundary_table(n_rows)
    for fmt, oracle in (("csv", _oracle_csv), ("json", _oracle_json)):
        path = tmp_path / f"table.{fmt}"
        write_result(res, str(path), fmt)
        assert path.read_bytes() == oracle(res).encode("utf-8"), fmt


# ----- the CSV float spelling -----

HARD_FLOATS = ([float(f"1e{k}") for k in range(-323, 309)]
               + [1000000000000000.25,        # y = 1e16 + 2.5 exactly: a tie
                  2.0 ** 53 - 2, 2.0 ** 53 + 2, 5e-324, 2.2250738585072014e-308,
                  math.nextafter(2.2250738585072014e-308, 0.0),
                  1.7976931348623157e308])


def _hard_float_table():
    """Each power of ten, both its neighbours and the special values, with
    either sign, in a column of distinct cells (spelled cell by cell) and
    in one of each cell twice (spelled once per distinct cell)."""
    cells = [y for x in HARD_FLOATS
             for y in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))]
    cells += [-x for x in cells]
    twice = [cells[k // 2] for k in range(len(cells))]
    return SweepResult(columns=("x", "twice"), data=[column(cells), column(twice)],
                       diagnostics=[""] * len(cells))


def test_csv_bytes_equal_row_encoder_on_hard_floats():
    res = _hard_float_table()
    assert len(res.diagnostics) // 2 >= sweeps._NUMPY_SPELL_MIN
    assert "".join(csv_chunks(res)) == _oracle_csv(res)


def test_float_spelling_equals_builtin_on_random_bits(monkeypatch):
    near_ties = near_tie_doubles()
    cells = np.concatenate([random_doubles(7, 200_000), near_ties, [0.0, -0.0]])
    taken = []
    monkeypatch.setattr(sweeps, "_G17", lambda x: taken.append(x) or f"{x:.17g}")
    assert sweeps._spell_floats(cells) == [f"{x:.17g}" for x in cells.tolist()]
    assert [x.hex() for x in taken] == [x.hex() for x in near_ties + [0.0, -0.0]]


def test_float_spelling_survives_python_O():
    # the spelling's guards are if/raise, so python -O keeps them
    code = ("import numpy as np\n"
            "from oracles import near_tie_doubles, random_doubles\n"
            "from unruh_steer.sweeps import _spell_floats\n"
            "cells = np.concatenate([random_doubles(7, 200_000),\n"
            "                        near_tie_doubles()])\n"
            "print(_spell_floats(cells) == [f'{x:.17g}' for x in cells.tolist()])\n")
    path = os.pathsep.join([os.path.dirname(os.path.abspath(__file__)),
                            os.path.dirname(os.path.dirname(sweeps.__file__))])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.stdout.strip() == "True", proc.stderr
