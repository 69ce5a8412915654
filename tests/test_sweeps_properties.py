"""Property tests for the sweep writers.

Round trip: tables are drawn with float cells (NaN and +-inf included), bool
cells and free-text diagnostics, written with ``write_result`` and read back
with ``read_csv`` and ``read_json`` of ``oracles.py``, the JSON reader
rejecting non-standard tokens. Every cell must come back with its type and
value (NaN as NaN); CSV diagnostics come back with commas as semicolons.

Byte oracle: ``json_chunks`` and ``csv_chunks`` must give the same
bytes as the row-at-a-time encoders they replaced (kept below as
``_oracle_json`` and ``_oracle_csv``), on tables with signed zeros,
subnormals, NaN and +-inf, bool columns holding NaN, int cells, awkward
column names and diagnostics, zero rows, and meta with tuples, None and inf.
The writers emit the table in blocks of ``BLOCK_ROWS`` rows: the drawn
tables are written with blocks of 1, 2 and 3 rows as well, and fixed tables
sit on either side of one and two block boundaries.
"""

import contextlib
import json
import math
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oracles import read_csv, read_json  # noqa: E402
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
    data = [[draw(CELLS) for _ in range(n_rows)] for _ in range(n_cols)]
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
COLUMN_CELLS = st.sampled_from([
    FLOATS,                                           # float column
    st.booleans(),                                    # flag column
    st.one_of(st.booleans(), st.just(math.nan)),      # flag column, NaN rows
    st.one_of(FLOATS, st.integers(-10**20, 10**20)),  # ints among floats
])
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
        data.append([draw(cells) for _ in range(n_rows)])
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
    (one spelling per block), a flag column with NaN rows, and a diagnostic
    in the last row only."""
    rng = np.random.default_rng(n_rows)
    floats = rng.normal(size=n_rows).tolist()
    floats[::5] = [SPECIAL[k % len(SPECIAL)] for k in range(0, n_rows, 5)]
    flags = [math.nan if k % 3 == 0 else bool(k % 2) for k in range(n_rows)]
    repeated = [float(k % 7) - 3.0 for k in range(n_rows)]
    diagnostics = [""] * n_rows
    if n_rows:
        diagnostics[-1] = "DomainError: last row, last block"
    return SweepResult(columns=("x", "flag", "r"),
                       data=[floats, flags, repeated], diagnostics=diagnostics,
                       meta={"bound": math.inf})


@pytest.mark.parametrize("n_rows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS,
                                    BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
def test_bytes_equal_row_encoder_at_block_boundaries(n_rows, tmp_path):
    res = _boundary_table(n_rows)
    for fmt, oracle in (("csv", _oracle_csv), ("json", _oracle_json)):
        path = tmp_path / f"table.{fmt}"
        write_result(res, str(path), fmt)
        assert path.read_bytes() == oracle(res).encode("utf-8"), fmt
