"""Property tests for the sweep writers.

Round trip: tables are drawn with float cells (NaN and +-inf included), bool
cells and free-text diagnostics, written with ``write_result`` and read back
with ``load_csv`` and ``load_json``. Every cell must come back with its type
and value (NaN as NaN); CSV diagnostics come back with commas as semicolons.

Byte oracle: ``result_to_json`` and ``result_to_csv`` must give the same
bytes as the row-at-a-time encoders they replaced (kept below as
``_oracle_json`` and ``_oracle_csv``), on tables with signed zeros,
subnormals, NaN and +-inf, bool columns holding NaN, int cells, awkward
column names and diagnostics, zero rows, and meta with tuples, None and inf.
"""

import json
import math
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from unruh_steer import __version__  # noqa: E402
from unruh_steer.sweeps import (DIAGNOSTICS_COLUMN, SweepResult,  # noqa: E402
                                _timestamp, _to_json, load_csv, load_json,
                                result_to_csv, result_to_json, write_result)

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


@settings(max_examples=60, deadline=None)
@given(sweep_results())
def test_csv_and_json_round_trip(res):
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "out.csv")
        json_path = os.path.join(tmp, "out.json")
        write_result(res, csv_path, "csv")
        write_result(res, json_path, "json")
        from_csv = load_csv(csv_path)
        from_json = load_json(json_path)
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
@given(oracle_tables())
def test_json_bytes_equal_row_encoder(res):
    assert result_to_json(res) == _oracle_json(res)


@settings(max_examples=200, deadline=None)
@given(oracle_tables())
def test_csv_bytes_equal_row_encoder(res):
    assert result_to_csv(res) == _oracle_csv(res)
