"""Property test for the sweep writers: a SweepResult survives CSV and JSON.

Tables are drawn with float cells (NaN and +-inf included), bool cells and
free-text diagnostics, written with ``write_result`` and read back with
``load_csv`` and ``load_json``. Every cell must come back with its type and
value (NaN as NaN); CSV diagnostics come back with commas as semicolons.
"""

import math
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from unruh_steer.sweeps import (SweepResult, load_csv, load_json,  # noqa: E402
                                write_result)

CELLS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.booleans())
# printable ASCII: CSV is line based, so a diagnostic holds no line break
DIAGNOSTICS = st.one_of(st.just(""), st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=40))


@st.composite
def sweep_results(draw):
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 6))
    rows = [tuple(draw(CELLS) for _ in range(n_cols)) for _ in range(n_rows)]
    diagnostics = [draw(DIAGNOSTICS) for _ in range(n_rows)]
    meta = {"bound": draw(st.floats(allow_nan=False, allow_infinity=True))}
    return SweepResult(columns=tuple(f"c{i}" for i in range(n_cols)),
                       rows=rows, diagnostics=diagnostics, meta=meta)


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
