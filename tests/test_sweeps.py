"""Sweep engine: grids, whole-axis evaluation, emission."""

import json
import math
import os
import stat
import tracemalloc
from functools import partial

import numpy as np
import pytest

from oracles import read_csv, read_json
from unruh_steer import cli, steering, sweeps
from unruh_steer.errors import ConsistencyError, DomainError
from unruh_steer.model import (UnruhParams, kossakowski_boundary,
                               kossakowski_free)
from unruh_steer.qmat import matrix_to_fano, random_density_matrix
from unruh_steer.steering import (one_sided_mid, sic_closed_form_free,
                                  steering_induced_coherence, theorem1_residual)
from unruh_steer.sweeps import (BOUNDARY_COLUMNS, DIAGNOSTICS_COLUMN,
                                SIC_SWEEP_COLUMNS, SURFACE_COLUMNS,
                                THEOREM_COLUMNS, GridSpec,
                                SweepResult, _name_rows, csv_chunks,
                                eval_boundary, eval_sic_free, eval_surface,
                                json_chunks, plot_script, run_grid,
                                write_result)


def test_gridspec_parse_round_trip():
    g = GridSpec.parse("a:log:0.5:100:200")
    assert (g.name, g.scale, g.lo, g.hi, g.count) == ("a", "log", 0.5, 100.0, 200)
    assert GridSpec.parse(g.spec_string()) == g
    assert g.spec_string() == "a:log:0.5:100:200"
    # bounds keep every digit, so a recorded grid reproduces its rows
    fine = GridSpec.parse("a:log:0.123456789:10:3")
    assert fine.spec_string() == "a:log:0.123456789:10:3"
    assert GridSpec.parse(fine.spec_string()) == fine
    third = GridSpec("tau", "linear", -1.0 / 3.0, 1.0, 4)
    assert GridSpec.parse(third.spec_string()) == third


@pytest.mark.parametrize("bad", [
    "a:linear:1:0:5",       # min >= max
    "a:log:0:1:5",          # log needs positive min
    "a:linear:0:1:1",       # fewer than two points
    "q:linear:0:1:5",       # unknown parameter
    "a:cosine:0:1:5",       # unknown scale
    "a:linear:0:1",         # wrong arity
    "a:linear:x:1:5",       # non-numeric
    "a:log:0.5:inf:5",      # non-finite bound
    "tau:linear:-1e308:1e308:3",   # finite bounds, span overflows
    "a:linear:0:1:1000001",         # more rows than a table may hold
])
def test_gridspec_rejects(bad):
    with pytest.raises(DomainError):
        GridSpec.parse(bad)


def test_gridspec_values():
    lin = GridSpec.parse("tau:linear:-3:1:5").values()
    assert np.allclose(lin, [-3.0, -2.0, -1.0, 0.0, 1.0], atol=1e-15)
    log = GridSpec.parse("a:log:1:16:5").values()
    assert log[0] == 1.0 and log[-1] == 16.0
    assert np.allclose(np.diff(np.log(log)), math.log(2.0), atol=1e-12)


def _square(x, y):
    return (x * y, x - y), [""] * x.size


def _flaky_check(x, y):
    if x == 2.0 and y == 10.0:
        raise DomainError("bad, point")


def _flaky(x, y):
    # sums on the arrays; the row the mask refuses is made NaN and named by
    # the scalar check through the step the package's evaluators use
    columns = [x + y]
    return columns, _name_rows(columns, (x == 2.0) & (y == 10.0),
                               _flaky_check, x, y)


def test_run_grid_serial_rows():
    res = run_grid([("x", [1.0, 2.0]), ("y", [10.0, 20.0, 30.0])],
                   _square, ("prod", "diff"))
    assert res.columns == ("x", "y", "prod", "diff")
    assert len(res.rows) == 6
    # lexicographic order, first axis outermost
    assert res.rows[0] == (1.0, 10.0, 10.0, -9.0)
    assert res.rows[3] == (2.0, 10.0, 20.0, -8.0)
    assert not res.has_diagnostics


def test_run_grid_guards_package_errors():
    res = run_grid([("x", [1.0, 2.0]), ("y", [10.0, 20.0])], _flaky, ("s",))
    assert res.has_diagnostics
    bad = res.rows[2]
    assert bad[:2] == (2.0, 10.0) and math.isnan(bad[2])
    assert res.diagnostics[2] == "DomainError: bad, point"
    assert res.diagnostics[0] == ""
    assert res.rows[3] == (2.0, 20.0, 22.0)
    # the step only names refused rows: one its check accepts is a mask at
    # fault, and no cell changes
    columns = [np.array([11.0])]
    with pytest.raises(ConsistencyError, match="^row 0: the array mask"):
        _name_rows(columns, np.array([True]), _flaky_check, np.array([1.0]),
                   np.array([10.0]))
    assert columns[0].tolist() == [11.0]


def test_run_grid_rejects_mismatched_columns():
    with pytest.raises(ConsistencyError):
        run_grid([("x", [1.0, 2.0])], lambda x: ((x,), [""]), ("y",))
    with pytest.raises(ConsistencyError):
        run_grid([("x", [1.0, 2.0])], lambda x: ((x,), [""] * 2), ("y", "z"))
    with pytest.raises(ConsistencyError):
        run_grid([("x", [1.0, 2.0])], lambda x: ((x[:1],), [""] * 2), ("y",))


def test_run_grid_refuses_a_column_that_changes_dtype(monkeypatch):
    # blocks of 2 rows: a flag column may turn object in a later block, as
    # NaN flags make it, but a float column may not turn into flags
    monkeypatch.setattr(sweeps, "BLOCK_ROWS", 2)

    def flags_from_row_2(x):
        return [x, (x > 2.0).astype(object if x[0] > 2.0 else bool)], [""] * x.size

    res = run_grid([("x", [1.0, 2.0, 3.0])], flags_from_row_2, ("y", "f"))
    assert res.column("f").tolist() == [False, False, True]
    assert [type(flag) for flag in res.column("f")] == [bool] * 3
    with pytest.raises(ConsistencyError, match="'y' changes from float64 to bool"):
        run_grid([("x", [1.0, 2.0, 3.0])],
                 lambda x: ([x if x[0] < 2.0 else x > 2.0], [""] * x.size),
                 ("y",))


def test_table_is_column_major():
    res = SweepResult(columns=("x", "y"),
                      data=[np.array([1.0, 2.0]), np.array([True, False])],
                      diagnostics=["", "bad"])
    assert res.column("y") is res.data[1]
    assert res.rows == [(1.0, True), (2.0, False)]
    with pytest.raises(ConsistencyError):
        SweepResult(columns=("x", "y"), data=[np.array([1.0])],
                    diagnostics=[""])
    with pytest.raises(ConsistencyError):
        SweepResult(columns=("x",), data=[np.array([1.0, 2.0])],
                    diagnostics=[""])


@pytest.mark.parametrize("cells", [
    [1.0, 2.0],                                # a list, not an array
    np.array([1, 2]),                          # int64
    np.array([1.0, 2.0], dtype=np.float32),    # not float64
    np.array(["1", "2"]),                      # text
    np.array([[1.0, 2.0]]),                    # 2-D
], ids=["list", "int64", "float32", "str", "2-D"])
def test_table_columns_are_float_bool_or_object_arrays(cells):
    with pytest.raises(ConsistencyError):
        SweepResult(columns=("x",), data=[cells], diagnostics=["", ""])
    with pytest.raises(ConsistencyError):
        run_grid([("x", [1.0, 2.0])], lambda x: ((cells,), [""] * 2), ("y",))
    for dtype in (float, bool, object):
        SweepResult(columns=("x",), data=[np.zeros(2, dtype=dtype)],
                    diagnostics=["", ""])


def test_eval_sic_free_row():
    (ratio, sic), diag = eval_sic_free(1.0, np.array([0.5]),
                                       np.array([2.0 * math.pi]))
    k = kossakowski_free(UnruhParams(1.0, 2.0 * math.pi))
    assert ratio.tolist() == [k.ratio]
    assert sic.tolist() == [sic_closed_form_free(0.5, k.ratio)]
    assert diag == [""]


def test_eval_surface_flags_singularity():
    values, diag = eval_surface(np.array([1.0]), np.array([1.0]))
    assert diag == ["singular"]
    assert math.isnan(values[0][0]) and math.isnan(values[1][0])
    assert values[2][0].item() is False and values[3][0].item() is False


def test_eval_surface_refusal_outranks_singularity():
    # inside the 1e-12 singular gate and past the leaf's upper end: the row
    # is refused, named by check_leaf, with NaN flags
    tau, ratio = 1.0 + 1e-9, 1.0 - 5e-10
    assert steering.coherence_sum_terms(tau, ratio)[2]
    values, diag = eval_surface(np.array([tau]), np.array([ratio]))
    assert diag == ["DomainError: tau = 1.000000001 outside [-3, 1]"]
    assert all(math.isnan(column[0]) for column in values)
    assert values[2].dtype == values[3].dtype == object


def test_csv_format(tmp_path):
    res = run_grid([("x", [1.0 / 3.0, 2.0])], lambda x: ((x,), [""] * x.size),
                   ("y",))
    text = "".join(csv_chunks(res))
    lines = text.split("\n")
    assert lines[0] == "x,y"
    assert "0.33333333333333331" in lines[1]  # 17 significant digits
    assert text.endswith("\n") and "\r" not in text
    assert DIAGNOSTICS_COLUMN not in text


# the writers spell a float block one distinct value at a time where at most
# 3/4 of its cells are distinct, else cell by cell: a case for each branch
BRANCHES = ["few-distinct", "all-distinct"]


@pytest.mark.parametrize("cells, text", [
    ([-0.0, 0.0, -0.0, 0.0], ["-0", "0", "-0", "0"]),
    ([-0.0, 0.0, 1.5], ["-0", "0", "1.5"])], ids=BRANCHES)
def test_signed_zero_keeps_its_text(monkeypatch, cells, text):
    # -0.0 == 0.0 must not merge
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    res = SweepResult(columns=("x",), data=[np.array(cells)],
                      diagnostics=[""] * len(cells))
    assert "".join(csv_chunks(res)).split("\n")[1:-1] == text
    rows = json.loads("".join(json_chunks(res)))["rows"]
    assert ([math.copysign(1.0, row["x"]) for row in rows]
            == [math.copysign(1.0, x) for x in cells])


def test_csv_diagnostics_column_and_booleans():
    res = run_grid([("x", [1.0, 2.0]), ("y", [10.0, 20.0])], _flaky, ("s",))
    text = "".join(csv_chunks(res))
    assert text.split("\n")[0] == f"x,y,s,{DIAGNOSTICS_COLUMN}"
    assert "DomainError: bad; point" in text  # commas sanitized
    bres = run_grid([("a", [2.0, 4.0])],
                    lambda a: ((a > 3.0,), [""] * a.size), ("big",))
    btext = "".join(csv_chunks(bres))
    assert "false" in btext and "true" in btext


def test_csv_round_trip(tmp_path):
    res = run_grid([("x", [1.0, 2.0]), ("y", [10.0, 20.0])], _flaky, ("s",))
    path = str(tmp_path / "out.csv")
    write_result(res, path, "csv")
    back = read_csv(path)
    assert back.columns == res.columns
    # commas inside diagnostics are sanitized on the way out
    assert back.diagnostics == [d.replace(",", ";") for d in res.diagnostics]
    for got, want in zip(back.rows, res.rows):
        for g, w in zip(got, want):
            assert g == w or (math.isnan(g) and math.isnan(w))


def test_json_round_trip_and_meta(tmp_path, monkeypatch):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    res = run_grid([("x", [1.0, 2.0])],
                   lambda x: ((2.0 * x, x > 1.5), [""] * x.size),
                   ("d", "flag"), meta={"axes": ["x"]})
    path = str(tmp_path / "out.json")
    write_result(res, path, "json")
    payload = json.loads(open(path).read())
    assert payload["meta"]["timestamp"] == "1970-01-01T00:00:00Z"
    assert payload["meta"]["version"]
    assert payload["rows"][1] == {"x": 2.0, "d": 4.0, "flag": True}
    back = read_json(path)
    assert back.columns == res.columns
    assert back.rows == [tuple(r) for r in res.rows]


def test_json_is_strict_on_flagged_rows(tmp_path):
    # the surface grid hits the singular point (1, 1), a flagged NaN row
    res = run_grid([("tau", [0.0, 1.0]), ("R", [0.5, 1.0])], eval_surface,
                   SURFACE_COLUMNS)
    assert res.diagnostics[3] == "singular"

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    path = str(tmp_path / "surface.json")
    write_result(res, path, "json")
    with open(path, encoding="utf-8") as handle:
        payload = json.loads(handle.read(), parse_constant=reject)
    assert payload["rows"][3]["literal"] is None
    assert payload["rows"][3]["absolute"] is None
    back = read_json(path)
    assert math.isnan(back.rows[3][2]) and math.isnan(back.rows[3][3])
    assert back.rows[:3] == res.rows[:3]


@pytest.mark.parametrize("repeats", [4, 1], ids=BRANCHES)
def test_json_maps_every_non_finite_float(tmp_path, repeats):
    # three rows, each column 3 distinct floats, written 4 times or once
    x = [math.inf, math.nan, -math.inf]
    y = [-math.inf, 1.0, math.nan]
    res = SweepResult(columns=("x", "y"),
                      data=[np.array(x * repeats), np.array(y * repeats)],
                      diagnostics=[""] * 3 * repeats,
                      meta={"bounds": [-math.inf, math.inf], "gap": math.nan})
    text = "".join(json_chunks(res))
    assert "Infinity" not in text and "NaN" not in text
    payload = json.loads(text)
    assert payload["rows"] == [{"x": "inf", "y": "-inf"}, {"x": None, "y": 1.0},
                               {"x": "-inf", "y": None}] * repeats
    assert payload["meta"]["bounds"] == ["-inf", "inf"]
    assert payload["meta"]["gap"] is None
    path = str(tmp_path / "out.json")
    write_result(res, path, "json")
    back = read_json(path)
    assert back.rows[0] == (math.inf, -math.inf)
    assert math.isnan(back.rows[1][0]) and back.rows[1][1] == 1.0
    assert back.meta["bounds"] == [-math.inf, math.inf]


def test_json_timestamp_honors_source_date_epoch(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    res = SweepResult(columns=("x",), data=[np.array([1.0])], diagnostics=[""])
    assert '"timestamp": "2023-11-14T22:13:20Z"' in "".join(json_chunks(res))


def test_write_result_reports_path_on_failure(tmp_path):
    res = SweepResult(columns=("x",), data=[np.array([1.0])], diagnostics=[""])
    missing = str(tmp_path / "nope" / "out.csv")
    with pytest.raises(OSError, match="nope"):
        write_result(res, missing, "csv")
    (tmp_path / "folder").mkdir()
    with pytest.raises(OSError, match="folder: Is a directory"):
        write_result(res, str(tmp_path / "folder"), "csv", plot="x")
    assert sorted(os.listdir(tmp_path)) == ["folder"]
    with pytest.raises(DomainError):
        write_result(res, str(tmp_path / "x.bin"), "parquet")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_result_is_all_or_nothing(tmp_path, fmt):
    # the last cell of the second block has no text: nothing may change
    n = sweeps.BLOCK_ROWS + 904
    bad = SweepResult(columns=("x",),
                      data=[np.array([0.5] * (n - 1) + [object()],
                                     dtype=object)],
                      diagnostics=[""] * n, meta={"axes": ["x"]})
    path = tmp_path / f"table.{fmt}"
    path.write_text("old table\n")
    (tmp_path / f"table.{fmt}.gp").write_text("old script\n")
    with pytest.raises(TypeError):
        write_result(bad, str(path), fmt, plot="x")
    assert path.read_text() == "old table\n"
    assert (tmp_path / f"table.{fmt}.gp").read_text() == "old script\n"
    assert sorted(os.listdir(tmp_path)) == [f"table.{fmt}", f"table.{fmt}.gp"]
    # a good table replaces both files, with the mode a plain open gives
    good = SweepResult(columns=("x",), data=[np.full(n, 0.5)],
                       diagnostics=[""] * n, meta={"axes": ["x"]})
    fresh = tmp_path / "fresh"
    assert write_result(good, str(fresh), fmt, plot="x") == [
        str(fresh), str(fresh) + ".gp"]
    assert write_result(good, str(path), fmt, plot="x") == [
        str(path), str(path) + ".gp"]
    assert path.read_bytes() == fresh.read_bytes()
    assert (tmp_path / f"table.{fmt}.gp").read_text() != "old script\n"
    plain = tmp_path / "plain"
    with open(plain, "w"):
        pass
    assert os.stat(fresh).st_mode == os.stat(plain).st_mode
    # through a symlink, as through open(path, "w"), the target is written
    link = tmp_path / "link"
    link.symlink_to(plain)
    write_result(good, str(link), fmt)
    assert link.is_symlink() and plain.read_bytes() == fresh.read_bytes()
    assert sorted(os.listdir(tmp_path)) == [
        "fresh", "fresh.gp", "link", "plain", f"table.{fmt}", f"table.{fmt}.gp"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_write_result_writes_a_fifo_in_place(tmp_path):
    # a FIFO (like a device) is written through, not replaced by a file
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        res = SweepResult(columns=("x",), data=[np.array([1.0])],
                          diagnostics=[""])
        assert write_result(res, str(fifo), "csv") == [str(fifo)]
        assert os.read(reader, 1024) == b"x\n1\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


def test_plot_script_shapes(tmp_path):
    line = SweepResult(columns=("a", "sic"),
                       data=[np.array([1.0]), np.array([2.0])],
                       diagnostics=[""], meta={"axes": ["a"]})
    text = plot_script(line, "data.csv", "csv", "sic")
    assert "plot 'data.csv'" in text and "splot" not in text
    surf = SweepResult(columns=("tau", "R", "literal"),
                       data=[np.zeros(1), np.zeros(1), np.zeros(1)],
                       diagnostics=[""], meta={"axes": ["tau", "R"]})
    assert "splot 'data.csv'" in plot_script(surf, "data.csv", "csv", "literal")


def test_write_result_with_plot(tmp_path):
    res = SweepResult(columns=("a", "sic"),
                      data=[np.array([1.0, 2.0]), np.array([2.0, 1.0])],
                      diagnostics=["", ""], meta={"axes": ["a"]})
    path = str(tmp_path / "sweep.csv")
    written = write_result(res, path, "csv", plot="sic")
    assert written == [path, path + ".gp"]
    assert os.path.exists(path + ".gp")


def test_sic_rows_in_the_infinite_temperature_limit():
    # omega = 1e-300: x = 2 pi omega / a is 0 at a = inf and by underflow at
    # a = 1e300, and subnormal at a = 1e20; each row reads R = 0, sic = |tau|/3
    taus = np.repeat([-3.0, -1.0, 0.0, 0.5, 1.0], 3)
    accels = np.tile([math.inf, 1e300, 1e20], 5)
    (ratio, sic), diagnostics = eval_sic_free(1e-300, taus, accels)
    assert diagnostics == [""] * 15 and ratio.tolist() == [0.0] * 15
    assert sic.tolist() == (np.abs(taus) / 3.0).tolist()


@pytest.mark.parametrize("omega, accel, coefficient", [
    (1.0, math.inf, "A1 = inf"), (1e-300, math.inf, "A1 = nan"),
    (1e-300, 1e300, "A1 = nan")])
def test_boundary_limit_point_fails_the_coefficient_bound(omega, accel,
                                                          coefficient):
    # a = inf, or 2 pi omega / a underflowing to 0, makes the thermal factor
    # inf; the mirror criterion refuses A1 before D
    _, diagnostics = eval_boundary(omega, np.array([accel]), np.array([1.0]),
                                   np.array([1.0]))
    assert diagnostics == [f"DomainError: boundary coefficient {coefficient}:"
                           " D needs each finite and below 1e+102 in"
                           " magnitude"]


def test_boundary_eval_columns():
    values, diag = eval_boundary(1.0, np.array([2.0 * math.pi]),
                                 np.array([1.0]), np.array([1.0]))
    assert len(values) == len(BOUNDARY_COLUMNS)
    assert values[-1].dtype == bool and values[-1].tolist() == [False]
    assert diag == [""]


@pytest.mark.parametrize("omega", [-1e300, -math.inf, math.inf, math.nan,
                                   0.0, 5e-324])
def test_boundary_refused_omega_raises_nothing(omega):
    # every row is refused and computed at its own inputs: at omega =
    # -1e300, x = 2 pi omega / a is -inf, where the thermal factor is NaN,
    # and an infinite image-point argument has sinc 0; nothing raises
    accel, z, sep = (np.array([1.0, math.inf]), np.array([1.0, 1e200]),
                     np.array([1.0, math.inf]))
    _, diagnostics = eval_boundary(omega, accel, z, sep)
    for diag, a, height, distance in zip(diagnostics, accel, z, sep):
        with pytest.raises(DomainError) as exc:
            kossakowski_boundary(UnruhParams(omega, a), height, distance)
        assert diag == f"DomainError: {exc.value}"


def test_theorem_rows_solve_each_sic_once(monkeypatch, tmp_path):
    # theorem-check makes one sic_rows call per block of states, which
    # serves both the SIC and the MID, with the values the two public
    # functions give separately
    calls = []

    def counted(vectors, solve=steering.sic_rows):
        calls.append(np.size(vectors) // 15)   # rows of the stack
        return solve(vectors)

    monkeypatch.setattr(steering, "sic_rows", counted)
    monkeypatch.setattr(sweeps, "BLOCK_ROWS", 2)
    path = str(tmp_path / "theorem.csv")
    assert cli.main(["theorem-check", "--seed", "3", "--count", "5",
                     "--out", path]) == 0
    assert calls == [2, 2, 1]
    table = read_csv(path)
    sic, mid, residual = (table.column(name) for name in THEOREM_COLUMNS)
    calls.clear()
    rng = np.random.default_rng(3)
    states = [matrix_to_fano(random_density_matrix(rng)) for _ in range(5)]
    assert theorem1_residual(states[0]) == residual[0]
    assert calls == [1]
    monkeypatch.undo()
    for k, state in enumerate(states):
        assert sic[k] == steering_induced_coherence(state)
        assert mid[k] == one_sided_mid(state)
        assert residual[k] == abs(sic[k] - mid[k])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_holds_one_block_of_text(tmp_path, fmt):
    # a 300x300 surface is 8.3 MB of CSV and 19.5 MB of JSON; the writer
    # may hold the text of one block, never the whole file's (45-75 MB)
    axis = np.linspace(-3.0, 1.0, 300), np.linspace(0.0, 1.0, 300)
    res = run_grid((("tau", axis[0]), ("R", axis[1])), eval_surface,
                   SURFACE_COLUMNS)
    tracemalloc.start()
    try:
        write_result(res, str(tmp_path / f"surface.{fmt}"), fmt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000, f"{fmt} writer peaked at {peak / 1e6:.1f} MB"


def test_table_holds_one_array_per_column():
    # a 300x300 surface table, six columns of 90000 cells and a list of
    # diagnostics, is 3.8 MB as arrays and 13.7 MB as lists of Python cells
    axis = np.linspace(-3.0, 1.0, 300), np.linspace(0.0, 1.0, 300)
    tracemalloc.start()
    try:
        res = run_grid((("tau", axis[0]), ("R", axis[1])), eval_surface,
                       SURFACE_COLUMNS)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 6_000_000, f"the table holds {held / 1e6:.1f} MB"
    assert [cells.dtype for cells in res.data] == [np.dtype(float)] * 4 + [
        np.dtype(bool)] * 2


def _excess_peak(evaluate):
    """The result of ``evaluate()`` and its traced peak minus the bytes
    still held once it returns, the result's."""
    tracemalloc.start()
    try:
        result = evaluate()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - held


def test_fig3_surface_holds_one_block_of_transients():
    # the fig3 table holds 10.5 MB; evaluated whole, its transients (one
    # "singular"/"" unicode array of 8 MB among them) peaked 12.2 MB above
    axes = [(grid.name, grid.values()) for grid in
            cli.PRESETS["steerability-surface"]["fig3"]["grid"]]
    res, excess = _excess_peak(
        lambda: run_grid(axes, eval_surface, SURFACE_COLUMNS))
    assert len(res.diagnostics) == 250_000
    assert excess < 4_000_000, f"{excess / 1e6:.1f} MB above the table"


def test_boundary_scan_holds_one_block_of_transients(deadline):
    # a 50^3 scan's table holds 13.8 MB; evaluated whole, its transients
    # peaked 27 MB above it
    axes = [(name, GridSpec(name, "log", lo, hi, 50).values())
            for name, lo, hi in (("a", 0.1, 100.0), ("z", 0.1, 10.0),
                                 ("L", 0.01, 10.0))]
    res, excess = _excess_peak(
        lambda: run_grid(axes, partial(eval_boundary, 1.0), BOUNDARY_COLUMNS))
    assert len(res.diagnostics) == 125_000
    assert excess < 4_000_000, f"{excess / 1e6:.1f} MB above the table"


def _cells(result):
    """Each column's dtype and cells, bit for bit (an object column's cell
    by cell, with its type), and the diagnostics."""
    return ([(cells.dtype, cells.tobytes() if cells.dtype != object
              else [(type(cell), repr(cell)) for cell in cells.tolist()])
             for cells in result.data], result.diagnostics)


# grid, evaluator, output columns, the flag columns' dtype and the rows
# with a diagnostic; the rows the scalar checks refuse come last, past a
# first block of 1, 2 or 3 rows they accept, and the first surface holds
# the singular point (1, 1)
BLOCKED = {
    "surface": ((("tau", [0.5, 1.0, 1.5]), ("R", [0.5, 1.0])), eval_surface,
                SURFACE_COLUMNS, object, [3, 4, 5]),
    "surface-clean": ((("tau", [-1.0, 0.0]), ("R", [0.0, 0.5, 0.75])),
                      eval_surface, SURFACE_COLUMNS, bool, []),
    "sic": ((("tau", [-1.0, 0.5, 2.0]), ("a", [1.0, 10.0])),
            partial(eval_sic_free, 1.0), SIC_SWEEP_COLUMNS, None, [4, 5]),
    # DenominatorZero at a = 0.05, DegenerateLimit at z = 1e-9
    "boundary": ((("a", [0.05, 2.0 * math.pi, -1.0]), ("z", [0.5, 1e-9]),
                  ("L", [0.1, 1.0])), partial(eval_boundary, 1.0),
                 BOUNDARY_COLUMNS, object, [0, 1, 2, 3, 6, 7, 8, 9, 10, 11]),
    "boundary-clean": ((("a", [1.0, 2.0 * math.pi]), ("z", [0.5, 1.0]),
                        ("L", [0.1, 1.0])), partial(eval_boundary, 1.0),
                       BOUNDARY_COLUMNS, bool, []),
}
FLAG_COLUMNS = ("exceeds_literal", "exceeds_absolute", "satisfied")


@pytest.mark.parametrize("case", BLOCKED)
def test_run_grid_cells_do_not_depend_on_the_block_size(monkeypatch, case):
    axes, evaluator, columns, flags, flagged = BLOCKED[case]
    n = math.prod(len(values) for _, values in axes)
    sizes = []

    def counted(*flat):
        sizes.append(flat[0].size)
        return evaluator(*flat)

    tables = {}
    for rows in (1, 2, 3, 4096):
        monkeypatch.setattr(sweeps, "BLOCK_ROWS", rows)
        sizes.clear()
        tables[rows] = _cells(run_grid(axes, counted, columns))
        assert sizes == [rows] * (n // rows) + [n % rows] * (n % rows > 0)
    assert all(table == tables[4096] for table in tables.values())
    data, diagnostics = tables[4096]
    assert [dtype for dtype, _ in data[len(axes):]] == [
        np.dtype(flags if name in FLAG_COLUMNS else float) for name in columns]
    assert [i for i, diag in enumerate(diagnostics) if diag] == flagged
