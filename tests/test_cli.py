"""End-to-end CLI behavior: parsing, exit codes, output formats, determinism.

Most tests drive main() in process for speed; one subprocess test covers the
real interpreter entry point. argparse-level usage errors raise SystemExit
(code 64 via the custom parser), handler-level ones return 64.
"""

import json
import math
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import read_json
from unruh_steer import cli, model
from unruh_steer.cli import EXIT_DOMAIN, EXIT_IO, EXIT_USAGE, main
from unruh_steer.model import (UnruhParams, equilibrium_free, kossakowski_free,
                               relaxation_horizon)
from unruh_steer.qmat import (PHYSICALITY_TOL, fano_matrices, fano_vectors,
                              first_below, matrix_to_fano,
                              random_density_matrix)
from unruh_steer.steering import (one_sided_mid, sic_closed_form_free,
                                  steering_induced_coherence)
from unruh_steer.sweeps import BLOCK_ROWS


def _csv_rows(text):
    lines = [ln for ln in text.strip().split("\n")]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


def test_version(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "unruh-steer" in capsys.readouterr().out


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == EXIT_USAGE


def test_unknown_option_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["node", "--tau", "0.25", "--frobnicate"])
    assert info.value.code == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["node", "--tau", "0.25", "--frobnicate"],
    ["equilibrium", "--accel", "2", "--tau", "0.5", "--plot"],
    ["evolve", "--accel", "1", "extra"],
])
def test_unknown_argument_shows_the_subcommand_usage(capsys, argv):
    # the subcommand's own usage line and prog name, not the top level's
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: unruh-steer {argv[0]} [-h]")
    assert captured.err.endswith(f"unruh-steer {argv[0]}: error: unrecognized"
                                 f" arguments: {argv[-1]}\n")


def test_node_output(capsys):
    assert main(["node", "--tau", "0.25"]) == 0
    err = capsys.readouterr().err
    assert "5.71920173" in err
    assert "sic(a*)" in err


def test_node_without_node(capsys):
    assert main(["node", "--tau", "-1"]) == 0
    assert "no steering node" in capsys.readouterr().err
    assert main(["node", "--tau", "1"]) == 0
    assert "zero-acceleration limit" in capsys.readouterr().err


def test_node_domain_error(capsys):
    assert main(["node", "--tau", "1.5"]) == EXIT_DOMAIN
    assert "error" in capsys.readouterr().err


def test_equilibrium_free_csv(capsys):
    a = 2.0 * math.pi
    assert main(["equilibrium", "--accel", str(a), "--tau", "0"]) == 0
    header, rows = _csv_rows(capsys.readouterr().out)
    assert header[:4] == ["omega", "a", "tau", "R"]
    assert len(rows) == 1
    k = kossakowski_free(UnruhParams(1.0, a))
    eq = equilibrium_free(0.0, k.ratio)
    assert float(rows[0]["R"]) == pytest.approx(k.ratio, abs=1e-15)
    assert float(rows[0]["bz"]) == pytest.approx(eq.b_vec[2], abs=1e-15)
    assert float(rows[0]["tzz"]) == pytest.approx(eq.t_mat[2, 2], abs=1e-15)


def test_equilibrium_boundary_csv(capsys):
    assert main(["equilibrium", "--accel", "6.283185307179586",
                 "--z", "1", "--sep", "1"]) == 0
    header, rows = _csv_rows(capsys.readouterr().out)
    assert header == ["omega", "a", "z", "L", "R", "tau", *cli.STATE_COLUMNS]
    r = float(rows[0]["R"])
    assert float(rows[0]["tau"]) == r * r
    state = equilibrium_free(r * r, r).to_vector()
    assert [float(rows[0][name]) for name in cli.STATE_COLUMNS] == list(state)


def test_one_ratio_for_free_space_and_the_mirror(capsys):
    # B1 / A1 = B2 / A2 = tanh(pi omega / a) for every z, L > 0, so the
    # mirror record carries the free-space ratio bit for bit, also at
    # z = 1e-9, where A1 rounds to 0; the mirror equilibrium row is then
    # the same bytes from its R column on for every geometry
    rng = np.random.default_rng(27)
    for accel in (10.0 ** rng.uniform(-1.0, 2.0, 200)).tolist():
        params = UnruhParams(1.0, accel)
        ratio = kossakowski_free(params).ratio
        geometries = [(1e-9, 1.0), (1.0, 1.0),
                      *(10.0 ** rng.uniform(-2.0, 1.0, (4, 2))).tolist()]
        tails = set()
        for z, sep in geometries:
            assert model.kossakowski_boundary(params, z, sep).ratio == ratio
            assert main(["equilibrium", f"--accel={accel!r}", f"--z={z!r}",
                         f"--sep={sep!r}"]) == 0
            row = capsys.readouterr().out.splitlines()[1]
            tails.add(row.split(",", 4)[4])
        assert len(tails) == 1, (accel, tails)


@pytest.mark.parametrize("argv", [
    ["equilibrium", "--accel", "2", "--tau", "0.5"],
    ["equilibrium", "--accel", "inf", "--tau", "0.5"],
    ["equilibrium", "--accel", "inf", "--tau=-0.0"],
    ["equilibrium", "--accel", "2", "--z", "1", "--sep", "1"],
    ["equilibrium", "--accel", "2", "--z", "1e-9", "--sep", "1"],
    ["evolve", "--accel", "2", "--init", "ground"],
    ["evolve", "--accel", "2", "--init", "excited"],
    ["evolve", "--accel", "2", "--init", "singlet"],
    ["evolve", "--accel", "2", "--init", "tau-mixed", "--tau=-1"],
    ["evolve", "--accel", "2", "--init", "tau-mixed", "--tau=-0.0"],
], ids=lambda argv: " ".join(argv[1:]))
def test_state_cells_have_no_negative_zero(capsys, argv):
    # a zero coefficient is written 0, not -0, in every row
    assert main(argv) == 0
    _, rows = _csv_rows(capsys.readouterr().out)
    assert "-0" not in [row[name] for row in rows for name in cli.STATE_COLUMNS]


def test_equilibrium_boundary_rejects_out_of_range_tau(capsys):
    # the mirror equilibrium sits on the leaf tau = R^2, so --tau, in range
    # or not, is a usage error with --z and --sep
    for tau in ("7", "0.5"):
        assert main(["equilibrium", "--accel", "2", "--z", "1", "--sep", "1",
                     "--tau", tau]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("unruh-steer: error: --tau is not taken with"
                                " --z and --sep: the mirror equilibrium sits"
                                " on tau = R^2\n")


def test_equilibrium_usage_errors(capsys):
    assert main(["equilibrium", "--accel", "2"]) == EXIT_USAGE
    assert main(["equilibrium", "--tau", "0"]) == EXIT_USAGE
    assert main(["equilibrium", "--accel", "2", "--z", "1"]) == EXIT_USAGE


def test_evolve_singlet(capsys):
    assert main(["evolve", "--accel", "6.283185307179586", "--init", "singlet",
                 "--t-end", "2", "--samples", "5"]) == 0
    captured = capsys.readouterr()
    landed = re.search(r"converged = True \(distance to equilibrium (\S+)\)",
                       captured.err)
    assert landed and float(landed.group(1)) < 1e-12
    header, rows = _csv_rows(captured.out)
    assert header[0] == "t" and header[-1] == "tau"
    assert len(rows) == 5
    assert all(float(r["tau"]) == -3.0 for r in rows)
    assert float(rows[-1]["txx"]) == -1.0


def test_evolve_json_reports_landing(capsys):
    assert main(["evolve", "--accel", "6.283185307179586", "--format", "json"]) == 0
    captured = capsys.readouterr()
    meta = json.loads(captured.out)["meta"]
    assert "t_converged" not in meta
    assert meta["converged"] is True and 0.0 < meta["landing"] < 1e-6
    assert f"distance to equilibrium {meta['landing']:.3e}" in captured.err


def test_evolve_meta_reports_integrated_span(capsys):
    # t_end is the last sample time: the horizon by default, 0 for a single
    # sample; step is the sample interval, 0 for a single sample as well
    horizon = relaxation_horizon(kossakowski_free(UnruhParams(1.0, 2.0)))
    for samples, t_end, step in (("1", 0.0, 0.0), ("2", horizon, horizon),
                                 ("201", horizon, horizon / 200)):
        assert main(["evolve", "--accel", "2", "--samples", samples,
                     "--format", "json"]) == 0
        meta = json.loads(capsys.readouterr().out)["meta"]
        assert meta["t_end"] == t_end and meta["samples"] == int(samples)
        assert meta["step"] == step


@pytest.mark.parametrize("argv", [
    ["evolve", "--accel", "2", "--samples", "-1"],
    ["evolve", "--accel", "2", "--samples", "0"],
    ["theorem-check", "--count", "0"],
    ["theorem-check", "--count", "-3"],
])
def test_nonpositive_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_USAGE
    assert "must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "1.5", "x", "\u00b2"])
def test_bad_seed_is_usage_error(capsys, seed):
    with pytest.raises(SystemExit) as info:
        main(["theorem-check", "--seed", seed, "--count", "2"])
    assert info.value.code == EXIT_USAGE
    assert "must be an integer >= 0" in capsys.readouterr().err


def test_evolve_requires_accel(capsys):
    assert main(["evolve", "--init", "singlet"]) == EXIT_USAGE


def test_evolve_tau_mixed_requires_tau(capsys):
    assert main(["evolve", "--accel", "2", "--init", "tau-mixed"]) == EXIT_USAGE


@pytest.mark.parametrize("init", ["ground", "excited", "singlet"])
def test_evolve_tau_needs_tau_mixed(capsys, init):
    # only the tau-mixed initial state reads --tau
    assert main(["evolve", "--accel", "2", "--init", init,
                 "--tau", "0.7"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "--init tau-mixed" in captured.err


def test_sic_sweep_values(capsys):
    assert main(["sic-sweep", "--tau", "0.5", "--grid", "a:log:1:100:5"]) == 0
    header, rows = _csv_rows(capsys.readouterr().out)
    assert header == ["tau", "a", "R", "sic"]
    assert len(rows) == 5
    for row in rows:
        a = float(row["a"])
        assert float(row["R"]) == pytest.approx(math.tanh(math.pi / a), abs=1e-12)
        assert float(row["sic"]) == pytest.approx(
            sic_closed_form_free(0.5, math.tanh(math.pi / a)), abs=1e-12)


def test_sic_sweep_comma_list_with_negatives(capsys):
    # a leading negative number in a comma list needs the --opt=value form
    assert main(["sic-sweep", "--tau=-1,0.5", "--grid", "a:log:1:10:3"]) == 0
    _, rows = _csv_rows(capsys.readouterr().out)
    assert len(rows) == 6
    assert sorted({row["tau"] for row in rows}) == ["-1", "0.5"]


def test_sic_sweep_flags_out_of_range_tau(capsys):
    assert main(["sic-sweep", "--tau=1.5,0.5", "--grid", "a:log:1:10:2"]) == 0
    lines = capsys.readouterr().out.split("\n")
    assert lines[0] == "tau,a,R,sic,diagnostics"
    assert lines[1] == "1.5,1,nan,nan,DomainError: tau = 1.5 outside [-3; 1]"
    assert lines[2] == "1.5,10,nan,nan,DomainError: tau = 1.5 outside [-3; 1]"
    assert lines[3].startswith("0.5,1,") and lines[3].endswith(",")


def test_sic_sweep_wrong_grid_name(capsys):
    assert main(["sic-sweep", "--tau", "0.5",
                 "--grid", "tau:linear:0:1:5"]) == EXIT_USAGE


def test_sic_sweep_bad_grid_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["sic-sweep", "--tau", "0.5", "--grid", "a:log:0:1:5"])
    assert info.value.code == EXIT_USAGE


def test_tau_sweep_values(capsys):
    assert main(["tau-sweep", "--accel", "2", "--grid",
                 "tau:linear:-3:1:9"]) == 0
    header, rows = _csv_rows(capsys.readouterr().out)
    assert header == ["a", "tau", "R", "sic"]
    assert len(rows) == 9
    r = math.tanh(math.pi / 2.0)
    for row in rows:
        assert float(row["sic"]) == pytest.approx(
            sic_closed_form_free(float(row["tau"]), r), abs=1e-12)


@pytest.mark.parametrize("argv", [
    ["sic-sweep", "--omega", "0", "--tau", "0.5", "--grid", "a:log:1:10:3"],
    ["tau-sweep", "--omega", "nan", "--accel", "2",
     "--grid", "tau:linear:-3:1:3"],
    ["boundary-scan", "--omega", "-1", "--grid", "a:log:1:2:2",
     "--grid", "z:log:0.5:1:2", "--grid", "L:log:0.5:1:2"],
    ["sic-sweep", "--omega", "inf", "--preset", "fig1"],
    ["sic-sweep", "--omega", "0", "--preset", "fig1", "--plot"],
])
def test_sweep_rejects_bad_omega(capsys, argv):
    # omega is one value for the whole grid: a domain error, not flagged
    # rows; it is checked before --plot without --out
    assert main(argv) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "omega must be positive and finite" in captured.err


@pytest.mark.parametrize("argv", [
    ["sic-sweep", "--preset", "fig1", "--tau", "0.5"],
    ["sic-sweep", "--preset", "fig1", "--grid", "a:log:1:2:3"],
    ["tau-sweep", "--preset", "fig2", "--accel", "2"],
    ["steerability-surface", "--preset", "fig3",
     "--grid", "tau:linear:-3:1:5", "--grid", "R:linear:0:1:5"],
])
def test_preset_conflicts_with_its_options(capsys, argv):
    # a preset sets --tau/--accel/--grid itself; giving one too is a usage
    # error rather than an option silently overridden
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--preset {argv[2]} sets" in captured.err


def _refusal(argv, capsys):
    """Exit code and error line of a run that prints one error line on
    stderr and nothing on stdout."""
    try:
        code = main(argv)
    except SystemExit as exc:   # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if ": error: " in line]
    assert captured.out == "" and len(errors) == 1, captured
    assert captured.err.endswith(errors[0] + "\n")
    return code, errors[0]


@pytest.mark.parametrize("argv, message", [
    (["sic-sweep", "--tau=,", "--grid", "a:log:1:2:3"],
     "argument --tau: empty number list"),
    (["sic-sweep", "--tau=abc", "--grid", "a:log:1:2:3"],
     "argument --tau: bad number list 'abc'"),
    (["sic-sweep", "--grid", "a:log:1:2:3"],
     "--tau list is required (or use --preset fig1)"),
    (["tau-sweep", "--grid", "tau:linear:-1:0:2"],
     "--accel list is required (or use --preset fig2)"),
])
def test_sweep_value_lists_are_usage_errors(capsys, argv, message):
    code, line = _refusal(argv, capsys)
    assert code == EXIT_USAGE and line.endswith(f": error: {message}")


@pytest.mark.parametrize("argv", [
    ["steerability-surface", "--grid", "tau:linear:-1e308:1e308:3",
     "--grid", "R:linear:0:1:2"],
    ["tau-sweep", "--accel", "1", "--grid", "tau:linear:-1e308:1e308:3"],
], ids=["steerability-surface", "tau-sweep"])
def test_grid_span_must_be_finite(capsys, argv):
    # both bounds are finite, but linspace divides max - min, which
    # overflows: the axis would read nan, inf and 1e+308
    code, line = _refusal(argv, capsys)
    assert code == EXIT_USAGE
    assert line.endswith(": error: argument --grid: grid span max - min"
                         " must be finite")


@pytest.mark.parametrize("argv, limit, code, rows", [
    (["steerability-surface", "--grid", "tau:linear:-3:1:601",
      "--grid", "R:linear:0:1:2"], 600, EXIT_USAGE, 601),
    (["sic-sweep", "--tau=0.5,0.25", "--grid", "a:log:1:2:301"],
     600, EXIT_DOMAIN, 602),
    (["boundary-scan", "--grid", "a:log:1:2:30", "--grid", "z:log:0.5:1:20",
      "--grid", "L:log:0.5:1:2"], 600, EXIT_DOMAIN, 1200),
    (["theorem-check", "--count", "601"], 600, EXIT_DOMAIN, 601),
    (["theorem-check", "--count", "1000001"], None, EXIT_DOMAIN, 1000001),
], ids=["grid-count", "sic-sweep", "boundary-scan", "theorem-check",
        "theorem-check-1e6"])
def test_tables_refuse_rows_above_the_limit(capsys, monkeypatch, argv, limit,
                                            code, rows):
    # evolve's MAX_SAMPLES bounds every table, before the grid is spread or
    # a state drawn; shrunk by patching, as test_model does for evolve
    def refuse(*args, **kwargs):
        raise AssertionError("work ran past the row limit")

    if limit is not None:
        monkeypatch.setattr(model, "MAX_SAMPLES", limit)
    monkeypatch.setattr(np, "meshgrid", refuse)
    monkeypatch.setattr(cli, "random_density_matrix", refuse)
    got, line = _refusal(argv, capsys)
    assert got == code
    assert line.endswith(f"{rows} rows exceed the limit of"
                         f" {limit or 10**6:.0e} per table")


def test_table_at_the_row_limit(capsys, monkeypatch):
    monkeypatch.setattr(model, "MAX_SAMPLES", 600)
    assert main(["steerability-surface", "--grid", "tau:linear:-3:1:300",
                 "--grid", "R:linear:0:1:2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 601   # header + 600


def test_surface_summary(capsys):
    assert main(["steerability-surface", "--grid", "tau:linear:-3:1:5",
                 "--grid", "R:linear:0:1:5"]) == 0
    captured = capsys.readouterr()
    lines = captured.err.strip().split("\n")
    assert lines[0].startswith("max literal f = 1 at (tau = 1, R = 0)")
    assert "NOT exceeded" in lines[0]
    assert lines[1].startswith("max absolute f = 3 at (tau = -3,")
    assert "EXCEEDED" in lines[1]
    header, rows = _csv_rows(captured.out)
    assert header[-1] == "diagnostics"  # the (1, 1) corner is flagged
    flagged = [r for r in rows if r["diagnostics"]]
    assert len(flagged) == 1
    assert flagged[0]["tau"] == "1" and flagged[0]["R"] == "1"


def test_boundary_scan(capsys):
    assert main(["boundary-scan",
                 "--grid", "a:log:1:10:3",
                 "--grid", "z:log:0.5:2:3",
                 "--grid", "L:log:0.1:1:3"]) == 0
    captured = capsys.readouterr()
    assert "satisfied at 0 of 27 points" in captured.err
    header, rows = _csv_rows(captured.out)
    assert all(row["satisfied"] == "false" for row in rows)


@pytest.mark.parametrize("argv, message", [
    (["equilibrium", "--z", "1e200", "--sep", "1", "--accel", "1"],
     "an image-point distance times omega overflows"),
])
def test_argument_overflow_and_underflow_are_domain_errors(capsys, argv,
                                                            message):
    # sin(inf) used to escape as a traceback; an underflowing thermal
    # argument is the infinite-temperature limit (see below)
    assert main(argv) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"unruh-steer: error: {message}\n"


@pytest.mark.parametrize("argv, flagged, message", [
    (["boundary-scan", "--grid", "a:log:1:2:2",
      "--grid", "z:log:1e200:1e201:2", "--grid", "L:log:1:2:2"], 8,
     "an image-point distance times omega overflows"),
    (["boundary-scan", "--grid", "a:log:1:2:2", "--grid", "z:log:1:1e308:2",
      "--grid", "L:log:1:2:2"], 4,
     "an image-point distance times omega overflows"),
])
def test_sweeps_flag_argument_overflow_and_underflow(capsys, argv, flagged,
                                                     message):
    assert main(argv) == 0
    _, rows = _csv_rows(capsys.readouterr().out)
    diagnostics = [row["diagnostics"] for row in rows if row["diagnostics"]]
    assert diagnostics == [f"DomainError: {message}"] * flagged


@pytest.mark.parametrize("argv", [
    ["equilibrium", "--omega", "1e-300", "--accel", "1e300", "--tau", "0.5"],
    ["sic-sweep", "--omega", "1e-300", "--tau", "0.5",
     "--grid", "a:log:1e299:1e300:2"],
    ["sic-sweep", "--omega", "1e-300", "--tau", "0.5",
     "--grid", "a:log:1e20:2e20:2"],
    ["tau-sweep", "--omega", "1e-300", "--accel", "inf,1e300,1e20",
     "--grid", "tau:linear:-3:1:3"],
], ids=["equilibrium", "sic-sweep-underflow", "sic-sweep-subnormal",
        "tau-sweep"])
def test_infinite_temperature_limit_rows(capsys, argv):
    # 2 pi omega / a at 0 (a = inf, or by underflow) or subnormal: the
    # limit R = 0, sic = |tau| / 3, in rows without a diagnostic
    assert main(argv) == 0
    captured = capsys.readouterr()
    header, rows = _csv_rows(captured.out)
    assert captured.err == "" and "diagnostics" not in header and rows
    for row in rows:
        assert row["R"] == "0"
        if "sic" in row:
            assert float(row["sic"]) == abs(float(row["tau"])) / 3.0


@pytest.mark.parametrize("params", [
    ["--accel", "inf"],                      # A1 = inf: infinite temperature
    ["--accel", "1e300"],                    # A1 ~ 1e298
    ["--omega", "1e200", "--accel", "1"],    # A1 ~ 8e198
    ["--omega", "1e-300", "--accel", "1e20"],   # A1 = NaN, inf times 0
    ["--omega", "1e110", "--accel", "1e110"],   # A1 ~ 8e108
], ids=["a-inf", "a-1e300", "omega-1e200", "omega-1e-300", "omega-1e110"])
def test_mirror_equilibrium_needs_no_bound_on_the_coefficients(capsys,
                                                               params):
    # coefficients too large for the mirror criterion's D: the equilibrium
    # needs only R, and is the free-space state on the leaf tau = R^2 with
    # the same cells, R = 0 at infinite temperature
    assert main(["equilibrium", "--z", "1", "--sep", "1"] + params) == 0
    mirror = _csv_rows(capsys.readouterr().out)[1][0]
    tau = repr(float(mirror["R"]) ** 2)
    assert main(["equilibrium", "--tau", tau] + params) == 0
    free = _csv_rows(capsys.readouterr().out)[1][0]
    for name in ("R",) + cli.STATE_COLUMNS:
        assert mirror[name] == free[name], name


@pytest.mark.parametrize("argv", [
    ["boundary-scan", "--grid", "a:log:1e290:1e300:2",
     "--grid", "z:log:1:2:2", "--grid", "L:log:1:2:2"],
    ["boundary-scan", "--omega", "1e-300", "--grid", "a:log:1e20:2e20:2",
     "--grid", "z:log:1:2:2", "--grid", "L:log:1:2:2"],
])
def test_boundary_scan_flags_coefficients_that_overflow_d(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "satisfied at 0 of 8 points (8 rows flagged)" in captured.err
    _, rows = _csv_rows(captured.out)
    assert len(rows) == 8
    for row in rows:
        assert re.fullmatch(r"DomainError: boundary coefficient A1 = \S+: D"
                            r" needs each finite and below 1e\+102 in"
                            r" magnitude", row["diagnostics"]), row
        assert row["value"] == "nan" and row["satisfied"] == "nan"


def test_free_space_takes_infinite_thermal_factor_as_zero_ratio(capsys):
    # 2 pi omega / a = 6e-320 makes the thermal factor infinite: R = 0, the
    # infinite-temperature limit, is a valid row there
    assert main(["sic-sweep", "--omega", "1e-300", "--tau", "0.5",
                 "--grid", "a:log:1e20:2e20:2"]) == 0
    _, rows = _csv_rows(capsys.readouterr().out)
    assert [(row["R"], row["sic"]) for row in rows] == [
        ("0", "0.16666666666666666")] * 2


def test_theorem_check_deterministic(capsys):
    assert main(["theorem-check", "--seed", "5", "--count", "3"]) == 0
    first = capsys.readouterr()
    assert main(["theorem-check", "--seed", "5", "--count", "3"]) == 0
    second = capsys.readouterr()
    assert first.out == second.out
    assert "max |sic - mid|" in first.err
    _, rows = _csv_rows(first.out)
    assert all(float(r["residual"]) < 1e-4 for r in rows)


def test_theorem_check_blocks_match_the_single_state_api(capsys):
    # BLOCK_ROWS + 3 states: a full block and a short one, each with one
    # gate and one sic_mid_rows call; the rows on either side of the seam,
    # and the first ones, have the text of the per-state functions
    count = BLOCK_ROWS + 3
    assert main(["theorem-check", "--seed", "2", "--count", str(count)]) == 0
    _, rows = _csv_rows(capsys.readouterr().out)
    assert len(rows) == count
    rng = np.random.default_rng(2)
    states = [matrix_to_fano(random_density_matrix(rng)) for _ in range(count)]
    for k in [*range(4), *range(BLOCK_ROWS - 8, count)]:
        sic, mid = steering_induced_coherence(states[k]), one_sided_mid(states[k])
        assert (rows[k]["sic"], rows[k]["mid"], rows[k]["residual"]) == (
            f"{sic:.17g}", f"{mid:.17g}", f"{abs(sic - mid):.17g}"), k


def test_theorem_check_holds_a_block_of_states(tmp_path, capsys, monkeypatch,
                                              deadline):
    # 20,000 states peak at 5.3 MB: one block's transients beside 24 B a
    # state of columns. A list of every state's coefficients holds ~390 B
    # a state and peaks at 7.9 MB. Each draw is a fresh copy of one state:
    # tracing the RNG's allocations takes most of the deadline and leaves
    # nothing held.
    state = random_density_matrix(np.random.default_rng(0))
    monkeypatch.setattr(cli, "random_density_matrix", lambda rng: state.copy())
    tracemalloc.start()
    try:
        assert main(["theorem-check", "--count", "20000",
                     "--out", str(tmp_path / "theorem.csv")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6_800_000, f"theorem-check peaked at {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("seed", range(10))
def test_theorem_check_gate_certifies_drawn_and_rebuilt_blocks(seed):
    # the gate reads the drawn stack, not the matrices rebuilt from its
    # coefficients; on these blocks both certify, so the choice moves no row
    rng = np.random.default_rng(seed)
    drawn = np.array([random_density_matrix(rng) for _ in range(BLOCK_ROWS)])
    assert first_below(drawn, PHYSICALITY_TOL) is None
    rebuilt = fano_matrices(fano_vectors(drawn))
    assert first_below(rebuilt, PHYSICALITY_TOL) is None


def test_theorem_check_stops_at_a_non_state(capsys, monkeypatch):
    # random_density_matrix draws states only; a drawn non-state stops the
    # command with the gate's NotPositive instead of flagging a row
    monkeypatch.setattr(cli, "random_density_matrix",
                        lambda rng: np.diag([0.5, 0.6, 0.0, -0.1]).astype(complex))
    got, line = _refusal(["theorem-check", "--count", "3"], capsys)
    assert got == EXIT_DOMAIN
    assert line == "unruh-steer: error: state has min eigenvalue -1.000e-01"


def test_out_file_json(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    out = str(tmp_path / "sweep.json")
    assert main(["sic-sweep", "--tau", "0.5", "--grid", "a:log:1:10:4",
                 "--out", out]) == 0
    assert f"wrote {out}" in capsys.readouterr().out
    payload = json.load(open(out))
    assert payload["meta"]["command"] == "sic-sweep"
    assert payload["meta"]["timestamp"] == "2023-11-14T22:13:20Z"
    assert len(payload["rows"]) == 4


@pytest.mark.parametrize("epoch", ["abc", "1.5", "99999999999999"])
def test_malformed_source_date_epoch(epoch, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    assert main(["equilibrium", "--tau", "0.5", "--accel", "1",
                 "--format", "json"]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("unruh-steer: error: SOURCE_DATE_EPOCH")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["node", "--tau", "0.5", "--omega", "1e308"],
    ["node", "--tau", "1e-300", "--omega", "1e200"],
    ["evolve", "--accel", "1", "--t-end", "1", "--samples", "1000001"],
    ["evolve", "--accel", "1e200", "--t-end", "1e308"],
], ids=["node-omega", "node-tau", "evolve-samples", "evolve-overflow"])
def test_unbounded_results_are_domain_errors(tmp_path, capsys, deadline, argv):
    # a node at infinite acceleration, more samples than fit, or a sample
    # interval whose product with the generator's norm overflows: exit 2
    # with one error line, nothing on stdout, no file
    path = tmp_path / "out.csv"
    assert main([*argv, "--out", str(path)]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == "" and not path.exists()
    assert captured.err.startswith("unruh-steer: error:")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("t_end", ["1e9", "1e300"],
                         ids=["evolve-1e9", "evolve-1e300"])
def test_long_evolve_horizons_converge(capsys, deadline, t_end):
    # the exact propagator costs ~log2(t_end |M|) matrix products, so a long
    # horizon runs at once and lands on the equilibrium
    assert main(["evolve", "--accel", "1", "--t-end", t_end]) == 0
    captured = capsys.readouterr()
    assert "converged = True" in captured.err
    assert "nan" not in captured.out


@pytest.mark.parametrize("argv", [
    ["evolve", "--omega", "5e-324", "--accel", "5e-324", "--samples", "2"],
    ["tau-sweep", "--omega", "5e-324", "--accel", "1e-300",
     "--grid=tau:linear:-1:0:2"],
    ["evolve", "--omega", "5e-324", "--accel", "1"],
], ids=["evolve-tiny-accel", "tau-sweep", "evolve"])
def test_omega_whose_coefficient_scale_underflows(capsys, argv):
    # omega / (4 pi), the scale of A and B, underflows to 0: the error names
    # omega, not a division by zero or a non-finite A it leads to
    assert main(argv) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("unruh-steer: error: omega = 5e-324")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["evolve", "--omega", "1e-310", "--accel", "1", "--samples", "2"],
    ["evolve", "--omega", "1e-322", "--accel", "1", "--samples", "2"],
    ["evolve", "--accel", "inf", "--samples", "2"],
], ids=["omega-1e-310", "omega-1e-322", "accel-inf"])
def test_evolve_names_the_infinite_unruh_temperature(capsys, argv):
    # A = inf where accel = inf, or where 2 pi omega / accel is subnormal
    # and the thermal factor overflows: the error names that limit, not a
    # positive finite A
    assert main(argv) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("unruh-steer: error: the Unruh temperature"
                                   " is infinite, so A = inf")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("tau", ["inf", "-inf"])
def test_evolve_tau_mixed_at_infinite_tau(capsys, tau):
    # inf * 0 off the diagonal of the initial state used to print a numpy
    # RuntimeWarning above the error line
    assert main(["evolve", "--accel", "1", "--init", "tau-mixed",
                 f"--tau={tau}"]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("unruh-steer: error: FanoState coefficients must"
                            " be finite\n")


def test_evolve_tau_mixed_off_the_leaf(capsys):
    # the state is not positive, but the error names the tau the user gave
    assert main(["evolve", "--accel", "1", "--init", "tau-mixed",
                 "--tau", "1.5"]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "unruh-steer: error: tau = 1.5 outside [-3, 1]\n"


@pytest.mark.parametrize("out", [True, False])
def test_failed_header_writes_nothing(tmp_path, capsys, monkeypatch, out):
    # the JSON header holds the timestamp, made before the file is opened
    # and before the first byte reaches stdout
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "abc")
    path = tmp_path / "e.json"
    argv = ["--out", str(path)] if out else ["--format", "json"]
    assert main(["sic-sweep", "--preset", "fig1", *argv]) == EXIT_DOMAIN
    assert not path.exists()
    assert capsys.readouterr().out == ""


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def test_equilibrium_json_at_infinite_acceleration(capsys):
    assert main(["equilibrium", "--accel", "inf", "--tau", "0.5",
                 "--format", "json"]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["meta"]["accel"] == "inf"
    assert payload["rows"][0]["a"] == "inf"
    assert payload["rows"][0]["R"] == 0.0


def test_tau_sweep_json_at_infinite_acceleration(tmp_path, capsys):
    out = str(tmp_path / "sweep.json")
    assert main(["tau-sweep", "--accel", "1,inf", "--grid",
                 "tau:linear:-3:1:11", "--format", "json", "--out", out]) == 0
    payload = _strict_json(open(out).read())
    assert payload["meta"]["accel"] == [1.0, "inf"]
    assert [row["a"] for row in payload["rows"]] == [1.0] * 11 + ["inf"] * 11
    back = read_json(out)
    assert back.meta["accel"] == [1.0, math.inf]
    assert back.column("a").tolist() == [1.0] * 11 + [math.inf] * 11


def test_jobs_do_not_change_bytes(tmp_path, monkeypatch, capsys):
    # --jobs is gone, so it is a usage error; UNRUH_STEER_JOBS is not read
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    base = ["sic-sweep", "--tau=-2,0.5", "--grid", "a:log:0.5:50:11",
            "--format", "json"]
    with pytest.raises(SystemExit) as info:
        main(base + ["--jobs", "2"])
    assert info.value.code == EXIT_USAGE
    outputs = []
    for jobs_env in (None, "abc"):
        if jobs_env is None:
            monkeypatch.delenv("UNRUH_STEER_JOBS", raising=False)
        else:
            monkeypatch.setenv("UNRUH_STEER_JOBS", jobs_env)
        path = str(tmp_path / f"out{len(outputs)}.json")
        assert main(base + ["--out", path]) == 0
        outputs.append(open(path, "rb").read())
    assert outputs[0] == outputs[1]


_EVERY_COMMAND = {
    "equilibrium": ["--accel", "2", "--tau", "0.5"],
    "evolve": ["--accel", "2", "--samples", "2"],
    "sic-sweep": ["--tau", "0.5", "--grid", "a:log:1:10:2"],
    "tau-sweep": ["--accel", "2", "--grid", "tau:linear:-3:1:2"],
    "steerability-surface": ["--grid", "tau:linear:-3:1:2",
                             "--grid", "R:linear:0:1:2"],
    "boundary-scan": ["--grid", "a:log:1:2:2", "--grid", "z:log:0.5:1:2",
                      "--grid", "L:log:0.5:1:2"],
    "node": ["--tau", "0.25"],
    "theorem-check": ["--count", "2"],
}

# command -> the column its --plot script draws
_PLOTTED = {"evolve": "az", "sic-sweep": "sic", "tau-sweep": "sic",
            "steerability-surface": "literal", "boundary-scan": "value",
            "theorem-check": "sic"}


@pytest.mark.parametrize("command", sorted(_PLOTTED))
def test_plot_requires_out(capsys, command):
    assert main([command, *_EVERY_COMMAND[command], "--plot"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--plot requires --out" in captured.err


@pytest.mark.parametrize("argv, evaluator", [
    (["steerability-surface", "--preset", "fig3"], "eval_surface"),
    (["sic-sweep", "--preset", "fig1"], "eval_sic_free"),
    (["boundary-scan", "--grid", "a:log:1:2:2", "--grid", "z:log:0.5:1:2",
      "--grid", "L:log:0.5:1:2"], "eval_boundary"),
], ids=["steerability-surface", "sic-sweep", "boundary-scan"])
def test_plot_is_refused_before_any_work(capsys, monkeypatch, argv, evaluator):
    # fig3 alone is 250,000 points: --plot without --out is a usage error
    # before the evaluator runs, not after
    calls = []

    def refuse(*args):
        calls.append(args)
        raise AssertionError(f"{evaluator} ran")

    monkeypatch.setattr(cli, evaluator, refuse)
    assert main([*argv, "--plot"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and not calls
    assert captured.err == "unruh-steer: error: --plot requires --out\n"


def test_node_format_without_out_prints_strict_json(capsys):
    # without --out, node writes its table to stdout like every command,
    # and its sentence to stderr
    assert main(["node", "--tau", "0.25", "--format", "json"]) == 0
    captured = capsys.readouterr()
    payload = _strict_json(captured.out)
    assert payload["meta"]["command"] == "node"
    assert payload["rows"] == [{"tau": 0.25, "a_star": 5.719201734760255,
                                "sic": 0.0}]
    assert captured.err.startswith("steering node at a = 5.71920173")


def test_plot_script_written(tmp_path, capsys):
    out = str(tmp_path / "sweep.csv")
    assert main(["sic-sweep", "--tau", "0.5", "--grid", "a:log:1:10:4",
                 "--out", out, "--plot"]) == 0
    assert open(out + ".gp").read().startswith("# gnuplot script")


@pytest.mark.parametrize("command, drawn, using", [
    ("sic-sweep", "sic", "1:2:4"),
    ("tau-sweep", "sic", "1:2:4"),
    ("boundary-scan", "value", "2:3:10"),
])
def test_plot_script_draws_the_command_column(tmp_path, capsys, command,
                                              drawn, using):
    # the script draws the column the command names, not the first output
    # column (R of the SIC sweeps, A1 of the boundary scan)
    out = tmp_path / "table.csv"
    assert main([command, *_EVERY_COMMAND[command], "--out", str(out),
                 "--plot"]) == 0
    last = (tmp_path / "table.csv.gp").read_text().splitlines()[-1]
    assert last == f"splot 'table.csv' using {using}"
    header = out.read_text().splitlines()[0].split(",")
    assert header[int(using.split(":")[-1]) - 1] == drawn


@pytest.mark.parametrize("command", sorted(_PLOTTED))
def test_plot_script_draws_a_column_that_varies(tmp_path, capsys, command):
    # the last index of the script's "using" is the command's column, and
    # that column is not constant on the table (evolve's ax is 0 throughout)
    out = tmp_path / "table.csv"
    assert main([command, *_EVERY_COMMAND[command], "--out", str(out),
                 "--plot"]) == 0
    last = (tmp_path / "table.csv.gp").read_text().splitlines()[-1]
    using = last.split(" using ")[1].split()[0]
    header, rows = _csv_rows(out.read_text())
    assert header[int(using.split(":")[-1]) - 1] == _PLOTTED[command]
    assert len({row[_PLOTTED[command]] for row in rows}) > 1


@pytest.mark.parametrize("command", ["equilibrium", "node"])
def test_one_row_tables_take_no_plot(tmp_path, capsys, command):
    # a one-row table has nothing to draw
    out = tmp_path / "table.csv"
    code, line = _refusal([command, *_EVERY_COMMAND[command], "--out",
                           str(out), "--plot"], capsys)
    assert code == EXIT_USAGE
    assert line.endswith(": error: unrecognized arguments: --plot")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", sorted(_EVERY_COMMAND))
def test_json_meta_layout(tmp_path, capsys, command):
    # meta opens with the command; axes names the leading columns and is
    # the last key before the version and the timestamp
    out = tmp_path / "table.json"
    assert main([command, *_EVERY_COMMAND[command], "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    keys = list(payload["meta"])
    assert keys[0] == "command" and payload["meta"]["command"] == command
    assert keys[-3:] == ["axes", "version", "timestamp"]
    axes = payload["meta"]["axes"]
    assert axes == list(payload["rows"][0])[:len(axes)]


def test_out_io_error(tmp_path, capsys):
    missing = str(tmp_path / "no" / "dir" / "x.csv")
    assert main(["sic-sweep", "--tau", "0.5", "--grid", "a:log:1:10:4",
                 "--out", missing]) == EXIT_IO
    assert "io error" in capsys.readouterr().err


def test_interpreter_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "unruh_steer.cli", "node", "--tau", "0.25"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "5.71920173" in proc.stderr


def _readme_cli_examples():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("unruh-steer ")]


@pytest.mark.parametrize("argv", _readme_cli_examples(),
                         ids=lambda argv: argv[0])
def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
