"""Byte gate: the figure CSVs match the sha256 digests the benchmark records.

The four CSV commands of ``bench/workloads.py``'s ``FIGURE_COMMANDS`` run
through ``cli.main`` into a temporary directory; their digests must equal
``bench/digests.json``, which this test reads and never writes. The fig3
JSON must match the digest pinned here and read back equal to the fig3 CSV,
two ``evolve`` outputs and seven sweeps with flagged rows must match the
digests pinned here, and so must the ``sic`` column of one ``theorem-check``
run. The ``evolve`` samples must also follow the hand-written equations of
motion. Four of the flagged sweeps pin flag columns that carry NaN. The nine
pins that do not depend on the machine's kernels must also hold in a child
process run with another OpenBLAS kernel or without some of numpy's SIMD
loops.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import exact_trajectory, read_csv, read_json
from unruh_steer.cli import STATE_COLUMNS, main
from unruh_steer.model import UnruhParams, kossakowski_free

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while it executes
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads


WORKLOADS = _load_workloads()
DIGESTS = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
CSV_COMMANDS = [(name, argv, out) for name, argv, out
                in WORKLOADS.FIGURE_COMMANDS if out.endswith(".csv")]
FIG3 = ["steerability-surface", "--preset", "fig3"]
# fig3 JSON with SOURCE_DATE_EPOCH unset, as the row-at-a-time encoder
# (json.dumps of one dict per row, indent=2) wrote it
FIG3_JSON_SHA256 = (
    "fa5bf8f9af2ac4374091e88be74255f6ff19119aff6a8d346959548180919c13")

# evolve outputs with SOURCE_DATE_EPOCH=1700000000, as the exact propagator
# (einsum products, numpy's own loops) of the generator built from the
# Kossakowski matrix writes them
EVOLVE_SHA256 = {
    ("--init", "excited", "--accel", "1", "--format", "csv"):
        "8556977c54dc6e3864a7e4bc943181511f455b8674f6d36c99aa816ad0708cc0",
    ("--init", "tau-mixed", "--tau", "0.5", "--accel", "2", "--format", "json"):
        "03d5663565358cdf9bcdd4c3b0cb516b7f703975baf834b3260a38b3420cb82d",
}

# sweeps with flagged rows (out-of-range tau and accel, NaN tau) and with
# accelerations at the ends of the float range, with SOURCE_DATE_EPOCH=
# 1700000000, as the array evaluator with its flagged-row pass wrote them;
# of the bench digests only the boundary scan holds flagged rows (1200
# DenominatorZero rows where R rounds to 1). The boundary scan and the surface
# below have flag columns with NaN on their flagged rows (out-of-range
# inputs, DegenerateLimit and DenominatorZero; the singular point), as the
# evaluators wrote them into lists of Python cells
BOUNDARY_FLAGGED = ("boundary-scan", "--grid", "a:linear:-0.05:0.15:5",
                    "--grid", "z:linear:0:1:3", "--grid", "L:log:1e-9:2:3")
SURFACE_FLAGGED = ("steerability-surface", "--grid", "tau:linear:-4:2:7",
                   "--grid", "R:linear:-1:2:4")
FLAGGED_SWEEP_SHA256 = {
    ("sic-sweep", "--tau=-4,-1,0.5,2,nan", "--grid", "a:log:0.5:100:50"):
        "f9dce0a94aa3304ceafc7f54303272e0523a65ea979e2f9c0468272f35c03480",
    ("tau-sweep", "--accel=-1,0,1,inf", "--grid", "tau:linear:-4:2:61"):
        "197d5f0d32af81eb5e32f99676b7b7d778b991712fbbd78da51c25657d0aa1a4",
    ("sic-sweep", "--tau=-1,0.5", "--grid", "a:log:1e-300:1e300:40",
     "--format", "json"):
        "80be63dab03ea58efc659535c1971f174c25403319383a1517cc474fd704ddb3",
    BOUNDARY_FLAGGED:
        "b5a91ca359a6a23cc20b9447bc8db51b06d6ccadbf24c48d2b6177ddf36896c5",
    (*BOUNDARY_FLAGGED, "--format", "json"):
        "1080ecb50d19fe391a97784fcb92e467d7713ab4cd571422dcde6d82c44ba105",
    SURFACE_FLAGGED:
        "66bfd9ed59bf467f955f6cb1c5c18fac643554dbe49635f41ee58ea039e83aa0",
    (*SURFACE_FLAGGED, "--format", "json"):
        "f0451b5a80aca9f2edec9190da64442688f6a96be65993d82edf50882b81ec3d",
}

# the sic cells of theorem-check --seed 0 --count 200 (CSV, joined by
# newlines), as written while MID still dephased with 4x4 projectors; the
# mid and residual columns may move in the last ulp
THEOREM_SIC_SHA256 = (
    "3017cb4c5e2311b59a8eb6d43ce8c1a37aee6c055b586f21c314a9a0b05d7c75")


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0


def test_every_digest_has_a_command():
    assert sorted(name for name, _, _ in CSV_COMMANDS) == sorted(DIGESTS)


@pytest.mark.parametrize("name, argv, out", CSV_COMMANDS,
                         ids=[name for name, _, _ in CSV_COMMANDS])
def test_figure_csv_matches_recorded_digest(tmp_path, name, argv, out):
    path = tmp_path / out
    _run(list(argv) + ["--out", str(path)])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[name]


def test_fig3_json_matches_pinned_digest_and_csv(tmp_path, monkeypatch):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    json_path, csv_path = tmp_path / "fig3.json", tmp_path / "fig3.csv"
    _run(FIG3 + ["--format", "json", "--out", str(json_path)])
    assert hashlib.sha256(json_path.read_bytes()).hexdigest() == FIG3_JSON_SHA256
    _run(FIG3 + ["--out", str(csv_path)])
    assert WORKLOADS.compare_json_to_csv(str(json_path), str(csv_path)) is None


@pytest.mark.parametrize("argv", list(EVOLVE_SHA256),
                         ids=["excited-csv", "tau-mixed-json"])
def test_evolve_matches_pinned_digest(tmp_path, monkeypatch, argv):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    path = tmp_path / "evolve.out"
    _run(["evolve", *argv, "--out", str(path)])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EVOLVE_SHA256[argv]


@pytest.mark.parametrize("argv", list(EVOLVE_SHA256),
                         ids=["excited-csv", "tau-mixed-json"])
def test_evolve_pins_follow_the_hand_written_equations(tmp_path, argv):
    # the pinned samples, read back, lie within 1e-12 of expm of the
    # generator of the hand-written equations of motion
    path = tmp_path / "evolve.out"
    _run(["evolve", *argv, "--out", str(path)])
    table = (read_json if "json" in argv else read_csv)(path)
    accel = float(argv[argv.index("--accel") + 1])
    coeffs = kossakowski_free(UnruhParams(1.0, accel))
    samples = np.column_stack([table.column(name) for name in STATE_COLUMNS])
    exact = exact_trajectory(samples[0], coeffs.A, coeffs.B, table.column("t"))
    assert np.abs(samples - exact).max() <= 1e-12


def _dispatch_targets(levels):
    """numpy's dispatch targets whose names start with one of ``levels``."""
    umath = getattr(np, "_core", None) or np.core
    return " ".join(name for name in umath._multiarray_umath.__cpu_dispatch__
                    if name.startswith(levels))


AVX512 = ("X86_V4", "AVX512")
# the settings of ROADMAP item 3's table; OPENBLAS_CORETYPE=Haswell stands
# for an AVX2-only machine
KERNEL_SETTINGS = {
    "numpy-without-avx512": ("NPY_DISABLE_CPU_FEATURES",
                             _dispatch_targets(AVX512)),
    "numpy-without-avx2": ("NPY_DISABLE_CPU_FEATURES", _dispatch_targets(
        AVX512 + ("X86_V3", "AVX2", "FMA3"))),
    "openblas-haswell": ("OPENBLAS_CORETYPE", "Haswell"),
    "openblas-prescott": ("OPENBLAS_CORETYPE", "Prescott"),
    "openblas-sandybridge": ("OPENBLAS_CORETYPE", "Sandybridge"),
}

# the pins that hold on every kernel: the two evolve outputs, the bench
# fig2 and boundary scan, and the flagged sweeps without a log grid. fig3
# holds too, but its two runs take ~7 s a setting, so it is left out. fig1
# and the two flagged SIC sweeps build log grids with numpy's AVX-512 pow,
# and the theorem-check states and SIC go through BLAS and LAPACK, so those
# pins move under some settings (ROADMAP items 3 and 7)
PORTABLE_PINS = [
    "test_evolve_matches_pinned_digest",
    "test_figure_csv_matches_recorded_digest[fig2]",
    "test_figure_csv_matches_recorded_digest[boundary_scan]",
    *(f"test_flagged_sweep_matches_pinned_digest[{name}]"
      for name in ("tau-flagged-accel", "boundary-flagged",
                   "boundary-flagged-json", "surface-flagged",
                   "surface-flagged-json")),
]


@pytest.mark.parametrize("setting", list(KERNEL_SETTINGS))
def test_portable_pins_hold_on_other_kernels(setting):
    # the portable pins rerun in one child process with another OpenBLAS
    # kernel, or without some of numpy's SIMD loops, and give the same bytes
    name, value = KERNEL_SETTINGS[setting]
    if not value:
        pytest.skip("numpy has no such dispatch targets here")
    env = dict(os.environ, **{name: value})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    here = Path(__file__).resolve()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *(f"{here}::{pin}" for pin in PORTABLE_PINS)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "9 passed" in proc.stdout


@pytest.mark.parametrize("argv", list(FLAGGED_SWEEP_SHA256),
                         ids=["sic-flagged-tau", "tau-flagged-accel",
                              "sic-extreme-accel-json", "boundary-flagged",
                              "boundary-flagged-json", "surface-flagged",
                              "surface-flagged-json"])
def test_flagged_sweep_matches_pinned_digest(tmp_path, monkeypatch, argv):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    path = tmp_path / "sweep.out"
    _run([*argv, "--out", str(path)])
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == FLAGGED_SWEEP_SHA256[argv])


def test_theorem_check_keeps_sic_bytes_and_residual(capsys):
    assert main(["theorem-check", "--seed", "0", "--count", "200"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "state_index,sic,mid,residual"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 200
    sic = "\n".join(row[1] for row in rows).encode()
    assert hashlib.sha256(sic).hexdigest() == THEOREM_SIC_SHA256
    assert max(float(row[3]) for row in rows) <= 1e-15
