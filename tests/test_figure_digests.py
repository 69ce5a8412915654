"""Byte gate: the figure CSVs match the sha256 digests the benchmark records.

The four CSV commands of ``bench/workloads.py``'s ``FIGURE_COMMANDS`` run
through ``cli.main`` into a temporary directory; their digests must equal
``bench/digests.json``, which this test reads and never writes. The fig3
JSON must match the digest pinned here and read back equal to the fig3 CSV,
and two ``evolve`` outputs must match the digests pinned here.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from unruh_steer.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


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

# evolve outputs with SOURCE_DATE_EPOCH=1700000000, as the per-sample
# positivity check wrote them
EVOLVE_SHA256 = {
    ("--init", "excited", "--accel", "1", "--format", "csv"):
        "c4aedfbff62dab5228be68f77dec42757d2897387b8077d9204177c03b3a2de4",
    ("--init", "tau-mixed", "--tau", "0.5", "--accel", "2", "--format", "json"):
        "64d67aeb9562d88a98e8a07acb5e45589c0cb91ff4f78aca36867585f09235e3",
}


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
