"""Byte gate: the figure CSVs match the sha256 digests the benchmark records.

The four CSV commands of ``bench/workloads.py``'s ``FIGURE_COMMANDS`` run
through ``cli.main`` into a temporary directory; their digests must equal
``bench/digests.json``, which this test reads and never writes.
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


def _figure_commands():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while it executes
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads.FIGURE_COMMANDS


DIGESTS = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
CSV_COMMANDS = [(name, argv, out) for name, argv, out in _figure_commands()
                if out.endswith(".csv")]


def test_every_digest_has_a_command():
    assert sorted(name for name, _, _ in CSV_COMMANDS) == sorted(DIGESTS)


@pytest.mark.parametrize("name, argv, out", CSV_COMMANDS,
                         ids=[name for name, _, _ in CSV_COMMANDS])
def test_figure_csv_matches_recorded_digest(tmp_path, name, argv, out):
    path = tmp_path / out
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv) + ["--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[name]
