"""Benchmark of the unruh-steer package: three closed-loop workloads.

Run from the repository root, on the package source under ``src/``:

    python3 bench/run.py --workload theorem --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``theorem`` (SIC and MID per state),
``figures`` (figure presets through ``cli.main``) and ``relax``
(``evolve`` trajectories). Each runs in this one process as a closed loop:
one caller, each item starting after the previous one finished, no process
pool. Passes over the workload's fixed item list repeat until ``--seconds``
have gone by; every item's result is checked.

``--trace 0`` prints the end-to-end metrics, measured untraced. ``--trace
1`` alternates untraced and traced passes and prints the per-layer metrics
of ``BENCHMARK.json``: calls and self time per package function, taken by
an outside-in tracer (``tracer.py``), plus counts and the tracing
overhead. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A run record with
the machine, the seed and every metric is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "unruh_steer")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_SAMPLES = 5          # fresh processes timed for setup_s, this one included
MIN_PASSES = 3             # so that each item's median has three runs to go by
CALIBRATE_EVERY_S = 0.25   # item time between two speed calibrations
PROBE_TIMEOUT_S = 120
MODULES = ("qmat", "model", "coherence", "steering", "sweeps", "cli")
KEPT_RESULTS = ("sweeps.run_grid", "sweeps.write_result")
COUNTERS = ("sweeps.rows", "sweeps.flagged_rows", "sweeps.bytes_out",
            "model.evolve.landed_1e-6")
# variables that would change what the package computes or writes
CLEARED_ENV = ("UNRUH_STEER_JOBS", "SOURCE_DATE_EPOCH")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_package():
    """Import ``unruh_steer`` from this checkout's source, nowhere else."""
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        raise BenchError(f"no package source at {PACKAGE_DIR}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import unruh_steer
    import unruh_steer.cli  # noqa: F401  (binds unruh_steer.cli)

    origin = os.path.realpath(unruh_steer.__file__)
    if not origin.startswith(os.path.realpath(PACKAGE_DIR) + os.sep):
        raise BenchError(f"unruh_steer was imported from {origin}")
    return unruh_steer


def set_up(workload: str, seed: int, out_dir: str):
    """Import the package, make the seeded inputs, run one warm-up item.

    Returns the workload, the seconds this took, and those seconds at
    reference speed (see ``speed.py``), calibrated right afterwards. The
    warm-up result is not checked here; the same item is run and checked
    in the first pass.
    """
    t0 = time.perf_counter()
    us = import_package()
    import workloads  # its import is part of the set-up being timed

    wl = workloads.WORKLOADS[workload](us, seed, out_dir)
    try:
        wl.run(wl.items[0])
    except Exception:  # counted when the item runs in the first pass
        pass
    seconds = time.perf_counter() - t0
    import speed

    return wl, seconds, speed.to_reference(seconds, speed.calibrate())


def probe_setup(workload: str, seed: int) -> list[float]:
    """Raw and reference-speed setup seconds of one fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"setup probe failed: {proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def count_kept(kept, counters: dict) -> None:
    """Rows, flagged rows and bytes written, from results the tracer kept."""
    for name, result in kept:
        if name == "sweeps.run_grid":
            counters["sweeps.rows"] += len(getattr(result, "rows", ()))
            counters["sweeps.flagged_rows"] += sum(
                1 for diag in getattr(result, "diagnostics", ()) if diag)
        elif name == "sweeps.write_result":
            counters["sweeps.bytes_out"] += sum(
                os.path.getsize(path) for path in result if os.path.isfile(path))
    kept.clear()


def run_passes(wl, seconds: float, tracer=None):
    """Closed loop over the item list until ``seconds`` have gone by.

    There are at least ``MIN_PASSES`` passes. Without a tracer every pass
    is untraced. With one, passes alternate untraced and traced, starting
    untraced, and there are at least ``MIN_PASSES`` of each.
    Returns one record per item run and, per pass, its counters. Each
    record carries its latency in seconds and at reference speed, scaled by
    the mean of the calibrations just before and after its block of items.
    """
    import speed

    records, pass_counters = [], []
    n = len(wl.items)
    block: list[dict] = []
    before = speed.calibrate()

    def close_block():
        nonlocal before
        after = speed.calibrate()
        for r in block:
            r["scaled"] = speed.to_reference(r["latency"], 0.5 * (before + after))
        block.clear()
        before = after

    deadline = time.perf_counter() + seconds
    p = 0
    while p < MIN_PASSES * (2 if tracer else 1) or time.perf_counter() < deadline:
        traced = tracer is not None and p % 2 == 1
        counters = dict.fromkeys(COUNTERS, 0)
        if traced:
            tracer.install()
        for k, item in enumerate(wl.items):
            record = {"pass": p, "index": k, "name": item.name,
                      "cls": item.cls, "traced": traced, "failures": []}
            result = None
            if traced:
                tracer.item = p * n + k
                tracer.active = True
            t0 = time.perf_counter()
            try:
                result = wl.run(item)
            except Exception as exc:  # an item that raises counts as failed
                record["failures"].append(f"{type(exc).__name__}: {exc}")
            finally:
                record["latency"] = time.perf_counter() - t0
                if traced:
                    tracer.active = False
            if traced:
                count_kept(tracer.kept, counters)
            if not record["failures"]:
                try:
                    record["failures"] = list(wl.check(item, result))
                except Exception as exc:  # a malformed result fails its check
                    record["failures"] = [f"check raised {type(exc).__name__}: {exc}"]
            records.append(record)
            block.append(record)
            if sum(r["latency"] for r in block) >= CALIBRATE_EVERY_S:
                close_block()
        if block:
            close_block()
        if traced:
            tracer.uninstall()
        counters.update(wl.counters())
        pass_counters.append(counters)
        p += 1
    return records, pass_counters


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def item_latencies(records, traced: bool) -> list[dict]:
    """Per item, the median over the passes of one kind of its scaled latency.

    Returns one dict per item, in item order, with its ``name``, ``cls``
    and ``latency`` (reference-speed seconds).
    """
    runs: dict[int, list[dict]] = {}
    for r in records:
        if r["traced"] == traced:
            runs.setdefault(r["index"], []).append(r)
    return [{"name": rs[0]["name"], "cls": rs[0]["cls"],
             "latency": statistics.median(r["scaled"] for r in rs)}
            for _, rs in sorted(runs.items())]


def pass_walls(records, traced: bool) -> list[float]:
    walls: dict[int, float] = {}
    for r in records:
        if r["traced"] == traced:
            walls[r["pass"]] = walls.get(r["pass"], 0.0) + r["latency"]
    return [walls[p] for p in sorted(walls)]


def end_to_end(records, setup_samples, peak_rss_mb) -> dict:
    latencies = [r["latency"] for r in item_latencies(records, False)]
    return {
        "setup_s": statistics.median(scaled for _, scaled in setup_samples),
        "wall_s": sum(latencies),
        "item_p50_ms": 1e3 * percentile(latencies, 50),
        "item_p99_ms": 1e3 * percentile(latencies, 99),
        "peak_rss_mb": peak_rss_mb,
    }


def _class_at(ranked, q: float) -> int:
    """1 when the nearest-rank q-th percentile item is degenerate."""
    idx = max(0, math.ceil(q / 100.0 * len(ranked)) - 1)
    return int(ranked[idx]["cls"] == "deg")


def per_layer(records, pass_counters, tracer, items_per_pass: int,
              cli_items: bool) -> dict:
    n_passes = len(pass_counters)
    per_pass, spans = tracer.aggregate(items_per_pass, n_passes)
    traced = [p for p in range(n_passes) if p % 2 == 1]

    def over_traced(get):
        return min(get(p) for p in traced)

    values = {}
    for name in tracer.names:
        values[f"{name}.calls"] = over_traced(
            lambda p: per_pass[p].get(name, (0, 0.0))[0])
        values[f"{name}.self_s"] = over_traced(
            lambda p: per_pass[p].get(name, (0, 0.0))[1])
    for module in MODULES:
        values[f"{module}.self_s"] = over_traced(
            lambda p: sum(s for name, (_, s) in per_pass[p].items()
                          if name.startswith(module + ".")))
    for key in COUNTERS:
        values[key] = over_traced(lambda p: pass_counters[p][key])
    values["trace.spans"] = over_traced(lambda p: spans[p])

    untraced = item_latencies(records, False)
    for r in (untraced if cli_items else ()):
        values[f"cli.{r['name']}.wall_s"] = r["latency"]
    for cls in ("nondeg", "deg"):
        lat = [r["latency"] for r in untraced if r["cls"] == cls]
        values[f"items.{cls}.p50_ms"] = 1e3 * percentile(lat, 50) if lat else 0.0
    ranked = sorted(untraced, key=lambda r: r["latency"])
    values["items.p50_deg"] = _class_at(ranked, 50)
    values["items.p99_deg"] = _class_at(ranked, 99)

    wall_untraced = sum(r["latency"] for r in untraced)
    overhead = sum(r["latency"] for r in item_latencies(records, True)) - wall_untraced
    values["trace.overhead_s"] = overhead
    values["trace.overhead_pct"] = 100.0 * overhead / wall_untraced
    return values


def select(values: dict, spec: list[dict]) -> dict:
    """The metrics ``BENCHMARK.json`` names, with their units.

    Calls, self time and command wall time of a function or command the
    run never entered read 0; any other metric missing from ``values`` is a
    benchmark bug.
    """
    out = {}
    for entry in spec:
        name = entry["name"]
        if name in values:
            value = values[name]
        elif name.endswith((".calls", ".self_s", ".wall_s")):
            value = 0
        else:
            raise BenchError(f"metric {name} was not measured")
        out[name] = {"value": value, "unit": entry["unit"]}
    return out


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("theorem", "figures", "relax"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        raise BenchError(f"no package source at {PACKAGE_DIR}")
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    os.makedirs(OUT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.setup_probe:
            _, *seconds = set_up(args.workload, args.seed, out_dir)
            print(json.dumps({"setup_s": seconds}))
            return 0
        setup_samples = [probe_setup(args.workload, args.seed)
                         for _ in range(SETUP_SAMPLES - 1)]
        wl, *seconds = set_up(args.workload, args.seed, out_dir)
        setup_samples.append(seconds)

        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer(keep_results=KEPT_RESULTS)
        records, pass_counters = run_passes(wl, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wl.finish(records)

        values = end_to_end(records, setup_samples, peak_rss_mb)
        if tracer is not None:
            values.update(per_layer(records, pass_counters, tracer,
                                    len(wl.items), wl.name == "figures"))
            tracer.save(os.path.join(OUT, f"spans-{args.workload}.npz"))
        metrics = select(values, spec["per_layer" if args.trace else "end_to_end"])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failures = [r for r in records if r["failures"]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        "passes": len(pass_counters), "items_per_pass": len(wl.items),
        "pass_walls_s": {"untraced": pass_walls(records, False),
                         "traced": pass_walls(records, True)},
        "setup_samples_s": setup_samples, "values": values,
        "items": [[r["pass"], r["index"], r["latency"], r["scaled"]]
                  for r in records],
        "failures": [f"pass {r['pass']} {r['name']}: {'; '.join(r['failures'])}"
                     for r in failures[:20]],
    }
    os.makedirs(os.path.join(OUT, "records"), exist_ok=True)
    record_path = os.path.join(
        OUT, "records", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(f"run record: {os.path.relpath(record_path, ROOT)}", file=sys.stderr)
    for line in record["failures"]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
