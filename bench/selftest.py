"""Self-test of the benchmark's checks: each must reject a broken result.

Run from the repository root:

    python3 bench/selftest.py

It feeds the checks a CSV with one digit flipped, results whose residual
exceeds its bound, a trajectory off the exact solution, a JSON file that
disagrees with its CSV, and an item that raises ``UnruhSteerError``, and
confirms each is rejected while the unmodified results pass. Exits 0 when
every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import types

import run
import workloads


def main() -> int:
    us = run.import_package()
    os.makedirs(run.OUT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    results = []

    def expect(label: str, failures, rejected: bool) -> None:
        ok = bool(failures) == rejected
        results.append(ok)
        verdict = "rejected" if failures else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}"
              + (f" ({failures[0]})" if failures else ""))

    try:
        # figures: recorded CSV digest
        fig = workloads.Figures(us, 0, out_dir)
        item = next(i for i in fig.items if i.name == "fig2")
        result = fig.run(item)
        expect("fig2 CSV as written", fig.check(item, result), False)
        path = item.payload["path"]
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        pos = next(i for i, ch in enumerate(text) if ch.isdigit() and i > 100)
        flipped = "1" if text[pos] != "1" else "2"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text[:pos] + flipped + text[pos + 1:])
        expect("fig2 CSV with one digit flipped", fig.check(item, result), True)

        # figures: JSON read back against CSV, NaN and null alike
        csv_path = os.path.join(out_dir, "small.csv")
        json_path = os.path.join(out_dir, "small.json")
        grid = ["--grid", "tau:linear:0:1:3", "--grid", "R:linear:0:1:3"]
        for out in (csv_path, json_path):
            code = fig.run(workloads.Item("small", "", {
                "argv": ["steerability-surface", *grid, "--out", out]}))[0]
            assert code == 0, f"steerability-surface exited {code}"
        expect("surface JSON vs CSV",
               _as_list(workloads.compare_json_to_csv(json_path, csv_path)), False)
        with open(json_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        nulled = 0
        for row in payload["rows"]:
            for key, value in row.items():
                if isinstance(value, float) and value != value:
                    row[key] = None
                    nulled += 1
        assert nulled, "the small surface has no NaN cell"
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, allow_nan=False)
        expect("surface JSON with null for NaN",
               _as_list(workloads.compare_json_to_csv(json_path, csv_path)), False)
        payload["rows"][0]["literal"] += 1e-12
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, allow_nan=False)
        expect("surface JSON with one value changed",
               _as_list(workloads.compare_json_to_csv(json_path, csv_path)), True)

        # theorem: residual and oracle bounds
        thm = workloads.Theorem(us, 0, out_dir)
        rand = next(i for i in thm.items if i.name.startswith("random"))
        sic, mid = thm.run(rand)
        expect("random state as computed", thm.check(rand, (sic, mid)), False)
        expect("random state, |SIC - MID| = 2e-4",
               thm.check(rand, (sic, sic + 2e-4)), True)
        expect("random state, SIC and MID 2e-6 off the oracle",
               thm.check(rand, (sic + 2e-6, sic + 2e-6)), True)
        eq = next(i for i in thm.items
                  if i.name.startswith("equilibrium") and i.cls == "nondeg")
        sic, mid = thm.run(eq)
        expect("equilibrium as computed", thm.check(eq, (sic, mid)), False)
        expect("equilibrium, |SIC - MID| = 2e-6",
               thm.check(eq, (sic, sic + 2e-6)), True)

        # theorem: an item that raises is counted and the run goes on
        bad = workloads.Item("unphysical", "deg", {
            "state": us.FanoState([0, 0, 0], [0, 0, 0], [[2, 0, 0], [0, 2, 0], [0, 0, 2]]),
            "b": None, "t": None, "tau": None, "ratio": None})
        thm.items = [rand, bad, eq]
        records, _ = run.run_passes(thm, 0.0)
        failed = [r for r in records if r["failures"]]
        expect("pass with an item that raises",
               [r["failures"][0] for r in failed], True)
        passes = len(records) // 3
        raised = (len(failed) == passes
                  and all(r["name"] == "unphysical" for r in failed))
        error = failed[0]["failures"][0].split(":")[0] if failed else ""
        is_package_error = issubclass(getattr(us, error, Exception), us.UnruhSteerError)
        results.append(bool(raised and is_package_error and len(records) == 3 * passes))
        print(f"{'ok  ' if results[-1] else 'FAIL'} only the raising item failed,"
              f" with {error}, and the pass finished")

        # relax: exact affine solution
        rel = workloads.Relax(us, 0, out_dir)
        item = rel.items[0]
        traj = rel.run(item)
        expect(f"{item.name} trajectory as computed", rel.check(item, traj), False)
        final = traj.final_state
        off = us.FanoState(final.a_vec + 1e-8, final.b_vec, final.t_mat)
        moved = types.SimpleNamespace(times=traj.times, final_state=off,
                                      states=list(traj.states[:-1]) + [off])
        expect(f"{item.name} final state moved by 1e-8", rel.check(item, moved), True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    print(f"{sum(results)} of {len(results)} cases behave")
    return 0 if all(results) else 1


def _as_list(diff):
    return [] if diff is None else [diff]


if __name__ == "__main__":
    sys.exit(main())
