"""Mutation checks: each mutant is one wrong formula or gate that the maths
rules out, and the tests it names must catch it.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

For each entry of ``MUTANTS`` the script copies ``src/`` to a temporary
directory, replaces the entry's old text, which must occur exactly once in
its file (else the entry is stale and the run stops), and runs the entry's
tests with ``PYTHONPATH`` at the copy. A mutant is killed when those tests
fail. First the named tests run once on an unmutated copy, where they must
pass, so that a test failing for another reason kills nothing. Exit status
0 when every mutant is killed, 1 when one survives, 2 for a stale entry or
a clean run that fails. Standard library only; pytest does not collect
this file.

Not a mutant: the sign of the shift inside ``qmat.first_below``'s Cholesky
call. Where the factorization fails, ``eigvalsh`` decides the verdict
again, so that mutant changes the speed of ``evolve``, not its results.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECTOR = "tests/test_sector.py::test_evolve_matches_the_sector_closed_form"
SPELLING = "tests/test_sweeps_properties.py::test_"


class Mutant(NamedTuple):
    name: str
    path: str     # relative to src/unruh_steer
    old: str
    new: str
    tests: tuple


MUTANTS = (
    Mutant("rates: the B part's sign flipped", "model.py",
           "[[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]",
           "[[0, 1j, 0], [-1j, 0, 0], [0, 0, 0]]",
           (SECTOR,)),
    Mutant("rate matrices: the trace pull dropped", "model.py",
           "m_a = per_a[:, :15] - 4.0 * np.outer(trace, trace)",
           "m_a = per_a[:, :15]",
           ("tests/test_model.py::test_evolve_runs_long_horizons",)),
    Mutant("fano_matrices: the I/4 term dropped", "qmat.py",
           "return flat.reshape(*vectors.shape[:-1], 4, 4) + _QUARTER_EYE4",
           "return flat.reshape(*vectors.shape[:-1], 4, 4)",
           ("tests/test_qmat.py::test_fano_matrices_match_kron_loop",)),
    Mutant("equilibrium_free: the Bloch sign flipped", "model.py",
           "-ratio * (tau + 3.0) / denom + 0.0",
           "ratio * (tau + 3.0) / denom + 0.0",
           (SECTOR,)),
    Mutant("evolve: the certificate's tolerance sign flipped", "model.py",
           "first_below(fano_matrices(block[:filled]), -DRIFT_TOL)",
           "first_below(fano_matrices(block[:filled]), DRIFT_TOL)",
           (SECTOR,)),
    Mutant("float spelling: y rounded half up", "sweeps.py",
           "rounded = np.rint(yl)",
           "rounded = np.floor(yl + 0.5)",
           (SPELLING + "csv_bytes_equal_row_encoder_on_hard_floats",)),
    Mutant("float spelling: a zero tie margin", "sweeps.py",
           "_TIE_MARGIN = 2.0 ** -40",
           "_TIE_MARGIN = 0.0",
           (SPELLING + "float_spelling_equals_builtin_on_random_bits",)),
    Mutant("float spelling: k fixed up without a second product", "sweeps.py",
           "yh[fix], yl[fix] = _times_pow10(m[fix], e2[fix], 16 - k[fix], tables)",
           "pass",
           (SPELLING + "csv_bytes_equal_row_encoder_on_hard_floats",)),
    Mutant("csv_chunks: the builtin at 16 digits", "sweeps.py",
           '_G17 = "{:.17g}".format',
           '_G17 = "{:.16g}".format',
           (SPELLING + "csv_bytes_equal_row_encoder",)),
)


class Stale(Exception):
    """A mutant no longer applies, or its tests fail without it."""


def copy_source(tmp: str, mutant: Mutant | None = None) -> str:
    """``src/`` copied under ``tmp``, with ``mutant`` applied; its path."""
    src = os.path.join(tmp, "src")
    shutil.copytree(os.path.join(ROOT, "src"), src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = os.path.join(src, "unruh_steer", mutant.path)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        if (found := text.count(mutant.old)) != 1:
            raise Stale(f"{mutant.name}: old text occurs {found} times in"
                        f" {mutant.path}, not once")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text.replace(mutant.old, mutant.new))
    return src


def run_tests(src: str, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x",
                           "-p", "no:cacheprovider", *tests],
                          cwd=ROOT, env=env, capture_output=True, text=True)


def check_clean(tmp: str) -> None:
    """The named tests pass on an unmutated copy, imported from the copy."""
    src = copy_source(tmp)
    probe = subprocess.run(
        [sys.executable, "-c", "import unruh_steer; print(unruh_steer.__file__)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    if not probe.stdout.startswith(src + os.sep):
        raise Stale(f"unruh_steer imports from {probe.stdout.strip()!r}, not the copy")
    tests = sorted({test for mutant in MUTANTS for test in mutant.tests})
    if (done := run_tests(src, tests)).returncode != 0:
        raise Stale("the named tests fail without a mutant:\n" + done.stdout[-2000:])


def main() -> int:
    survived = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        try:
            check_clean(os.path.join(tmp, "clean"))
            for k, mutant in enumerate(MUTANTS):
                start = time.perf_counter()
                done = run_tests(copy_source(os.path.join(tmp, str(k)), mutant),
                                 mutant.tests)
                if done.returncode not in (0, 1):   # collection error, unknown id
                    raise Stale(f"{mutant.name}: pytest exited {done.returncode}:\n"
                                + done.stdout[-2000:])
                verdict = "killed" if done.returncode == 1 else "SURVIVED"
                print(f"{verdict:8} {time.perf_counter() - start:5.1f} s  {mutant.name}")
                if done.returncode == 0:
                    survived.append(mutant.name)
        except Stale as exc:
            print(f"stale: {exc}", file=sys.stderr)
            return 2
    print(f"{len(MUTANTS) - len(survived)} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
