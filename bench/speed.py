"""Machine-speed calibration for timings taken on a shared machine.

On a small shared machine the speed of the whole CPU swings by 30% and more
over minutes as other tenants come and go; every code path slows down by
about the same factor. The benchmark therefore runs a fixed calibration
workload, which never touches the package, between blocks of items, and
reports each timing at reference speed:

    reference seconds = measured seconds * REFERENCE_S / calibration seconds

so that a run on a busy minute and a run on a quiet one read alike. The
calibration mixes Python arithmetic with small numpy linear algebra, as the
package's items do. Raw seconds stay in the run record.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Seconds one calibration takes on the reference machine (2 shared cores,
# Intel Xeon, Python 3.11, numpy 2.4) when it is quiet; it fixes the unit.
REFERENCE_S = 3.0e-3

_RNG = np.random.default_rng(0)
_Z = _RNG.normal(size=(48, 4, 4)) + 1j * _RNG.normal(size=(48, 4, 4))
_HERMITIAN = _Z + _Z.conj().transpose(0, 2, 1)
_REAL = _RNG.normal(size=(48, 3, 3))


def _work() -> float:
    acc = 0.0
    for k in range(6000):
        acc += math.sqrt(k + 0.5) / (1.0 + k)
    for h, r in zip(_HERMITIAN, _REAL):
        acc += float(np.linalg.eigvalsh(h)[0])
        acc += float(np.linalg.svd(r, compute_uv=False)[1])
        acc += float(np.kron(r[:2, :2], r[1:, 1:]).sum())
    return acc


def calibrate(repeats: int = 3) -> float:
    """Seconds of one calibration workload: the fastest of ``repeats`` runs."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - t0)
    return best


def to_reference(seconds: float, calibration_s: float) -> float:
    """``seconds`` measured while one calibration took ``calibration_s``."""
    return seconds * REFERENCE_S / calibration_s
