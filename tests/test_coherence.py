"""Coherence measures against hand-computable states."""

import subprocess
import sys

import numpy as np
import pytest

from unruh_steer.coherence import (l1_coherence, l1_coherence_bloch,
                                   relative_entropy_coherence,
                                   trace_distance_coherence_qubit)
from unruh_steer.errors import ConsistencyError, DomainError, NonHermitian
from unruh_steer.qmat import basis_from_axis

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]])
Z = np.array([0.0, 0.0, 1.0])


def _qubit(r):
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0]).astype(complex)
    return 0.5 * (np.eye(2) + r[0] * sx + r[1] * sy + r[2] * sz)


def test_l1_plus_state():
    assert l1_coherence(PLUS, Z) == pytest.approx(1.0, abs=1e-15)
    assert l1_coherence(np.diag([0.3, 0.7]), Z) == 0.0


def test_l1_axis_equals_explicit_basis():
    rng = np.random.default_rng(2)
    m = _qubit(0.6 * rng.normal(size=3) / 2.0)
    ax = rng.normal(size=3)
    ax /= np.linalg.norm(ax)
    assert l1_coherence(m, ax) == pytest.approx(
        l1_coherence(m, basis_from_axis(ax)), abs=1e-14)


def test_l1_bloch_matches_matrix_form():
    rng = np.random.default_rng(4)
    for _ in range(30):
        r = rng.normal(size=3)
        r *= rng.uniform(0.0, 1.0) / np.linalg.norm(r)
        ax = rng.normal(size=3)
        ax /= np.linalg.norm(ax)
        want = np.sqrt(max(r @ r - (r @ ax) ** 2, 0.0))
        assert l1_coherence_bloch(r, ax) == pytest.approx(want, abs=1e-14)
        assert l1_coherence(_qubit(r), ax) == pytest.approx(want, abs=1e-13)


def test_l1_bloch_clips_rounding():
    r = np.array([0.0, 0.0, 0.3])
    assert l1_coherence_bloch(r, Z) == 0.0


def test_relative_entropy_plus_state():
    # one full bit for |+> in the incoherent z basis, zero when diagonal
    assert relative_entropy_coherence(PLUS, Z) == pytest.approx(1.0, abs=1e-12)
    assert relative_entropy_coherence(np.diag([0.3, 0.7]), Z) == pytest.approx(
        0.0, abs=1e-12)


def test_relative_entropy_between_bases():
    m = _qubit(np.array([0.5, 0.0, 0.5]))
    along = relative_entropy_coherence(m, np.array([1.0, 0.0, 1.0]) / np.sqrt(2))
    across = relative_entropy_coherence(m, np.array([1.0, 0.0, -1.0]) / np.sqrt(2))
    assert along == pytest.approx(0.0, abs=1e-12)
    assert across > 0.1


def test_trace_distance_equals_l1_for_qubits():
    rng = np.random.default_rng(6)
    for _ in range(20):
        r = rng.normal(size=3)
        r *= rng.uniform(0.0, 0.99) / np.linalg.norm(r)
        ax = rng.normal(size=3)
        ax /= np.linalg.norm(ax)
        m = _qubit(r)
        assert trace_distance_coherence_qubit(m, ax) == pytest.approx(
            l1_coherence(m, ax), abs=1e-12)


def test_trace_distance_validates_input():
    # on this skew matrix the l1 path reads 0.6 and the Bloch path 0.0
    skew = np.array([[0.5, 0.3], [-0.3, 0.5]])
    with pytest.raises(NonHermitian):
        trace_distance_coherence_qubit(skew, Z)
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            trace_distance_coherence_qubit(np.full((2, 2), bad), Z)
    # the checks raise rather than assert, so they survive python -O
    code = ("import numpy as np\n"
            "from unruh_steer import NonHermitian, trace_distance_coherence_qubit\n"
            "try:\n"
            "    trace_distance_coherence_qubit(np.array([[0.5, 0.3], [-0.3, 0.5]]),"
            " [0, 0, 1])\n"
            "except NonHermitian:\n"
            "    print('NonHermitian')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "NonHermitian", proc.stderr


def test_trace_distance_identity_is_checked(monkeypatch):
    import unruh_steer.coherence as coherence

    monkeypatch.setattr(coherence, "l1_coherence_bloch",
                        lambda r, axis: 1e-6 + np.hypot(r[0], r[1]))
    with pytest.raises(ConsistencyError):
        trace_distance_coherence_qubit(_qubit(np.array([0.3, 0.0, 0.2])), Z)
