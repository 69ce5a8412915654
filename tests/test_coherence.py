"""Coherence measures against hand-computable states."""

import numpy as np
import pytest

from unruh_steer.coherence import l1_coherence, l1_coherence_bloch
from unruh_steer.errors import DomainError

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
    # one qubit only: a two-qubit state has no single Bloch-axis basis
    with pytest.raises(DomainError):
        l1_coherence(np.eye(4) / 4.0, Z)


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


@pytest.mark.parametrize("axis", [np.zeros(3), np.array([np.nan, 0.0, 1.0]),
                                  np.array([0.0, np.inf, 0.0])],
                         ids=["zero", "nan", "inf"])
def test_l1_rejects_bad_axis(axis):
    # both forms share one axis check and its message
    with pytest.raises(DomainError, match="nonzero finite 3-vector"):
        l1_coherence(PLUS, axis)
    with pytest.raises(DomainError, match="nonzero finite 3-vector"):
        l1_coherence_bloch([0.3, 0.0, 0.0], axis)
