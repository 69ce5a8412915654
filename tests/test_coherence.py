"""The l1 coherence oracles against hand-computable states."""

import numpy as np
import pytest

from oracles import PAULI_XYZ, l1_coherence, l1_coherence_bloch

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]])
Z = np.array([0.0, 0.0, 1.0])


def _qubit(r):
    return 0.5 * (np.eye(2) + sum(c * s for c, s in zip(r, PAULI_XYZ)))


def test_l1_plus_state():
    assert l1_coherence(PLUS, Z) == pytest.approx(1.0, abs=1e-15)
    assert l1_coherence(np.diag([0.3, 0.7]), Z) == 0.0


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
