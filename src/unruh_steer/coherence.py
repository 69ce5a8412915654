"""l1 coherence of a qubit in the eigenbasis of a Bloch axis."""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .qmat import basis_from_axis, unit_axis


def l1_coherence(m: np.ndarray, axis) -> float:
    """Sum of absolute off-diagonal entries of a qubit state in the basis of
    a Bloch axis; with Bloch vector r and the z axis, sqrt(r_x^2 + r_y^2).

    The matrix-level reference for :func:`l1_coherence_bloch`.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise DomainError("l1_coherence expects a 2x2 state")
    u = basis_from_axis(axis)
    rot = u.conj().T @ m @ u
    return float(abs(rot[0, 1]) + abs(rot[1, 0]))


def l1_coherence_bloch(r: np.ndarray, axis: np.ndarray) -> float:
    """Transverse Bloch length sqrt(|r|^2 - (r.axis)^2), the qubit l1 value;
    the axis is checked as in :func:`l1_coherence`."""
    r = np.asarray(r, dtype=float).reshape(3)
    axis = unit_axis(axis)
    return float(np.sqrt(max(float(r @ r) - float(r @ axis) ** 2, 0.0)))
