"""Basis-dependent coherence measures for qubit and two-qubit states."""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError, DegenerateBasis, DomainError, NotPositive
from .qmat import PAULI, _require_hermitian, basis_from_axis

EIG_FLOOR = 1e-8        # positivity gate for the entropy path
EQUALITY_TOL = 1e-10    # trace-distance vs l1 consistency check


def _basis_unitary(dim: int, basis) -> np.ndarray:
    """Columns of the reference basis for a dim x dim state."""
    basis = np.asarray(basis)
    if dim == 2 and basis.shape == (3,):
        return basis_from_axis(basis.astype(float))
    if basis.shape == (dim, dim):
        u = basis.astype(complex)
        if np.abs(u.conj().T @ u - np.eye(dim)).max() > EQUALITY_TOL:
            raise DegenerateBasis("explicit basis is not orthonormal within 1e-10")
        return u
    raise DomainError(f"basis shape {basis.shape} invalid for dimension {dim}")


def _in_basis(m: np.ndarray, basis) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape not in ((2, 2), (4, 4)):
        raise DomainError("state must be 2x2 or 4x4")
    u = _basis_unitary(m.shape[0], basis)
    return u.conj().T @ m @ u


def l1_coherence(m: np.ndarray, basis) -> float:
    """Sum of absolute off-diagonal entries in the reference basis.

    For a qubit, ``basis`` may be a unit Bloch axis; with Bloch vector r
    and the z axis this reduces to sqrt(r_x^2 + r_y^2). Two-qubit states
    take an explicit 4x4 unitary whose columns are the basis kets.
    """
    rot = _in_basis(m, basis)
    off = rot - np.diag(np.diag(rot))
    return float(np.abs(off).sum())


def l1_coherence_bloch(r: np.ndarray, axis: np.ndarray) -> float:
    """Transverse Bloch length sqrt(|r|^2 - (r.axis)^2), the qubit l1 value."""
    r = np.asarray(r, dtype=float).reshape(3)
    axis = np.asarray(axis, dtype=float).reshape(3)
    axis = axis / np.linalg.norm(axis)
    return float(np.sqrt(max(float(r @ r) - float(r @ axis) ** 2, 0.0)))


def _entropy_bits(p: np.ndarray) -> float:
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def relative_entropy_coherence(m: np.ndarray, basis) -> float:
    """S(diag(m)) - S(m) in bits, with the 0 log 0 = 0 convention.

    Non-negative for physical states; tiny negative rounding is clipped.
    Raises NotPositive when the state dips below -1e-8.
    """
    rot = _in_basis(m, basis)
    vals = np.linalg.eigvalsh(rot)
    if vals[0] < -EIG_FLOOR:
        raise NotPositive(f"min eigenvalue {vals[0]:.3e} < -{EIG_FLOOR}")
    s_state = _entropy_bits(np.clip(vals, 0.0, None))
    diag = np.clip(np.diag(rot).real, 0.0, None)
    s_diag = _entropy_bits(diag)
    out = s_diag - s_state
    return 0.0 if -1e-12 < out < 0.0 else out


def trace_distance_coherence_qubit(m: np.ndarray, axis) -> float:
    """Minimal trace distance from a qubit state to the incoherent family.

    The minimizer keeps the population and drops the transverse Bloch
    component, so the value coincides with l1_coherence; that identity is
    checked here rather than assumed. Raises NonHermitian on non-Hermitian
    input, DomainError on non-finite input and ConsistencyError when the
    identity fails.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise DomainError("trace_distance_coherence_qubit expects a 2x2 state")
    _require_hermitian(m)
    r = np.array([np.trace(m @ PAULI[i]).real for i in (1, 2, 3)])
    value = l1_coherence_bloch(r, np.asarray(axis, dtype=float))
    l1 = l1_coherence(m, axis)
    if not abs(value - l1) <= EQUALITY_TOL:
        raise ConsistencyError(f"trace distance {value!r} != l1 coherence {l1!r}")
    return value
