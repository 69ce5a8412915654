"""Two-qubit state algebra on the Pauli (Fano) decomposition.

A two-qubit density matrix is carried as

    rho = (1/4) [ I4 + sum_i a_i s_i x s_0 + sum_i b_i s_0 x s_i
                  + sum_ij T_ij s_i x s_j ]

with qubit A the left tensor factor and the computational basis ordered
|00>, |01>, |10>, |11>. ``a`` and ``b`` are the local Bloch vectors of A
and B, ``T`` the 3x3 correlation block. :func:`fano_matrices` builds a
stack's matrices and :func:`fano_vectors`, the one projection onto the
coefficients, is its inverse. Hermiticity is automatic for real
coefficients; positivity is not, and :func:`require_state` alone decides it.
Maps such as Bob's dephasing along e, (a, b, T) -> (a, b, T e e^T), act on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonHermitian, NotPositive

HERMITICITY_TOL = 1e-9
PHYSICALITY_TOL = 1e-10   # an input state's eigenvalues may dip this far below 0

# sigma_0, sigma_x, sigma_y, sigma_z
PAULI = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]],
                  [[0.0, -1.0j], [1.0j, 0.0]], [[1.0, 0.0], [0.0, -1.0]]])

# _PAULI_PAIRS[i, j] = kron(sigma_i, sigma_j): Tr(m _PAULI_PAIRS[i, j]) is
# the Fano coefficient of m at (i, j)
_PAULI_PAIRS = np.einsum("iab,jcd->ijacbd", PAULI, PAULI).reshape(4, 4, 4, 4)
_YY = _PAULI_PAIRS[2, 2]   # sigma_y x sigma_y, the spin flip in the concurrence

# _FANO_BASIS[k] = _PAULI_PAIRS[i, j] / 4 for entry k of FanoState.to_vector,
# (i, j) column k of _FANO_INDEX: (i, 0) for a, (0, j) for b, then rows of T
_FANO_INDEX = ((1, 2, 3, 0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3),
               (0, 0, 0, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3))
_FANO_BASIS = 0.25 * _PAULI_PAIRS[_FANO_INDEX]


@dataclass(frozen=True)
class FanoState:
    """Pauli coefficients of a two-qubit operator with unit trace.

    Fields are copied and frozen read-only on construction. Any finite real
    coefficients are accepted; operations that need an actual density matrix
    check positivity themselves.
    """

    a_vec: np.ndarray
    b_vec: np.ndarray
    t_mat: np.ndarray

    def __post_init__(self):
        a = np.array(self.a_vec, dtype=float).reshape(3)
        b = np.array(self.b_vec, dtype=float).reshape(3)
        t = np.array(self.t_mat, dtype=float).reshape(3, 3)
        if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(t).all()):
            raise DomainError("FanoState coefficients must be finite")
        for arr in (a, b, t):
            arr.setflags(write=False)
        object.__setattr__(self, "a_vec", a)
        object.__setattr__(self, "b_vec", b)
        object.__setattr__(self, "t_mat", t)

    @property
    def trace_sum(self) -> float:
        """sum_i T_ii, the conserved quantity of the free dissipator."""
        return float(np.trace(self.t_mat))

    def to_vector(self) -> np.ndarray:
        """Flatten to the 15-vector (a, b, T rows) used by the integrator."""
        return np.concatenate([self.a_vec, self.b_vec, self.t_mat.ravel()])

    @staticmethod
    def from_vector(y: np.ndarray) -> "FanoState":
        y = np.asarray(y, dtype=float).reshape(15)
        return FanoState(y[0:3], y[3:6], y[6:15].reshape(3, 3))


def fano_to_matrix(state: FanoState) -> np.ndarray:
    """Assemble the 4x4 matrix of a :class:`FanoState`.

    The result is Hermitian by construction and has unit trace; positivity
    depends on the coefficients.
    """
    # Becomes ``return fano_matrices(state.to_vector())`` with ROADMAP item 1,
    # which stops the benchmark's peak_rss_mb growing with items per run (the
    # switch ran 106,000 items against 26,000 and read 85.9 against 52.2 MB).
    m = np.eye(4, dtype=complex)
    for i in range(3):
        m += state.a_vec[i] * np.kron(PAULI[i + 1], PAULI[0])
        m += state.b_vec[i] * np.kron(PAULI[0], PAULI[i + 1])
        for j in range(3):
            m += state.t_mat[i, j] * np.kron(PAULI[i + 1], PAULI[j + 1])
    return 0.25 * m


def fano_matrices(vectors) -> np.ndarray:
    """4x4 matrices of a stack of 15-vectors in :meth:`FanoState.to_vector`
    order, shape (..., 15) -> (..., 4, 4): one contraction with the Fano
    basis plus I/4. No finiteness or positivity check."""
    return np.tensordot(vectors, _FANO_BASIS, axes=1) + 0.25 * np.eye(4)


def fano_vectors(matrices) -> np.ndarray:
    """Coefficients of a stack of Hermitian unit-trace 4x4 matrices, (..., 4, 4)
    -> C-ordered (..., 15) in :meth:`FanoState.to_vector` order, the inverse of
    :func:`fano_matrices`. NonHermitian or DomainError beyond 1e-9."""
    m = np.asarray(matrices, dtype=complex)
    _require_hermitian(m)
    tr = np.trace(m, axis1=-2, axis2=-1).real.ravel()
    if (off := tr[np.abs(tr - 1.0) > HERMITICITY_TOL]).size:
        raise DomainError(f"trace {float(off[0])} is not 1 within {HERMITICITY_TOL}")
    coef = np.einsum("...kl,ijlk->...ij", m, _PAULI_PAIRS).real
    return np.ascontiguousarray(coef[(..., *_FANO_INDEX)])   # indexing leaves F order


def matrix_to_fano(m: np.ndarray) -> FanoState:
    """:func:`fano_vectors` of one 4x4 matrix, as a :class:`FanoState`."""
    return FanoState.from_vector(fano_vectors(np.reshape(m, (4, 4))))


def _require_hermitian(m: np.ndarray) -> None:
    if not np.isfinite(m).all():
        raise DomainError("matrix has non-finite entries")
    dev = np.abs(m - np.swapaxes(m, -1, -2).conj()).max(initial=0.0)
    if dev > HERMITICITY_TOL:
        raise NonHermitian(f"max |m - m^dag| = {dev:.3e}"
                           f" exceeds {HERMITICITY_TOL}")


# ----- positivity -----

def first_below(rhos: np.ndarray, tol: float):
    """(k, min eigenvalue) of the first matrix in the Hermitian stack ``rhos``
    with an eigenvalue below -tol, else None. A Cholesky factorization of
    rho + tol I (one triangle read) certifies; only if it fails does
    ``eigvalsh`` run. The two differ only within rounding (~1e-15) of -tol."""
    try:
        with np.errstate(invalid="ignore"):   # a failed factor warns
            np.linalg.cholesky(rhos + tol * np.eye(4))
        return None
    except np.linalg.LinAlgError:
        lows = np.linalg.eigvalsh(rhos)[:, 0]
    below = np.flatnonzero(lows < -tol)
    return (int(below[0]), float(lows[below[0]])) if below.size else None


def require_state(m: np.ndarray) -> None:
    """NotPositive unless each Hermitian 4x4 in ``m`` has no eigenvalue below -1e-10."""
    if found := first_below(m.reshape(-1, 4, 4), PHYSICALITY_TOL):
        raise NotPositive(f"state has min eigenvalue {found[1]:.3e}")


# ----- entanglement -----

def concurrence(m: np.ndarray) -> float:
    """Wootters concurrence max(0, l1 - l2 - l3 - l4) of a physical state.

    The l_k are the descending square roots of the eigenvalues of
    m (yy) m* (yy). NonHermitian, else :func:`require_state`'s NotPositive,
    for an input that is not a state.
    """
    m = np.asarray(m, dtype=complex).reshape(4, 4)
    _require_hermitian(m)
    require_state(m)
    flipped = _YY @ m.conj() @ _YY
    vals = np.linalg.eigvals(m @ flipped)
    # abs() guards the sqrt against tiny negative rounding of real spectra
    lam = np.sort(np.sqrt(np.abs(vals.real)))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


# ----- reproducible random states -----

def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """Mixture of four Haar-ish random pure states with Dirichlet weights.

    This is the documented generator behind ``theorem-check`` and the
    randomized acceptance checks: complex standard-normal 4-vectors,
    normalized, combined with flat Dirichlet weights.
    """
    psi = rng.normal(size=(4, 4)) + 1.0j * rng.normal(size=(4, 4))
    w = rng.dirichlet(np.ones(4))
    kets = [row / np.linalg.norm(row) for row in psi]
    return sum(wk * np.outer(v, v.conj()) for wk, v in zip(w, kets))


def random_fano_state(rng: np.random.Generator) -> FanoState:
    return matrix_to_fano(random_density_matrix(rng))
