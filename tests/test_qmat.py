"""Fano-form state algebra: round trips, trace norm, concurrence, and the
B-side dephasing oracle."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import (PAULI_XYZ, basis_from_axis, dephase_b, fano_by_matrix,
                     is_physical)
from unruh_steer.errors import DomainError, NonHermitian, NotPositive
from unruh_steer.model import (UnruhParams, equilibrium_free, evolve,
                               kossakowski_free, leaf_mask)
from unruh_steer.qmat import (FanoState, concurrence, fano_matrices,
                              fano_to_matrix, fano_vectors, matrix_to_fano,
                              random_density_matrix, random_fano_state,
                              trace_norm)
from unruh_steer.steering import sic_solution

SINGLET = FanoState(a_vec=np.zeros(3), b_vec=np.zeros(3), t_mat=-np.eye(3))


def test_singlet_matrix():
    m = fano_to_matrix(SINGLET)
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    assert np.allclose(m, np.outer(psi, psi), atol=1e-15)
    assert SINGLET.trace_sum == -3.0


def _explicit_kron_sum(st):
    s = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
         np.diag([1.0, -1.0]))
    m = np.kron(s[0], s[0]).astype(complex)
    for i in range(3):
        m += st.a_vec[i] * np.kron(s[i + 1], s[0])
        m += st.b_vec[i] * np.kron(s[0], s[i + 1])
        for j in range(3):
            m += st.t_mat[i, j] * np.kron(s[i + 1], s[j + 1])
    return m / 4.0


def test_matrix_round_trip_random():
    rng = np.random.default_rng(42)
    for _ in range(50):
        m = random_density_matrix(rng)
        st = matrix_to_fano(m)
        assert np.allclose(fano_to_matrix(st), m, atol=1e-13)
        # the round trip alone would miss a consistent transpose of T
        assert np.allclose(fano_to_matrix(st), _explicit_kron_sum(st), atol=1e-14)
        assert abs(np.trace(m) - 1.0) < 1e-13
        assert is_physical(st)


def test_vector_round_trip():
    rng = np.random.default_rng(7)
    st = random_fano_state(rng)
    again = FanoState.from_vector(st.to_vector())
    assert np.array_equal(again.to_vector(), st.to_vector())
    assert st.to_vector().shape == (15,)


_FANO_VECTORS = st.lists(
    st.lists(st.floats(-2.0, 2.0), min_size=15, max_size=15),
    min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(vectors=_FANO_VECTORS)
def test_fano_matrices_match_kron_loop(vectors):
    # most vectors in [-2, 2]^15 are unphysical; the build must not care
    stack = fano_matrices(np.array(vectors))
    assert stack.shape == (len(vectors), 4, 4)
    for v, m in zip(vectors, stack):
        assert np.abs(m - fano_to_matrix(FanoState.from_vector(v))).max() <= 1e-15
        assert np.abs(m - m.conj().T).max() <= 1e-15
        assert abs(np.trace(m) - 1.0) <= 1e-15


def _drawn_matrix(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "equilibrium":
        return fano_to_matrix(equilibrium_free(rng.uniform(-3.0, 1.0),
                                               rng.uniform(0.0, 1.0)))
    if kind == "bell":
        # a Bell-diagonal state (c inside the tetrahedron of the four Bell
        # corners) under a random local unitary, rotated as a 4x4 matrix
        corners = [[-1, -1, -1], [-1, 1, 1], [1, -1, 1], [1, 1, -1]]
        c = rng.dirichlet(np.ones(4)) @ np.array(corners, dtype=float)
        bell = fano_to_matrix(FanoState(np.zeros(3), np.zeros(3), np.diag(c)))
        u = np.kron(*(np.linalg.qr(rng.normal(size=(2, 2))
                                   + 1j * rng.normal(size=(2, 2)))[0]
                      for _ in range(2)))
        return u @ bell @ u.conj().T
    return random_density_matrix(rng)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(
    st.sampled_from(("random", "bell", "equilibrium")),
    st.integers(0, 2**32 - 1)), min_size=1, max_size=12))
@example(rows=[("random", 0), ("bell", 1), ("equilibrium", 2), ("random", 3)])
def test_stacked_projection_has_the_bits_of_each_matrix(rows):
    # every row of a mixed stack equals the 2-D projection of its matrix
    matrices = np.array([_drawn_matrix(kind, seed) for kind, seed in rows])
    vectors = fano_vectors(matrices)
    assert vectors.shape == (len(rows), 15)
    assert vectors.flags.c_contiguous
    for m, row in zip(matrices, vectors):
        reference = fano_by_matrix(m).to_vector()
        assert row.tobytes() == reference.tobytes()
        assert matrix_to_fano(m).to_vector().tobytes() == reference.tobytes()
    one = fano_vectors(matrices[-1])
    assert one.shape == (15,) and one.tobytes() == vectors[-1].tobytes()
    assert fano_vectors(matrices[None]).shape == (1, len(rows), 15)
    assert fano_vectors(matrices[:0]).shape == (0, 15)


def test_fano_state_arrays_read_only():
    st = random_fano_state(np.random.default_rng(0))
    with pytest.raises(ValueError):
        st.a_vec[0] = 1.0


def test_fano_state_rejects_nonfinite():
    with pytest.raises(DomainError):
        FanoState(a_vec=np.array([np.nan, 0, 0]), b_vec=np.zeros(3),
                  t_mat=np.zeros((3, 3)))


def test_trace_norm_matches_spectrum():
    rng = np.random.default_rng(5)
    for _ in range(20):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = h + h.conj().T
        assert abs(trace_norm(h) - np.abs(np.linalg.eigvalsh(h)).sum()) < 1e-12


def test_trace_norm_rejects_nonhermitian():
    with pytest.raises(NonHermitian):
        trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # the check raises rather than asserts, so it survives python -O
    code = ("import numpy as np\n"
            "from unruh_steer import NonHermitian, trace_norm\n"
            "try:\n"
            "    trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))\n"
            "except NonHermitian:\n"
            "    print('NonHermitian')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "NonHermitian", proc.stderr


def test_basis_from_axis_eigenvectors():
    # the oracle's columns diagonalize n.sigma with +1 first, also at the poles
    rng = np.random.default_rng(9)
    axes = list(rng.normal(size=(20, 3))) + [np.array([0.0, 0.0, 1.0]),
                                             np.array([0.0, 0.0, -1.0])]
    for ax in axes:
        n = ax / np.linalg.norm(ax)
        u = basis_from_axis(n)
        assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
        ns = sum(c * s for c, s in zip(n, PAULI_XYZ))
        assert np.allclose(ns @ u[:, 0], u[:, 0], atol=1e-12)
        assert np.allclose(ns @ u[:, 1], -u[:, 1], atol=1e-12)


def test_dephase_z_zeroes_transverse_b_sector():
    rng = np.random.default_rng(17)
    st = random_fano_state(rng)
    out = matrix_to_fano(dephase_b(fano_to_matrix(st), np.array([0, 0, 1.0])))
    assert np.allclose(out.a_vec, st.a_vec, atol=1e-13)
    assert abs(out.b_vec[0]) < 1e-13 and abs(out.b_vec[1]) < 1e-13
    assert abs(out.b_vec[2] - st.b_vec[2]) < 1e-13
    assert np.allclose(out.t_mat[:, :2], 0.0, atol=1e-13)
    assert np.allclose(out.t_mat[:, 2], st.t_mat[:, 2], atol=1e-13)


def test_dephase_idempotent_trace_preserving():
    rng = np.random.default_rng(19)
    m = random_density_matrix(rng)
    ax = np.array([1.0, -2.0, 0.5])
    ax /= np.linalg.norm(ax)
    once = dephase_b(m, ax)
    assert np.allclose(dephase_b(once, ax), once, atol=1e-14)
    assert abs(np.trace(once) - 1.0) < 1e-13


def test_concurrence_known_states():
    assert abs(concurrence(fano_to_matrix(SINGLET)) - 1.0) < 1e-12
    product = FanoState(a_vec=np.array([0, 0, 1.0]), b_vec=np.array([0, 0, 1.0]),
                        t_mat=np.diag([0.0, 0.0, 1.0]))
    assert concurrence(fano_to_matrix(product)) < 1e-12


@pytest.mark.parametrize("p", [0.2, 1.0 / 3.0, 0.5, 0.9])
def test_concurrence_werner_line(p):
    # p * singlet + (1 - p)/4 * identity -> max(0, (3p - 1)/2)
    w = FanoState(a_vec=np.zeros(3), b_vec=np.zeros(3), t_mat=-p * np.eye(3))
    assert abs(concurrence(fano_to_matrix(w)) - max(0.0, (3 * p - 1) / 2)) < 1e-12


def test_concurrence_rejects_unphysical():
    bad = FanoState(a_vec=np.zeros(3), b_vec=np.zeros(3), t_mat=np.eye(3))
    assert not is_physical(bad)
    with pytest.raises(NotPositive):
        concurrence(fano_to_matrix(bad))
    # Cholesky reads one triangle, so Hermiticity is checked first
    with pytest.raises(NonHermitian):
        concurrence(np.triu(np.ones((4, 4))) / 4.0)


def _pushed(family, seed, low):
    # a state of ``family`` whose minimum eigenvalue is ``low``, to rounding:
    # a polarized state along a random axis, min (1 - |a|) / 4; a Werner
    # state T = -p I with a = b = d z, min (1 - p - 2 d) / 4 at |11>; a
    # random state dilated about I / 4
    rng = np.random.default_rng(seed)
    if family == "polarized":
        axis = rng.normal(size=3)
        a_vec = (1.0 - 4.0 * low) * axis / np.linalg.norm(axis)
        return FanoState(a_vec, np.zeros(3), np.zeros((3, 3)))
    if family == "werner":
        p = rng.uniform(-0.3, 0.9)   # so d > 0 and no other eigenvalue is lower
        bloch = np.array([0.0, 0.0, (1.0 - p - 4.0 * low) / 2.0])
        return FanoState(bloch, bloch, -p * np.eye(3))
    rho = random_density_matrix(rng)
    scale = (0.25 - low) / (0.25 - np.linalg.eigvalsh(rho)[0])
    return matrix_to_fano(0.25 * np.eye(4) + scale * (rho - 0.25 * np.eye(4)))


def _verdict(call):
    try:
        call()
    except NotPositive as exc:
        return str(exc)
    return "state"


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["polarized", "werner", "random"]),
       seed=st.integers(0, 2 ** 32 - 1), below=st.booleans(),
       exponent=st.floats(-13.0, -3.0))
def test_one_positivity_gate(family, seed, below, exponent):
    # sic_solution, concurrence and evolve take one verdict, with one text,
    # on a state whose minimum eigenvalue lies 1e-13 to 1e-3 from the gate
    # -1e-10 (closer, Cholesky and eigvalsh may round apart)
    low = -1e-10 + (-1.0 if below else 1.0) * 10.0 ** exponent
    state = _pushed(family, seed, low)
    assume(leaf_mask(state.trace_sum, 0.0))
    coeffs = kossakowski_free(UnruhParams(1.0, 1.0))
    verdicts = {_verdict(lambda: sic_solution(state)),
                _verdict(lambda: concurrence(fano_to_matrix(state))),
                _verdict(lambda: evolve(state, coeffs, samples=2))}
    assert len(verdicts) == 1, verdicts
    assert (verdicts == {"state"}) == (not below)


def test_random_density_matrix_is_physical():
    rng = np.random.default_rng(23)
    for _ in range(25):
        m = random_density_matrix(rng)
        assert np.allclose(m, m.conj().T, atol=1e-14)
        assert np.linalg.eigvalsh(m)[0] > -1e-13
        assert abs(np.trace(m).real - 1.0) < 1e-13


def test_matrix_to_fano_validation():
    with pytest.raises(NonHermitian,
                       match=r"^max \|m - m\^dag\| = 4\.000e-01 exceeds 1e-09$"):
        matrix_to_fano(np.triu(np.ones((4, 4))) / 2.5)
    with pytest.raises(DomainError, match=r"^trace 2\.0 is not 1 within 1e-09$"):
        matrix_to_fano(np.eye(4) / 2.0)
    nan_entry = np.eye(4) / 4.0
    nan_entry[0, 3] = np.nan
    with pytest.raises(DomainError, match="^matrix has non-finite entries$"):
        matrix_to_fano(nan_entry)


def test_stack_errors_name_the_bad_matrix():
    good = np.eye(4, dtype=complex) / 4.0
    skew = good.copy()
    skew[0, 1] = 0.03
    nan_entry = good.copy()
    nan_entry[2, 2] = np.nan
    with pytest.raises(NonHermitian,
                       match=r"^max \|m - m\^dag\| = 3\.000e-02 exceeds 1e-09$"):
        fano_vectors([good, skew, good])
    with pytest.raises(DomainError, match="^matrix has non-finite entries$"):
        fano_vectors([good, good, nan_entry])
    # the first matrix off unit trace is named, as a plain float
    with pytest.raises(DomainError, match=r"^trace 1\.5 is not 1 within 1e-09$"):
        fano_vectors([[good, np.diag([0.5, 0.5, 0.25, 0.25])],
                      [good, np.eye(4) / 2.0]])
