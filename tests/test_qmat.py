"""Fano-form state algebra: round trips, trace norm, concurrence, and the
B-side dephasing oracle."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import PAULI_XYZ, basis_from_axis, dephase_b, is_physical
from unruh_steer.errors import DomainError, NonHermitian, NotPositive
from unruh_steer.qmat import (FanoState, concurrence, fano_matrices,
                              fano_to_matrix, matrix_to_fano, min_eigenvalue,
                              random_density_matrix, random_fano_state,
                              trace_norm)

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


def test_min_eigenvalue():
    assert abs(min_eigenvalue(np.diag([0.5, -0.25])) + 0.25) < 1e-15


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


def test_random_density_matrix_is_physical():
    rng = np.random.default_rng(23)
    for _ in range(25):
        m = random_density_matrix(rng)
        assert np.allclose(m, m.conj().T, atol=1e-14)
        assert min_eigenvalue(m) > -1e-13
        assert abs(np.trace(m).real - 1.0) < 1e-13


def test_matrix_to_fano_validation():
    with pytest.raises(NonHermitian):
        matrix_to_fano(np.triu(np.ones((4, 4))) / 2.5)
    with pytest.raises(DomainError):
        matrix_to_fano(np.eye(4) / 2.0)  # trace 2
    nan_entry = np.eye(4) / 4.0
    nan_entry[0, 3] = np.nan
    with pytest.raises(DomainError, match="^matrix has non-finite entries$"):
        matrix_to_fano(nan_entry)
