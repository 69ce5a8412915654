"""First-principles reference implementations, used only by the tests.

The package computes SIC, MID and the steerability functional in closed
form. These oracles rebuild the pieces from their definitions instead:
Bob's steered ensemble, l1 coherences of qubit states in the eigenbasis of
a Bloch axis, and B-side dephasing as a 4x4 projector sum. They do no
argument checking: callers pass unit or nonzero axes and physical states.
"""

import math

import numpy as np

from unruh_steer.model import equilibrium_free

PAULI_XYZ = (np.array([[0, 1], [1, 0]], dtype=complex),
             np.array([[0, -1j], [1j, 0]]),
             np.diag([1.0, -1.0]).astype(complex))
PROB_FLOOR = 1e-15   # outcome probability treated as zero


def unit_axis(axis):
    axis = np.asarray(axis, dtype=float)
    return axis / np.linalg.norm(axis)


def basis_from_axis(axis):
    """Columns are the +1 and -1 eigenkets of n.sigma, n = axis / |axis|."""
    n = unit_axis(axis)
    _, kets = np.linalg.eigh(sum(c * s for c, s in zip(n, PAULI_XYZ)))
    return kets[:, ::-1]


def dephase_b(m, axis):
    """sum_k (I x P_k) m (I x P_k) over the eigenprojectors P_k of n.sigma."""
    u = basis_from_axis(axis)
    projectors = [np.kron(np.eye(2), np.outer(u[:, k], u[:, k].conj()))
                  for k in range(2)]
    return sum(p @ m @ p for p in projectors)


def l1_coherence(m, axis):
    """Sum of absolute off-diagonal entries of a 2x2 state in the basis of
    a Bloch axis."""
    u = basis_from_axis(axis)
    rot = u.conj().T @ m @ u
    return float(abs(rot[0, 1]) + abs(rot[1, 0]))


def l1_coherence_bloch(r, axis):
    """The same value from the Bloch vector: sqrt(|r|^2 - (r.n)^2)."""
    n = unit_axis(axis)
    return math.sqrt(max(float(r @ r) - float(r @ n) ** 2, 0.0))


def steer_bob(state, m):
    """(probs, blochs) for Alice outcomes (+1, -1) along a unit axis m:
    p = (1 +- a.m)/2 and r = (b +- T^T m) / (2 p). A zero-probability
    outcome carries Bob's unconditional Bloch vector b."""
    along, tm = state.a_vec @ m, state.t_mat.T @ m
    probs = np.array([0.5 * (1.0 + along), 0.5 * (1.0 - along)])
    blochs = np.array([(state.b_vec + sign * tm) / (2.0 * p) if p > PROB_FLOOR
                       else state.b_vec
                       for sign, p in zip((1.0, -1.0), probs)])
    return probs, blochs


def alpha_matrix(state):
    """alpha_ij = b_i + T_ji, the steered-coherence building blocks."""
    return state.b_vec[:, None] + state.t_mat.T


def axis_index(axis):
    return "xyz".index(axis) if isinstance(axis, str) else int(axis)


def conditional_coherence(state, meas_axis, coh_axis, outcome=+1):
    """(closed form, steered-ensemble value) of the l1 coherence in the basis
    of axis w of Bob's state after Alice measures axis k with outcome s:

        sqrt( sum_{j != w} (b_j + s T_kj)^2 ) / (1 + s a_k).
    """
    k, w = axis_index(meas_axis), axis_index(coh_axis)
    numer = state.b_vec + outcome * state.t_mat[k]
    closed = math.hypot(*np.delete(numer, w)) / (1.0 + outcome * state.a_vec[k])
    _, blochs = steer_bob(state, np.eye(3)[k])
    direct = l1_coherence_bloch(blochs[0 if outcome == +1 else 1], np.eye(3)[w])
    return closed, direct


def steerability_pairings_free(tau, ratio):
    """Both cyclic pairings of the criterion sum on the equilibrium state,
    outcome +1, with the full root-sum-square coherences:

        (C_x(B|y) + C_y(B|z) + C_z(B|x), C_x(B|z) + C_y(B|x) + C_z(B|y)).
    """
    state = equilibrium_free(tau, ratio)

    def coh(meas, basis):
        return conditional_coherence(state, meas, basis)[0]

    return (coh("y", "x") + coh("z", "y") + coh("x", "z"),
            coh("z", "x") + coh("x", "y") + coh("y", "z"))
