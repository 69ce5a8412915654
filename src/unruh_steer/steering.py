"""Steering-induced coherence, measurement-induced disturbance, and the
coherence-based steering criteria.

Alice projectively measures her qubit along a unit axis m; Bob's
conditional states form the steered ensemble. The steering-induced
coherence (SIC) is the ensemble-average l1 coherence of Bob's conditional
states, measured in the eigenbasis of his unconditional reduced state,
maximized over m. The one-sided measurement-induced disturbance (MID) is
the trace-norm distance between the state and its B-side dephasing in that
same eigenbasis. The two coincide for two qubits; ``theorem1_residual``
checks the identity numerically.

One 3x3 SVD gives the optimum. With Bob's axis e = b/|b| and P_e = I - e e^T,
P_e b = 0, so Alice's axis m yields average coherence |P_e T^T m| and SIC
= sigma_max(P_e T^T). For |b| = 0 the value is the infimum over e, which
by singular-value interlacing is sigma_2(T) (Luo, PRA 77, 022301 (2008);
Horodecki & Horodecki, PRA 54, 1838 (1996)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coherence import l1_coherence_bloch
from .errors import DenominatorZero, DomainError, NotPositive
from .model import boundary_denominator, check_leaf, equilibrium_free
from .qmat import FanoState, dephase_b, fano_to_matrix, min_eigenvalue, trace_norm

SQRT6 = math.sqrt(6.0)
DEGENERACY_GATE = 1e-9    # |b| below this: reduced state treated as maximally mixed
PHYSICALITY_TOL = 1e-10   # min-eigenvalue gate on input states
PROB_FLOOR = 1e-15        # outcome probability treated as zero
MEAS_UNIT_TOL = 1e-12


def _require_physical(state: FanoState) -> np.ndarray:
    m = fano_to_matrix(state)
    low = min_eigenvalue(m)
    if low < -PHYSICALITY_TOL:
        raise NotPositive(f"state has min eigenvalue {low:.3e}")
    return m


def _axis_index(axis) -> int:
    # match on type, not on hashing: True == 1 and 1.0 == 1 would pass a dict
    if isinstance(axis, str) and axis in ("x", "y", "z"):
        return "xyz".index(axis)
    if (isinstance(axis, (int, np.integer)) and not isinstance(axis, bool)
            and 0 <= axis <= 2):
        return int(axis)
    raise DomainError(f"axes must be 'x', 'y', 'z' or 0, 1, 2, not {axis!r}")


def _require_meas_axis(v) -> np.ndarray:
    v = np.asarray(v, dtype=float).reshape(3)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > MEAS_UNIT_TOL:
        raise DomainError("measurement axis must be a unit 3-vector")
    return v / norm


# ----- steered ensembles -----

@dataclass(frozen=True)
class SteeredEnsemble:
    """Bob's conditional Bloch vectors for Alice outcomes (+1, -1).

    A zero-probability outcome carries Bob's unconditional Bloch vector by
    convention (it never contributes to averages).
    """

    probs: np.ndarray
    blochs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=float).reshape(2)
        r = np.array(self.blochs, dtype=float).reshape(2, 3)
        p.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "blochs", r)


def steer_bob(state: FanoState, m) -> SteeredEnsemble:
    """Conditional ensemble on B after measuring axis m on A.

    p_pm = (1 pm a.m)/2 and r_pm = (b pm T^T m) / (2 p_pm).
    """
    m = _require_meas_axis(m)
    _require_physical(state)
    along = float(state.a_vec @ m)
    tm = state.t_mat.T @ m
    probs = np.array([0.5 * (1.0 + along), 0.5 * (1.0 - along)])
    blochs = np.empty((2, 3))
    for k, sign in enumerate((1.0, -1.0)):
        if probs[k] > PROB_FLOOR:
            blochs[k] = (state.b_vec + sign * tm) / (2.0 * probs[k])
        else:
            blochs[k] = state.b_vec
    return SteeredEnsemble(probs=probs, blochs=blochs)


# ----- steering-induced coherence -----

class SicSolution(NamedTuple):
    """SIC value, Alice's optimal axis, and Bob's reference Bloch axis."""

    value: float
    meas_axis: np.ndarray
    ref_axis: np.ndarray


def _frozen(v: np.ndarray) -> np.ndarray:
    v = np.array(v, dtype=float)
    v.setflags(write=False)
    return v


def _solve_sic(b: np.ndarray, t_mat: np.ndarray) -> SicSolution:
    # unvalidated core, so one_sided_mid reuses its own physicality check
    blen = float(np.linalg.norm(b))
    if blen < DEGENERACY_GATE:
        u, s, vt = np.linalg.svd(t_mat)
        return SicSolution(float(s[1]), _frozen(u[:, 1]), _frozen(vt[0]))
    e_hat = b / blen
    _, s, vt = np.linalg.svd((np.eye(3) - np.outer(e_hat, e_hat)) @ t_mat.T)
    return SicSolution(float(s[0]), _frozen(vt[0]), _frozen(e_hat))


def sic_solution(state: FanoState) -> SicSolution:
    """Optimal SIC value and axes from one 3x3 SVD.

    Nondegenerate: e = b/|b|; the value and Alice's axis are the top
    singular value and right singular vector of (I - e e^T) T^T. Below the
    degeneracy gate |b| < 1e-9, b is dropped (error bounded by |b|): e is
    T's top right singular vector and the value sigma_2(T).
    """
    _require_physical(state)
    return _solve_sic(state.b_vec, state.t_mat)


def steering_induced_coherence(state: FanoState) -> float:
    """Maximal average conditional l1 coherence in Bob's eigenbasis."""
    return sic_solution(state).value


def sic_closed_form_free(tau: float, ratio: float) -> float:
    """|tau - ratio^2| / (3 + ratio^2), the SIC of the equilibrium family."""
    return abs(tau - ratio * ratio) / (3.0 + ratio * ratio)


# ----- one-sided measurement-induced disturbance -----

def one_sided_mid(state: FanoState) -> float:
    """Trace-norm disturbance Tr|rho - D_B(rho)| under B-side dephasing.

    First principles, in the eigenbasis ``sic_solution`` selects.
    """
    m = _require_physical(state)
    axis = _solve_sic(state.b_vec, state.t_mat).ref_axis
    return trace_norm(m - dephase_b(m, axis))


def theorem1_residual(state: FanoState) -> float:
    """|SIC - MID|: SVD value against 4x4 trace norm, zero up to rounding."""
    return abs(steering_induced_coherence(state) - one_sided_mid(state))


# ----- conditional-coherence steering criteria -----

def alpha_matrix(state: FanoState) -> np.ndarray:
    """Matrix alpha_ij = b_i + T_ji of steered-coherence building blocks."""
    return state.b_vec[:, None] + state.t_mat.T


class ConditionalCoherence(NamedTuple):
    """Closed-form (primary) and first-principles values of one term."""

    closed_form: float
    direct: float


def conditional_coherence(state: FanoState, meas_axis, coh_axis,
                          outcome: int = +1) -> ConditionalCoherence:
    """l1 coherence of Bob's conditional state for one Alice outcome.

    Measuring axis k with outcome s gives Bob the Bloch vector
    (b_j + s T_kj) / (1 + s a_k); its coherence in the basis of axis w is
    the root-sum-square of the other two components:

        sqrt( sum_{j != w} (b_j + s T_kj)^2 ) / (1 + s a_k),

    which for s = +1 reads sqrt(sum_{j != w} alpha_jk^2) / (1 + a_k). The
    closed form is the primary value; ``direct`` recomputes it through the
    steered ensemble. Raises DenominatorZero when |1 + s a_k| <= 1e-12 and
    DomainError when the two axes coincide.
    """
    k = _axis_index(meas_axis)
    w = _axis_index(coh_axis)
    if k == w:
        raise DomainError("measurement and coherence axes must differ")
    if outcome not in (+1, -1):
        raise DomainError("outcome must be +1 or -1")
    denom = 1.0 + outcome * float(state.a_vec[k])
    if abs(denom) <= 1e-12:
        raise DenominatorZero(f"1 + outcome * a[{k}] = {denom:.3e}")
    numer = state.b_vec + outcome * state.t_mat[k]
    others = [j for j in range(3) if j != w]
    closed = math.hypot(numer[others[0]], numer[others[1]]) / denom

    axis_vec = np.zeros(3)
    axis_vec[k] = 1.0
    ensemble = steer_bob(state, axis_vec)
    basis = np.zeros(3)
    basis[w] = 1.0
    direct = l1_coherence_bloch(ensemble.blochs[0 if outcome == +1 else 1],
                                basis)
    return ConditionalCoherence(closed_form=closed, direct=direct)


class SteerabilityFree(NamedTuple):
    """Both readings of the equilibrium-family coherence-sum criterion."""

    literal: float
    absolute: float
    exceeds_literal: bool
    exceeds_absolute: bool
    singular: bool


def steerability_functional_free(tau: float, ratio: float) -> SteerabilityFree:
    """Coherence-sum steering functional of the equilibrium family.

    literal = 2 (tau - ratio^2) / (3 + ratio^2)
              + [ratio^2 (tau+2) - ratio (tau+3) + tau]
                / [ratio^2 - ratio (tau+3) + 3]

    in the printed signed reading; ``absolute`` applies |.| to each of the
    (by definition non-negative) coherence terms. Each total is compared
    against the sqrt(6) threshold. At (tau, ratio) = (1, 1) numerator and
    denominator of the second term vanish together; that point comes back
    flagged singular with NaN values instead of raising.
    """
    check_leaf(tau, ratio)
    denom1 = 3.0 + ratio * ratio
    denom2 = ratio * ratio - ratio * (tau + 3.0) + 3.0
    if abs(denom2) <= 1e-12:
        return SteerabilityFree(math.nan, math.nan, False, False, True)
    term1 = 2.0 * (tau - ratio * ratio) / denom1
    num2 = ratio * ratio * (tau + 2.0) - ratio * (tau + 3.0) + tau
    literal = term1 + num2 / denom2
    absolute = abs(term1) + abs(num2) / denom2
    return SteerabilityFree(literal=literal, absolute=absolute,
                            exceeds_literal=literal > SQRT6,
                            exceeds_absolute=absolute > SQRT6,
                            singular=False)


class CyclicPairings(NamedTuple):
    """The two cyclic measurement/coherence pairings of the criterion sum.

    first  = C_x(B|y) + C_y(B|z) + C_z(B|x)
    second = C_x(B|z) + C_y(B|x) + C_z(B|y)

    Unlike the signed functional these keep the full root-sum-square
    coherences, cross terms included.
    """

    first: float
    second: float


def steerability_pairings_free(tau: float, ratio: float) -> CyclicPairings:
    """Evaluate both cyclic pairings on the equilibrium state (outcome +1)."""
    state = equilibrium_free(tau, ratio)

    def coh(meas, basis):
        return conditional_coherence(state, meas, basis).closed_form

    first = coh("y", "x") + coh("z", "y") + coh("x", "z")
    second = coh("z", "x") + coh("x", "y") + coh("y", "z")
    return CyclicPairings(first=first, second=second)


class BoundaryVerdict(NamedTuple):
    """Boundary-case criterion pieces x1 (= x2), x3, their ratio, verdict."""

    x1: float
    x3: float
    value: float
    satisfied: bool


def steerability_verdict_boundary(coeffs) -> BoundaryVerdict:
    """Coherence-sum steering criterion for the boundary equilibrium.

    x1 = -(A1-A2) B1 (2A1+A2) / D and x3 = (A1-A2) B1 (2B1+B2-2A1-A2) / D
    share the denominator D of the boundary equilibrium
    (:func:`~unruh_steer.model.boundary_denominator`); the criterion
    compares x3 / (1 + x1) against sqrt(6). Raises DegenerateLimit when D
    underflows and DenominatorZero when 1 + x1 <= 1e-9 (the ratio
    saturation regime near zero acceleration, where cancellation noise
    dominates the denominator).
    """
    d = boundary_denominator(coeffs)
    a1, a2, b1, b2 = coeffs.A1, coeffs.A2, coeffs.B1, coeffs.B2
    x1 = -(a1 - a2) * b1 * (2.0 * a1 + a2) / d
    x3 = (a1 - a2) * b1 * (2.0 * b1 + b2 - 2.0 * a1 - a2) / d
    # analytically 1 + x1 = 1 - ratio > 0; rounding noise in x1 is ~5e-12,
    # so anything at or below 1e-9 is saturation, not signal (the quotient's
    # sign can even flip there)
    denom = 1.0 + x1
    if denom <= 1e-9:
        raise DenominatorZero(f"1 + x1 = {denom:.3e}")
    value = x3 / denom
    return BoundaryVerdict(x1=x1, x3=x3, value=value, satisfied=value > SQRT6)
