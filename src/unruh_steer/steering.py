"""Steering-induced coherence, measurement-induced disturbance, and the
coherence-based steering criteria.

Alice projectively measures her qubit along a unit axis m; Bob's
conditional states form the steered ensemble. The steering-induced
coherence (SIC) is the ensemble-average l1 coherence of Bob's conditional
states, measured in the eigenbasis of his unconditional reduced state,
maximized over m. The one-sided measurement-induced disturbance (MID) is
the trace-norm distance between the state and its B-side dephasing along
Bob's axis e, (a, b, T) -> (a, b, T e e^T) in Fano coordinates: the trace
norm of the correlation block T (I - e e^T) that the dephasing removes. The
two coincide for two qubits; ``theorem1_residual`` checks the identity.

One formula gives the optimum: SIC = sigma_max(P_e T^T), P_e = I - e e^T,
with Alice's axis the top right singular vector of P_e T^T. Only Bob's
axis e depends on the state's branch. With e = b/|b|, P_e b = 0, so
Alice's axis m yields average coherence |P_e T^T m|. For |b| = 0 the
value is the infimum over e, attained at T's top right singular vector
v_1, where by singular-value interlacing sigma_max(P_e T^T) = sigma_2(T)
(Luo, PRA 77, 022301 (2008); Horodecki & Horodecki, PRA 54, 1838 (1996)).
"""

from __future__ import annotations

import math
from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import DegenerateLimit, DenominatorZero, DomainError
from .model import _power, check_leaf
from .qmat import FanoState, fano_matrices, fano_to_matrix, require_state

SQRT6 = math.sqrt(6.0)
DEGENERACY_GATE = 1e-9    # |b| below this: reduced state treated as maximally mixed
# analytically 1 + x1 = 1 - ratio > 0; rounding noise in x1 is ~5e-12, so
# anything at or below this is saturation, not signal (the quotient's sign
# can even flip there)
DENOMINATOR_GATE = 1e-9
DEGENERATE_D_REL = 1e-14   # |D| underflow gate, relative to coefficient scale
COEFFICIENT_LIMIT = 1e102  # coefficient scale below it keeps D, x1, x3 finite


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


def sic_rows(vectors):
    """SIC values, Alice's axes and Bob's axes of an (n, 15) stack of
    :meth:`FanoState.to_vector` rows: sigma_max of (I - e e^T) T^T and its
    top right singular vector. Bob's axis e is b/|b|, or below the gate
    |b| < 1e-9 (b dropped, error bounded by |b|) T's top right singular
    vector, which gives sigma_2(T). No positivity check. A row's bits are
    those of a stack of one, in any memory layout, and, on all BLAS kernels
    but one (ROADMAP item 7), of 2-D calls on its state."""
    vectors = np.ascontiguousarray(vectors, dtype=float).reshape(-1, 15)
    b, t = vectors[:, 3:6], vectors[:, 6:].reshape(-1, 3, 3)
    blen = np.sqrt(b[:, None] @ b[:, :, None])[:, 0]   # np.linalg.norm's bits
    degenerate = blen[:, 0] < DEGENERACY_GATE
    e = b / np.where(degenerate[:, None], 1.0, blen)
    if degenerate.any():   # an SVD of an empty stack is not free
        e[degenerate] = np.linalg.svd(t[degenerate])[2][:, 0]
    projected = (np.eye(3) - e[:, :, None] * e[:, None, :]) @ t.transpose(0, 2, 1)
    _, s, vt = np.linalg.svd(projected)
    return s[:, 0], vt[:, 0], e


def _gated(state: FanoState) -> np.ndarray:
    require_state(fano_to_matrix(state))
    return state.to_vector()


def sic_solution(state: FanoState) -> SicSolution:
    """:func:`sic_rows` of one state; NotPositive, from
    :func:`~unruh_steer.qmat.require_state`, unless ``state`` is a state."""
    value, meas_axis, ref_axis = sic_rows(_gated(state))
    return SicSolution(float(value[0]), _frozen(meas_axis[0]), _frozen(ref_axis[0]))


def steering_induced_coherence(state: FanoState) -> float:
    """Maximal average conditional l1 coherence in Bob's eigenbasis."""
    return sic_solution(state).value


def sic_closed_form_free(tau: float, ratio: float) -> float:
    """|tau - ratio^2| / (3 + ratio^2), the SIC of the equilibrium family."""
    return abs(tau - ratio * ratio) / (3.0 + ratio * ratio)


# ----- one-sided measurement-induced disturbance -----

def sic_mid_rows(vectors):
    """Columns (sic, mid, |sic - mid|) of an (n, 15) stack from one
    :func:`sic_rows`; no positivity check. MID = Tr|rho - D_B(rho)|, with
    D_B the B-side dephasing along the SIC's reference axis e, (a, b, T) ->
    (a, b, T e e^T) in Fano coordinates (below the degeneracy gate the SIC
    drops b, and so does MID): the trace norm of the block T (I - e e^T),
    1/4 sum_ij [T (I - e e^T)]_ij s_i x s_j, built without rho."""
    vectors = np.ascontiguousarray(vectors, dtype=float).reshape(-1, 15)
    sic, _, e = sic_rows(vectors)
    t = vectors[:, 6:].reshape(-1, 3, 3)
    block = np.zeros((len(t), 15))
    block[:, 6:] = (t - (t @ e[:, :, None]) * e[:, None, :]).reshape(-1, 9)
    mid = np.abs(np.linalg.eigvalsh(fano_matrices(block) - 0.25 * np.eye(4))).sum(-1)
    return sic, mid, np.abs(sic - mid)


def one_sided_mid(state: FanoState) -> float:
    """MID of one state (see :func:`sic_mid_rows`), gated as :func:`sic_solution` is."""
    return float(sic_mid_rows(_gated(state))[1][0])


def theorem1_residual(state: FanoState) -> float:
    """|SIC - MID|: SVD value against 4x4 trace norm, zero up to rounding."""
    return float(sic_mid_rows(_gated(state))[2][0])


# ----- coherence-sum steering criteria -----

class SteerabilityFree(NamedTuple):
    """Both readings of the equilibrium-family coherence-sum criterion."""

    literal: float
    absolute: float
    exceeds_literal: bool
    exceeds_absolute: bool
    singular: bool


def coherence_sum_terms(tau, ratio):
    """(literal, absolute, singular) of :func:`steerability_functional_free`,
    the singular gate being |second denominator| <= 1e-12; plain arithmetic,
    so Python floats and numpy arrays alike. A singular row divides by its
    denominator plus 1, not by 0, so nothing raises; its readings mean
    nothing, and both callers replace them. Elsewhere x + 0 is x."""
    square = ratio * ratio
    denom2 = square - ratio * (tau + 3.0) + 3.0
    term1 = 2.0 * (tau - square) / (3.0 + square)
    num2 = square * (tau + 2.0) - ratio * (tau + 3.0) + tau
    singular = abs(denom2) <= 1e-12
    denom2 = denom2 + singular
    return term1 + num2 / denom2, abs(term1) + abs(num2) / denom2, singular


def steerability_functional_free(tau: float, ratio: float) -> SteerabilityFree:
    """Coherence-sum steering functional of the equilibrium family.

    literal = 2 (tau - ratio^2) / (3 + ratio^2)
              + [ratio^2 (tau+2) - ratio (tau+3) + tau]
                / [ratio^2 - ratio (tau+3) + 3]

    in the printed signed reading; ``absolute`` applies |.| to each of the
    (by definition non-negative) coherence terms. Term k of the signed sum
    is the k-component of Bob's Bloch vector after Alice measures axis k
    and gets +1, (b_k + T_kk) / (1 + a_k). Each total is compared
    against the sqrt(6) threshold. At (tau, ratio) = (1, 1) numerator and
    denominator of the second term vanish together; that point comes back
    flagged singular with NaN values instead of raising.
    """
    check_leaf(tau, ratio)
    literal, absolute, singular = coherence_sum_terms(tau, ratio)
    if singular:
        return SteerabilityFree(math.nan, math.nan, False, False, True)
    return SteerabilityFree(literal=literal, absolute=absolute,
                            exceeds_literal=literal > SQRT6,
                            exceeds_absolute=absolute > SQRT6,
                            singular=False)


def boundary_verdict_rows(a1, a2, b1, b2):
    """Coherence-sum steering criterion for the boundary equilibrium, on
    float arrays of coefficient pairs: the arrays (x1, x3, value,
    satisfied), and a dict from each row the gates refuse to its error.
    The criterion is stated here and nowhere else.

    x1 = -(A1-A2) B1 (2A1+A2) / D, the equilibrium's Bloch coefficient along
    n, and x3 = (A1-A2) B1 (2B1+B2-2A1-A2) / D share the denominator

        D = 2 A1^3 - A1^2 A2 - A2 B1 B2 + A1 (B2^2 - A2^2),

    its powers through ``model._power`` (C ``pow``); the criterion compares
    x3 / (1 + x1) against sqrt(6). The gates, first to last:
    DomainError where the coefficient scale, the largest |coefficient|, is
    not below COEFFICIENT_LIMIT or is NaN, so that D stays finite (such a
    row enters D's arithmetic as zeros, since ``pow`` raises OverflowError
    past ~5.6e102); DegenerateLimit where |D| underflows to
    1e-14 of the scale's cube (z -> 0 and/or sep -> 0); and DenominatorZero
    where 1 + x1 <= 1e-9 (the ratio saturation regime near zero
    acceleration, where cancellation noise dominates the denominator).
    A refused row's cells mean nothing.
    """
    coeffs = (a1, a2, b1, b2)
    scale = reduce(np.maximum, (*map(abs, coeffs), 1e-300))   # NaN stays NaN
    bounded = scale < COEFFICIENT_LIMIT
    a1, a2, b1, b2, scale = (np.where(bounded, c, 0.0) for c in (*coeffs, scale))
    d = (2.0 * _power(a1, 3) - _power(a1, 2) * a2 - a2 * b1 * b2
         + a1 * (_power(b2, 2) - _power(a2, 2)))
    underflows = abs(d) <= DEGENERATE_D_REL * _power(scale, 3)
    with np.errstate(all="ignore"):   # a gated row may divide by zero
        x1 = -(a1 - a2) * b1 * (2.0 * a1 + a2) / d
        x3 = (a1 - a2) * b1 * (2.0 * b1 + b2 - 2.0 * a1 - a2) / d
        denom = 1.0 + x1
        value = x3 / denom
    zero = ~underflows & (denom <= DENOMINATOR_GATE)
    errors = {i: DegenerateLimit(f"|D| = {abs(di):.3e} underflows") for i, di
              in zip(np.flatnonzero(underflows).tolist(), d[underflows].tolist())}
    errors.update((i, DenominatorZero(f"1 + x1 = {di:.3e}")) for i, di
                  in zip(np.flatnonzero(zero).tolist(), denom[zero].tolist()))
    refused = np.flatnonzero(~bounded)   # this gate's error replaces the others
    for i, row in zip(refused.tolist(), np.column_stack(coeffs)[refused].tolist()):
        name, cell = next(pair for pair in zip(("A1", "A2", "B1", "B2"), row)
                          if not abs(pair[1]) < COEFFICIENT_LIMIT)
        errors[i] = DomainError(f"boundary coefficient {name} = {cell!r}: D needs each"
                                f" finite and below {COEFFICIENT_LIMIT:g} in magnitude")
    return (x1, x3, value, value > SQRT6), errors
