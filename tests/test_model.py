"""Dissipator coefficients, equilibria, coefficient ODE, node inversion.

The ODE cross-check below rebuilds the generator from scratch at the matrix
level: both detectors couple to the same bath, so the dissipator carries all
four operator-pair sectors with one shared coefficient matrix
A delta_ij - i B eps_ijk n_k (the model takes C = 0 for the n n^T part). The
equations of motion as written by hand, and the mirror generator with one
coefficient block per atom pair, live in ``tests/oracles.py``.
"""

import dataclasses
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (block_dissipator, block_stationary_state, is_physical,
                     ode_rhs_by_hand)
from unruh_steer import model
from unruh_steer.errors import (DegenerateLimit, DomainError, NotPositive,
                                UnphysicalDrift)
from unruh_steer.model import (KossakowskiFree, UnruhParams,
                               equilibrium_boundary, equilibrium_free, evolve,
                               kossakowski_boundary, kossakowski_free, ode_rhs,
                               relaxation_horizon, steering_node_acceleration)
from unruh_steer.qmat import (PHYSICALITY_TOL, FanoState, fano_to_matrix,
                              matrix_to_fano, random_fano_state)
from unruh_steer.steering import (boundary_verdict_rows, sic_solution,
                                  steering_induced_coherence)
from unruh_steer.sweeps import eval_boundary

REF = UnruhParams(1.0, 2.0 * math.pi)  # beta * omega = 1

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]])
_SZ = np.diag([1.0, -1.0]).astype(complex)
_PAULIS = (_SX, _SY, _SZ)
_I2 = np.eye(2)


def test_kossakowski_reference_point():
    assert abs(REF.beta - 1.0) < 1e-15
    k = kossakowski_free(REF)
    assert k.A == pytest.approx(0.17220194120854398, abs=1e-16)
    assert k.B == pytest.approx(0.07957747154594767, abs=1e-16)
    assert k.ratio == pytest.approx(math.tanh(0.5), abs=1e-15)
    assert k.B == pytest.approx(1.0 / (4.0 * math.pi), abs=1e-16)
    # ratio is derived from A and B, never stored apart from them
    assert [f.name for f in dataclasses.fields(k)] == ["A", "B"]
    assert k.ratio == k.B / k.A


def test_ratio_identity_over_decades():
    for a in np.geomspace(1e-3, 1e6, 40):
        k = kossakowski_free(UnruhParams(1.0, float(a)))
        assert abs(k.ratio - math.tanh(math.pi / a)) <= 1e-12
        assert abs(k.B - 1.0 / (4.0 * math.pi)) < 1e-16


@settings(max_examples=300, deadline=None)
@given(omega=st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e),
       accel=st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))
@example(omega=1e-6, accel=1e300)     # x = 6e-306, the smallest argument
@example(omega=1e6, accel=1e-300)     # x = 6e306, B/A rounds to 1
@example(omega=1.0, accel=2.0 * math.pi / 1e-2)   # x = 1e-2
def test_ratio_is_tanh_over_the_whole_range(omega, accel):
    # B/A = 1 / ((1 + e^-x) / (1 - e^-x)) = tanh(x/2) with x = 2 pi omega / a;
    # the largest deviation measured on 90,000 points of this range is 3.3e-16
    params = UnruhParams(omega, accel)
    x = params.beta * params.omega
    assert abs(kossakowski_free(params).ratio - math.tanh(x / 2.0)) <= 1e-12


def test_infinite_acceleration_limit():
    k = kossakowski_free(UnruhParams(1.0, math.inf))
    assert math.isinf(k.A)
    assert k.B == pytest.approx(1.0 / (4.0 * math.pi), abs=1e-16)
    assert k.ratio == 0.0
    assert UnruhParams(1.0, math.inf).beta == 0.0


@pytest.mark.parametrize("a_coef", [0.0, -0.0, -1.0, -math.inf, math.nan, 0])
def test_ratio_refuses_a_record_without_positive_a(a_coef):
    # B / A of a hand-made record is a DomainError naming A, not a bare
    # ZeroDivisionError or a negative ratio
    with pytest.raises(DomainError) as info:
        KossakowskiFree(A=a_coef, B=0.5).ratio
    assert str(info.value) == f"ratio B / A needs A > 0, not A = {a_coef!r}"


def test_array_records_divide_as_they_are():
    # eval_sic_free masks bad-omega rows with A = -inf; an array record
    # divides cell by cell, with no check that would refuse those rows
    ratio = KossakowskiFree(A=np.array([2.0, -math.inf]), B=0.5).ratio
    assert ratio.tolist() == [0.25, -0.0]


@pytest.mark.parametrize("accel", [1e300, 1e20])
def test_zero_thermal_argument_gives_the_infinite_acceleration_record(accel):
    # at omega = 1e-300, x = 2 pi omega / a underflows to 0 at a = 1e300 and
    # is subnormal at a = 1e20, where the thermal factor overflows: the
    # record of a = inf, field by field and bit for bit
    limit = kossakowski_free(UnruhParams(1e-300, math.inf))
    record = kossakowski_free(UnruhParams(1e-300, accel))
    assert ([repr(v) for v in dataclasses.astuple(record)]
            == [repr(v) for v in dataclasses.astuple(limit)])
    assert (limit.A, repr(limit.ratio)) == (math.inf, "0.0")


def test_kossakowski_scales_linearly_in_omega():
    k1 = kossakowski_free(UnruhParams(1.0, 4.0))
    k2 = kossakowski_free(UnruhParams(2.0, 8.0))
    assert k2.A == pytest.approx(2.0 * k1.A, rel=1e-15)
    assert k2.B == pytest.approx(2.0 * k1.B, rel=1e-15)
    assert k2.ratio == pytest.approx(k1.ratio, rel=1e-15)


def test_equilibrium_reference_point():
    eq = equilibrium_free(0.0, 1.0)
    assert np.allclose(eq.a_vec, [0.0, 0.0, -0.75], atol=1e-15)
    assert np.allclose(eq.b_vec, [0.0, 0.0, -0.75], atol=1e-15)
    assert np.allclose(eq.t_mat, np.diag([-0.25, -0.25, 0.5]), atol=1e-15)
    m = fano_to_matrix(eq)
    assert np.allclose(np.diag(m).real, [0.0, 0.125, 0.125, 0.75], atol=1e-15)
    assert m[1, 2] == pytest.approx(-0.125, abs=1e-15)


def _equilibrium_spectrum(tau, ratio):
    """Closed-form eigenvalues of the free-space equilibrium, ascending."""
    d4 = 4.0 * (3.0 + ratio * ratio)
    return np.sort([(3.0 + tau) * (1.0 - ratio) ** 2 / d4,
                    (3.0 + tau) * (1.0 - ratio * ratio) / d4,
                    (3.0 + tau) * (1.0 + ratio) ** 2 / d4,
                    (1.0 - tau) / 4.0])


def test_equilibrium_family_physical():
    # the spectrum is nonnegative on [-3, 1] x [0, 1], RANGE_SLACK included,
    # so sweeps need no per-row eigensolve of the equilibrium; at the ends of
    # TAU_RANGE, the leaves of states that dip to -PHYSICALITY_TOL, it dips
    # no further than 3 PHYSICALITY_TOL
    slack = model.RANGE_SLACK
    for tau in model.TAU_RANGE:
        for ratio in np.linspace(0.0, 1.0, 5):
            assert (_equilibrium_spectrum(tau, ratio).min()
                    >= -3.0 * PHYSICALITY_TOL - slack)
    taus = [*np.linspace(-3.0, 1.0, 9), -3.0 - slack, 1.0 + slack]
    ratios = [*np.linspace(0.0, 1.0, 5), -slack, 1.0 + slack]
    for tau in taus:
        for ratio in ratios:
            eq = equilibrium_free(float(tau), float(ratio))
            spectrum = _equilibrium_spectrum(tau, ratio)
            numeric = np.linalg.eigvalsh(fano_to_matrix(eq))
            assert np.abs(numeric - spectrum).max() < 1e-14
            assert spectrum.min() > -1e-10
            assert is_physical(eq)
            assert eq.trace_sum == pytest.approx(tau, abs=1e-12)
            assert np.allclose(eq.a_vec, eq.b_vec, atol=1e-15)


def test_equilibrium_domain_checks():
    with pytest.raises(DomainError):
        equilibrium_free(1.5, 0.5)
    with pytest.raises(DomainError):
        equilibrium_free(0.0, -0.1)


@settings(max_examples=40, deadline=None)
@given(tau=st.floats(-3.0, 1.0), accel=st.floats(0.1, 100.0))
@example(tau=-3.0, accel=0.1)
@example(tau=1.0, accel=100.0)
def test_equilibrium_is_ode_fixed_point(tau, accel):
    k = kossakowski_free(UnruhParams(1.0, accel))
    d = ode_rhs(equilibrium_free(tau, k.ratio), k)
    assert np.abs(d.to_vector()).max() < 1e-13 * max(1.0, k.A)


def _two_detector_rhs(rho, A, B):
    ops = ([np.kron(p, _I2) for p in _PAULIS],
           [np.kron(_I2, p) for p in _PAULIS])
    eps_n = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=complex)
    a = A * np.eye(3, dtype=complex) - 1j * B * eps_n
    out = np.zeros((4, 4), dtype=complex)
    for left in range(2):
        for right in range(2):
            for i in range(3):
                for j in range(3):
                    si, sj = ops[left][i], ops[right][j]
                    out += a[i, j] * (sj @ rho @ si
                                      - 0.5 * (si @ sj @ rho + rho @ si @ sj))
    return out


def _coefficients_to_matrix(d: FanoState) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    for i in range(3):
        m += d.a_vec[i] * np.kron(_PAULIS[i], _I2)
        m += d.b_vec[i] * np.kron(_I2, _PAULIS[i])
        for j in range(3):
            m += d.t_mat[i, j] * np.kron(_PAULIS[i], _PAULIS[j])
    return m / 4.0


def test_ode_matches_matrix_dissipator():
    k = kossakowski_free(REF)
    rng = np.random.default_rng(3)
    for _ in range(10):
        st = random_fano_state(rng)
        d = ode_rhs(st, k)
        got = _coefficients_to_matrix(d)
        want = _two_detector_rhs(fano_to_matrix(st), k.A, k.B)
        assert np.abs(got - want).max() <= 1e-14
        assert np.abs(d.to_vector() - ode_rhs_by_hand(st, k.A, k.B)).max() <= 1e-14


def test_rate_matrices_are_integers():
    # the generator built from the Kossakowski matrix, per unit A and per
    # unit B, has small integer entries; only the B part has a constant,
    # -4 in a_z and b_z (entries 2 and 5)
    per_a, per_b = model._rates()
    assert per_a.shape == per_b.shape == (15, 16)
    assert set(np.unique(per_a)) == {-8.0, -4.0, 0.0, 4.0}
    assert set(np.unique(per_b)) == {-4.0, -2.0, 0.0, 2.0}
    assert np.array_equal(per_a[:, 15], np.zeros(15))
    assert np.array_equal(per_b[:, 15], -4.0 * np.eye(15)[2] - 4.0 * np.eye(15)[5])
    # evolve's copy pulls the trace u^T y to 0 at 12 A and is M elsewhere
    trace = np.zeros(15)
    trace[[6, 10, 14]] = 1.0
    assert np.array_equal(trace @ per_a[:, :15], np.zeros(15))
    assert np.array_equal(trace @ per_b[:, :15], np.zeros(15))
    m_a, m_b = model._rate_matrices()
    assert np.array_equal(m_a, per_a[:, :15] - 4.0 * np.outer(trace, trace))
    assert np.array_equal(trace @ m_a, -12.0 * trace)
    assert np.array_equal(m_b, per_b[:, :15])


def test_ode_conserves_correlation_trace():
    k = kossakowski_free(REF)
    rng = np.random.default_rng(31)
    for _ in range(10):
        d = ode_rhs(random_fano_state(rng), k)
        assert abs(np.trace(d.t_mat)) < 1e-13


def test_ode_rhs_needs_finite_coefficients():
    k = dataclasses.replace(kossakowski_free(REF), A=math.inf)
    st = random_fano_state(np.random.default_rng(8))
    with pytest.raises(DomainError, match="^ode_rhs needs finite coefficients$"):
        ode_rhs(st, k)


def test_evolve_singlet_is_stationary():
    k = kossakowski_free(REF)
    singlet = FanoState(a_vec=np.zeros(3), b_vec=np.zeros(3), t_mat=-np.eye(3))
    traj = evolve(singlet, k, t_end=5.0)
    assert traj.converged
    assert traj.landing < 1e-12
    assert traj.tau == -3.0
    assert np.abs(traj.final_state.to_vector() - singlet.to_vector()).max() < 1e-12


def test_evolve_ground_state_relaxes():
    k = kossakowski_free(REF)
    ground = FanoState(a_vec=np.array([0, 0, 1.0]), b_vec=np.array([0, 0, 1.0]),
                       t_mat=np.diag([0.0, 0.0, 1.0]))
    traj = evolve(ground, k)
    assert traj.times[-1] == pytest.approx(relaxation_horizon(k), rel=1e-12)
    assert traj.step == relaxation_horizon(k) / 200
    eq = equilibrium_free(1.0, k.ratio)
    assert np.abs(traj.final_state.to_vector() - eq.to_vector()).max() < 1e-8
    assert abs(traj.tau - 1.0) < 1e-12
    for st in traj.states[:: len(traj.states) // 7]:
        assert is_physical(st, tol=1e-8)


def test_default_horizon_lands_random_states():
    # M = A M_A + B M_B has exactly one zero rate, along the conserved tau,
    # and its slowest nonzero decay rate is 4A - 2B (2A as a -> 0); a
    # horizon in units of 4A stops short at small a
    rng = np.random.default_rng(3)
    per_a, per_b = model._rates()
    for accel in (0.5, 1.0, 2.0 * math.pi, 50.0):
        k = kossakowski_free(UnruhParams(1.0, accel))
        m = (k.A * per_a + k.B * per_b)[:, :15]
        rates = np.sort(-np.linalg.eigvals(m).real)
        assert abs(rates[0]) <= 1e-12 * k.A
        assert rates[1] == pytest.approx(4.0 * k.A - 2.0 * k.B, rel=1e-9)
    k = kossakowski_free(UnruhParams(1.0, 1.0))
    traj = evolve(random_fano_state(rng), k)
    assert traj.times[-1] == pytest.approx(20.0 / (4.0 * k.A - 2.0 * k.B),
                                           rel=1e-12)
    assert traj.converged, traj.landing


@pytest.mark.parametrize("accel", [1e15, 1e100, 1e200])
def test_evolve_relaxes_at_large_acceleration(accel):
    # the default horizon is ~1e-13 or shorter here, and A up to ~1e198
    k = kossakowski_free(UnruhParams(1.0, accel))
    n = np.array([0.0, 0.0, 1.0])
    traj = evolve(FanoState(-n, -n, np.outer(n, n)), k)
    assert traj.times[-1] == relaxation_horizon(k)
    assert traj.converged, traj.landing


def test_evolve_skips_sub_ulp_intervals():
    # from the ground state at a = 2, 200 intervals of 5e-16 each change y
    # by less than an ulp; the interval map, kept as exp(step M) - I, adds
    # them up to y0 + t f(y0) within rounding
    k = kossakowski_free(UnruhParams(1.0, 2.0))
    n = np.array([0.0, 0.0, 1.0])
    ground = FanoState(-n, -n, np.outer(n, n))
    traj = evolve(ground, k, t_end=1e-13)
    euler = ground.to_vector() + 1e-13 * ode_rhs(ground, k).to_vector()
    assert np.abs(traj.vectors[-1] - euler).max() < 1e-15


def test_evolve_rejects_unphysical_input():
    # nothing drifted at t = 0: the input is not a state, and evolve names
    # it as sic_solution does
    k = kossakowski_free(REF)
    state = FanoState(np.array([0, 0, 2.0]), np.zeros(3), np.zeros((3, 3)))
    with pytest.raises(NotPositive) as info:
        evolve(state, k)
    assert str(info.value) == "state has min eigenvalue -2.500e-01"
    with pytest.raises(NotPositive, match=f"^{re.escape(str(info.value))}$"):
        sic_solution(state)
    # no physical state has tau outside [-3, 1]: the gate names such a
    # state before its equilibrium is sought, as sic_solution does
    with pytest.raises(NotPositive, match=r"^state has min eigenvalue -5\.000e-01$"):
        evolve(FanoState(np.zeros(3), np.zeros(3), np.eye(3)), k)


@settings(max_examples=40, deadline=None)
@given(dip=st.floats(0.0, 0.99), singlet_edge=st.booleans())
@example(dip=0.5, singlet_edge=True)     # FanoState(0, 0, -(1 + 2e-10) I)
@example(dip=0.99, singlet_edge=False)
def test_a_state_the_gate_passes_lies_on_a_leaf(dip, singlet_edge):
    # one verdict at the edges of tau: the Bell-diagonal state whose
    # eigenvalues dip to -d, d below PHYSICALITY_TOL, at the singlet edge
    # (tau = -3 - 12 d) or at the other (tau = 1 + 4 d) passes the gate,
    # and so evolve, its equilibrium and the sweeps' leaf mask take it
    d = dip * PHYSICALITY_TOL
    diagonal = -(1.0 + 4.0 * d) if singlet_edge else (1.0 + 4.0 * d) / 3.0
    state = FanoState(np.zeros(3), np.zeros(3), diagonal * np.eye(3))
    assert np.linalg.eigvalsh(fano_to_matrix(state))[0] == pytest.approx(
        -d, abs=1e-16)
    assert sic_solution(state).value == pytest.approx(abs(diagonal), abs=1e-15)
    assert model.leaf_mask(state.trace_sum, 0.0)
    traj = evolve(state, kossakowski_free(UnruhParams(1.0, 1.0)), samples=5)
    assert traj.tau == state.trace_sum and traj.landing < model.LANDING_TOL


@pytest.mark.parametrize("samples", [0, -1, 2.5, True])
def test_evolve_rejects_bad_sample_count(samples):
    k = kossakowski_free(REF)
    with pytest.raises(DomainError, match="samples"):
        evolve(random_fano_state(np.random.default_rng(5)), k, t_end=2.0,
               samples=samples)


@pytest.mark.parametrize("t_end", [1e9, 1e300])
def test_evolve_runs_long_horizons(deadline, t_end):
    # the cost grows with log2(t_end |M|), not with t_end: the excited state
    # lands on its equilibrium, with no overflow or NaN on the way
    n = np.array([0.0, 0.0, 1.0])
    k = kossakowski_free(REF)
    traj = evolve(FanoState(n, n, np.outer(n, n)), k, t_end=t_end)
    assert np.isfinite(traj.vectors).all()
    assert traj.converged and traj.landing < 1e-15
    assert traj.step == t_end / 200


def test_evolve_refuses_an_interval_map_that_overflows(deadline):
    # at a = 1e200, A ~ 2.5e198: a step of 5e305 times |M|_1 is not finite
    k = kossakowski_free(UnruhParams(1.0, 1e200))
    n = np.array([0.0, 0.0, 1.0])
    with pytest.raises(DomainError, match=r"5e\+305 times \|M\|_1 overflows"):
        evolve(FanoState(n, n, np.outer(n, n)), k, t_end=1e308)


@pytest.mark.parametrize("A", [-0.2, 0.0, math.nan])
def test_dynamics_reject_non_positive_rate(A):
    # a negative A used to give a negative horizon and step, and a
    # trajectory reported converged
    k = dataclasses.replace(kossakowski_free(REF), A=A)
    singlet = FanoState(np.zeros(3), np.zeros(3), -np.eye(3))
    with pytest.raises(DomainError, match="positive finite A"):
        relaxation_horizon(k)
    with pytest.raises(DomainError, match="positive finite A"):
        evolve(singlet, k, t_end=5.0)


# at ratio 0 the equilibrium of a tau = 0 state is the maximally mixed
# state, so with rates M injected a state's coefficients are exp(t M) y0
_UNIT = KossakowskiFree(A=1.0, B=0.0)


def _growth(rate):
    # rate matrices that make every coefficient grow at ``rate``: M = rate I
    return lambda: (rate * np.eye(15), np.zeros((15, 15)))


def _polarized(a_z):
    return FanoState(np.array([0.0, 0.0, a_z]), np.zeros(3), np.zeros((3, 3)))


def test_evolve_reports_earliest_drift(monkeypatch):
    # a_z = 0.1 e^(2 t) makes the minimum eigenvalue (1 - a_z) / 4: positive
    # at t = 1, below DRIFT_TOL at t = 1.5 and 2; the stacked check reports
    # the first of them, with the eigenvalue a single-state check gives
    monkeypatch.setattr(model, "_rate_matrices", _growth(2.0))
    with pytest.raises(UnphysicalDrift, match=r"at t = 1\.5 ") as info:
        evolve(_polarized(0.1), _UNIT, t_end=2.0, samples=5)
    monkeypatch.setattr(model, "DRIFT_TOL", -math.inf)
    sample = evolve(_polarized(0.1), _UNIT, t_end=2.0, samples=5).states[3]
    low = np.linalg.eigvalsh(fano_to_matrix(sample))[0]
    assert low < -0.1
    assert str(info.value) == f"min eigenvalue {low:.3e} at t = 1.5 (below -1e-06)"


def test_evolve_drift_wins_over_later_overflow(monkeypatch):
    # a_z = 0.5 e^(1000 t): the t = 0.5 sample is finite (~7e216) but
    # unphysical, and drifts before the t = 1 one overflows
    monkeypatch.setattr(model, "_rate_matrices", _growth(1000.0))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(UnphysicalDrift, match=r"at t = 0\.5 "):
            evolve(_polarized(0.5), _UNIT, t_end=2.0, samples=5)
        # with no drift before it, the overflow itself is reported; the
        # state is off its equilibrium, as a singlet's deviation is 0
        with pytest.raises(DomainError, match=r"overflowed at t = 2$"):
            evolve(_polarized(0.5), _UNIT, t_end=2.0, samples=2)


def test_evolve_reports_first_overflowed_sample(monkeypatch):
    # with no drift reported, the first non-finite of the 9 samples names
    # the overflow (t = 0.5 is ~7e216, t = 0.75 overflows), though the
    # later ones are filled too
    monkeypatch.setattr(model, "_rate_matrices", _growth(1000.0))
    monkeypatch.setattr(model, "DRIFT_TOL", -math.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError) as info:
            evolve(_polarized(0.5), _UNIT, t_end=2.0, samples=9)
    assert str(info.value) == "state coefficients overflowed at t = 0.75"


@pytest.mark.parametrize("injected", [
    test_evolve_reports_earliest_drift,
    test_evolve_drift_wins_over_later_overflow,
    test_evolve_reports_first_overflowed_sample,
])
def test_evolve_injections_in_blocks_of_3(monkeypatch, injected):
    # the certificate takes samples [0, 3), [3, 6), ...: the t = 1.5 drift
    # of 5 samples falls in the second block, with the same t and text
    monkeypatch.setattr(model, "BLOCK_ROWS", 3)
    injected(monkeypatch)


def test_evolve_holds_one_block_of_certificate(deadline):
    # 100,000 samples hold 12.8 MB (times and coefficients); the (4, 4)
    # complex stacks of a certificate over all of them peaked 77 MB above
    k = kossakowski_free(REF)
    tracemalloc.start()
    try:
        traj = evolve(_polarized(0.5), k, samples=100_000)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.converged
    assert peak - held < 8_000_000, f"{(peak - held) / 1e6:.1f} MB above the run"


# a_z = 1 + 4 (1e-6 -+ 1e-9) makes the minimum eigenvalue (1 - a_z) / 4 sit
# 1e-9 above or below DRIFT_TOL, at t = 1 from a_z / 2 doubled by injected
# rates ln 2; a_z = 1 + 4 (1e-10 -+ 1e-12) puts it 1e-12 above or below the
# input gate -PHYSICALITY_TOL at t = 0
_NEAR_TOL = {"above": 1.0 + 4.0 * (1e-6 - 1e-9), "below": 1.0 + 4.0 * (1e-6 + 1e-9)}
_NEAR_GATE = {"above": 1.0 + 4.0 * (1e-10 - 1e-12),
              "below": 1.0 + 4.0 * (1e-10 + 1e-12)}


def test_certificate_at_the_threshold_at_t_0():
    k = kossakowski_free(REF)
    assert evolve(_polarized(_NEAR_GATE["above"]), k, samples=1).times.size == 1
    with pytest.raises(NotPositive) as info:
        evolve(_polarized(_NEAR_GATE["below"]), k, samples=1)
    assert str(info.value) == "state has min eigenvalue -1.010e-10"


def test_certificate_at_the_threshold_after_a_drift(monkeypatch):
    monkeypatch.setattr(model, "_rate_matrices", _growth(math.log(2.0)))
    traj = evolve(_polarized(_NEAR_TOL["above"] / 2.0), _UNIT, t_end=1.0,
                  samples=2)
    assert abs(traj.vectors[-1, 2] - _NEAR_TOL["above"]) < 1e-14
    with pytest.raises(UnphysicalDrift) as info:
        evolve(_polarized(_NEAR_TOL["below"] / 2.0), _UNIT, t_end=1.0, samples=2)
    assert str(info.value) == "min eigenvalue -1.001e-06 at t = 1 (below -1e-06)"


def test_certified_trajectory_computes_no_eigenvalues(monkeypatch):
    def refuse(matrices):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    k = kossakowski_free(REF)
    for seed in range(5):
        evolve(random_fano_state(np.random.default_rng(seed)), k)
    evolve(_polarized(_NEAR_GATE["above"]), k, samples=1)
    # a failed certificate falls back to the eigensolve
    with pytest.raises(AssertionError, match="eigvalsh called"):
        evolve(_polarized(_NEAR_GATE["below"]), k, samples=1)


def test_positivity_checks_survive_python_O():
    # the certificate, its fallback and NotPositive raise rather than
    # assert, so they hold with asserts stripped, in every caller of the gate
    code = ("import numpy as np\n"
            "from unruh_steer import NotPositive, UnphysicalDrift, model\n"
            "from unruh_steer.model import KossakowskiFree, evolve\n"
            "from unruh_steer.qmat import FanoState, concurrence, fano_to_matrix\n"
            "from unruh_steer.steering import sic_solution\n"
            "unit = KossakowskiFree(A=1.0, B=0.0)\n"
            "def run(a_z):\n"
            "    state = FanoState(np.array([0, 0, a_z]), np.zeros(3),"
            " np.zeros((3, 3)))\n"
            "    try:\n"
            "        evolve(state, unit, t_end=2.0, samples=5)\n"
            "        print('certified')\n"
            "    except (NotPositive, UnphysicalDrift) as exc:\n"
            "        print(type(exc).__name__, exc)\n"
            "run(0.1)\n"
            "run(1.5)\n"
            "bad = FanoState(np.zeros(3), np.zeros(3), np.eye(3))\n"
            "for call in (sic_solution, lambda s: concurrence(fano_to_matrix(s))):\n"
            "    try:\n"
            "        call(bad)\n"
            "        print('accepted')\n"
            "    except NotPositive as exc:\n"
            "        print(type(exc).__name__, exc)\n"
            "model._rate_matrices = lambda: (2.0 * np.eye(15), np.zeros((15, 15)))\n"
            "run(0.1)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.splitlines() == [
        "certified",
        "NotPositive state has min eigenvalue -1.250e-01",
        "NotPositive state has min eigenvalue -5.000e-01",
        "NotPositive state has min eigenvalue -5.000e-01",
        f"UnphysicalDrift min eigenvalue {(1 - 0.1 * math.exp(3.0)) / 4:.3e}"
        " at t = 1.5 (below -1e-06)"], proc.stderr


def test_evolve_refuses_too_many_samples(deadline, monkeypatch):
    # ~640 B per sample at peak: 9e6 samples would need ~5.8 GB
    k = kossakowski_free(REF)
    singlet = FanoState(np.zeros(3), np.zeros(3), -np.eye(3))
    with pytest.raises(DomainError,
                       match=r"^1000001 rows exceed the limit of 1e\+06 per table$"):
        evolve(singlet, k, t_end=1.0, samples=10**6 + 1)
    monkeypatch.setattr(model, "MAX_SAMPLES", 600)
    assert len(evolve(singlet, k, samples=600).times) == 600
    with pytest.raises(DomainError,
                       match=r"^601 rows exceed the limit of 6e\+02 per table$"):
        evolve(singlet, k, samples=601)


def test_evolve_hits_requested_samples():
    k = kossakowski_free(REF)
    st = random_fano_state(np.random.default_rng(12))
    traj = evolve(st, k, t_end=4.3, samples=5)
    assert np.array_equal(traj.times, np.linspace(0.0, 4.3, 5))
    assert traj.times[-1] == 4.3
    assert traj.vectors.shape == (5, 15)
    assert np.array_equal(traj.states[0].to_vector(), st.to_vector())
    # a single sample is the initial state at t = 0
    one = evolve(st, k, t_end=4.3, samples=1)
    assert np.array_equal(one.times, [0.0])
    assert np.array_equal(one.final_state.to_vector(), st.to_vector())
    eq = equilibrium_free(st.trace_sum, k.ratio)
    assert one.landing == np.abs(st.to_vector() - eq.to_vector()).max()


def test_trajectory_vectors_are_the_read_only_samples():
    k = kossakowski_free(REF)
    traj = evolve(random_fano_state(np.random.default_rng(4)), k, samples=7)
    assert np.array_equal(traj.vectors, [s.to_vector() for s in traj.states])
    assert np.array_equal(traj.final_state.to_vector(), traj.vectors[-1])
    for array in (traj.vectors, traj.times):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_node_reference_value():
    a_star = steering_node_acceleration(0.25, 1.0)
    assert a_star == pytest.approx(5.719201734760255, abs=1e-12)
    assert a_star == pytest.approx(math.pi / math.atanh(0.5), rel=1e-15)
    # the ratio at the node squares back to tau
    k = kossakowski_free(UnruhParams(1.0, a_star))
    assert k.ratio ** 2 == pytest.approx(0.25, rel=1e-12)


def test_node_branches():
    assert steering_node_acceleration(-0.5, 1.0) is None
    assert steering_node_acceleration(0.0, 1.0) is None
    assert steering_node_acceleration(1.0, 1.0) == 0.0
    with pytest.raises(DomainError):
        steering_node_acceleration(1.5, 1.0)


def test_node_scales_with_omega():
    assert steering_node_acceleration(0.25, 2.0) == pytest.approx(
        2.0 * 5.719201734760255, rel=1e-14)


@pytest.mark.parametrize("tau, omega", [(0.5, 1e308), (1e-300, 1e200)])
def test_node_that_overflows_is_a_domain_error(tau, omega):
    # pi omega / artanh(sqrt(tau)) overflows to inf: no node at a = inf
    with pytest.raises(DomainError, match="overflows"):
        steering_node_acceleration(tau, omega)
    assert math.isfinite(steering_node_acceleration(tau, 1.0))


def test_boundary_reference_point():
    kb = kossakowski_boundary(REF, 1.0, 1.0)
    assert kb.A1 == pytest.approx(0.0939105501908858, abs=1e-15)
    assert kb.A2 == pytest.approx(0.08431456091404832, abs=1e-15)
    assert kb.B1 == pytest.approx(0.043397676490935615, abs=1e-15)
    assert kb.B2 == pytest.approx(0.03896320520522594, abs=1e-15)
    assert kb.ratio == pytest.approx(kossakowski_free(REF).ratio, rel=1e-14)


def test_boundary_detailed_balance_identity():
    # both coefficient pairs share one thermal factor: A1 B2 = A2 B1
    for z in (0.2, 1.0, 7.0):
        for sep in (0.05, 0.5, 3.0):
            kb = kossakowski_boundary(UnruhParams(1.0, 3.0), z, sep)
            assert kb.A1 * kb.B2 == pytest.approx(kb.A2 * kb.B1, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(accel=st.floats(0.1, 100.0), z=st.floats(1e5, 1e7))
@example(accel=2.0, z=1e5)
def test_boundary_recovers_free_space(accel, z):
    # the mirror enters A1 and B1 through 1 - sinc(2 z omega), |sinc| <= 1/(2 z)
    kf = kossakowski_free(UnruhParams(1.0, accel))
    kb = kossakowski_boundary(UnruhParams(1.0, accel), z, 1e-3)
    assert kb.A1 / kf.A == pytest.approx(1.0, abs=0.5 / z + 1e-12)
    assert kb.B1 / kf.B == pytest.approx(1.0, abs=0.5 / z + 1e-12)
    assert kb.ratio == pytest.approx(kf.ratio, abs=1e-12)


def test_equilibrium_boundary_thermal_product():
    # a = b = -R n and T = R^2 n n, the free family on the node leaf, where
    # the steering-induced coherence is exactly zero
    for z, sep in ((0.5, 0.2), (1.0, 1.0), (4.0, 0.7), (0.1, 0.05)):
        kb = kossakowski_boundary(UnruhParams(0.3, 1.0), z, sep)
        eq = equilibrium_boundary(kb)
        r = kb.ratio
        assert np.array_equal(eq.to_vector(),
                              equilibrium_free(r * r, r).to_vector())
        assert steering_induced_coherence(eq) == 0.0
        assert np.allclose(eq.b_vec, [0.0, 0.0, -r], atol=1e-15)
        assert np.allclose(eq.a_vec, eq.b_vec, atol=1e-15)
        assert np.allclose(eq.t_mat, np.diag([0.0, 0.0, r * r]), atol=1e-15)
        assert is_physical(eq)


_BOX = dict(log_accel=st.floats(-1.0, 2.0), log_z=st.floats(-1.0, 1.0),
            log_sep=st.floats(-2.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(**_BOX, damped=st.booleans())
@example(log_accel=math.log10(0.3), log_z=-1.0, log_sep=math.log10(0.05),
         damped=False)
def test_block_generator_has_the_mirror_equilibrium(log_accel, log_z,
                                                    log_sep, damped):
    # the Lindblad generator with same-atom blocks (A1, B1, C1) and cross
    # blocks (A2, B2, C2), C = 0 or the mirror's C = -A, over the README's
    # boundary-scan box: equilibrium_boundary is its one stationary state
    kb = kossakowski_boundary(UnruhParams(1.0, 10.0 ** log_accel),
                              10.0 ** log_z, 10.0 ** log_sep)
    c = -1.0 if damped else 0.0
    same, cross = (kb.A1, kb.B1, c * kb.A1), (kb.A2, kb.B2, c * kb.A2)
    eq = equilibrium_boundary(kb)
    gap = 1.0 - kb.A2 / kb.A1
    residual = block_dissipator(fano_to_matrix(eq), same, same, cross)
    assert np.abs(residual).max() <= 1e-14 * kb.A1
    rho, second = block_stationary_state(same, same, cross)
    assert second >= 0.5 * gap * kb.A1   # the stationary state is unique
    # the stationary state of the float coefficients moves with their
    # rounding by up to ~1e-14 / gap (3000 draws): an exact solve lands
    # 6.8e-12 from the closed form at (0.32, 1.69, 0.013), where gap = 2e-5
    tol = 1e-12 * max(1.0, 0.1 / gap)
    assert np.abs(matrix_to_fano(rho).to_vector() - eq.to_vector()).max() <= tol


@settings(max_examples=100, deadline=None)
@given(log_accel=st.floats(-1.0, 2.0), log_z1=st.floats(-1.0, 1.0),
       log_z2=st.floats(-1.0, 1.0), log_sep=st.floats(-2.0, 1.0))
@example(log_accel=-1.0, log_z1=-1.0, log_z2=-1.0, log_sep=-2.0)
def test_mirror_equilibrium_is_a_product_at_unequal_distances(
        log_accel, log_z1, log_z2, log_sep):
    # atoms at heights z1 and z2 over the mirror, sep apart along it: the
    # blocks a11, a22 (each atom with itself) and a12 (across) carry the
    # sinc factors of the image points and of the pair's direct and image
    # distances, and every B = R A. So for every geometry the one stationary
    # state is rho_R x rho_R, each atom in the Gibbs state (ROADMAP item 16)
    free = kossakowski_free(UnruhParams(1.0, 10.0 ** log_accel))
    z1, z2, sep = 10.0 ** log_z1, 10.0 ** log_z2, 10.0 ** log_sep
    factors = (1.0 - model.sinc(2.0 * z1), 1.0 - model.sinc(2.0 * z2),
               model.sinc(math.hypot(sep, z1 - z2))
               - model.sinc(math.hypot(sep, z1 + z2)))
    first, second, cross = ((free.A * f, free.B * f, 0.0) for f in factors)
    rho, gap = block_stationary_state(first, second, cross)
    largest = max(first[0], second[0])
    # unique: the narrowest gap of the box is 6.9e-5 of the largest A, at
    # its corner z1 = z2 = 0.1, sep = 0.01; it closes only where the
    # Kossakowski matrix is singular, A12^2 = A11 A22
    assert gap >= 1e-5 * largest
    assert gap >= (first[0] * second[0] - cross[0] ** 2) / largest
    gibbs = np.diag([1.0 - free.ratio, 1.0 + free.ratio]) / 2.0
    tol = 1e-13 * max(1.0, largest / gap)   # the null vector moves as 1 / gap
    assert np.abs(rho - np.kron(gibbs, gibbs)).max() <= tol


def test_equilibrium_boundary_degenerate_limit():
    # A2 = A1, B2 = B1 (sep -> 0) leaves the node-leaf state, with no fallback
    kb = kossakowski_boundary(REF, 1.0, 1.0)
    flat = dataclasses.replace(kb, A2=kb.A1, B2=kb.B1)
    assert np.array_equal(equilibrium_boundary(flat).to_vector(),
                          equilibrium_free(kb.ratio * kb.ratio,
                                           kb.ratio).to_vector())
    with pytest.raises(TypeError):
        equilibrium_boundary(flat, 0.25)


def test_boundary_ratio_where_a1_underflows():
    # 1 - sinc(2 z omega) rounds to 0 at z = 1e-9, so A1 = B1 = 0; the ratio
    # is still the thermal B / A, and so is the equilibrium's
    params = UnruhParams(1.0, 2.0)
    kb = kossakowski_boundary(params, 1e-9, 1.0)
    assert kb.A1 == 0.0
    ratio = kossakowski_free(params).ratio
    assert kb.ratio == ratio
    assert np.array_equal(equilibrium_boundary(kb).to_vector(),
                          equilibrium_free(ratio * ratio, ratio).to_vector())


@pytest.mark.parametrize("z, sep", [(0.0, 1.0), (-0.0, 1.0), (-1.0, 1.0),
                                    (1.0, 0.0), (1.0, -1.0), (math.nan, 1.0)])
def test_kossakowski_boundary_refuses_non_positive_lengths(z, sep):
    with pytest.raises(DomainError, match="must be positive and finite"):
        kossakowski_boundary(REF, z, sep)


def _one_row(*coeffs):
    """:func:`boundary_verdict_rows` of one set of coefficients as one-row
    arrays."""
    return boundary_verdict_rows(*(np.array([c]) for c in coeffs))


def test_boundary_denominator_gate_is_relative():
    kb = kossakowski_boundary(REF, 1.0, 1.0)
    a1, a2, b1, b2 = kb.A1, kb.A2, kb.B1, kb.B2

    def printed_d(a1, a2, b1, b2):
        return 2 * a1 ** 3 - a1 ** 2 * a2 - a2 * b1 * b2 + a1 * (b2 ** 2 - a2 ** 2)

    # x1 = -(A1-A2) B1 (2A1+A2) / D carries D, and no gate fires
    (x1, _, _, _), errors = _one_row(a1, a2, b1, b2)
    want = -(a1 - a2) * b1 * (2 * a1 + a2) / printed_d(a1, a2, b1, b2)
    assert x1[0] == pytest.approx(want, rel=1e-15) and errors == {}
    # the gate scales with the coefficients: a uniformly tiny set still
    # passes, with D down by 1e-270 and x1 as before
    tiny = [c * 1e-90 for c in (a1, a2, b1, b2)]
    assert printed_d(*tiny) == pytest.approx(printed_d(a1, a2, b1, b2) * 1e-270,
                                             rel=1e-12)
    (x1_tiny, _, _, _), errors = _one_row(*tiny)
    assert x1_tiny[0] == pytest.approx(want, rel=1e-12) and errors == {}
    # the gate sits at |D| = 1e-14 A1^3: with A2 = k A1 and B2 = k B1,
    # D = A1^3 (1 - k) (2 + k), so 1 - k = 1e-14 passes and 2e-15 is flagged
    for gap, flagged in ((1e-14, False), (2e-15, True)):
        _, errors = _one_row(a1, (1.0 - gap) * a1, b1, (1.0 - gap) * b1)
        assert bool(errors) is flagged
    # A2 = A1, B2 = B1 makes D vanish: the criterion flags the row
    _, errors = _one_row(a1, a1, b1, b1)
    assert list(errors) == [0] and type(errors[0]) is DegenerateLimit
    assert str(errors[0]) == f"|D| = {abs(printed_d(a1, a1, b1, b1)):.3e} underflows"


@pytest.mark.parametrize("field, value", [
    ("A1", math.nan), ("A2", math.inf), ("B1", -1e102), ("B2", 6e102)])
def test_boundary_denominator_rejects_coefficients_that_overflow_d(field,
                                                                   value):
    # a NaN or infinite coefficient, or one whose cube overflows, would give
    # a NaN D or an OverflowError from the power; the criterion refuses the
    # row before D, naming the coefficient
    base = kossakowski_boundary(REF, 1.0, 1.0)
    coeffs = dataclasses.replace(base, **{field: value})
    _, errors = _one_row(coeffs.A1, coeffs.A2, coeffs.B1, coeffs.B2)
    assert list(errors) == [0] and type(errors[0]) is DomainError
    assert str(errors[0]) == (f"boundary coefficient {field} = {value!r}: D"
                              " needs each finite and below 1e+102 in"
                              " magnitude")


def test_coefficient_bound_sits_at_1e102():
    # the bound is on the largest |coefficient|: just below 1e102 the row
    # reaches D, whose cube is still finite, and at 1e102 it does not
    kb = kossakowski_boundary(REF, 1.0, 1.0)
    below = math.nextafter(1e102, 0.0)
    _, errors = _one_row(below, kb.A2, kb.B1, kb.B2)
    assert not any(type(e) is DomainError for e in errors.values())
    _, errors = _one_row(1e102, kb.A2, kb.B1, kb.B2)
    assert str(errors[0]) == ("boundary coefficient A1 = 1e+102: D needs each"
                              " finite and below 1e+102 in magnitude")
    # the first coefficient that fails is named, and a refused row leaves the
    # bits of a valid row stacked with it as they are
    valid = (kb.A1, kb.A2, kb.B1, kb.B2)
    alone, no_errors = _one_row(*valid)
    stacked, errors = boundary_verdict_rows(
        *(np.array([c, 1e300 if k else 1.0]) for k, c in enumerate(valid)))
    assert no_errors == {} and list(errors) == [1]
    assert str(errors[1]).startswith("boundary coefficient A2 = 1e+300: ")
    for one, both in zip(alone, stacked):
        assert one.tobytes() == both[:1].tobytes()


@pytest.mark.parametrize("omega, accel", [(1e-300, 1e20), (1.0, 1e300),
                                          (1e200, 1.0)])
def test_boundary_record_by_hand_fails_with_the_same_text(omega, accel):
    # coefficients too large for D, or NaN: the record built by hand from
    # the model's pieces equals kossakowski_boundary's, and the criterion
    # refuses it with eval_boundary's text
    params = UnruhParams(omega, accel)
    free = kossakowski_free(params)
    a1, a2, b1, b2 = model.boundary_pairs(
        free, model.boundary_arguments(omega, 1.0, 1.0))
    by_hand = model.KossakowskiBoundary(A1=a1, A2=a2, B1=b1, B2=b2,
                                        ratio=free.ratio)
    built = kossakowski_boundary(params, 1.0, 1.0)
    assert (np.array(dataclasses.astuple(by_hand)).tobytes()
            == np.array(dataclasses.astuple(built)).tobytes())
    _, errors = _one_row(a1, a2, b1, b2)
    _, diagnostics = eval_boundary(omega, np.array([accel]), np.array([1.0]),
                                   np.array([1.0]))
    assert diagnostics == [f"DomainError: {errors[0]}"]
    assert diagnostics[0].startswith("DomainError: boundary coefficient A1 = ")
