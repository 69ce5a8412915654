"""Closed-form SIC and MID against the first-principles oracles of
``oracles.py`` and brute-force axis scans, and the steerability criteria."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import (alpha_matrix, conditional_coherence, dephase_b,
                     is_physical, l1_coherence_bloch, mid_by_state,
                     sic_by_state, steer_bob, steerability_pairings_free,
                     trace_norm)
from unruh_steer.errors import DegenerateLimit, DenominatorZero, DomainError
from unruh_steer.model import (UnruhParams, equilibrium_free,
                               kossakowski_boundary, steering_node_acceleration)
from unruh_steer.qmat import (FanoState, fano_to_matrix, fano_vectors,
                              random_density_matrix, random_fano_state)
from unruh_steer.steering import (DEGENERACY_GATE, boundary_verdict_rows,
                                  coherence_sum_terms, one_sided_mid,
                                  sic_closed_form_free, sic_mid_rows, sic_rows,
                                  sic_solution, steerability_functional_free,
                                  steering_induced_coherence,
                                  theorem1_residual)

SINGLET = FanoState(a_vec=np.zeros(3), b_vec=np.zeros(3), t_mat=-np.eye(3))
REF = UnruhParams(1.0, 2.0 * math.pi)


def _unital_states(rng, count):
    """Rotated Bell-diagonal states with their middle singular value of T.

    Unital states T = O1 diag(c) O2^T stay physical for c inside the
    tetrahedron spanned by the four Bell corners.
    """
    corners = np.array([[-1, -1, -1], [-1, 1, 1], [1, -1, 1], [1, 1, -1]],
                       dtype=float)
    for _ in range(count):
        c = rng.dirichlet(np.ones(4)) @ corners
        q1, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        q2, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        st = FanoState(a_vec=np.zeros(3), b_vec=np.zeros(3),
                       t_mat=q1 @ np.diag(c) @ q2.T)
        assert is_physical(st)
        yield st, float(np.sort(np.abs(c))[1])


def _fibonacci_sphere(n=2000):
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    rho = np.sqrt(1.0 - z * z)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


# ----- steered ensembles (oracle) -----

def test_steer_bob_reference_point():
    probs, blochs = steer_bob(equilibrium_free(0.0, 1.0),
                              np.array([0.0, 0.0, 1.0]))
    assert np.allclose(probs, [0.125, 0.875], atol=1e-15)
    assert np.allclose(blochs[0], [0.0, 0.0, -1.0], atol=1e-15)
    assert np.allclose(blochs[1], [0.0, 0.0, -5.0 / 7.0], atol=1e-15)


def test_steer_bob_no_signalling():
    rng = np.random.default_rng(21)
    for _ in range(30):
        st = random_fano_state(rng)
        m = rng.normal(size=3)
        m /= np.linalg.norm(m)
        probs, blochs = steer_bob(st, m)
        assert probs.sum() == pytest.approx(1.0, abs=1e-13)
        assert probs.min() >= -1e-13
        avg = probs[0] * blochs[0] + probs[1] * blochs[1]
        assert np.allclose(avg, st.b_vec, atol=1e-12)


def test_steer_bob_zero_probability_convention():
    # measuring along a pure marginal: the impossible branch reports the
    # unsteered reduced state
    product = FanoState(a_vec=np.array([0, 0, 1.0]),
                        b_vec=np.array([0, 0, 1.0]),
                        t_mat=np.diag([0.0, 0.0, 1.0]))
    probs, blochs = steer_bob(product, np.array([0.0, 0.0, 1.0]))
    assert probs[1] == 0.0
    assert np.allclose(blochs[1], product.b_vec, atol=0.0)


# ----- steering-induced coherence -----

def test_sic_reference_values():
    assert steering_induced_coherence(equilibrium_free(0.0, 1.0)) == pytest.approx(
        0.25, abs=1e-9)
    assert steering_induced_coherence(equilibrium_free(1.0, 0.0)) == pytest.approx(
        1.0 / 3.0, abs=1e-9)
    assert steering_induced_coherence(SINGLET) == pytest.approx(1.0, abs=1e-9)


def test_sic_matches_closed_form_on_equilibria():
    for tau in (-3.0, -1.5, -0.5, 0.0, 0.3, 1.0):
        for ratio in (0.0, 0.2, 0.46211715726000974, 0.9):
            got = steering_induced_coherence(equilibrium_free(tau, ratio))
            assert got == pytest.approx(sic_closed_form_free(tau, ratio),
                                        abs=1e-9)


def test_sic_degenerate_is_middle_singular_value():
    # maximally mixed marginals: the infimum lands on s2 of the correlation
    # block, for SIC and MID alike
    for st, want in _unital_states(np.random.default_rng(11), 10):
        for value in (steering_induced_coherence(st), one_sided_mid(st)):
            assert value == pytest.approx(want, abs=1e-8)


def test_sic_solution_attains_value_on_steered_ensemble():
    # the reported axes reproduce the value through the definition: Bob's
    # conditional states for Alice's axis, averaged l1 coherence in the
    # reference basis
    rng = np.random.default_rng(41)
    states = [random_fano_state(rng) for _ in range(20)]
    states += [st for st, _ in _unital_states(rng, 10)]
    for st in states:
        sol = sic_solution(st)
        avg = sum(p * l1_coherence_bloch(r, sol.ref_axis)
                  for p, r in zip(*steer_bob(st, sol.meas_axis)))
        assert avg == pytest.approx(sol.value, abs=1e-12)
        assert sol.value == steering_induced_coherence(st)
        assert not sol.meas_axis.flags.writeable
        assert not sol.ref_axis.flags.writeable


def test_one_sic_formula_below_the_degeneracy_gate():
    # b = 0 and |b| = 1e-12 (below the gate), on unital blocks and on a
    # rotated diag(-0.45, -0.45, 0.1), whose top two singular values tie:
    # with e = T's top right singular vector, sigma_max((I - e e^T) T^T) is
    # sigma_2(T), the MID agrees, and the axes attain it by the definition
    rng = np.random.default_rng(17)
    q1, q2 = (np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(2))
    blocks = [st.t_mat for st, _ in _unital_states(rng, 10)]
    blocks.append(q1 @ np.diag([-0.45, -0.45, 0.1]) @ q2.T)
    for t in blocks:
        b = rng.normal(size=3)
        for blen in (0.0, 1e-12):
            st = FanoState(np.zeros(3), blen * b / np.linalg.norm(b), t)
            sol = sic_solution(st)
            assert abs(sol.value - np.linalg.svd(t)[1][1]) <= 1e-15
            assert abs(one_sided_mid(st) - sol.value) <= 1e-15
            avg = sum(p * l1_coherence_bloch(r, sol.ref_axis)
                      for p, r in zip(*steer_bob(st, sol.meas_axis)))
            assert abs(avg - sol.value) <= 1e-15


def test_sic_is_maximum_over_dense_axis_scan():
    # brute-force oracle: no scanned measurement axis beats the closed form
    axes = _fibonacci_sphere()
    rng = np.random.default_rng(43)
    for _ in range(10):
        st = random_fano_state(rng)
        e = st.b_vec / np.linalg.norm(st.b_vec)
        probs = 0.5 * (1.0 + np.outer([1.0, -1.0], axes @ st.a_vec))
        total = np.zeros(len(axes))
        for k, sign in enumerate((1.0, -1.0)):
            r = (st.b_vec + sign * axes @ st.t_mat) / (2.0 * probs[k][:, None])
            l1 = np.sqrt(np.clip(np.einsum("ij,ij->i", r, r) - (r @ e) ** 2,
                                 0.0, None))
            total += probs[k] * l1
        assert total.max() <= steering_induced_coherence(st) + 1e-12


def test_degenerate_mid_is_minimum_over_dense_axis_scan():
    # brute-force oracle: no scanned reference axis disturbs less than s2
    axes = _fibonacci_sphere()
    for st, want in _unital_states(np.random.default_rng(47), 3):
        m = fano_to_matrix(st)
        low = min(trace_norm(m - dephase_b(m, ax)) for ax in axes)
        assert low >= want - 1e-12


def test_sic_invariant_under_bob_frame_rotation():
    base = equilibrium_free(0.5, 0.3)
    reference = steering_induced_coherence(base)
    rng = np.random.default_rng(29)
    for _ in range(3):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated = FanoState(a_vec=base.a_vec, b_vec=q @ base.b_vec,
                            t_mat=base.t_mat @ q.T)
        assert steering_induced_coherence(rotated) == pytest.approx(
            reference, abs=1e-7)


def test_sic_rejects_unphysical_state():
    from unruh_steer.errors import NotPositive
    bad = FanoState(a_vec=np.zeros(3), b_vec=np.zeros(3), t_mat=np.eye(3))
    with pytest.raises(NotPositive):
        steering_induced_coherence(bad)
    with pytest.raises(NotPositive):
        one_sided_mid(bad)


# ----- one-sided disturbance and the SIC identity -----

def test_mid_reference_values():
    assert one_sided_mid(equilibrium_free(0.0, 1.0)) == pytest.approx(
        0.25, abs=1e-9)
    assert one_sided_mid(SINGLET) == pytest.approx(1.0, abs=1e-9)


def test_singlet_disturbance_is_basis_independent():
    m = fano_to_matrix(SINGLET)
    rng = np.random.default_rng(33)
    for _ in range(10):
        ax = rng.normal(size=3)
        ax /= np.linalg.norm(ax)
        assert trace_norm(m - dephase_b(m, ax)) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), unital=st.booleans())
def test_mid_is_projector_dephasing_along_reference_axis(seed, unital):
    # the Fano-coordinate dephasing inside one_sided_mid against the 4x4
    # projector sum along the axis sic_solution picks; b = 0 states take
    # the degenerate branch (worst seen over 6000 states: 7.8e-16, 6.7e-16)
    rng = np.random.default_rng(seed)
    state = next(_unital_states(rng, 1))[0] if unital else random_fano_state(rng)
    m = fano_to_matrix(state)
    sol = sic_solution(state)
    mid = one_sided_mid(state)
    assert abs(mid - trace_norm(m - dephase_b(m, sol.ref_axis))) <= 1e-14
    assert abs(mid - sol.value) <= 1e-14


@settings(max_examples=40, deadline=None)
@given(tau=st.floats(-3.0, 1.0), ratio=st.floats(0.0, 1.0))
@example(tau=-3.0, ratio=0.95)
@example(tau=0.5, ratio=0.46211715726000974)
@example(tau=1.0, ratio=0.0)
@example(tau=-2.5865720988870864e-17, ratio=1e-12)   # |b| = 1e-12, below the gate
def test_sic_equals_mid_on_equilibria(tau, ratio):
    state = equilibrium_free(tau, ratio)
    assert one_sided_mid(state) == pytest.approx(
        sic_closed_form_free(tau, ratio), abs=1e-12)
    assert theorem1_residual(state) < 1e-12


def test_mid_ignores_b_below_the_degeneracy_gate():
    # rotated Bell-diagonal states with rank-one T, so sigma_2(T) = 0, and
    # |b| = 1e-12 below DEGENERACY_GATE: the SIC drops b, and so must MID.
    # Dephasing b along T's top axis would add |b - (b.e) e| ~ 1e-12 here.
    rng = np.random.default_rng(13)
    for c1 in (-1.0, -0.5, 0.3, 0.9):
        u, v, b = rng.normal(size=(3, 3))
        state = FanoState(a_vec=np.zeros(3), b_vec=1e-12 * b / np.linalg.norm(b),
                          t_mat=c1 * np.outer(u, v) / np.linalg.norm(u)
                          / np.linalg.norm(v))
        assert is_physical(state)
        assert one_sided_mid(state) <= 1e-15


def _stacked_state(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "bell":
        return next(_unital_states(rng, 1))[0]
    if kind == "equilibrium":
        return equilibrium_free(rng.uniform(-3.0, 1.0), rng.uniform(0.0, 1.0))
    state = random_fano_state(rng)
    if kind == "random":
        return state
    # |b| within a few ulps of DEGENERACY_GATE, on either side
    length = 1e-9 * (1.0 + rng.integers(-4, 5) * 2.0 ** -52)
    return FanoState(state.a_vec, length * state.b_vec / np.linalg.norm(state.b_vec),
                     state.t_mat)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(
    st.sampled_from(("random", "bell", "gate", "equilibrium")),
    st.integers(0, 2**32 - 1)), min_size=1, max_size=12))
@example(rows=[("gate", 0), ("random", 1), ("bell", 2), ("gate", 3),
               ("equilibrium", 4), ("gate", 5), ("gate", 6)])
def test_stacked_core_has_the_bits_of_each_state(rows):
    # every row of a mixed stack equals the formulas run on that state alone
    states = [_stacked_state(kind, seed) for kind, seed in rows]
    vectors = np.array([state.to_vector() for state in states])
    values, meas_axes, ref_axes = sic_rows(vectors)
    sic, mid, residual = sic_mid_rows(vectors)
    for k, state in enumerate(states):
        value, meas_axis, ref_axis = sic_by_state(state)
        disturbance = mid_by_state(state, ref_axis)
        assert values[k] == sic[k] == value
        assert np.array_equal(meas_axes[k], meas_axis)
        assert np.array_equal(ref_axes[k], ref_axis)
        assert mid[k] == disturbance
        assert residual[k] == abs(value - disturbance)


_LAYOUTS = {
    "C": np.copy,
    "Fortran": np.asfortranarray,
    "transposed": lambda v: np.ascontiguousarray(v.T).T,
    "row-slice": lambda v: np.repeat(v, 2, axis=0)[::2],
}


@pytest.mark.parametrize("layout", _LAYOUTS)
def test_stack_layout_moves_no_bits(layout):
    # the same states in another memory layout give the same bits
    rng = np.random.default_rng(31)
    vectors = fano_vectors([random_density_matrix(rng) for _ in range(3000)])
    stack = _LAYOUTS[layout](vectors)
    assert np.array_equal(stack, vectors)
    for got, want in zip((*sic_rows(stack), *sic_mid_rows(stack)),
                         (*sic_rows(vectors), *sic_mid_rows(vectors))):
        assert got.tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mid_scales_exactly_with_the_correlation_block(seed):
    # with a and b kept, Bob's axis e is kept, and SIC and MID are both of
    # degree one in T: T scaled by 2^-k scales each MID cell exactly, and
    # SIC = MID holds to rounding at every scale
    rng = np.random.default_rng(seed)
    vectors = fano_vectors([random_density_matrix(rng) for _ in range(20)])
    assume((np.linalg.norm(vectors[:, 3:6], axis=1) >= DEGENERACY_GATE).all())
    _, mid, _ = sic_mid_rows(vectors)
    for k in (10, 30, 60):
        scaled = vectors.copy()
        scaled[:, 6:] *= 2.0 ** -k
        sic_k, mid_k, residual = sic_mid_rows(scaled)
        assert mid_k.tobytes() == (mid * 2.0 ** -k).tobytes()
        assert (residual <= 1e-14 * sic_k).all()


def test_sic_equals_mid_on_random_states():
    rng = np.random.default_rng(101)
    worst = max(theorem1_residual(random_fano_state(rng)) for _ in range(25))
    assert worst < 1e-4


# ----- conditional coherences -----

def test_alpha_matrix_equilibrium_entries():
    for tau, r in ((-2.0, 0.3), (0.5, 0.7), (1.0, 0.0)):
        al = alpha_matrix(equilibrium_free(tau, r))
        den = 3.0 + r * r
        assert al[0, 0] == pytest.approx((tau - r * r) / den, abs=1e-14)
        assert al[1, 1] == pytest.approx((tau - r * r) / den, abs=1e-14)
        assert al[2, 0] == pytest.approx(-r * (tau + 3.0) / den, abs=1e-14)
        assert al[2, 1] == pytest.approx(-r * (tau + 3.0) / den, abs=1e-14)
        assert al[2, 2] == pytest.approx(
            (r * r * (tau + 2.0) - r * (tau + 3.0) + tau) / den, abs=1e-14)
        assert abs(al[0, 1]) < 1e-14 and abs(al[1, 2]) < 1e-14


def test_conditional_coherence_closed_form_is_first_principles():
    rng = np.random.default_rng(37)
    axes = ("x", "y", "z")
    for _ in range(20):
        st = random_fano_state(rng)
        k, w = rng.choice(3, size=2, replace=False)
        for outcome in (+1, -1):
            closed, direct = conditional_coherence(st, axes[k], axes[w], outcome)
            assert closed == pytest.approx(direct, abs=1e-12)


def test_conditional_coherence_equilibrium_values():
    tau, r = 0.5, 0.3
    eq = equilibrium_free(tau, r)
    # Alice measures x and gets +1: Bob's Bloch vector (r_x, 0, r_z); basis
    # z sees only r_x, basis y sees the r_z cross term as well
    _, blochs = steer_bob(eq, np.array([1.0, 0.0, 0.0]))
    rx, ry, rz = blochs[0]
    assert abs(ry) < 1e-14
    xz, _ = conditional_coherence(eq, "x", "z")
    assert xz == pytest.approx(abs(rx), abs=1e-14)
    assert xz == pytest.approx(sic_closed_form_free(tau, r), abs=1e-14)
    xy, _ = conditional_coherence(eq, "x", "y")
    assert xy == pytest.approx(math.hypot(rx, rz), abs=1e-14)


def test_conditional_coherence_integer_axes():
    eq = equilibrium_free(0.5, 0.3)
    assert conditional_coherence(eq, 0, 2) == conditional_coherence(eq, "x", "z")


# ----- free-geometry steerability functional -----

def test_functional_reference_values():
    f = steerability_functional_free(0.5, 0.3)
    assert f.literal == pytest.approx(0.10605844279459356, abs=1e-15)
    assert f.absolute == pytest.approx(0.4246858937749858, abs=1e-15)
    assert not f.singular
    both_one = steerability_functional_free(1.0, 0.0)
    assert both_one.literal == pytest.approx(1.0, abs=1e-15)
    assert both_one.absolute == pytest.approx(1.0, abs=1e-15)


def test_functional_flagged_singularity():
    f = steerability_functional_free(1.0, 1.0)
    assert f.singular
    assert math.isnan(f.literal) and math.isnan(f.absolute)
    assert not f.exceeds_literal and not f.exceeds_absolute


def test_coherence_sum_terms_singular_row_does_not_raise():
    # the second denominator is exactly 0 at (1, 1): on Python floats the
    # terms divide by 0 + 1 instead, flag the row, and raise nothing
    literal, absolute, singular = coherence_sum_terms(1.0, 1.0)
    assert singular is True
    assert type(literal) is float and type(absolute) is float
    # an array with the singular row in it: the other rows keep their bits
    tau, ratio = np.array([1.0, 0.5, -3.0]), np.array([1.0, 0.3, 0.4])
    lits, abss, flags = coherence_sum_terms(tau, ratio)
    assert flags.tolist() == [True, False, False]
    for i in (1, 2):
        f = steerability_functional_free(float(tau[i]), float(ratio[i]))
        assert (lits[i], abss[i]) == (f.literal, f.absolute)


def test_functional_domain():
    with pytest.raises(DomainError):
        steerability_functional_free(1.2, 0.5)
    with pytest.raises(DomainError):
        steerability_functional_free(0.0, -0.2)
    # slack just inside the gate
    steerability_functional_free(1.0 + 5e-13, 0.0)


@pytest.mark.parametrize("kind", [float, np.float64])
def test_domain_messages_read_alike(kind):
    # one check spells the (tau, ratio) bounds for the equilibrium, the
    # functional and the node, whether the number is a float or np.float64
    calls = {"tau = 2.0 outside [-3, 1]": (
                 lambda: equilibrium_free(kind(2.0), 0.5),
                 lambda: steerability_functional_free(kind(2.0), 0.5),
                 lambda: steering_node_acceleration(kind(2.0), 1.0)),
             "ratio = -0.1 outside [0, 1]": (
                 lambda: equilibrium_free(0.5, kind(-0.1)),
                 lambda: steerability_functional_free(0.5, kind(-0.1)))}
    for message, raisers in calls.items():
        for raiser in raisers:
            with pytest.raises(DomainError) as info:
                raiser()
            assert str(info.value) == message


def test_functional_ordering_and_pairings():
    # termwise absolute dominates the signed value; the cyclic pairing sums
    # dominate both and coincide with each other on the equilibrium family
    for tau in np.linspace(-3.0, 1.0, 9):
        for r in np.linspace(0.0, 1.0, 7):
            if tau == 1.0 and r == 1.0:
                continue
            f = steerability_functional_free(float(tau), float(r))
            first, second = steerability_pairings_free(float(tau), float(r))
            assert first == pytest.approx(second, abs=1e-12)
            assert f.absolute >= abs(f.literal) - 1e-12
            assert first >= f.absolute - 1e-12


def test_pairings_reference_value():
    first, _ = steerability_pairings_free(0.5, 0.3)
    assert first == pytest.approx(0.6567923476510207, abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(tau=st.floats(-3.0, 1.0), ratio=st.floats(0.0, 1.0))
@example(tau=0.5, ratio=0.3)
@example(tau=-3.0, ratio=0.4)
@example(tau=1.0, ratio=1.0 - 1e-6)
def test_functional_is_sum_of_steered_components(tau, ratio):
    # Alice measures axis k and gets +1; the k-component of Bob's conditional
    # Bloch vector is alpha_kk / (1 + a_k). The signed functional sums these
    # over k, the absolute one sums their moduli. 1 + a_z falls from 1 to 0
    # towards the singular point (1, 1), and the rounding of both sides grows
    # as 1 / (1 + a_z), so the bound does too (worst seen: 0.5% of it).
    f = steerability_functional_free(tau, ratio)
    assume(not f.singular)
    state = equilibrium_free(tau, ratio)
    comps = [steer_bob(state, axis)[1][0][k] for k, axis in enumerate(np.eye(3))]
    tol = 1e-13 / (1.0 + state.a_vec[2])
    assert abs(f.literal - sum(comps)) <= tol
    assert abs(f.absolute - sum(abs(c) for c in comps)) <= tol


@settings(max_examples=300, deadline=None)
@given(tau=st.floats(-3.0, 1.0), ratio=st.floats(0.0, 1.0))
@example(tau=1.0, ratio=0.0)
@example(tau=1.0, ratio=5e-324)
@example(tau=1.0 - 1e-16, ratio=0.0)
@example(tau=1.0, ratio=1.0 - 1e-9)
@example(tau=-3.0, ratio=1.0)
def test_literal_functional_is_at_most_one(tau, ratio):
    # 1 - literal = N / ((3 + R^2)(R^2 - R(tau+3) + 3)). With s = 1 - tau >= 0,
    # N = 8R(1 - R^2) + s(R^4 + 2R^3 + 6R^2 - 10R + 9) + 2R s^2 >= 0, since
    # 6R^2 - 10R + 9 > 0, and the second factor is (1 - R)(3 - R) + R s >= 0.
    # Both vanish only at the singular point (1, 1); N alone at (1, 0), where
    # literal = 1 is the maximum (a 4001^2 grid reads exactly 1.0 there).
    f = steerability_functional_free(tau, ratio)
    assume(not f.singular)
    assert f.literal <= 1.0
    if (tau, ratio) == (1.0, 0.0):
        assert f.literal == 1.0


def test_functional_exceeds_flags():
    # tau = -3 pins the singlet: every conditional coherence is 1, so the
    # termwise-absolute form reaches 3 > sqrt(6) while the signed form is -3
    f = steerability_functional_free(-3.0, 0.4)
    assert f.absolute == pytest.approx(3.0, abs=1e-12)
    assert f.literal == pytest.approx(-3.0, abs=1e-12)
    assert f.exceeds_absolute and not f.exceeds_literal


# ----- boundary criterion -----

def _one_record(kb):
    """:func:`boundary_verdict_rows` of one record as one-row arrays."""
    return boundary_verdict_rows(*(np.array([getattr(kb, name)])
                                   for name in ("A1", "A2", "B1", "B2")))


def test_boundary_verdict_reference_point():
    (x1, x3, value, satisfied), errors = _one_record(
        kossakowski_boundary(REF, 1.0, 1.0))
    assert errors == {}
    assert [cells.dtype for cells in (x1, x3, value, satisfied)] == [
        np.float64, np.float64, np.float64, np.bool_]
    assert x1[0] == pytest.approx(-0.46211715726000974, abs=1e-15)
    assert x3[0] == pytest.approx(-0.2485648902259372, abs=1e-15)
    assert value[0] == pytest.approx(-0.46211715726000974, abs=1e-13)
    assert not satisfied[0]


def test_boundary_verdict_value_is_minus_ratio():
    # rounding in the rational x1, x3 forms is amplified by 1/(1 - R), so
    # the tolerance is loose near R -> 1 (a = 1 gives R = 0.9963)
    for a in (1.0, 2.0, 10.0):
        for z, sep in ((0.3, 0.1), (1.0, 1.0), (5.0, 2.0)):
            kb = kossakowski_boundary(UnruhParams(1.0, a), z, sep)
            (_, _, value, satisfied), errors = _one_record(kb)
            assert errors == {}
            assert value[0] == pytest.approx(-kb.ratio, abs=1e-9)
            assert not satisfied[0]


def test_boundary_verdict_degenerate_limit():
    kb = kossakowski_boundary(REF, 1.0, 1.0)
    flat = dataclasses.replace(kb, A2=kb.A1, B2=kb.B1)
    _, errors = _one_record(flat)
    assert list(errors) == [0] and type(errors[0]) is DegenerateLimit


def test_boundary_verdict_denominator_zero_at_saturated_ratio():
    # tanh(pi/0.1) rounds to 1.0 in float64, so 1 + x1 underflows
    kb = kossakowski_boundary(UnruhParams(1.0, 0.1), 1.0, 1.0)
    assert kb.ratio == 1.0
    _, errors = _one_record(kb)
    assert list(errors) == [0] and type(errors[0]) is DenominatorZero
