"""Property tests for evolve: invariants and the exact propagator.

Random physical initial states (``random_density_matrix`` at a drawn seed)
are evolved, and every sample is checked against a reference built here,
independently of ``evolve``: scipy's ``expm`` of the 16x16 generator
G = [[M, c], [0, 0]] of the affine equation dy/dt = M y + c, probed from
``ode_rhs`` on the state's own tau leaf and applied to (y0, 1) at each
sample time. ``evolve`` solves the same equation exactly, in deviation
form from the closed-form equilibrium, so the two agree to rounding: every
sample within 1e-12, and within 1e-14 on 2000 short intervals.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from scipy.linalg import expm  # noqa: E402

from unruh_steer.model import (UnruhParams, equilibrium_free, evolve,  # noqa: E402
                               kossakowski_free, ode_rhs)
from unruh_steer.qmat import (FanoState, fano_to_matrix,  # noqa: E402
                              matrix_to_fano, min_eigenvalue,
                              random_density_matrix)


def _exact(y0, coeffs, tau, times):
    def rhs(y):
        return ode_rhs(FanoState.from_vector(y), coeffs, tau=tau).to_vector()

    c = rhs(np.zeros(15))
    gen = np.zeros((16, 16))
    gen[:15, :15] = np.column_stack([rhs(e) - c for e in np.eye(15)])
    gen[:15, 15] = c
    return (expm(times[:, None, None] * gen) @ np.append(y0, 1.0))[:, :15]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), accel=st.floats(0.5, 100.0))
def test_evolve_properties(seed, accel):
    state = matrix_to_fano(random_density_matrix(np.random.default_rng(seed)))
    coeffs = kossakowski_free(UnruhParams(1.0, accel))
    traj = evolve(state, coeffs)
    ys, states = traj.vectors, traj.states
    y0, tau = state.to_vector(), state.trace_sum
    y_eq = equilibrium_free(tau, coeffs.ratio).to_vector()

    assert max(abs(s.trace_sum - tau) for s in states) < 1e-9
    assert min(min_eigenvalue(fano_to_matrix(s)) for s in states) >= -1e-8
    exact_dev = np.abs(ys - _exact(y0, coeffs, tau, traj.times)).max(axis=1)
    assert exact_dev.max() <= 1e-12 * np.abs(y0 - y_eq).max()
    assert exact_dev[-1] <= 1e-12

    assert traj.landing == np.abs(ys[-1] - y_eq).max()
    assert traj.converged == (traj.landing < 1e-6)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), log_accel=st.floats(-2.0, 3.0),
       t_end=st.one_of(st.none(), st.just(1e-13),
                       st.floats(-3.0, math.log10(50.0)).map(lambda x: 10.0 ** x)),
       samples=st.sampled_from([1, 2, 201, 2001]))
def test_evolve_matches_expm(seed, log_accel, t_end, samples):
    # over wide accelerations, horizons (down to intervals of 5e-17) and
    # sample counts, every sample is within 1e-12 of expm(t G) (y0, 1); the
    # first is y0 itself, and step is the sample interval
    state = matrix_to_fano(random_density_matrix(np.random.default_rng(seed)))
    coeffs = kossakowski_free(UnruhParams(1.0, 10.0 ** log_accel))
    traj = evolve(state, coeffs, t_end=t_end, samples=samples)
    y0, tau = state.to_vector(), state.trace_sum
    last = traj.times[-1]
    assert np.array_equal(traj.times, np.linspace(0.0, last, samples))
    assert traj.step == (last / (samples - 1) if samples > 1 else 0.0)
    assert np.array_equal(traj.vectors[0], y0)
    assert np.abs(traj.vectors - _exact(y0, coeffs, tau, traj.times)).max() <= 1e-12
    y_eq = equilibrium_free(tau, coeffs.ratio).to_vector()
    assert traj.landing == np.abs(traj.vectors[-1] - y_eq).max()


@pytest.mark.parametrize("accel", [0.5, 1.0])
@pytest.mark.parametrize("t_end", [1e-6, 1e-2])
def test_evolve_keeps_short_intervals_exact(accel, t_end):
    # 2000 intervals that each move y by 1e-5 or less: the interval map is
    # kept as exp(step M) - I, so the samples stay within a few ulp of expm
    # (kept as I + E and squared, they drift ~1e-13 away)
    n = np.array([0.0, 0.0, 1.0])
    state = FanoState(n, n, np.outer(n, n))
    coeffs = kossakowski_free(UnruhParams(1.0, accel))
    traj = evolve(state, coeffs, t_end=t_end, samples=2001)
    exact = _exact(state.to_vector(), coeffs, state.trace_sum, traj.times)
    assert np.abs(traj.vectors - exact).max() <= 1e-14
