"""Property tests for evolve: invariants, reference RK4, exact propagator.

Random physical initial states (``random_density_matrix`` at a drawn seed)
and accelerations in [0.5, 100] are evolved to the default horizon. Every
sample is checked against two references built here, independently of
``evolve``: the plain per-step RK4 loop over ``ode_rhs`` (the same scheme,
so agreement is to rounding), and the exact solution expm(t G) of the affine
equation dy/dt = M y + c with G = [[M, c], [0, 0]].

The decay rates of M are real and at most 12 A, so with h 12 A <= 0.05 the
RK4 global error peaks mid-trajectory at about 0.05^4 / (120 e) = 1.9e-8 per
unit of modal amplitude (up to 1.7e-8 seen). Every sample is held to
1e-7 times the initial distance from equilibrium, the final sample, which
has relaxed, to 1e-9.
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


def _rhs(y, coeffs, tau):
    return ode_rhs(FanoState.from_vector(y), coeffs, tau=tau).to_vector()


def _reference_rk4(y0, coeffs, tau, times, h):
    """Classic RK4 with four right-hand-side stages per substep."""
    y, t_now, out = y0.copy(), 0.0, []
    for target in times:
        span = target - t_now
        if span > 1e-15 * max(1.0, target):
            nsub = max(1, int(math.ceil(span / h)))
            sub = span / nsub
            for _ in range(nsub):
                k1 = _rhs(y, coeffs, tau)
                k2 = _rhs(y + 0.5 * sub * k1, coeffs, tau)
                k3 = _rhs(y + 0.5 * sub * k2, coeffs, tau)
                k4 = _rhs(y + sub * k3, coeffs, tau)
                y = y + (sub / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t_now = target
        out.append(y)
    return np.array(out)


def _exact(y0, coeffs, tau, times):
    c = _rhs(np.zeros(15), coeffs, tau)
    gen = np.zeros((16, 16))
    gen[:15, :15] = np.column_stack([_rhs(e, coeffs, tau) - c for e in np.eye(15)])
    gen[:15, 15] = c
    y1 = np.append(y0, 1.0)
    return np.array([(expm(t * gen) @ y1)[:15] for t in times])


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
    ref = _reference_rk4(y0, coeffs, tau, traj.times, traj.step)
    assert np.abs(ys - ref).max() <= 1e-12
    exact_dev = np.abs(ys - _exact(y0, coeffs, tau, traj.times)).max(axis=1)
    assert exact_dev.max() <= 1e-7 * np.abs(y0 - y_eq).max()
    assert exact_dev[-1] <= 1e-9

    assert traj.landing == np.abs(ys[-1] - y_eq).max()
    assert traj.converged == (traj.landing < 1e-6)
