"""The sector of states symmetric about n, where the dynamics are two
exponentials.

A state with a = a_z n, b = b_z n and T = [[p, q, 0], [-q, p, 0], [0, 0, u]]
stays such a state under the free dissipator. Every ``--init`` state of the
CLI and Psi+ lie in this sector, and there ``oracles.sector_trajectory``
solves the equations of motion in closed form, without the generator that
``evolve`` builds from ``model._rates``. Along such a trajectory with q = 0
the SIC is |p| = |tau - u(t)| / 2 on both branches of ``sic_rows``.
"""

import math

import numpy as np
import pytest

from oracles import in_sector, sector_trajectory, sector_vector
from unruh_steer import model
from unruh_steer.model import UnruhParams, evolve, kossakowski_free
from unruh_steer.qmat import FanoState
from unruh_steer.steering import DEGENERACY_GATE, sic_rows

# (a_z, b_z, p, q, u): the four CLI --init states (tau-mixed at tau = 0.6),
# Psi+ = (|01> + |10>) / sqrt(2), and one state with a_z != b_z and q != 0
STATES = {
    "ground": (-1.0, -1.0, 0.0, 0.0, 1.0),
    "excited": (1.0, 1.0, 0.0, 0.0, 1.0),
    "singlet": (0.0, 0.0, -1.0, 0.0, -1.0),
    "tau-mixed": (0.0, 0.0, 0.2, 0.0, 0.2),
    "psi-plus": (0.0, 0.0, 1.0, 0.0, -1.0),
    "skewed": (0.3, -0.1, 0.2, 0.1, 0.1),
}
# at a = 0.1, tanh(pi / a) rounds to 1.0 and B = A: the two rates of the
# (s, u) block merge
ACCELS = [0.1, 0.5, 1.0, 2.0 * math.pi, 50.0]
# (t_end, samples): the default horizon, a short window, a long one
RUNS = [(None, 201), (0.3, 17), (40.0, 1000)]


@pytest.mark.parametrize("accel", ACCELS)
@pytest.mark.parametrize("name", STATES)
def test_evolve_matches_the_sector_closed_form(name, accel):
    y0 = sector_vector(*STATES[name])
    coeffs = kossakowski_free(UnruhParams(1.0, accel))
    assert (coeffs.ratio == 1.0) == (accel == 0.1)
    for t_end, samples in RUNS:
        traj = evolve(FanoState.from_vector(y0), coeffs, t_end, samples)
        exact = sector_trajectory(y0, coeffs.A, coeffs.B, traj.times)
        assert np.abs(traj.vectors - exact).max() <= 1e-14


@pytest.mark.parametrize("accel", ACCELS)
def test_sic_along_a_sector_trajectory_is_half_tau_minus_u(accel):
    # the singlet is stationary with b = 0, so all its samples take the
    # degenerate branch, as does sample 0 of Psi+ and of the tau-mixed state
    coeffs = kossakowski_free(UnruhParams(1.0, accel))
    branches = set()
    for name, coords in STATES.items():
        if coords[3]:   # q != 0: the SIC is hypot(p, q)
            continue
        traj = evolve(FanoState.from_vector(sector_vector(*coords)), coeffs)
        sic, _, _ = sic_rows(traj.vectors)
        want = np.abs(traj.tau - traj.vectors[:, 14]) / 2.0
        assert np.abs(sic - want).max() <= 1e-15
        branches.update(np.linalg.norm(traj.vectors[:, 3:6], axis=1) < DEGENERACY_GATE)
    assert branches == {False, True}


def test_rate_matrices_keep_the_sector():
    # every column of a sector coordinate, and the constant term, lands in
    # the sector exactly: no rounding leaks out of it
    per_a, per_b = model._rate_matrices()
    images = [m @ sector_vector(*unit) for m in (per_a, per_b)
              for unit in np.eye(5)]
    assert in_sector(np.array(images)).all()
    assert in_sector(model._rates()[1][:, 15])
    assert not in_sector(sector_vector(0.0, 0.0, 1.0, 0.0, 0.0) + np.eye(15)[0])
