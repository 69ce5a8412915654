"""Property tests for the whole-axis sweep evaluators.

On random small grids each evaluator, run through ``run_grid``, must give
cell for cell what its scalar functions give (``==``, or both NaN), and
a row where the scalar functions raise must carry their exact error text.
The boundary scan is checked against its closed form: on unflagged rows
x1 = -R, x3 = -R (1 - R) and the criterion value x3 / (1 + x1) = -R.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from unruh_steer.errors import UnruhSteerError  # noqa: E402
from unruh_steer.model import (UnruhParams, equilibrium_free,  # noqa: E402
                               kossakowski_free)
from unruh_steer.steering import (sic_closed_form_free,  # noqa: E402
                                  steerability_functional_free)
from unruh_steer.sweeps import (BOUNDARY_COLUMNS,  # noqa: E402
                                SIC_SWEEP_COLUMNS, SURFACE_COLUMNS,
                                eval_boundary, eval_sic_free, eval_surface,
                                run_grid)

# the range edges and just beyond them, so that range checks are exercised,
# and 1 - 3e-13, inside the 1e-12 singular gate around (1, 1)
TAUS = st.one_of(st.sampled_from([-3.0, -3.0 - 1e-12, -3.5, 1.0 - 3e-13, 1.0,
                                  1.0 + 1e-12, 1.0 + 1e-9, 1.5]),
                 st.floats(-3.5, 1.5))
RATIOS = st.one_of(st.sampled_from([0.0, -1e-12, -1e-9, 1.0 - 3e-13, 1.0,
                                    1.0 + 1e-9]),
                   st.floats(-0.2, 1.2))
ACCELS = st.one_of(st.sampled_from([math.inf, 0.0, -1.0, 2.0 * math.pi]),
                   st.floats(0.05, 1000.0))


def _same(got, want):
    if type(got) is not type(want):
        return False
    return got == want or (math.isnan(got) and math.isnan(want))


def _expect(scalar, *args):
    """(values, diagnostic) of the scalar path, errors mapped as in a sweep."""
    try:
        return scalar(*args)
    except UnruhSteerError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _assert_rows_match(res, n_in, scalar):
    for row, diag in zip(res.rows, res.diagnostics):
        values, want_diag = _expect(scalar, *row[:n_in])
        assert diag == want_diag, row
        if values is None:
            assert all(math.isnan(v) for v in row[n_in:]), row
        else:
            assert all(_same(g, w) for g, w in zip(row[n_in:], values)), (
                row, values)


def _surface_scalar(tau, ratio):
    result = steerability_functional_free(tau, ratio)
    return tuple(result[:4]), "singular" if result.singular else ""


@settings(max_examples=60, deadline=None)
@given(st.lists(TAUS, min_size=1, max_size=5),
       st.lists(RATIOS, min_size=1, max_size=5))
def test_eval_surface_equals_scalar_functional(taus, ratios):
    # (1, 1) is in every grid: the singular point of the functional
    axes = (("tau", taus + [1.0]), ("R", ratios + [1.0]))
    res = run_grid(axes, eval_surface, SURFACE_COLUMNS)
    assert res.diagnostics[-1] == "singular"
    _assert_rows_match(res, 2, _surface_scalar)


def _sic_scalar(tau, accel):
    ratio = kossakowski_free(UnruhParams(1.0, accel)).ratio
    equilibrium_free(tau, ratio)
    return (ratio, sic_closed_form_free(tau, ratio)), ""


@settings(max_examples=60, deadline=None)
@given(st.lists(TAUS, min_size=1, max_size=5),
       st.lists(ACCELS, min_size=1, max_size=5), st.booleans())
def test_eval_sic_free_equals_scalar_path(taus, accels, tau_outer):
    accels = accels + [math.inf]
    if tau_outer:  # sic-sweep: the tau list outermost
        res = run_grid((("tau", taus), ("a", accels)),
                       lambda tau, a: eval_sic_free(1.0, tau, a),
                       SIC_SWEEP_COLUMNS)
        _assert_rows_match(res, 2, _sic_scalar)
    else:  # tau-sweep: the acceleration list outermost
        res = run_grid((("a", accels), ("tau", taus)),
                       lambda a, tau: eval_sic_free(1.0, tau, a),
                       SIC_SWEEP_COLUMNS)
        _assert_rows_match(res, 2, lambda a, tau: _sic_scalar(tau, a))


def test_out_of_range_tau_rows_carry_the_equilibrium_error_text():
    res = run_grid((("tau", [1.5, 0.5]), ("a", [1.0, math.inf])),
                   lambda tau, a: eval_sic_free(1.0, tau, a),
                   SIC_SWEEP_COLUMNS)
    with pytest.raises(UnruhSteerError) as info:
        equilibrium_free(1.5, 0.5)
    assert res.diagnostics[:2] == [f"DomainError: {info.value}"] * 2
    assert res.diagnostics[0] == "DomainError: tau = 1.5 outside [-3, 1]"
    assert res.diagnostics[2:] == ["", ""]


# log-uniform over the README's 20^3 scan box
LOG_A = st.floats(math.log(0.1), math.log(100.0))
LOG_Z = st.floats(math.log(0.1), math.log(10.0))
LOG_L = st.floats(math.log(0.01), math.log(10.0))
IDENTITY_TOL = 1e-10  # worst seen on the box: 1.9e-11 in x1


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(LOG_A, LOG_Z, LOG_L), min_size=1, max_size=20))
def test_boundary_criterion_is_minus_ratio(points):
    accel, z, sep = np.exp(np.array(points)).T
    columns, diagnostics = eval_boundary(1.0, accel, z, sep)
    assert len(columns) == len(BOUNDARY_COLUMNS)
    a1, _, b1, _, x1, x3, value, _ = columns
    for i, diag in enumerate(diagnostics):
        if diag:
            continue
        ratio = b1[i] / a1[i]
        assert abs(x1[i] + ratio) <= IDENTITY_TOL
        assert abs(x3[i] + ratio * (1.0 - ratio)) <= IDENTITY_TOL
        # value = x3 / (1 + x1) divides by 1 + x1 ~ 1 - R
        assert abs(value[i] + ratio) <= IDENTITY_TOL / (1.0 - ratio)
