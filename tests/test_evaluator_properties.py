"""Property tests for the whole-axis sweep evaluators.

On random small grids each evaluator, run through ``run_grid``, must give
cell for cell what its scalar functions give (the same bits, or both NaN),
and a row where the scalar functions raise must carry their exact error
text. The evaluators compute every accepted row on the arrays and only
name refused rows by a scalar check, so these comparisons hold the array
path to the scalar one on each accepted row, including limits such as an
infinite thermal argument and image-point arguments that underflow to 0.
The mirror scan's scalar path is ``kossakowski_boundary`` and the
independent ``oracles.boundary_verdict_by_record``: the printed D, x1 and
x3 on Python floats, with the same bound on the coefficients, gates and
error texts.
The boundary scan is checked against its closed form: on unflagged rows
x1 = -R, x3 = -R (1 - R) and the criterion value x3 / (1 + x1) = -R.
"""

import math
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from oracles import boundary_verdict_by_record  # noqa: E402
from unruh_steer.errors import UnruhSteerError  # noqa: E402
from unruh_steer.model import (UnruhParams, equilibrium_free,  # noqa: E402
                               kossakowski_boundary, kossakowski_free)
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
# nan is refused by UnruhParams; at 5e-324, x = 2 pi omega / a is inf, R = 1
ACCELS = st.one_of(st.sampled_from([math.inf, 0.0, -1.0, 2.0 * math.pi,
                                    math.nan, 5e-324]),
                   st.floats(0.05, 1000.0))


def _same(got, want):
    if type(got) is not type(want):
        return False
    if isinstance(got, float):
        return (struct.pack("<d", got) == struct.pack("<d", want)
                or (math.isnan(got) and math.isnan(want)))
    return got == want


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


def _sic_scalar(omega):
    def scalar(tau, accel):
        ratio = kossakowski_free(UnruhParams(omega, accel)).ratio
        equilibrium_free(tau, ratio)
        return (ratio, sic_closed_form_free(tau, ratio)), ""
    return scalar


@settings(max_examples=60, deadline=None)
@given(st.lists(TAUS, min_size=1, max_size=5),
       st.lists(ACCELS, min_size=1, max_size=5), st.booleans(),
       st.sampled_from([1.0, 1e-300, 5e-324, 0.0, -1.0, math.nan, math.inf]))
@example([0.5], [5e-324, math.nan], True, 1.0)
@example([0.5], [1e-3], False, -1.0)   # x = -2000 pi: math.exp overflows
def test_eval_sic_free_equals_scalar_path(taus, accels, tau_outer, omega):
    # a bad omega is refused by UnruhParams on every row; the array path
    # must flag those rows before the thermal factor, where a negative x
    # overflows math.exp, and raise no RuntimeWarning
    accels = accels + [math.inf]
    scalar = _sic_scalar(omega)
    if tau_outer:  # sic-sweep: the tau list outermost
        res = run_grid((("tau", taus), ("a", accels)),
                       lambda tau, a: eval_sic_free(omega, tau, a),
                       SIC_SWEEP_COLUMNS)
        _assert_rows_match(res, 2, scalar)
    else:  # tau-sweep: the acceleration list outermost
        res = run_grid((("a", accels), ("tau", taus)),
                       lambda a, tau: eval_sic_free(omega, tau, a),
                       SIC_SWEEP_COLUMNS)
        _assert_rows_match(res, 2, lambda a, tau: scalar(tau, a))


def test_out_of_range_tau_rows_carry_the_equilibrium_error_text():
    res = run_grid((("tau", [1.5, 0.5]), ("a", [1.0, math.inf])),
                   lambda tau, a: eval_sic_free(1.0, tau, a),
                   SIC_SWEEP_COLUMNS)
    with pytest.raises(UnruhSteerError) as info:
        equilibrium_free(1.5, 0.5)
    assert res.diagnostics[:2] == [f"DomainError: {info.value}"] * 2
    assert res.diagnostics[0] == "DomainError: tau = 1.5 outside [-3, 1]"
    assert res.diagnostics[2:] == ["", ""]


def _boundary_scalar(omega):
    def scalar(accel, z, sep):
        coeffs = kossakowski_boundary(UnruhParams(omega, accel), z, sep)
        pairs = (coeffs.A1, coeffs.A2, coeffs.B1, coeffs.B2)
        return pairs + boundary_verdict_by_record(*pairs), ""
    return scalar


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


# bad inputs (2 pi omega / a is inf at -0.0 and 0.0 too); a <= 0.3 for
# DenominatorZero and 1e20 for an infinite thermal factor at omega = 1e-300,
# 1e25 where 2 pi omega / a underflows there, and 1e-320 for an infinite
# thermal argument
BOUNDARY_ACCELS = st.one_of(
    st.sampled_from([-1.0, -0.0, 0.0, math.nan, math.inf, 1e-320, 0.05, 0.2,
                     0.3, 1e20, 1e25]),
    _log_uniform(0.01, 100.0))
# bad inputs (-0.0 and 0.0 give image-point arguments of +-0, as 5e-324 at
# omega = 1e-300 does by underflow); tiny lengths for DegenerateLimit, and
# 1e200, 1e300 (L^2 + 4 z^2) and 1e308 (2 z omega) for image-point
# arguments that overflow
BOUNDARY_LENGTHS = st.one_of(
    st.sampled_from([-1.0, -0.0, 0.0, math.nan, math.inf, 5e-324, 1e-12,
                     1e-9, 1e200, 1e300, 1e308]),
    _log_uniform(1e-3, 10.0))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1.0, 2.5, 1e-300, 0.0, -1.0, math.nan]),
       st.lists(BOUNDARY_ACCELS, min_size=1, max_size=5),
       st.lists(BOUNDARY_LENGTHS, min_size=1, max_size=5),
       st.lists(BOUNDARY_LENGTHS, min_size=1, max_size=5))
@example(1.0, [-1.0, math.inf, 1e-320, 0.05, 0.3, 1.0, 1e25],
         [-1.0, math.nan, 1e-12, 1e-9, 0.5, 1e200, 1e308],
         [0.0, math.inf, 1e-12, 1.0, 1e200, 1e308])
@example(1e-300, [0.0, 1e-300, 1e-299, 0.3, 1e20, 1e25],
         [1e-9, 1.0, 1e300, 1e308], [1e-12, 1e300, 1e308])
@example(1.0, [1e-320], [1e-4], [3.57e-4])   # x = inf: x1 = -0.9999999970
@example(1e-300, [-0.0, 0.0, 1.0], [-0.0, 5e-324, 1.0], [-0.0, 5e-324, 1.0])
@example(math.nan, [1.0], [1.0], [1.0])
def test_eval_boundary_equals_scalar_path(omega, accels, heights, seps):
    axes = (("a", accels), ("z", heights), ("L", seps))
    res = run_grid(axes, lambda a, z, sep: eval_boundary(omega, a, z, sep),
                   BOUNDARY_COLUMNS)
    _assert_rows_match(res, 3, _boundary_scalar(omega))


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


# omega = 1e-300 with a above ~6e8 makes the thermal factor infinite (A1, A2
# inf or NaN); omega = 1e200, or a large enough to make the thermal factor
# huge, gives coefficients too large for D
EXTREME_ACCELS = st.one_of(BOUNDARY_ACCELS,
                           st.sampled_from([1e100, 1e290, 1e300]),
                           _log_uniform(0.01, 1e300))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1e-300, 1.0, 1e200]),
       st.lists(EXTREME_ACCELS, min_size=1, max_size=5),
       st.lists(BOUNDARY_LENGTHS, min_size=1, max_size=5),
       st.lists(BOUNDARY_LENGTHS, min_size=1, max_size=5))
@example(1e-300, [1e20, 2e20], [1.0, 2.0], [1.0, 2.0])
@example(1.0, [1e290, 1e300], [1.0, 2.0], [1.0, 2.0])
@example(1e200, [1.0], [1.0], [1.0])
def test_eval_boundary_unflagged_rows_are_finite(omega, accels, heights,
                                                  seps):
    # no input raises, and a row that carries no diagnostic has a finite
    # number in every float column and a bool in "satisfied"
    axes = (("a", accels), ("z", heights), ("L", seps))
    res = run_grid(axes, lambda a, z, sep: eval_boundary(omega, a, z, sep),
                   BOUNDARY_COLUMNS)
    for row, diag in zip(res.rows, res.diagnostics):
        if not diag:
            assert all(math.isfinite(v) for v in row[3:-1]), row
            assert type(row[-1]) is bool, row
