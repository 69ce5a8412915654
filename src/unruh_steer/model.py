"""Dissipative model of two uniformly accelerated two-level atoms.

A pair of identical atoms with level splitting ``omega`` moves with common
proper acceleration ``accel`` through the scalar vacuum; tracing out the
field leaves a Lindblad semigroup on the two-qubit state whose Kossakowski
matrix is

    a_ij = A delta_ij - i B eps_ijk n_k + C n_i n_j

built from the field correlations at the Unruh temperature accel / (2 pi).
Along n the C term drops out of the coefficient equations and of every
asymptotic quantity, so C is not computed. This module computes A and B
(free space, and pairs of them with a reflecting boundary at distance
``z``, atom separation ``sep``), the asymptotic
equilibrium states, the coefficient-space equation of motion, and its
fixed-step RK4 solution: one 16x16 step map of the affine generator,
sampled on a uniform grid into one (S, 15) array that one stacked
eigensolve checks for positivity.

Conventions: natural units, the dissipator direction is n = (0, 0, 1),
and ``ratio`` denotes the dissipative asymmetry
B / A = tanh(pi omega / accel) in [0, 1].
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from numbers import Integral

import numpy as np

from .errors import DegenerateLimit, DomainError, UnphysicalDrift
from .qmat import FanoState, fano_matrices

Z_AXIS = np.array([0.0, 0.0, 1.0])

RANGE_SLACK = 1e-12        # slack on closed parameter ranges
SINC_SERIES_CUTOFF = 1e-4  # |x| below which sin(x)/x uses its series
DEGENERATE_D_REL = 1e-14   # |D| underflow gate, relative to coefficient scale
COEFFICIENT_LIMIT = 1e102  # boundary |coefficients| below it keep D, x1, x3 finite
DRIFT_TOL = -1e-6          # sampled min eigenvalue below this aborts evolve
LANDING_TOL = 1e-6         # final sample this close to the equilibrium: converged


def sinc(x: float) -> float:
    """sin(x)/x with the small-argument series 1 - x^2/6 + x^4/120."""
    x = abs(float(x))
    if x < SINC_SERIES_CUTOFF:
        x2 = x * x
        return 1.0 - x2 / 6.0 + x2 * x2 / 120.0
    return math.sin(x) / x


def _thermal_factor(x: float) -> float:
    # (1 + e^-x) / (1 - e^-x); expm1 keeps full precision for small x
    if x == 0.0:
        raise DomainError("the thermal argument 2 pi omega / accel underflows to 0")
    return (1.0 + math.exp(-x)) / (-math.expm1(-x))


def _each(f, x):
    """f(x) of a float; of an array, f of each element, called once per
    distinct bit pattern. Either way an element gets the bits the scalar
    path gives it, which numpy's own power and exp loops do not (they round
    some arguments differently), nor promise for sin."""
    if not isinstance(x, np.ndarray):
        return f(float(x))
    bits, where = np.unique(x.view(np.int64), return_inverse=True)
    return np.array([f(v) for v in bits.view(np.float64).tolist()],
                    dtype=float)[where]


def _power(x, k):
    """x ** k as Python floats take it (C ``pow``), element by element on
    arrays."""
    return _each(lambda v: v ** k, x)


def leaf_mask(tau, ratio):
    """True where tau is in [-3, 1] and ratio in [0, 1] within RANGE_SLACK,
    the domain of the equilibrium family; scalars or arrays, NaN outside."""
    return ((-3.0 - RANGE_SLACK <= tau) & (tau <= 1.0 + RANGE_SLACK)
            & (-RANGE_SLACK <= ratio) & (ratio <= 1.0 + RANGE_SLACK))


def check_leaf(tau: float, ratio: float = 0.0) -> None:
    """DomainError naming tau, else ratio, where :func:`leaf_mask` fails."""
    if not leaf_mask(tau, 0.0):
        raise DomainError(f"tau = {float(tau)!r} outside [-3, 1]")
    if not leaf_mask(0.0, ratio):
        raise DomainError(f"ratio = {float(ratio)!r} outside [0, 1]")


def coefficient_mask(*coeffs):
    """True where every coefficient is finite and below COEFFICIENT_LIMIT in
    magnitude, so that D, x1 and x3 of the boundary case stay finite;
    scalars or arrays, False at NaN."""
    return reduce(operator.and_, (abs(c) < COEFFICIENT_LIMIT for c in coeffs))


def check_coefficients(a1: float, a2: float, b1: float, b2: float) -> None:
    """DomainError naming the first of A1, A2, B1, B2 where
    :func:`coefficient_mask` fails."""
    for name, value in zip(("A1", "A2", "B1", "B2"), (a1, a2, b1, b2)):
        if not coefficient_mask(value):
            raise DomainError(f"boundary coefficient {name} = {float(value)!r}:"
                              " D needs each finite and below"
                              f" {COEFFICIENT_LIMIT:g} in magnitude")


def check_omega(omega: float) -> None:
    if not (omega > 0.0 and math.isfinite(omega)):
        raise DomainError("omega must be positive and finite")


@dataclass(frozen=True)
class UnruhParams:
    """Atom frequency and proper acceleration.

    ``accel = inf`` is accepted as the inertial limit flag (ratio -> 0).
    """

    omega: float
    accel: float

    def __post_init__(self):
        check_omega(self.omega)
        if not self.accel > 0.0:
            raise DomainError("accel must be positive (inf allowed)")

    @property
    def beta(self) -> float:
        return 2.0 * math.pi / self.accel


@dataclass(frozen=True)
class KossakowskiFree:
    """Free-space Kossakowski coefficients A and B (C is not computed)."""

    A: float
    B: float
    ratio: float        # B / A, equals tanh(pi omega / accel)


@dataclass(frozen=True)
class KossakowskiBoundary:
    """A and B coefficient pairs with a reflecting boundary.

    The 1-pair multiplies delta_ij / eps for each atom with itself, the
    2-pair the cross-atom blocks; the n n pairs (C1 = -A1, C2 = -A2) are
    not computed. ``z`` and ``sep`` are the geometry they were built for.
    """

    A1: float
    A2: float
    B1: float
    B2: float
    z: float
    sep: float
    ratio: float        # B1 / A1, or the free-space B / A where A1 rounds to 0


def kossakowski_free(params: UnruhParams) -> KossakowskiFree:
    """Free-space coefficients at the Unruh temperature.

    A = (omega/4pi) (1 + e^-x)/(1 - e^-x) with x = 2 pi omega / accel and
    B = omega/4pi. The ratio B/A equals tanh(x/2); the tests hold it to
    1e-12. At accel = inf, A = inf and the ratio is 0.
    """
    pref = params.omega / (4.0 * math.pi)
    if math.isinf(params.accel):
        return KossakowskiFree(A=math.inf, B=pref, ratio=0.0)
    a_coef = pref * _thermal_factor(params.beta * params.omega)
    return KossakowskiFree(A=a_coef, B=pref, ratio=pref / a_coef)


def boundary_arguments(omega, accel, z, sep):
    """The thermal argument x = 2 pi omega / accel and the image-point
    arguments (2 z omega, sep omega, sqrt(sep^2 + 4 z^2) omega) of
    :func:`kossakowski_boundary`; Python floats or numpy arrays alike."""
    image = _each(math.sqrt, sep * sep + 4.0 * z * z)
    return (2.0 * math.pi / accel) * omega, (2.0 * z * omega, sep * omega,
                                             image * omega)


def boundary_pairs(omega, x, args):
    """(A1, A2, B1, B2) from :func:`boundary_arguments`; Python floats or
    numpy arrays alike, with sinc and the thermal factor through ``_each``.
    DomainError where x underflows to 0."""
    pref = omega / (4.0 * math.pi)
    th = _each(_thermal_factor, x)
    same = 1.0 - _each(sinc, args[0])
    cross = _each(sinc, args[1]) - _each(sinc, args[2])
    return pref * th * same, pref * th * cross, pref * same, pref * cross


def kossakowski_boundary(params: UnruhParams, z: float, sep: float) -> KossakowskiBoundary:
    """Coefficient pairs for atoms at distance z from a reflecting boundary.

    Both atoms sit at the same z; sep is their separation parallel to the
    boundary. The boundary enters through image-point sinc factors:

        A1, B1 ~ 1 - sinc(2 z omega)
        A2, B2 ~ sinc(sep omega) - sinc(sqrt(sep^2 + 4 z^2) omega)

    with the thermal factor multiplying the A pair. DomainError where an
    image-point argument overflows, 2 pi omega / accel underflows to 0, or a
    coefficient fails :func:`check_coefficients` (an infinite thermal factor
    makes it inf or NaN, a large one too large for D).
    """
    if not (z > 0.0 and math.isfinite(z)):
        raise DomainError("z must be positive and finite")
    if not (sep > 0.0 and math.isfinite(sep)):
        raise DomainError("sep must be positive and finite")
    if math.isinf(params.accel):
        raise DomainError("boundary coefficients need a finite acceleration")
    x, args = boundary_arguments(params.omega, params.accel, z, sep)
    if not all(map(math.isfinite, args)):
        raise DomainError("an image-point distance times omega overflows")
    a1, a2, b1, b2 = boundary_pairs(params.omega, x, args)
    check_coefficients(a1, a2, b1, b2)
    ratio = b1 / a1 if a1 != 0.0 else kossakowski_free(params).ratio
    return KossakowskiBoundary(A1=a1, A2=a2, B1=b1, B2=b2, z=z, sep=sep,
                               ratio=ratio)


# ----- equilibrium states -----

def equilibrium_free(tau: float, ratio: float) -> FanoState:
    """Asymptotic state of the free-space semigroup on the tau leaf.

    tau is the conserved correlation trace sum_i T_ii in [-3, 1], ratio the
    asymmetry B/A in [0, 1]. Both Bloch vectors equal
    -ratio (tau+3) n / (3 + ratio^2) and

        T = [ (tau - ratio^2) I + ratio^2 (tau+3) n n ] / (3 + ratio^2).

    At tau = -3 this is the singlet for every ratio.
    """
    check_leaf(tau, ratio)
    denom = 3.0 + ratio * ratio
    c = -ratio * (tau + 3.0) / denom
    t_mat = ((tau - ratio * ratio) * np.eye(3)
             + ratio * ratio * (tau + 3.0) * np.outer(Z_AXIS, Z_AXIS)) / denom
    return FanoState(c * Z_AXIS, c * Z_AXIS, t_mat)


@dataclass(frozen=True)
class BoundaryEquilibrium:
    """Boundary-case asymptotic state plus its printed-formula diagnostics.

    tau_eq is the closed-form equilibrium trace; trace_mismatch records
    |tau_eq - sum_i T_ii| of the returned state (a pure rounding residual:
    the two expressions agree identically whenever A1 B2 = A2 B1, which the
    coefficient construction guarantees). is_limit marks a degenerate-D
    fallback to the free-space family.
    """

    state: FanoState
    tau_eq: float
    trace_mismatch: float
    is_limit: bool


def boundary_d(a1, a2, b1, b2):
    """D = 2 A1^3 - A1^2 A2 - A2 B1 B2 + A1 (B2^2 - A2^2) of the boundary
    case, and whether |D| underflows to 1e-14 of the coefficient-scale cube.
    Python floats or numpy arrays alike, powers through ``_power``, which
    raises OverflowError unless the coefficients pass
    :func:`coefficient_mask`."""
    d = (2.0 * _power(a1, 3) - _power(a1, 2) * a2 - a2 * b1 * b2
         + a1 * (_power(b2, 2) - _power(a2, 2)))
    scale = _power(reduce(np.maximum, (abs(a1), abs(a2), abs(b1), abs(b2),
                                       1e-300)), 3)
    return d, abs(d) <= DEGENERATE_D_REL * scale


def boundary_x(a1, a2, b1, b2, d):
    """x1 = -(A1-A2) B1 (2A1+A2) / D, the equilibrium's Bloch coefficient
    along n, and x3 = (A1-A2) B1 (2B1+B2-2A1-A2) / D of the boundary
    steering criterion; Python floats or numpy arrays alike."""
    return (-(a1 - a2) * b1 * (2.0 * a1 + a2) / d,
            (a1 - a2) * b1 * (2.0 * b1 + b2 - 2.0 * a1 - a2) / d)


def d_underflow(d) -> DegenerateLimit:
    """The error of a D that underflows, as both boundary paths word it."""
    return DegenerateLimit(f"|D| = {abs(d):.3e} underflows")


def boundary_denominator(coeffs: KossakowskiBoundary) -> float:
    """D of :func:`boundary_d`; DomainError where a coefficient fails
    :func:`check_coefficients`, DegenerateLimit where D underflows
    (z -> 0 and/or sep -> 0 regimes)."""
    check_coefficients(coeffs.A1, coeffs.A2, coeffs.B1, coeffs.B2)
    d, underflows = boundary_d(coeffs.A1, coeffs.A2, coeffs.B1, coeffs.B2)
    if underflows:
        raise d_underflow(d)
    return d


def equilibrium_boundary(coeffs: KossakowskiBoundary, *,
                         fallback_tau: float | None = None) -> BoundaryEquilibrium:
    """Asymptotic state in the boundary case.

    Bloch coefficient -(A1-A2) B1 (2A1+A2) n / D and correlation block
    (A1-A2) B1 (2B1+B2) n n / D, with D from :func:`boundary_denominator`.
    Where D underflows, the free-space equilibrium on the ``fallback_tau``
    leaf is returned flagged ``is_limit=True``, or DegenerateLimit raised
    when no fallback is supplied. A supplied ``fallback_tau`` outside
    [-3, 1] raises DomainError whether or not D underflows.
    """
    if fallback_tau is not None:
        check_leaf(fallback_tau)
    try:
        d = boundary_denominator(coeffs)
    except DegenerateLimit as exc:
        if fallback_tau is None:
            raise DegenerateLimit(
                f"{exc} at z={coeffs.z}, sep={coeffs.sep}; "
                "supply fallback_tau for the free-space limit") from None
        state = equilibrium_free(fallback_tau, coeffs.ratio)
        return BoundaryEquilibrium(state=state, tau_eq=float(fallback_tau),
                                   trace_mismatch=math.nan, is_limit=True)
    a1, a2, b1, b2 = coeffs.A1, coeffs.A2, coeffs.B1, coeffs.B2
    c, _ = boundary_x(a1, a2, b1, b2, d)
    s = (a1 - a2) * b1 * (2.0 * b1 + b2) / d
    tau_eq = (2.0 * a1 + a2) * b1 * (b1 - b2) / d
    state = FanoState(c * Z_AXIS, c * Z_AXIS, s * np.outer(Z_AXIS, Z_AXIS))
    return BoundaryEquilibrium(state=state, tau_eq=tau_eq,
                               trace_mismatch=abs(tau_eq - state.trace_sum),
                               is_limit=False)


# ----- equation of motion and integrator -----

def ode_rhs(state: FanoState, coeffs: KossakowskiFree, *,
            tau: float | None = None) -> FanoState:
    """Time derivative of the Pauli coefficients under the free dissipator.

    Along n = (0, 0, 1) the C coefficient drops out of every asymptotic
    quantity and is omitted. tau defaults to the state's own correlation
    trace; the derivative of sum_i T_ii is -12 A (sum_i T_ii - tau), so the
    trace is conserved on its own leaf.

    The Bloch-vector equations contract the correlation block on opposite
    sides (n_k T_ki for the A side, n_k T_ik for the B side). The signs of
    the B couplings in the correlation-block equation are fixed by
    requiring that the semigroup generated here is trace preserving and
    completely positive, with :func:`equilibrium_free` its exact stationary
    family; a common transcription of these equations flips them.
    """
    n = Z_AXIS
    if not math.isfinite(coeffs.A):
        raise DomainError("ode_rhs needs finite coefficients")
    a_coef, b_coef = coeffs.A, coeffs.B
    av, bv, t = state.a_vec, state.b_vec, state.t_mat
    if tau is None:
        tau = state.trace_sum
    da = -4.0 * a_coef * av - 2.0 * b_coef * (2.0 + tau) * n + 2.0 * b_coef * (n @ t)
    db = -4.0 * a_coef * bv - 2.0 * b_coef * (2.0 + tau) * n + 2.0 * b_coef * (t @ n)
    dt = (-4.0 * a_coef * (2.0 * t + t.T - tau * np.eye(3))
          - 4.0 * b_coef * (np.outer(n, bv) + np.outer(av, n))
          - 2.0 * b_coef * (np.outer(n, av) + np.outer(bv, n))
          + 2.0 * b_coef * np.eye(3) * (n @ (av + bv)))
    return FanoState(da, db, dt)


def relaxation_horizon(coeffs: KossakowskiFree) -> float:
    """Hard equilibration horizon 20 / (4 A - 2 B), twenty e-folds of the
    slowest decay rate; DomainError unless A is positive and finite."""
    if not (coeffs.A > 0.0 and math.isfinite(coeffs.A)):
        raise DomainError(f"the dynamics need a positive finite A, not {coeffs.A!r}")
    return 20.0 / (4.0 * coeffs.A - 2.0 * coeffs.B)


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of :func:`evolve`: read-only ``times`` and (S, 15)
    ``vectors`` of :meth:`FanoState.to_vector` rows; ``landing`` is the
    max-norm distance of the last row from :func:`equilibrium_free` on the
    tau leaf, and ``converged`` means it is below 1e-6. ``step`` is the base
    RK4 step h, or 0.0 for a single sample, where nothing is integrated."""

    times: np.ndarray
    vectors: np.ndarray
    tau: float
    landing: float
    step: float

    @property
    def states(self) -> list:
        """The samples as FanoStates, built on each access."""
        return [FanoState.from_vector(v) for v in self.vectors]

    @property
    def final_state(self) -> FanoState:
        return FanoState.from_vector(self.vectors[-1])

    @property
    def converged(self) -> bool:
        return self.landing < LANDING_TOL


def evolve(state: FanoState, coeffs: KossakowskiFree, t_end: float | None = None,
           samples: int = 201) -> Trajectory:
    """Integrate the coefficient equations with classic fixed-step RK4 on
    the state's own tau leaf, sampled at ``samples`` uniform times on
    [0, t_end] (default: the horizon 20 / (4 A - 2 B)). The base step is
    h = min(0.05 / (12 A), t_end / 1000); each interval between samples is
    split into equal substeps no larger than h, so samples are hit exactly.

    The equation is affine at fixed tau, dy/dt = M y + c, so a substep of
    length s applies the RK4 step map sum_{k<=4} (s G)^k / k! of
    G = [[M, c], [0, 0]] to (y, 1); G is probed from :func:`ode_rhs` once
    per call.

    After the step loop all samples are checked in one stacked ``eigvalsh``;
    UnphysicalDrift names the earliest one whose minimum eigenvalue is below
    -1e-6. DomainError for A, t_end, samples or tau out of range, and for a
    sample that overflows (unless an earlier one drifted).
    """
    horizon = relaxation_horizon(coeffs)   # checks A
    t_end = horizon if t_end is None else t_end
    if not (t_end > 0.0 and math.isfinite(t_end)):
        raise DomainError("t_end must be positive and finite")
    if isinstance(samples, bool) or not isinstance(samples, Integral) or samples < 1:
        raise DomainError(f"samples must be an integer >= 1, got {samples!r}")
    times = np.linspace(0.0, t_end, samples)
    times.setflags(write=False)

    tau = state.trace_sum
    equilibrium = equilibrium_free(tau, coeffs.ratio)
    h = min(0.05 / (12.0 * coeffs.A), t_end / 1000.0)

    def rhs(y):
        return ode_rhs(FanoState.from_vector(y), coeffs, tau=tau).to_vector()

    gen = np.zeros((16, 16))
    gen[:15, 15] = rhs(np.zeros(15))
    gen[:15, :15] = np.column_stack([rhs(e) - gen[:15, 15] for e in np.eye(15)])
    eye = np.eye(16)

    y = np.append(state.to_vector(), 1.0)
    vectors = np.empty((samples, 15))
    filled = 0
    for span in np.diff(times, prepend=0.0):
        # skip intervals whose change, span times the rate 12 A of h, is sub-ulp:
        # their steps only add rounding (from the ground state at a = 2, t_end =
        # 1e-13 lands 4.0e-14 from y0 + t f(y0) integrated, 5.8e-15 skipped)
        if span * 12.0 * coeffs.A > 1e-15:
            nsub = max(1, int(math.ceil(span / h)))
            sg = (span / nsub) * gen   # RK4 step map: sum_{k<=4} (sG)^k / k!
            step = eye + sg @ (eye + sg @ (eye + sg @ (eye + sg / 4) / 3) / 2)
            for _ in range(nsub):
                y = step @ y
        if not np.isfinite(y).all():
            break   # no later sample is reached; reported after the drift check
        vectors[filled] = y[:15]
        filled += 1

    # one stacked positivity check; the earliest sample below DRIFT_TOL raises
    lows = np.linalg.eigvalsh(fano_matrices(vectors[:filled]))[:, 0]
    drifted = np.flatnonzero(lows < DRIFT_TOL)
    if drifted.size:
        k = drifted[0]
        raise UnphysicalDrift(f"min eigenvalue {lows[k]:.3e} at t = {times[k]:.6g}"
                              f" (below {DRIFT_TOL})")
    if filled < samples:
        raise DomainError(f"state coefficients overflowed at t = {times[filled]:.6g}")
    vectors.setflags(write=False)

    landing = float(np.abs(y[:15] - equilibrium.to_vector()).max())
    return Trajectory(times=times, vectors=vectors, tau=tau, landing=landing,
                      step=h if samples > 1 else 0.0)


def steering_node_acceleration(tau: float, omega: float) -> float | None:
    """Acceleration at which the equilibrium loses its steered coherence.

    The equilibrium coherence vanishes where ratio^2 = tau, i.e. at
    a* = pi omega / artanh(sqrt(tau)) for tau in (0, 1). Returns None for
    tau <= 0 (no finite node) and 0.0 for tau = 1 as the a -> 0 boundary
    marker.
    """
    check_omega(omega)
    check_leaf(tau)
    if tau <= 0.0:
        return None
    if tau >= 1.0:
        return 0.0
    return math.pi * omega / math.atanh(math.sqrt(tau))
