"""Dissipative model of two uniformly accelerated two-level atoms.

A pair of identical atoms with level splitting ``omega`` moves with common
proper acceleration ``accel`` through the scalar vacuum; tracing out the
field leaves a Lindblad semigroup on the two-qubit state whose Kossakowski
matrix is

    a_ij = A delta_ij - i B eps_ijk n_k + C n_i n_j

built from the field correlations at the Unruh temperature accel / (2 pi).
The model takes C = 0. The C term vanishes on states symmetric about n,
such as every equilibrium, but damps the transverse coefficients of other
states. This module computes A and B (free space, and pairs of them with a
reflecting boundary at distance ``z``, atom separation ``sep``), the
asymptotic equilibrium states, the equation of motion, built once in GKSL
form (Gorini, Kossakowski & Sudarshan, J. Math. Phys. 17, 821 (1976);
Lindblad, Commun. Math. Phys. 48, 119 (1976)) and projected onto the Pauli
coefficients, and its exact solution, exp(t M) of the generator's linear
part applied to the deviation from equilibrium, sampled on a uniform grid
into one (S, 15) array whose positivity ``qmat`` certifies block by block.

Conventions: natural units, the dissipator direction is n = (0, 0, 1),
and ``ratio`` denotes the dissipative asymmetry
B / A = tanh(pi omega / accel) in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import repeat
from numbers import Integral

import numpy as np

from .errors import DomainError, UnphysicalDrift
from .qmat import (_FANO_BASIS, _PAULI_PAIRS, PHYSICALITY_TOL, FanoState,
                   fano_matrices, first_below, require_state)

RANGE_SLACK = 1e-12        # slack on closed parameter ranges
# tau = Tr(rho S), S = sum_i sigma_i x sigma_i, whose eigenvalues are -3 (the
# singlet) and 1 (the triplet): a state whose eigenvalues dip to -tol, as the
# input gate allows, has tau in [-3 - 12 tol, 1 + 4 tol], the accepted leaves
TAU_RANGE = (-3.0 - 12.0 * PHYSICALITY_TOL - RANGE_SLACK,
             1.0 + 4.0 * PHYSICALITY_TOL + RANGE_SLACK)
SINC_SERIES_CUTOFF = 1e-4  # |x| below which sin(x)/x uses its series
DRIFT_TOL = -1e-6          # a min eigenvalue after t = 0 below this aborts evolve
LANDING_TOL = 1e-6         # final sample this close to the equilibrium: converged
MAX_SAMPLES = 10**6        # row limit of every table and evolve run
# rows per block: sweep evaluators, the writers and evolve's positivity
# certificate each hold the transients of one block at a time, not of a table
BLOCK_ROWS = 4096
TAYLOR_DEGREE = 14         # exp(X) for |X|_1 <= 1/2 to ~4e-17 relative


def check_rows(rows: int) -> None:
    """DomainError for a table, or an ``evolve`` run, of more than
    ``MAX_SAMPLES`` rows. A row holds at most ~0.15 kB at peak (an
    ``evolve`` sample), so a table stays below ~0.15 GB."""
    if rows > MAX_SAMPLES:
        raise DomainError(f"{rows} rows exceed the limit of {MAX_SAMPLES:.0e}"
                          " per table")


def sinc(x: float) -> float:
    """sin(x)/x with the small-argument series 1 - x^2/6 + x^4/120, and its
    limit 0 at +-inf; NaN at NaN."""
    x = abs(float(x))
    if x < SINC_SERIES_CUTOFF:
        x2 = x * x
        return 1.0 - x2 / 6.0 + x2 * x2 / 120.0
    return 0.0 if x == math.inf else math.sin(x) / x


def _thermal_factor(x: float) -> float:
    # (1 + e^-x) / (1 - e^-x); expm1 keeps full precision for small x. At
    # x = +-0 (accel = inf, or 2 pi omega / accel underflowing) it is its
    # limit, inf, the infinite Unruh temperature, as a subnormal x gives by
    # overflow; NaN for x < 0 or NaN, where no temperature exists
    if not x >= 0.0:
        return math.nan
    return (1.0 + math.exp(-x)) / (-math.expm1(-x)) if x else math.inf


def _each(f, x, *args):
    """f(x, *args) of a float; of a float array, the float array of f of
    each element, mapped once per distinct bit pattern. An element gets the
    bits the scalar path gives it, which numpy's power and exp loops do not
    (they round some differently), nor promise for sin."""
    if not isinstance(x, np.ndarray):
        return f(float(x), *args)
    bits, where = np.unique(x.view(np.int64), return_inverse=True)
    values = bits.view(np.float64).tolist()
    return np.array(list(map(f, values, *map(repeat, args))))[where]


def leaf_mask(tau, ratio):
    """True where tau is in [-3, 1] within ``TAU_RANGE`` and ratio in [0, 1]
    within RANGE_SLACK, the domain of the equilibrium family; scalars or
    arrays, NaN outside."""
    return ((TAU_RANGE[0] <= tau) & (tau <= TAU_RANGE[1])
            & (-RANGE_SLACK <= ratio) & (ratio <= 1.0 + RANGE_SLACK))


def check_leaf(tau: float, ratio: float = 0.0) -> None:
    """DomainError naming tau, else ratio, where :func:`leaf_mask` fails."""
    if not leaf_mask(tau, 0.0):
        raise DomainError(f"tau = {float(tau)!r} outside [-3, 1]")
    if not leaf_mask(0.0, ratio):
        raise DomainError(f"ratio = {float(ratio)!r} outside [0, 1]")


def check_omega(omega: float) -> None:
    if not (omega > 0.0 and math.isfinite(omega)):
        raise DomainError("omega must be positive and finite")
    if omega / (4.0 * math.pi) == 0.0:
        raise DomainError(f"omega = {omega!r}: omega / (4 pi) underflows to 0")


@dataclass(frozen=True)
class UnruhParams:
    """Atom frequency and proper acceleration.

    ``accel = inf`` is accepted: the infinite-temperature limit, ratio 0.
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
    """Free-space Kossakowski coefficients A and B (C is not computed), and
    B / A as ``ratio`` (DomainError for a float A that is not positive);
    floats, or arrays from :func:`free_coefficients`, which divide as they are."""

    A: float
    B: float

    @property
    def ratio(self) -> float:
        if not (isinstance(self.A, np.ndarray) or self.A > 0.0):
            raise DomainError(f"ratio B / A needs A > 0, not A = {self.A!r}")
        return self.B / self.A


@dataclass(frozen=True)
class KossakowskiBoundary:
    """A and B coefficient pairs with a reflecting boundary, as computed.

    The 1-pair multiplies delta_ij / eps for each atom with itself, the
    2-pair the cross-atom blocks. The n n pairs are not computed: the model
    takes C = 0 (module docstring), and the equilibria are symmetric about
    n, so they do not depend on C; the tests run the block generator with
    both C = 0 and C = -A. At infinite temperature an A coefficient is inf,
    or NaN where inf meets a zero sinc factor, as :class:`KossakowskiFree`
    holds A = inf there; the mirror criterion bounds the coefficients
    (:func:`~unruh_steer.steering.boundary_verdict_rows`), the record does not.
    """

    A1: float
    A2: float
    B1: float
    B2: float
    ratio: float        # free-space B / A: B1 / A1 = B2 / A2 for every z, sep


def free_coefficients(omega, accel) -> KossakowskiFree:
    """A = (omega/4pi) (1 + e^-x)/(1 - e^-x) and B = omega/4pi at accel, a
    float or an array, through x = ``UnruhParams.beta`` omega in [0, inf]
    (the thermal factor through ``_each``). B / A = tanh(x/2), held to 1e-12
    by the tests; where x is 0 (accel = inf) or so small that the thermal
    factor overflows, A = inf and B / A = 0, and where x is negative or NaN
    (no temperature), A is NaN."""
    pref = omega / (4.0 * math.pi)
    x = 2.0 * math.pi / accel * omega
    return KossakowskiFree(A=pref * _each(_thermal_factor, x), B=pref)


def kossakowski_free(params: UnruhParams) -> KossakowskiFree:
    """Free-space coefficients at the Unruh temperature."""
    return free_coefficients(params.omega, params.accel)


def boundary_arguments(omega, z, sep):
    """The image-point arguments (2 z omega, sep omega,
    sqrt(sep^2 + 4 z^2) omega) of :func:`kossakowski_boundary`; Python
    floats or numpy arrays alike."""
    image = _each(math.sqrt, sep * sep + 4.0 * z * z)
    return 2.0 * z * omega, sep * omega, image * omega


def boundary_pairs(free: KossakowskiFree, args):
    """(A1, A2, B1, B2): the free (A, B) times the sinc factors of
    :func:`boundary_arguments`, through ``_each``; Python floats or numpy
    arrays alike. An infinite A makes A1, A2 +-inf or NaN."""
    same = 1.0 - _each(sinc, args[0])
    cross = _each(sinc, args[1]) - _each(sinc, args[2])
    return free.A * same, free.A * cross, free.B * same, free.B * cross


def kossakowski_boundary(params: UnruhParams, z: float, sep: float) -> KossakowskiBoundary:
    """Coefficient pairs for atoms at distance z from a reflecting boundary.

    Both atoms sit at the same z; sep is their separation parallel to the
    boundary. The boundary enters through image-point sinc factors:

        A1, B1 ~ 1 - sinc(2 z omega)
        A2, B2 ~ sinc(sep omega) - sinc(sqrt(sep^2 + 4 z^2) omega)

    times :func:`kossakowski_free`'s A and B, so B1 / A1 = B2 / A2 is the
    free-space ratio; ``ratio`` is that record's, also where A1 rounds to 0.
    DomainError where an image-point argument overflows.
    """
    if not (z > 0.0 and math.isfinite(z)):
        raise DomainError("z must be positive and finite")
    if not (sep > 0.0 and math.isfinite(sep)):
        raise DomainError("sep must be positive and finite")
    args = boundary_arguments(params.omega, z, sep)
    if not all(map(math.isfinite, args)):
        raise DomainError("an image-point distance times omega overflows")
    free = kossakowski_free(params)
    a1, a2, b1, b2 = boundary_pairs(free, args)
    return KossakowskiBoundary(A1=a1, A2=a2, B1=b1, B2=b2, ratio=free.ratio)


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
    # + 0.0 turns a -0 (the Bloch z at ratio 0, tau - ratio^2 at tau = -0)
    # into 0 and leaves every other float as it is: no cell of the state is -0
    bloch = np.array([0.0, 0.0, -ratio * (tau + 3.0) / denom + 0.0])
    across = tau - ratio * ratio + 0.0
    t_mat = np.diag([across, across,
                     across + ratio * ratio * (tau + 3.0)]) / denom
    return FanoState(bloch, bloch, t_mat)


def equilibrium_boundary(coeffs: KossakowskiBoundary) -> FanoState:
    """Asymptotic state in the boundary case: ``equilibrium_free(R^2, R)``
    with R = ``coeffs.ratio``, the free-space tanh(pi omega / accel).

    That state is rho_R x rho_R, rho_R = diag(1 - R, 1 + R) / 2 (a = b =
    -R n, T = R^2 n n = a b^T): each atom in the Gibbs state at the Unruh
    temperature. It is the one stationary state of the generator for every
    z, sep > 0 because every block shares the ratio R: both A pairs carry
    the thermal factor and the B pairs do not, so B1 / A1 = B2 / A2 = R.
    A product state steers no coherence (it sits on the leaf tau = R^2, the
    steering node), and it depends on (omega, accel) alone: the same bits
    for every z and sep, also at infinite temperature, where R = 0.
    """
    return equilibrium_free(coeffs.ratio * coeffs.ratio, coeffs.ratio)


# ----- equation of motion and integrator -----

@cache
def _rates() -> np.ndarray:
    """[M | c] per unit A and per unit B, shape (2, 15, 16), built once per
    process: the dissipator L[rho] = sum_ij a_ij (S_j rho S_i - {S_i S_j,
    rho} / 2) with collective spins S_i = sigma_i x 1 + 1 x sigma_i, for
    a_ij = delta_ij and a_ij = -i eps_ijk n_k, as dy/dt = M y + c on the
    Pauli coefficients y of rho = I/4 + sum_k y_k F_k (F_k from ``qmat``).
    The entries are integers, and c = 0 for the A part."""
    kossakowski = np.array([np.eye(3), [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]])
    spins = _PAULI_PAIRS[1:, 0] + _PAULI_PAIRS[0, 1:]
    basis = np.concatenate([_FANO_BASIS, [0.25 * np.eye(4)]])   # F_k, then I/4
    pairs = np.einsum("xij,iab,jbc->xac", kossakowski, spins, spins)[:, None]
    images = (np.einsum("xij,jab,kbc,icd->xkad", kossakowski, spins, basis, spins)
              - 0.5 * (pairs @ basis + basis @ pairs))
    # y_l = Tr(rho 4 F_l), so column k holds Tr(4 F_l L[F_k])
    rates = 4.0 * np.einsum("lab,xkba->xlk", _FANO_BASIS, images).real
    rates.setflags(write=False)
    return rates


@cache
def _rate_matrices() -> tuple:
    """(M_A - 4 u u^T, M_B), u the indicator of T's diagonal: the linear
    parts of :func:`_rates`, with the conserved trace u^T y pulled to 0 at
    rate 12 A. Both agree on deviations from equilibrium, which have zero
    trace. At a zero rate, a rounding error along the trace would double
    at each squaring of the interval map, and overflow at t_end = 1e300."""
    per_a, per_b = _rates()
    trace = np.isin(np.arange(15), (6, 10, 14)).astype(float)
    m_a = per_a[:, :15] - 4.0 * np.outer(trace, trace)
    m_a.setflags(write=False)
    return m_a, per_b[:, :15]


def _interval_maps(a_coef: float, b_coef: float, step: float, samples: int) -> list:
    """The maps E = P^m - I, m = 1, 2, 4, ... < samples, that :func:`evolve`
    applies; they depend on (A, B, step, samples) alone. P - I is the
    Taylor polynomial of x = step M / 2^squarings, |x|_1 <= 1/2, squared as
    2 E + E^2 (Moler & Van Loan, SIAM Rev. 45, 3 (2003)); einsum runs numpy's
    loops, so no BLAS moves a bit. DomainError where step |M|_1 overflows."""
    m_a, m_b = _rate_matrices()
    rates = a_coef * m_a + b_coef * m_b
    norm = step * float(np.abs(rates).sum(axis=0).max())
    if not math.isfinite(norm):
        raise DomainError(f"the sample interval {step:g} times |M|_1 overflows")
    squarings = max(0, math.frexp(norm)[1] + 1)
    x = math.ldexp(step, -squarings) * rates
    power = x / TAYLOR_DEGREE
    for k in range(TAYLOR_DEGREE - 1, 0, -1):
        power = (x + np.einsum("ij,jk->ik", x, power)) / k
    powers = [power]
    for _ in range(squarings + (samples - 1).bit_length() - 1):
        powers.append(2.0 * powers[-1] + np.einsum("ij,jk->ik", powers[-1], powers[-1]))
    return powers[squarings:]


def ode_rhs(state: FanoState, coeffs: KossakowskiFree) -> FanoState:
    """Time derivative M y + c of the Pauli coefficients y under the free
    dissipator, [M | c] = A [M_A | 0] + B [M_B | c_B] from :func:`_rates`.
    The correlation trace sum_i T_ii is conserved, and
    :func:`equilibrium_free` is the stationary state on each of its leaves.
    """
    if not math.isfinite(coeffs.A):
        raise DomainError("ode_rhs needs finite coefficients")
    per_a, per_b = _rates()
    rates = coeffs.A * per_a + coeffs.B * per_b
    return FanoState.from_vector(rates @ np.append(state.to_vector(), 1.0))


def relaxation_horizon(coeffs: KossakowskiFree) -> float:
    """Hard equilibration horizon 20 / (4 A - 2 B), twenty e-folds of the
    slowest nonzero decay rate (the rate along the tau leaf is zero);
    DomainError unless A is positive and finite, with its own message where
    A = inf, the infinite-temperature limit."""
    if coeffs.A == math.inf:
        raise DomainError("the Unruh temperature is infinite, so A = inf"
                          " (accel = inf, or 2 pi omega / accel so small that"
                          " the thermal factor overflows); the dynamics need"
                          " a finite A")
    if not (coeffs.A > 0.0 and math.isfinite(coeffs.A)):
        raise DomainError(f"the dynamics need a positive finite A, not {coeffs.A!r}")
    return 20.0 / (4.0 * coeffs.A - 2.0 * coeffs.B)


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of :func:`evolve`: read-only ``times`` and (S, 15)
    ``vectors`` of :meth:`FanoState.to_vector` rows; ``landing`` is the
    max-norm distance of the last row from :func:`equilibrium_free` on the
    tau leaf, and ``converged`` means it is below 1e-6. ``step`` is the
    sample interval t_end / (S - 1), or 0.0 for a single sample."""

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
    """Solve the coefficient equations exactly on the state's own tau leaf
    at ``samples`` uniform times on [0, t_end] (default: the horizon):
    y(t) = y_eq + exp(t M) (y0 - y_eq), y_eq from :func:`equilibrium_free`,
    M = A M_A + B M_B of :func:`_rate_matrices`. Rows [m, 2m) of the
    deviations are P^m times rows [0, m), P = exp(step M),
    step = t_end / (S - 1); sample 0 is y0.

    NotPositive (``qmat.require_state``) unless the input is a state, and
    UnphysicalDrift for the earliest later sample below -1e-6 (``qmat``'s
    certificate, one block of ``BLOCK_ROWS`` samples at a time up to the
    first that is not finite). DomainError for A, t_end, samples or tau out
    of range, above ``MAX_SAMPLES`` samples, where step |M|_1 overflows,
    and for a sample that overflows (unless one drifts first).
    """
    horizon = relaxation_horizon(coeffs)   # checks A
    t_end = horizon if t_end is None else t_end
    if not (t_end > 0.0 and math.isfinite(t_end)):
        raise DomainError("t_end must be positive and finite")
    if isinstance(samples, bool) or not isinstance(samples, Integral) or samples < 1:
        raise DomainError(f"samples must be an integer >= 1, got {samples!r}")
    check_rows(samples)
    times = np.linspace(0.0, t_end, samples)
    times.setflags(write=False)
    tau, y0 = state.trace_sum, state.to_vector()
    require_state(fano_matrices(y0))
    y_eq = equilibrium_free(tau, coeffs.ratio).to_vector()
    step = t_end / (samples - 1) if samples > 1 else 0.0
    maps = _interval_maps(coeffs.A, coeffs.B, step, samples)   # P^m - I
    vectors = np.empty((samples, 15))
    vectors[0] = y0 - y_eq
    m = 1
    for power in maps:   # rows [m, 2m) = P^m rows [0, m), written in place
        n = min(m, samples - m)
        np.einsum("ij,kj->ki", power, vectors[:n], out=vectors[m:m + n])
        vectors[m:m + n] += vectors[:n]
        m += n
    vectors += y_eq
    vectors[0] = y0

    # blocks of BLOCK_ROWS samples from sample 0, which passed the stricter
    # input gate and so never drifts here, each up to its first non-finite
    for lo in range(0, samples, BLOCK_ROWS):
        block = vectors[lo:lo + BLOCK_ROWS]
        filled = int(np.append(np.isfinite(block).all(axis=1), False).argmin())
        if drifted := first_below(fano_matrices(block[:filled]), -DRIFT_TOL):
            raise UnphysicalDrift(f"min eigenvalue {drifted[1]:.3e} at t ="
                                  f" {times[lo + drifted[0]]:.6g} (below {DRIFT_TOL})")
        if filled < len(block):
            raise DomainError("state coefficients overflowed at t ="
                              f" {times[lo + filled]:.6g}")
    vectors.setflags(write=False)

    landing = float(np.abs(vectors[-1] - y_eq).max())
    return Trajectory(times=times, vectors=vectors, tau=tau, landing=landing,
                      step=step)


def steering_node_acceleration(tau: float, omega: float) -> float | None:
    """Acceleration at which the equilibrium loses its steered coherence.

    The equilibrium coherence vanishes where ratio^2 = tau, i.e. at
    a* = pi omega / artanh(sqrt(tau)) for tau in (0, 1). Returns None for
    tau <= 0 (no finite node) and 0.0 for tau = 1 as the a -> 0 boundary
    marker; DomainError where a* overflows.
    """
    check_omega(omega)
    check_leaf(tau)
    if tau <= 0.0:
        return None
    if tau >= 1.0:
        return 0.0
    a_star = math.pi * omega / math.atanh(math.sqrt(tau))
    if not math.isfinite(a_star):
        raise DomainError("the steering node a* = pi omega / artanh(sqrt(tau))"
                          f" overflows at tau = {tau!r}, omega = {omega!r}")
    return a_star
