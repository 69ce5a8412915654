"""First-principles reference implementations, used only by the tests.

The package computes SIC, MID and the steerability functional in closed
form. These oracles rebuild the pieces from their definitions instead:
Bob's steered ensemble, l1 coherences of qubit states in the eigenbasis of
a Bloch axis, and B-side dephasing as a 4x4 projector sum. They do no
argument checking: callers pass unit or nonzero axes and physical states.
``sic_by_state`` and ``mid_by_state`` are the SIC and MID formulas taken
one state at a time, the bitwise reference for the package's stacked core;
``fano_by_matrix`` is the same for the projection of a matrix onto its
Fano coefficients.

The mirror's coherence-sum criterion has one: ``boundary_verdict_by_record``,
the printed formulas for D, x1 and x3 on Python floats, with the package's
bound on the coefficients, gates and error texts.

The dynamics have three references: the free-space equations of motion as
written by hand in Fano coordinates; their solution in closed form on the
sector of states symmetric about n, ``sector_trajectory``; and the Lindblad
generator with one Kossakowski block per pair of atoms (three blocks, so
the atoms may sit at unequal distances from the mirror), as a 16x16 matrix
on 4x4 matrices. ``fano_matrices_by_tensordot`` is the bitwise reference
for the package's build of a stack of 4x4 matrices.

The package writes sweep tables and does not read them; ``read_csv`` and
``read_json`` read them back for the round-trip tests, the JSON one with a
parser that rejects every non-standard token. ``column`` builds a table
column from Python cells, as both readers do. The builtin ``'.17g'`` is the
reference for the CSV float spelling; ``random_doubles`` and
``near_tie_doubles`` are the cells it is checked on.
"""

import json
import math

import numpy as np

from unruh_steer.errors import DegenerateLimit, DenominatorZero, DomainError
from unruh_steer.model import equilibrium_free
from unruh_steer.qmat import (_FANO_BASIS, _PAULI_PAIRS, FanoState, fano_matrices,
                              fano_to_matrix)
from unruh_steer.sweeps import DIAGNOSTICS_COLUMN, SweepResult

PAULI_XYZ = (np.array([[0, 1], [1, 0]], dtype=complex),
             np.array([[0, -1j], [1j, 0]]),
             np.diag([1.0, -1.0]).astype(complex))
PROB_FLOOR = 1e-15   # outcome probability treated as zero


def unit_axis(axis):
    axis = np.asarray(axis, dtype=float)
    return axis / np.linalg.norm(axis)


def basis_from_axis(axis):
    """Columns are the +1 and -1 eigenkets of n.sigma, n = axis / |axis|."""
    n = unit_axis(axis)
    _, kets = np.linalg.eigh(sum(c * s for c, s in zip(n, PAULI_XYZ)))
    return kets[:, ::-1]


def trace_norm(m):
    """Tr|m|, the sum of the absolute eigenvalues of a Hermitian m."""
    return float(np.abs(np.linalg.eigvalsh(m)).sum())


def dephase_b(m, axis):
    """sum_k (I x P_k) m (I x P_k) over the eigenprojectors P_k of n.sigma."""
    u = basis_from_axis(axis)
    projectors = [np.kron(np.eye(2), np.outer(u[:, k], u[:, k].conj()))
                  for k in range(2)]
    return sum(p @ m @ p for p in projectors)


def l1_coherence(m, axis):
    """Sum of absolute off-diagonal entries of a 2x2 state in the basis of
    a Bloch axis."""
    u = basis_from_axis(axis)
    rot = u.conj().T @ m @ u
    return float(abs(rot[0, 1]) + abs(rot[1, 0]))


def l1_coherence_bloch(r, axis):
    """The same value from the Bloch vector: sqrt(|r|^2 - (r.n)^2)."""
    n = unit_axis(axis)
    return math.sqrt(max(float(r @ r) - float(r @ n) ** 2, 0.0))


def steer_bob(state, m):
    """(probs, blochs) for Alice outcomes (+1, -1) along a unit axis m:
    p = (1 +- a.m)/2 and r = (b +- T^T m) / (2 p). A zero-probability
    outcome carries Bob's unconditional Bloch vector b."""
    along, tm = state.a_vec @ m, state.t_mat.T @ m
    probs = np.array([0.5 * (1.0 + along), 0.5 * (1.0 - along)])
    blochs = np.array([(state.b_vec + sign * tm) / (2.0 * p) if p > PROB_FLOOR
                       else state.b_vec
                       for sign, p in zip((1.0, -1.0), probs)])
    return probs, blochs


def alpha_matrix(state):
    """alpha_ij = b_i + T_ji, the steered-coherence building blocks."""
    return state.b_vec[:, None] + state.t_mat.T


def axis_index(axis):
    return "xyz".index(axis) if isinstance(axis, str) else int(axis)


def conditional_coherence(state, meas_axis, coh_axis, outcome=+1):
    """(closed form, steered-ensemble value) of the l1 coherence in the basis
    of axis w of Bob's state after Alice measures axis k with outcome s:

        sqrt( sum_{j != w} (b_j + s T_kj)^2 ) / (1 + s a_k).
    """
    k, w = axis_index(meas_axis), axis_index(coh_axis)
    numer = state.b_vec + outcome * state.t_mat[k]
    closed = math.hypot(*np.delete(numer, w)) / (1.0 + outcome * state.a_vec[k])
    _, blochs = steer_bob(state, np.eye(3)[k])
    direct = l1_coherence_bloch(blochs[0 if outcome == +1 else 1], np.eye(3)[w])
    return closed, direct


def steerability_pairings_free(tau, ratio):
    """Both cyclic pairings of the criterion sum on the equilibrium state,
    outcome +1, with the full root-sum-square coherences:

        (C_x(B|y) + C_y(B|z) + C_z(B|x), C_x(B|z) + C_y(B|x) + C_z(B|y)).
    """
    state = equilibrium_free(tau, ratio)

    def coh(meas, basis):
        return conditional_coherence(state, meas, basis)[0]

    return (coh("y", "x") + coh("z", "y") + coh("x", "z"),
            coh("z", "x") + coh("x", "y") + coh("y", "z"))


def boundary_verdict_by_record(a1, a2, b1, b2):
    """(x1, x3, value, satisfied) of the mirror criterion for one record of
    Python floats, from the printed

        D = 2 A1^3 - A1^2 A2 - A2 B1 B2 + A1 (B2^2 - A2^2),
        x1 = -(A1-A2) B1 (2A1+A2) / D,  x3 = (A1-A2) B1 (2B1+B2-2A1-A2) / D,

    value = x3 / (1 + x1) against sqrt(6). DomainError, before any power,
    naming the first coefficient that is not finite and below 1e102 in
    magnitude; DegenerateLimit where |D| is at most 1e-14 of the cube of
    the largest |coefficient| (floored at 1e-300), else DenominatorZero
    where 1 + x1 <= 1e-9."""
    for name, value in zip(("A1", "A2", "B1", "B2"), (a1, a2, b1, b2)):
        if not abs(value) < 1e102:
            raise DomainError(f"boundary coefficient {name} = {value!r}: D"
                              " needs each finite and below 1e+102 in"
                              " magnitude")
    d = 2.0 * a1 ** 3 - a1 ** 2 * a2 - a2 * b1 * b2 + a1 * (b2 ** 2 - a2 ** 2)
    if abs(d) <= 1e-14 * max(abs(a1), abs(a2), abs(b1), abs(b2), 1e-300) ** 3:
        raise DegenerateLimit(f"|D| = {abs(d):.3e} underflows")
    x1 = -(a1 - a2) * b1 * (2.0 * a1 + a2) / d
    x3 = (a1 - a2) * b1 * (2.0 * b1 + b2 - 2.0 * a1 - a2) / d
    denom = 1.0 + x1
    if denom <= 1e-9:
        raise DenominatorZero(f"1 + x1 = {denom:.3e}")
    value = x3 / denom
    return x1, x3, value, value > math.sqrt(6.0)


def sic_by_state(state):
    """(value, Alice's axis, Bob's axis e) of one state's SIC: sigma_max and
    the top right singular vector of (I - e e^T) T^T, e = b/|b|, or T's top
    right singular vector where |b| < 1e-9."""
    blen = float(np.linalg.norm(state.b_vec))
    if blen < 1e-9:
        e_hat = np.linalg.svd(state.t_mat)[2][0]
    else:
        e_hat = state.b_vec / blen
    _, s, vt = np.linalg.svd((np.eye(3) - np.outer(e_hat, e_hat)) @ state.t_mat.T)
    return float(s[0]), vt[0], e_hat


def mid_by_state(state, e):
    """One state's MID along Bob's axis e: the trace norm of the 4x4 matrix
    of the correlation block T (I - e e^T)."""
    removed = state.t_mat - np.outer(state.t_mat @ e, e)
    block = np.concatenate([np.zeros(6), removed.ravel()])
    return trace_norm(fano_matrices(block) - 0.25 * np.eye(4))


def fano_by_matrix(m):
    """One 4x4 matrix's Fano coefficients, Tr(m s_i x s_j) taken by a 2-D
    einsum, as a FanoState."""
    m = np.asarray(m, dtype=complex).reshape(4, 4)
    coef = np.einsum("kl,ijlk->ij", m, _PAULI_PAIRS).real
    return FanoState(coef[1:, 0], coef[0, 1:], coef[1:, 1:])


def fano_matrices_by_tensordot(vectors):
    """The 4x4 matrices of a (..., 15) stack as one tensordot with the Fano
    basis plus I/4, the package's build before it flattened the basis."""
    return np.tensordot(vectors, _FANO_BASIS, axes=1) + 0.25 * np.eye(4)


def ode_rhs_by_hand(state, A, B):
    """Free-space equations of motion on the state's own tau leaf, C = 0.

    The Bloch-vector equations contract T on opposite sides (n_k T_ki for
    a, n_k T_ik for b); the derivative of sum_i T_ii is zero. A common
    transcription flips the signs of the B couplings in the T equation.
    """
    n, eye = np.array([0.0, 0.0, 1.0]), np.eye(3)
    av, bv, t = state.a_vec, state.b_vec, state.t_mat
    tau = state.trace_sum
    da = -4.0 * A * av - 2.0 * B * (2.0 + tau) * n + 2.0 * B * (n @ t)
    db = -4.0 * A * bv - 2.0 * B * (2.0 + tau) * n + 2.0 * B * (t @ n)
    dt = (-4.0 * A * (2.0 * t + t.T - tau * eye)
          - 4.0 * B * (np.outer(n, bv) + np.outer(av, n))
          - 2.0 * B * (np.outer(n, av) + np.outer(bv, n))
          + 2.0 * B * eye * (n @ (av + bv)))
    return np.concatenate([da, db, dt.ravel()])


def exact_trajectory(y0, A, B, times):
    """Rows y(t) at ``times`` of dy/dt = M y + c from :func:`ode_rhs_by_hand`
    on y0's tau leaf: scipy's expm of G = [[M, c], [0, 0]] applied to
    (y0, 1), with M and c probed from the equations."""
    from scipy.linalg import expm

    def rhs(y):
        return ode_rhs_by_hand(FanoState.from_vector(y), A, B)

    c = rhs(np.zeros(15))
    gen = np.zeros((16, 16))
    gen[:15, :15] = np.column_stack([rhs(e) - c for e in np.eye(15)])
    gen[:15, 15] = c
    return (expm(np.multiply.outer(times, gen)) @ np.append(y0, 1.0))[:, :15]


# indices of the sector coordinates in FanoState.to_vector order
SECTOR_AZ, SECTOR_BZ, SECTOR_P, SECTOR_Q, SECTOR_U = 2, 5, 6, 7, 14


def sector_vector(a_z, b_z, p, q, u):
    """The 15-vector of the state symmetric about n: a = a_z n, b = b_z n,
    T = [[p, q, 0], [-q, p, 0], [0, 0, u]]."""
    y = np.zeros(15)
    y[[SECTOR_AZ, SECTOR_BZ, SECTOR_P, SECTOR_Q, SECTOR_U]] = a_z, b_z, p, q, u
    y[10], y[9] = p, -q
    return y


def in_sector(y):
    """True where the 15-vectors of ``y`` (..., 15) are exactly in the sector."""
    y = np.asarray(y)
    off = y[..., [0, 1, 3, 4, 8, 11, 12, 13]]
    return ((off == 0.0).all(-1) & (y[..., 10] == y[..., SECTOR_P])
            & (y[..., 9] == -y[..., SECTOR_Q]))


def sector_trajectory(y0, A, B, times):
    """Rows y(t) at ``times`` of the free dynamics from a sector state y0,
    in closed form from :func:`ode_rhs_by_hand` restricted to the sector:

    - d = a_z - b_z and q decay at -4A; tau = 2 p + u is conserved;
    - s = a_z + b_z and u obey ds/dt = -4A s - 4B (tau - u) - 8B and
      du/dt = -12A u + 4A tau - 4B s, whose fixed point is
      s* = -2AB (tau + 3) / (3A^2 + B^2), u* = (A tau - B s*) / (3A);
    - the deviations (s - s*, u - u*) follow K = [[-4A, 4B], [-4B, -12A]],
      rates -8A +- w with w = 4 sqrt(A^2 - B^2), real for B <= A, so
      exp(K t) = e^{-8At} [cosh(wt) I + sinh(wt)/w (K + 8A I)].

    The mixing term e^{-8At} sinh(wt)/w is t e^{-8At} at w = 0 (B = A, as
    where R rounds to 1.0), so it stays exact where the two rates merge."""
    y0, t = np.asarray(y0, dtype=float), np.asarray(times, dtype=float)
    assert in_sector(y0), "y0 is not symmetric about n"
    a_z, b_z, p, q, u = y0[[SECTOR_AZ, SECTOR_BZ, SECTOR_P, SECTOR_Q, SECTOR_U]]
    tau = 2.0 * p + u
    s_eq = -2.0 * A * B * (tau + 3.0) / (3.0 * A * A + B * B)
    u_eq = (A * tau - B * s_eq) / (3.0 * A)
    ds, du = a_z + b_z - s_eq, u - u_eq
    w = 4.0 * math.sqrt((A - B) * (A + B))
    even = 0.5 * (np.exp((w - 8.0 * A) * t) + np.exp((-w - 8.0 * A) * t))
    mixing = np.exp(-8.0 * A * t) * (np.sinh(w * t) / w if w else t)
    s_t = s_eq + even * ds + mixing * 4.0 * (A * ds + B * du)
    u_t = u_eq + even * du - mixing * 4.0 * (B * ds + A * du)
    d_t = (a_z - b_z) * np.exp(-4.0 * A * t)
    return np.stack([sector_vector(*row) for row in zip(
        (s_t + d_t) / 2.0, (s_t - d_t) / 2.0, (tau - u_t) / 2.0,
        q * np.exp(-4.0 * A * t), u_t)])


def block_dissipator(rho, first, second, cross):
    """sum_{alpha beta} sum_ij a^{alpha beta}_ij (s^beta_j rho s^alpha_i
    - {s^alpha_i s^beta_j, rho} / 2), s^1_i = sigma_i x 1, s^2_i = 1 x
    sigma_i, with a^{11} from ``first``, a^{22} from ``second`` and a^{12} =
    a^{21} from ``cross``, each a triple (A, B, C) that gives
    A delta_ij - i B eps_ijk n_k + C n_i n_j."""
    eps_n = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=complex)
    nn = np.diag([0.0, 0.0, 1.0])
    blocks = [[a * np.eye(3) - 1j * b * eps_n + c * nn for a, b, c in pair]
              for pair in ((first, cross), (cross, second))]
    ops = ([np.kron(p, np.eye(2)) for p in PAULI_XYZ],
           [np.kron(np.eye(2), p) for p in PAULI_XYZ])
    out = np.zeros((4, 4), dtype=complex)
    for alpha in range(2):
        for beta in range(2):
            for i in range(3):
                for j in range(3):
                    si, sj = ops[alpha][i], ops[beta][j]
                    out += blocks[alpha][beta][i, j] * (
                        sj @ rho @ si - 0.5 * (si @ sj @ rho + rho @ si @ sj))
    return out


def block_stationary_state(first, second, cross):
    """(rho, gap): the stationary 4x4 state of :func:`block_dissipator` as
    the null vector of its 16x16 matrix, and the second-smallest singular
    value of that matrix, which is nonzero when the state is unique."""
    units = np.eye(16).reshape(16, 4, 4)
    liouvillian = np.column_stack(
        [block_dissipator(unit, first, second, cross).ravel() for unit in units])
    _, singular, vh = np.linalg.svd(liouvillian)
    rho = vh[-1].conj().reshape(4, 4)
    return rho / np.trace(rho), singular[-2]


def is_physical(state, tol=1e-10):
    """True when the 4x4 matrix of a FanoState has no eigenvalue below -tol."""
    return np.linalg.eigvalsh(fano_to_matrix(state))[0] >= -tol


# ----- sweep table readers -----

_BOOL_CELLS = {"true": True, "false": False}
_JSON_INF = {"inf": math.inf, "-inf": -math.inf}


def _csv_cell(text):
    return _BOOL_CELLS[text] if text in _BOOL_CELLS else float(text)


def column(cells):
    """The array of a table column: bool when every cell is a bool, float64
    when none is, object when bools and numbers mix."""
    n_flags = sum(type(cell) is bool for cell in cells)
    dtype = (float if n_flags == 0 else bool if n_flags == len(cells)
             else object)
    return np.array(cells, dtype=dtype)


def read_csv(path):
    """The table of a CSV file: true/false cells as bools, others as floats."""
    with open(path, encoding="utf-8", newline="") as handle:
        header, *body = [line.split(",") for line in handle.read().splitlines()]
    with_diagnostics = header[-1] == DIAGNOSTICS_COLUMN
    if with_diagnostics:
        header.pop()
    diagnostics = [cells.pop() if with_diagnostics else "" for cells in body]
    data = [column([_csv_cell(cells[k]) for cells in body])
            for k in range(len(header))]
    return SweepResult(columns=tuple(header), data=data, diagnostics=diagnostics)


def _reject(token):
    raise ValueError(f"non-standard JSON token {token}")


def _from_json(value, null):
    # undoes the writers' mapping: "inf"/"-inf" read as floats, JSON null
    # as ``null`` (NaN in rows, None in meta)
    if isinstance(value, dict):
        return {key: _from_json(item, null) for key, item in value.items()}
    if isinstance(value, list):
        return [_from_json(item, null) for item in value]
    if isinstance(value, str):
        return _JSON_INF.get(value, value)
    return null if value is None else value


def read_json(path):
    """The table of a strict JSON file: null cells as NaN (None in meta),
    "inf"/"-inf" as floats; NaN or Infinity tokens raise ValueError."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle, parse_constant=_reject)
    entries = payload["rows"]
    diagnostics = [entry.pop(DIAGNOSTICS_COLUMN, "") for entry in entries]
    columns = tuple(entries[0]) if entries else ()
    data = [column([_from_json(entry[name], math.nan) for entry in entries])
            for name in columns]
    return SweepResult(columns=columns, data=data, diagnostics=diagnostics,
                       meta=_from_json(payload["meta"], None))


# ----- cells for the CSV float spelling -----

def random_doubles(seed, count):
    """``count`` finite doubles from uniform random bit patterns: every
    exponent, subnormals included, either sign."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 0x7FF0000000000000, size=count, dtype=np.int64)
    return bits.view(float) * rng.choice([-1.0, 1.0], count)


def near_tie_doubles():
    """Doubles whose 17-digit rounding lies within 2**-40 of a tie, not on
    it, in units of the last digit.

    x = M * 2**-75 with M in [2**52, 2**53) puts x * 10**23 = M * 5**23 /
    2**52 in [1e16, 1e17), and M is chosen so that it is n + 1/2 + d / 2**52
    for a small integer d != 0. 10**23 is not a double, so no double-double
    product of x with it is exact.
    """
    inverse = pow(5 ** 23, -1, 2 ** 52)
    return [math.ldexp((inverse * (2 ** 51 + d)) % 2 ** 52 + 2 ** 52, -75)
            for d in (1, -1, 2, -3, 100, -100, 4000, -4000)]
