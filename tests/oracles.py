"""First-principles reference implementations, used only by the tests.

The package computes SIC, MID and the steerability functional in closed
form. These oracles rebuild the pieces from their definitions instead:
Bob's steered ensemble, l1 coherences of qubit states in the eigenbasis of
a Bloch axis, and B-side dephasing as a 4x4 projector sum. They do no
argument checking: callers pass unit or nonzero axes and physical states.

The package writes sweep tables and does not read them; ``read_csv`` and
``read_json`` read them back for the round-trip tests, the JSON one with a
parser that rejects every non-standard token.
"""

import json
import math

import numpy as np

from unruh_steer.model import equilibrium_free
from unruh_steer.qmat import fano_to_matrix, min_eigenvalue
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


def is_physical(state, tol=1e-10):
    """True when the 4x4 matrix of a FanoState has no eigenvalue below -tol."""
    return min_eigenvalue(fano_to_matrix(state)) >= -tol


# ----- sweep table readers -----

_BOOL_CELLS = {"true": True, "false": False}
_JSON_INF = {"inf": math.inf, "-inf": -math.inf}


def _csv_cell(text):
    return _BOOL_CELLS[text] if text in _BOOL_CELLS else float(text)


def read_csv(path):
    """The table of a CSV file: true/false cells as bools, others as floats."""
    with open(path, encoding="utf-8", newline="") as handle:
        header, *body = [line.split(",") for line in handle.read().splitlines()]
    with_diagnostics = header[-1] == DIAGNOSTICS_COLUMN
    if with_diagnostics:
        header.pop()
    diagnostics = [cells.pop() if with_diagnostics else "" for cells in body]
    data = [[_csv_cell(cells[k]) for cells in body] for k in range(len(header))]
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
    data = [[_from_json(entry[name], math.nan) for entry in entries]
            for name in columns]
    return SweepResult(columns=columns, data=data, diagnostics=diagnostics,
                       meta=_from_json(payload["meta"], None))
