"""The benchmark's workloads: seeded inputs, items and reference checks.

A workload is a fixed list of items made from the seed. Running an item
makes one closed-loop call into the package's public API with default
arguments only. ``check`` compares the result with a reference computed
here with numpy, independently of the package, and returns the failures as
text. It never raises, so a wrong result counts towards the error rate
instead of aborting the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

OMEGA = 1.0
# |b| below this puts a state on the degenerate SIC/MID branch, as the
# package's documented gate for Bob's Bloch vector does
DEGENERACY_GATE = 1e-9

# theorem: acceptance criterion 5's bounds, and the SVD oracle's
RESIDUAL_RANDOM = 1e-4
RESIDUAL_EQUILIBRIUM = 1e-6
CLOSED_FORM_TOL = 1e-6
ORACLE_TOL = 1e-6

# relax: conserved trace and distance to the exact affine solution
TAU_DRIFT_TOL = 1e-9
EXACT_TOL = 1e-9
LANDING_TOL = 1e-6

DIGESTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")


@dataclass
class Item:
    """One unit of work. ``cls`` is the SIC/MID branch on ``theorem``."""

    name: str
    cls: str
    payload: dict


# ----- numpy references, independent of the package -----

_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                   [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
# _PAULI2[i, j] = kron(sigma_i, sigma_j)
_PAULI2 = np.einsum("iab,jcd->ijacbd", _PAULI, _PAULI).reshape(4, 4, 4, 4)


def random_density_matrix(rng: np.random.Generator, n_pure: int = 4):
    """Dirichlet mixture of complex-Gaussian pure states (theorem-check's law)."""
    psi = rng.normal(size=(n_pure, 4)) + 1j * rng.normal(size=(n_pure, 4))
    w = rng.dirichlet(np.ones(n_pure))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    return np.einsum("k,ki,kj->ij", w, psi, psi.conj())


def fano_coefficients(m: np.ndarray):
    """(a, b, T) with rho = (1/4) sum_ij c_ij sigma_i x sigma_j."""
    c = np.einsum("xy,ijyx->ij", m, _PAULI2).real
    return c[1:, 0].copy(), c[0, 1:].copy(), c[1:, 1:].copy()


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


# correlation diagonals of the four Bell states
_BELL_CORNERS = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0],
                          [1.0, 1.0, -1.0], [-1.0, -1.0, -1.0]])


def sic_oracle(b: np.ndarray, t: np.ndarray) -> float:
    """sigma_max((I - e e^T) T^T) with e = b/|b|; sigma_2(T) when |b| < 1e-9.

    The one-sided MID characterisation of Luo, PRA 77, 022301 (2008).
    """
    blen = float(np.linalg.norm(b))
    if blen < DEGENERACY_GATE:
        return float(np.linalg.svd(t, compute_uv=False)[1])
    e = b / blen
    proj = np.eye(3) - np.outer(e, e)
    return float(np.linalg.svd(proj @ t.T, compute_uv=False)[0])


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a 20-term Taylor series."""
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0 else 0
    x = a / 2.0 ** squarings
    term = np.eye(len(a))
    out = np.eye(len(a))
    for k in range(1, 21):
        term = term @ x / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def state_vector(state) -> np.ndarray:
    """15-vector (a, b, T rows) of a package FanoState."""
    return np.concatenate([np.asarray(state.a_vec, float).ravel(),
                           np.asarray(state.b_vec, float).ravel(),
                           np.asarray(state.t_mat, float).ravel()])


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _csv_value(text: str):
    if text in ("true", "false"):
        return text == "true"
    return float(text)


def _json_value(value):
    if value is None:
        return math.nan
    if isinstance(value, bool):
        return value
    return float(value)


def _same(x, y) -> bool:
    if isinstance(x, bool) or isinstance(y, bool):
        return type(x) is type(y) and x == y
    return x == y or (math.isnan(x) and math.isnan(y))


def compare_json_to_csv(json_path: str, csv_path: str):
    """None when the JSON rows equal the CSV rows, else the first difference.

    NaN and null in the JSON both read as NaN, as the CSV's ``nan`` does.
    """
    with open(csv_path, encoding="utf-8", newline="") as handle:
        lines = handle.read().splitlines()
    header = lines[0].split(",")
    with_diag = header[-1] == "diagnostics"
    columns = header[:-1] if with_diag else header
    with open(json_path, encoding="utf-8") as handle:
        rows = json.load(handle)["rows"]
    if len(rows) != len(lines) - 1:
        return f"JSON has {len(rows)} rows, CSV {len(lines) - 1}"
    for n, (line, entry) in enumerate(zip(lines[1:], rows)):
        cells = line.split(",")
        diag = cells.pop() if with_diag else ""
        if (entry.get("diagnostics") or "").replace(",", ";") != diag:
            return f"row {n}: diagnostics differ"
        if len(cells) != len(columns):
            return f"row {n}: {len(cells)} CSV cells for {len(columns)} columns"
        for col, cell in zip(columns, cells):
            if col not in entry:
                return f"row {n}: JSON lacks column {col}"
            if not _same(_csv_value(cell), _json_value(entry[col])):
                return f"row {n}, column {col}: CSV {cell} != JSON {entry[col]!r}"
    return None


# ----- workloads -----

class Workload:
    """Base: items made in ``__init__``; ``run`` one item; ``check`` it."""

    name = ""

    def __init__(self, us, seed: int, out_dir: str):
        self.us = us
        self.out_dir = out_dir
        self.items: list[Item] = []

    def run(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, result) -> list[str]:
        raise NotImplementedError

    def finish(self, records: list[dict]) -> None:
        """End-of-run checks; append failures to the matching records."""

    def counters(self) -> dict:
        return {}


class Theorem(Workload):
    """SIC and MID of one state per item, with criterion 5's references.

    900 random states, 50 nondegenerate equilibria on a 10 x 5 (tau, ratio)
    grid, and 50 states whose reduced B state is maximally mixed (40
    locally rotated Bell-diagonal states, 10 equilibria at ratio 0),
    shuffled. The 5% degenerate share
    puts the p50 item on the nondegenerate branch and the p99 item on the
    degenerate one.
    """

    name = "theorem"
    N_RANDOM = 900
    N_BELL = 40

    def __init__(self, us, seed, out_dir):
        super().__init__(us, seed, out_dir)
        rng = np.random.default_rng(seed)
        items = []
        for k in range(self.N_RANDOM):
            a, b, t = fano_coefficients(random_density_matrix(rng))
            items.append(self._item(f"random-{k}", us.FanoState(a, b, t), b, t))
        for k in range(self.N_BELL):
            c = rng.dirichlet(np.ones(4)) @ _BELL_CORNERS
            t = random_rotation(rng) @ np.diag(c) @ random_rotation(rng).T
            zero = np.zeros(3)
            items.append(self._item(f"bell-{k}", us.FanoState(zero, zero, t),
                                    zero, t))
        grid = [(tau, ratio) for tau in np.linspace(-2.9, 1.0, 10)
                for ratio in np.linspace(0.1, 1.0, 5)]
        grid += [(tau, 0.0) for tau in np.linspace(-3.0, 1.0, 10)]
        for k, (tau, ratio) in enumerate(grid):
            state = us.equilibrium_free(float(tau), float(ratio))
            items.append(self._item(
                f"equilibrium-{k}", state, np.array(state.b_vec, float),
                np.array(state.t_mat, float), tau=float(tau), ratio=float(ratio)))
        self.items = [items[i] for i in rng.permutation(len(items))]

    @staticmethod
    def _item(name, state, b, t, tau=None, ratio=None) -> Item:
        cls = "deg" if np.linalg.norm(b) < DEGENERACY_GATE else "nondeg"
        return Item(name, cls, {"state": state, "b": b, "t": t,
                                "tau": tau, "ratio": ratio})

    def run(self, item):
        state = item.payload["state"]
        return (float(self.us.steering_induced_coherence(state)),
                float(self.us.one_sided_mid(state)))

    def check(self, item, result):
        sic, mid = result
        p = item.payload
        equilibrium = p["tau"] is not None
        fails = []
        bound = RESIDUAL_EQUILIBRIUM if equilibrium else RESIDUAL_RANDOM
        if not abs(sic - mid) < bound:
            fails.append(f"|SIC - MID| = {abs(sic - mid):.3e} >= {bound:g}")
        if equilibrium:
            closed = float(self.us.sic_closed_form_free(p["tau"], p["ratio"]))
            if not abs(sic - closed) < CLOSED_FORM_TOL:
                fails.append(f"|SIC - closed form| = {abs(sic - closed):.3e}")
        oracle = sic_oracle(p["b"], p["t"])
        if not abs(sic - oracle) < ORACLE_TOL:
            fails.append(f"|SIC - SVD oracle| = {abs(sic - oracle):.3e}")
        return fails


BOUNDARY_SCAN = ["boundary-scan", "--grid", "a:log:0.1:100:20",
                 "--grid", "z:log:0.1:10:20", "--grid", "L:log:0.01:10:20"]
FIGURE_COMMANDS = (
    ("boundary_scan", BOUNDARY_SCAN, "scan.csv"),
    ("fig1", ["sic-sweep", "--preset", "fig1"], "fig1.csv"),
    ("fig2", ["tau-sweep", "--preset", "fig2"], "fig2.csv"),
    ("fig3_csv", ["steerability-surface", "--preset", "fig3"], "fig3.csv"),
    ("fig3_json", ["steerability-surface", "--preset", "fig3"], "fig3.json"),
)


class Figures(Workload):
    """The figure presets and the 20^3 boundary scan through ``cli.main``.

    CSV outputs must match the digests in ``digests.json``. Every pass's
    fig3 JSON must have the same bytes, and the last one, parsed back, must
    equal the fig3 CSV. The seed is unused: the commands are fixed.
    """

    name = "figures"

    def __init__(self, us, seed, out_dir):
        super().__init__(us, seed, out_dir)
        with open(DIGESTS_FILE, encoding="utf-8") as handle:
            self.digests = json.load(handle)
        self.items = [Item(name, "", {"argv": argv + ["--out", os.path.join(out_dir, out)],
                                      "path": os.path.join(out_dir, out)})
                      for name, argv, out in FIGURE_COMMANDS]
        self.json_digests: list[str] = []

    def run(self, item):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.us.cli.main(item.payload["argv"])
        return code, sink.getvalue()

    def check(self, item, result):
        code, output = result
        if code != 0:
            return [f"exit code {code}: {output.strip()[-200:]}"]
        path = item.payload["path"]
        if not os.path.isfile(path):
            return [f"{os.path.basename(path)} was not written"]
        digest = sha256_file(path)
        if path.endswith(".json"):
            self.json_digests.append(digest)
            return []
        expected = self.digests.get(item.name)
        if digest != expected:
            return [f"sha256 {digest} != recorded {expected}"]
        return []

    def finish(self, records):
        runs = [r for r in records if r["name"] == "fig3_json" and not r["failures"]]
        if not runs:
            return
        last = self.json_digests[-1]
        for record, digest in zip(runs, self.json_digests):
            if digest != last:
                record["failures"].append("fig3 JSON bytes differ between passes")
        paths = {item.name: item.payload["path"] for item in self.items}
        diff = compare_json_to_csv(paths["fig3_json"], paths["fig3_csv"])
        if diff is not None:
            for record, digest in zip(runs, self.json_digests):
                if digest == last:
                    record["failures"].append(f"fig3 JSON != CSV: {diff}")


RELAX_ACCELS = (1.0, 2.0 * math.pi, 50.0)


class Relax(Workload):
    """``evolve`` at its default horizon and samples, one trajectory per item.

    Ground, excited, singlet and one seeded random state at each of three
    accelerations. Checks: conserved trace, and the final state against
    the exact solution exp(t [[M, c], [0, 0]]) of the affine equation of
    motion, with M and c probed from ``ode_rhs``. Landing within 1e-6 of
    the closed-form equilibrium is counted, not checked: at a = 1 the
    default horizon leaves random states about 1e-5 away.
    """

    name = "relax"

    def __init__(self, us, seed, out_dir):
        super().__init__(us, seed, out_dir)
        rng = np.random.default_rng(seed)
        down, up = np.array([0.0, 0.0, -1.0]), np.array([0.0, 0.0, 1.0])
        self.items = []
        for accel in RELAX_ACCELS:
            coeffs = us.kossakowski_free(us.UnruhParams(OMEGA, accel))
            inits = {"ground": (down, down, np.outer(down, down)),
                     "excited": (up, up, np.outer(up, up)),
                     "singlet": (np.zeros(3), np.zeros(3), -np.eye(3)),
                     "random": fano_coefficients(random_density_matrix(rng))}
            for init, (a, b, t) in inits.items():
                y0 = np.concatenate([a, b, t.ravel()])
                self.items.append(Item(f"{init}@a={accel:.6g}", "", {
                    "state": us.FanoState(a, b, t), "coeffs": coeffs,
                    "accel": accel, "y0": y0}))
        self._propagators: dict = {}
        self.landed: dict[str, bool] = {}

    def run(self, item):
        return self.us.evolve(item.payload["state"], item.payload["coeffs"])

    def _propagator(self, coeffs, accel: float, t_end: float) -> np.ndarray:
        key = (accel, t_end)
        if key not in self._propagators:
            def rhs(y):
                state = self.us.FanoState(y[0:3], y[3:6], y[6:15].reshape(3, 3))
                return state_vector(self.us.ode_rhs(state, coeffs))

            c = rhs(np.zeros(15))
            gen = np.zeros((16, 16))
            gen[:15, :15] = np.column_stack([rhs(e) - c for e in np.eye(15)])
            gen[:15, 15] = c
            self._propagators[key] = expm(t_end * gen)
        return self._propagators[key]

    def check(self, item, traj):
        p = item.payload
        y0 = p["y0"]
        tau0 = float(np.trace(y0[6:15].reshape(3, 3)))
        fails = []
        drift = max(abs(float(np.trace(np.asarray(s.t_mat, float))) - tau0)
                    for s in traj.states)
        if not drift < TAU_DRIFT_TOL:
            fails.append(f"tau drift {drift:.3e}")
        t_end = float(np.asarray(traj.times, float)[-1])
        exact = (self._propagator(p["coeffs"], p["accel"], t_end)
                 @ np.append(y0, 1.0))[:15]
        final = state_vector(traj.final_state)
        dev = float(np.abs(final - exact).max())
        if not dev < EXACT_TOL:
            fails.append(f"final state {dev:.3e} from the exact solution")
        target = state_vector(self.us.equilibrium_free(tau0, p["coeffs"].ratio))
        self.landed[item.name] = bool(np.abs(final - target).max() < LANDING_TOL)
        return fails

    def counters(self):
        return {"model.evolve.landed_1e-6": sum(self.landed.values())}


WORKLOADS = {cls.name: cls for cls in (Theorem, Figures, Relax)}
