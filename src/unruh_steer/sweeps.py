"""Deterministic parameter-sweep engine with CSV/JSON emission.

Grid points are evaluated one after another in lexicographic order; per-point
domain errors become row diagnostics instead of aborting the sweep.
Serialization is reproducible: floats at 17 significant digits, LF endings,
and a timestamp derived from SOURCE_DATE_EPOCH (epoch zero when unset)
rather than the wall clock.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import DomainError, UnruhSteerError
from .model import (
    UnruhParams,
    equilibrium_free,
    kossakowski_boundary,
    kossakowski_free,
)
from .qmat import matrix_to_fano
from .steering import (
    one_sided_mid,
    sic_closed_form_free,
    steerability_functional_free,
    steerability_verdict_boundary,
    steering_induced_coherence,
)

GRID_NAMES = ("a", "tau", "R", "z", "L")
DIAGNOSTICS_COLUMN = "diagnostics"


# ----- sweep grid axes -----

@dataclass(frozen=True)
class GridSpec:
    """One sweep axis: name, scale, bounds, point count."""

    name: str
    scale: str
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.name not in GRID_NAMES:
            raise DomainError(f"unknown grid parameter {self.name!r};"
                              f" expected one of {', '.join(GRID_NAMES)}")
        if self.scale not in ("linear", "log"):
            raise DomainError(f"grid scale must be linear or log,"
                              f" got {self.scale!r}")
        if self.count < 2:
            raise DomainError("grid count must be at least 2")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError("grid bounds must be finite")
        if not self.lo < self.hi:
            raise DomainError("grid needs min < max")
        if self.scale == "log" and self.lo <= 0.0:
            raise DomainError("log grid needs min > 0")

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        """Parse 'name:scale:min:max:count', e.g. 'a:log:0.5:100:200'."""
        parts = text.split(":")
        if len(parts) != 5:
            raise DomainError(f"grid {text!r} is not name:scale:min:max:count")
        name, scale, lo, hi, count = parts
        try:
            return cls(name=name, scale=scale, lo=float(lo), hi=float(hi),
                       count=int(count))
        except ValueError as exc:
            raise DomainError(f"grid {text!r}: {exc}") from None

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.lo, self.hi, self.count)
        return np.linspace(self.lo, self.hi, self.count)

    def spec_string(self) -> str:
        return (f"{self.name}:{self.scale}:{self.lo:.17g}:{self.hi:.17g}"
                f":{self.count}")


# ----- result table -----

@dataclass
class SweepResult:
    """Row-major sweep output: full column list, rows, per-row diagnostics."""

    columns: tuple
    rows: list
    diagnostics: list
    meta: dict = field(default_factory=dict)

    @property
    def has_diagnostics(self) -> bool:
        return any(self.diagnostics)

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def _py(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    return float(value)


def run_grid(axes, evaluator, out_columns, meta=None) -> SweepResult:
    """Evaluate ``evaluator`` over the cartesian product of the axes.

    ``axes`` is a sequence of (name, values) pairs; rows appear in
    lexicographic order of the axes as given (first axis outermost). The
    evaluator returns (values, diagnostic) and may raise package errors,
    which are recorded as the row diagnostic with NaN outputs.
    """
    nan_row = (math.nan,) * len(out_columns)
    rows, diagnostics = [], []
    for combo in itertools.product(*(vals for _, vals in axes)):
        point = tuple(float(c) for c in combo)
        try:
            values, diag = evaluator(*point)
        except UnruhSteerError as exc:
            values, diag = nan_row, f"{type(exc).__name__}: {exc}"
        rows.append(point + tuple(_py(v) for v in values))
        diagnostics.append(diag)
    columns = tuple(name for name, _ in axes) + tuple(out_columns)
    return SweepResult(columns=columns, rows=rows, diagnostics=diagnostics,
                       meta=dict(meta or {}))


# ----- point evaluators -----

def eval_sic_free(omega: float, tau: float, accel: float):
    """Row (R, sic) for the free-space equilibrium; closed-form SIC.

    The equilibrium is positive wherever ``equilibrium_free`` accepts
    (tau, R), so it is built only for that range check.
    """
    coeffs = kossakowski_free(UnruhParams(omega, accel))
    equilibrium_free(tau, coeffs.ratio)
    return (coeffs.ratio, sic_closed_form_free(tau, coeffs.ratio)), ""


def eval_surface(tau: float, ratio: float):
    result = steerability_functional_free(tau, ratio)
    diag = "singular" if result.singular else ""
    return (result.literal, result.absolute, result.exceeds_literal,
            result.exceeds_absolute), diag


def eval_boundary(omega: float, accel: float, z: float, sep: float):
    coeffs = kossakowski_boundary(UnruhParams(omega, accel), z, sep)
    verdict = steerability_verdict_boundary(coeffs)
    return (coeffs.A1, coeffs.A2, coeffs.B1, coeffs.B2,
            verdict.x1, verdict.x3, verdict.value, verdict.satisfied), ""


def eval_theorem(states: np.ndarray, index: float):
    state = matrix_to_fano(states[int(index)])
    sic = steering_induced_coherence(state)
    mid = one_sided_mid(state)
    return (sic, mid, abs(sic - mid)), ""


SIC_SWEEP_COLUMNS = ("R", "sic")
SURFACE_COLUMNS = ("literal", "absolute", "exceeds_literal", "exceeds_absolute")
BOUNDARY_COLUMNS = ("A1", "A2", "B1", "B2", "x1", "x3", "value", "satisfied")
THEOREM_COLUMNS = ("sic", "mid", "residual")


# ----- emission -----

def _timestamp() -> str:
    epoch = int(os.environ.get("SOURCE_DATE_EPOCH", "0"))
    stamp = datetime.fromtimestamp(epoch, tz=timezone.utc)
    return stamp.isoformat().replace("+00:00", "Z")


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    return f"{float(value):.17g}"


def _parse_cell(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    return float(text)


def result_to_csv(result: SweepResult) -> str:
    """CSV text: header, 17-significant-digit floats, LF endings.

    The diagnostics column appears only when some row has a diagnostic.
    """
    with_diag = result.has_diagnostics
    header = list(result.columns) + ([DIAGNOSTICS_COLUMN] if with_diag else [])
    lines = [",".join(header)]
    for row, diag in zip(result.rows, result.diagnostics):
        cells = [_format_cell(cell) for cell in row]
        if with_diag:
            cells.append(diag.replace(",", ";"))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


_JSON_INF = {"inf": math.inf, "-inf": -math.inf}


def _to_json(value):
    # strict JSON has no NaN or infinity: NaN -> null, +-inf -> "inf"/"-inf"
    if isinstance(value, float) and not math.isfinite(value):
        return None if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, dict):
        return {key: _to_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_json(item) for item in value]
    return value


def _from_json(value, null=None):
    # inverse of _to_json; null reads as NaN in rows and stays None in meta
    if isinstance(value, dict):
        return {key: _from_json(item, null) for key, item in value.items()}
    if isinstance(value, list):
        return [_from_json(item, null) for item in value]
    if isinstance(value, str):
        return _JSON_INF.get(value, value)
    return null if value is None else value


def result_to_json(result: SweepResult) -> str:
    """Strict JSON text: NaN as null, +-inf as the strings "inf"/"-inf".

    The mapping covers rows and meta alike; load_json reverses it.
    """
    meta = dict(result.meta)
    meta["version"] = _tool_version()
    meta["timestamp"] = _timestamp()
    rows = []
    for row, diag in zip(result.rows, result.diagnostics):
        # cells are floats and bools: one sum finds a NaN or inf among them,
        # so only such rows pay for the mapping
        entry = dict(zip(result.columns,
                         row if math.isfinite(sum(row)) else _to_json(row)))
        if diag:
            entry[DIAGNOSTICS_COLUMN] = diag
        rows.append(entry)
    return json.dumps({"meta": _to_json(meta), "rows": rows}, indent=2,
                      allow_nan=False) + "\n"


def _tool_version() -> str:
    from . import __version__

    return __version__


def write_result(result: SweepResult, path: str, fmt: str,
                 plot: bool = False) -> list:
    """Write the table (and optionally a plot script); returns paths written."""
    if fmt == "csv":
        text = result_to_csv(result)
    elif fmt == "json":
        text = result_to_json(result)
    else:
        raise DomainError(f"unknown format {fmt!r}")
    written = []
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        written.append(path)
        if plot:
            script = plot_script(result, os.path.basename(path), fmt)
            script_path = path + ".gp"
            with open(script_path, "w", encoding="utf-8", newline="") as handle:
                handle.write(script)
            written.append(script_path)
    except OSError as exc:
        raise OSError(f"{path}: {exc.strerror or exc}") from exc
    return written


def load_csv(path: str) -> SweepResult:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise DomainError(f"{path}: empty CSV")
    header = lines[0].split(",")
    with_diag = header and header[-1] == DIAGNOSTICS_COLUMN
    columns = tuple(header[:-1] if with_diag else header)
    rows, diagnostics = [], []
    for line in lines[1:]:
        cells = line.split(",")
        if with_diag:
            diagnostics.append(cells[-1])
            cells = cells[:-1]
        else:
            diagnostics.append("")
        rows.append(tuple(_parse_cell(cell) for cell in cells))
    return SweepResult(columns=columns, rows=rows, diagnostics=diagnostics)


def load_json(path: str) -> SweepResult:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    meta = _from_json(payload.get("meta", {}))
    entries = payload.get("rows", [])
    columns: tuple = ()
    rows, diagnostics = [], []
    for entry in entries:
        diag = entry.pop(DIAGNOSTICS_COLUMN, "")
        if not columns:
            columns = tuple(entry.keys())
        rows.append(tuple(_from_json(entry[name], math.nan)
                          for name in columns))
        diagnostics.append(diag)
    return SweepResult(columns=columns, rows=rows, diagnostics=diagnostics,
                       meta=meta)


def plot_script(result: SweepResult, data_file: str, fmt: str) -> str:
    """Minimal gnuplot companion for a CSV table (best effort for JSON)."""
    n_inputs = len(result.meta.get("axes", ())) or 1
    x_col = n_inputs
    y_col = n_inputs + 1
    lines = [
        f"# gnuplot script for {data_file}",
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set grid",
    ]
    if fmt != "csv":
        lines.append(f"# data is JSON; convert {data_file} to CSV to plot")
    if n_inputs >= 2 and len(result.columns) > 2:
        lines += [
            "set pm3d map",
            f"splot '{data_file}' using {n_inputs - 1}:{n_inputs}:{y_col}",
        ]
    else:
        lines.append(f"plot '{data_file}' using {x_col}:{y_col} with lines")
    return "\n".join(lines) + "\n"
