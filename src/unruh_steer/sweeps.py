"""Deterministic parameter-sweep engine with CSV/JSON emission.

Evaluators take the whole grid at once, flattened in lexicographic order, one
array per axis; domain errors at single points become row diagnostics instead
of aborting the sweep. The result table is column-major, one list per
column, and both writers work a column at a time.
Serialization is reproducible: CSV floats at 17 significant digits, JSON
floats as the shortest repr that round-trips, LF endings, and a timestamp
derived from SOURCE_DATE_EPOCH (epoch zero when unset) rather than the wall
clock.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import ConsistencyError, DomainError, UnruhSteerError
from .model import (
    RANGE_SLACK,
    UnruhParams,
    equilibrium_free,
    kossakowski_boundary,
    kossakowski_free,
)
from .qmat import matrix_to_fano
from .steering import (
    SQRT6,
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
        space = np.geomspace if self.scale == "log" else np.linspace
        return space(self.lo, self.hi, self.count)

    def spec_string(self) -> str:
        return (f"{self.name}:{self.scale}:{self.lo:.17g}:{self.hi:.17g}"
                f":{self.count}")


# ----- result table -----

@dataclass
class SweepResult:
    """Column-major sweep output: column names, one list of cells per column,
    per-row diagnostics and metadata."""

    columns: tuple
    data: list
    diagnostics: list
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if (len(self.data) != len(self.columns) or any(
                len(cells) != len(self.diagnostics) for cells in self.data)):
            raise ConsistencyError("table needs one column per name and one"
                                   " cell per row in each column")

    @property
    def rows(self) -> list:
        """The cells row by row, built on each access."""
        return list(zip(*self.data))

    @property
    def has_diagnostics(self) -> bool:
        return any(self.diagnostics)

    def column(self, name: str) -> list:
        return self.data[self.columns.index(name)]


def run_grid(axes, evaluator, out_columns, meta=None) -> SweepResult:
    """Evaluate ``evaluator`` on the cartesian product of the axes at once.

    ``axes`` is a sequence of (name, values) pairs; rows appear in
    lexicographic order of the axes as given (first axis outermost). The
    evaluator receives that grid flattened, one 1-D float array per axis,
    and returns (columns, diagnostics): one array or list per output
    column and one diagnostic string per row. A column count or length
    that does not match the grid raises ConsistencyError.
    """
    grid = np.meshgrid(*(np.asarray(vals, dtype=float) for _, vals in axes),
                       indexing="ij")
    flat = [mesh.ravel() for mesh in grid]
    columns, diagnostics = evaluator(*flat)
    # tolist gives the Python floats and bools the writers expect
    data = [col.tolist() if isinstance(col, np.ndarray) else col
            for col in flat + list(columns)]
    names = tuple(name for name, _ in axes) + tuple(out_columns)
    return SweepResult(columns=names, data=data,
                       diagnostics=list(diagnostics), meta=dict(meta or {}))


# ----- whole-axis evaluators -----

def _fill_rows(columns, diagnostics, rows, point, *axes):
    """Store the scalar ``point`` at each of ``rows`` into the columns.

    This is where every evaluator flags rows: an UnruhSteerError makes the
    row NaN, with the diagnostic "{Class}: {message}".
    """
    for i in rows:
        try:
            values = point(*(float(axis[i]) for axis in axes))
        except UnruhSteerError as exc:
            values = (math.nan,) * len(columns)
            diagnostics[i] = f"{type(exc).__name__}: {exc}"
        for column, value in zip(columns, values):
            column[i] = value


def _pointwise(point, n_out, *axes):
    """Columns and diagnostics of the scalar ``point``, row by row."""
    n = axes[0].size
    columns, diagnostics = [[None] * n for _ in range(n_out)], [""] * n
    _fill_rows(columns, diagnostics, range(n), point, *axes)
    return columns, diagnostics


def _outside(tau, ratio):
    # the (tau, R) range checks of equilibrium_free and the functional
    return ~((-3.0 - RANGE_SLACK <= tau) & (tau <= 1.0 + RANGE_SLACK)
             & (-RANGE_SLACK <= ratio) & (ratio <= 1.0 + RANGE_SLACK))


def eval_sic_free(omega: float, tau, accel):
    """Columns (R, sic) for the free-space equilibrium; closed-form SIC.

    R is computed once per acceleration, the SIC on whole arrays. The
    equilibrium is positive wherever ``equilibrium_free`` accepts (tau, R),
    so it is built only to flag the rows outside that range.
    """
    def point(t, a):
        ratio = kossakowski_free(UnruhParams(omega, a)).ratio
        equilibrium_free(t, ratio)
        return ratio, sic_closed_form_free(t, ratio)

    values, where = np.unique(accel, return_inverse=True)
    (ratios,), _ = _pointwise(
        lambda a: (kossakowski_free(UnruhParams(omega, a)).ratio,), 1, values)
    ratio = np.array(ratios)[where]
    columns = [ratio.tolist(), sic_closed_form_free(tau, ratio).tolist()]
    diagnostics = [""] * tau.size
    _fill_rows(columns, diagnostics, np.flatnonzero(_outside(tau, ratio)),
               point, tau, accel)
    return columns, diagnostics


def eval_surface(tau, ratio):
    """Columns SURFACE_COLUMNS of ``steerability_functional_free``.

    The same arithmetic in the same operation order, on whole arrays; the
    singular point comes back NaN/False with the diagnostic "singular".
    """
    square = ratio * ratio
    with np.errstate(all="ignore"):
        denom1 = 3.0 + square
        denom2 = square - ratio * (tau + 3.0) + 3.0
        singular = np.abs(denom2) <= 1e-12
        term1 = 2.0 * (tau - square) / denom1
        num2 = square * (tau + 2.0) - ratio * (tau + 3.0) + tau
        literal = np.where(singular, math.nan, term1 + num2 / denom2)
        absolute = np.where(singular, math.nan,
                            np.abs(term1) + np.abs(num2) / denom2)
    columns = [literal.tolist(), absolute.tolist(),
               (literal > SQRT6).tolist(), (absolute > SQRT6).tolist()]
    diagnostics = np.where(singular, "singular", "").tolist()
    _fill_rows(columns, diagnostics, np.flatnonzero(_outside(tau, ratio)),
               lambda t, r: steerability_functional_free(t, r)[:4], tau, ratio)
    return columns, diagnostics


def eval_boundary(omega: float, accel, z, sep):
    """Columns BOUNDARY_COLUMNS, row by row: with numpy's array ``**``, D
    would round differently at 448 of the 8000 points of the 20^3 scan.
    """
    def point(a, height, distance):
        coeffs = kossakowski_boundary(UnruhParams(omega, a), height, distance)
        return ((coeffs.A1, coeffs.A2, coeffs.B1, coeffs.B2)
                + tuple(steerability_verdict_boundary(coeffs)))

    return _pointwise(point, len(BOUNDARY_COLUMNS), accel, z, sep)


def eval_theorem(states: np.ndarray, index):
    """Columns (sic, mid, residual) of ``states[index]``, state by state."""
    def point(i):
        state = matrix_to_fano(states[int(i)])
        sic, mid = steering_induced_coherence(state), one_sided_mid(state)
        return sic, mid, abs(sic - mid)

    return _pointwise(point, len(THEOREM_COLUMNS), index)


SIC_SWEEP_COLUMNS = ("R", "sic")
SURFACE_COLUMNS = ("literal", "absolute", "exceeds_literal", "exceeds_absolute")
BOUNDARY_COLUMNS = ("A1", "A2", "B1", "B2", "x1", "x3", "value", "satisfied")
THEOREM_COLUMNS = ("sic", "mid", "residual")


# ----- emission -----

def _timestamp() -> str:
    text = os.environ.get("SOURCE_DATE_EPOCH", "0")
    try:
        stamp = datetime.fromtimestamp(int(text), tz=timezone.utc)
    except (ValueError, OverflowError, OSError):
        raise DomainError(f"SOURCE_DATE_EPOCH = {text!r} is not an integer"
                          " number of seconds in a representable year") from None
    return stamp.isoformat().replace("+00:00", "Z")


_BOOL_CELLS = {"true": True, "false": False}


def _parse_cell(text: str):
    return _BOOL_CELLS[text] if text in _BOOL_CELLS else float(text)


def _column_text(values, float_text, other_text) -> list:
    """Text of each cell of one column, a whole column per pass.

    Bools read true/false, floats go through ``float_text`` and any other
    cell through ``other_text``. Each distinct float is spelled once, keyed
    by its bit pattern so that -0.0 and 0.0 keep their own text. A mixed
    column (NaN in a flag column) goes cell by cell.
    """
    kinds = set(map(type, values))
    if kinds <= {bool, np.bool_}:
        return ["true" if x else "false" for x in values]
    if all(issubclass(kind, float) for kind in kinds):
        bits, where = np.unique(np.asarray(values, dtype=float).view(np.int64),
                                return_inverse=True)
        texts = [float_text(x) for x in bits.view(np.float64).tolist()]
        return np.array(texts, dtype=object)[where].tolist()
    return [("true" if x else "false") if isinstance(x, (bool, np.bool_))
            else float_text(float(x)) if isinstance(x, float)
            else other_text(x) for x in values]


def _csv_cell(value) -> str:
    return value if isinstance(value, str) else f"{float(value):.17g}"


def result_to_csv(result: SweepResult) -> str:
    """CSV text: header, 17-significant-digit floats, LF endings.

    The diagnostics column appears only when some row has a diagnostic.
    """
    cells = [_column_text(col, "{:.17g}".format, _csv_cell)
             for col in result.data]
    header = list(result.columns)
    if result.has_diagnostics:
        header.append(DIAGNOSTICS_COLUMN)
        cells.append([diag.replace(",", ";") for diag in result.diagnostics])
    lines = [",".join(header)] + [",".join(row) for row in zip(*cells)]
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


def _json_float(value: float) -> str:
    return repr(value) if math.isfinite(value) else json.dumps(_to_json(value))


def result_to_json(result: SweepResult) -> str:
    """Strict JSON text: NaN as null, +-inf as the strings "inf"/"-inf".

    The mapping covers rows and meta alike; load_json reverses it. The text
    is what ``json.dumps({"meta": ..., "rows": [...]}, indent=2)`` gives for
    the table as one dict per row, with the cells spelled a column at a time.
    """
    from . import __version__

    meta = dict(result.meta, version=__version__, timestamp=_timestamp())
    text = json.dumps({"meta": _to_json(meta), "rows": []}, indent=2,
                      allow_nan=False)
    if not result.diagnostics:
        return text + "\n"
    cells = [_column_text(col, _json_float,
                          lambda x: json.dumps(x, allow_nan=False))
             for col in result.data]
    diag_key = json.dumps(DIAGNOSTICS_COLUMN)
    cells.append([diag and f",\n      {diag_key}: {json.dumps(diag)}"
                  for diag in result.diagnostics])
    keys = [json.dumps(name).replace("%", "%%") for name in result.columns]
    template = ("    {\n" + ",\n".join(f"      {key}: %s" for key in keys)
                + "%s\n    }")
    rows = ",\n".join([template % row for row in zip(*cells)])
    # the rows replace the empty list that closes the text
    return text[:-len("[]\n}")] + "[\n" + rows + "\n  ]\n}\n"


def write_result(result: SweepResult, path: str, fmt: str,
                 plot: bool = False) -> list:
    """Write the table (and optionally a plot script); returns paths written."""
    writers = {"csv": result_to_csv, "json": result_to_json}
    if fmt not in writers:
        raise DomainError(f"unknown format {fmt!r}")
    files = [(path, writers[fmt](result))]
    if plot:
        files.append((path + ".gp",
                      plot_script(result, os.path.basename(path), fmt)))
    try:
        for name, text in files:
            with open(name, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
    except OSError as exc:
        raise OSError(f"{path}: {exc.strerror or exc}") from exc
    return [name for name, _ in files]


def load_csv(path: str) -> SweepResult:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise DomainError(f"{path}: empty CSV")
    header = lines[0].split(",")
    with_diag = header and header[-1] == DIAGNOSTICS_COLUMN
    columns = tuple(header[:-1] if with_diag else header)
    body = [line.split(",") for line in lines[1:]]
    diagnostics = [cells.pop() if with_diag else "" for cells in body]
    if any(len(cells) != len(columns) for cells in body):
        raise DomainError(f"{path}: a row does not have one cell per column")
    data = [[_parse_cell(cells[k]) for cells in body]
            for k in range(len(columns))]
    return SweepResult(columns=columns, data=data, diagnostics=diagnostics)


def load_json(path: str) -> SweepResult:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    meta = _from_json(payload.get("meta", {}))
    entries = payload.get("rows", [])
    diagnostics = [entry.pop(DIAGNOSTICS_COLUMN, "") for entry in entries]
    columns = tuple(entries[0]) if entries else ()
    data = [[_from_json(entry[name], math.nan) for entry in entries]
            for name in columns]
    return SweepResult(columns=columns, data=data, diagnostics=diagnostics,
                       meta=meta)


def plot_script(result: SweepResult, data_file: str, fmt: str) -> str:
    """Minimal gnuplot companion for a CSV table (best effort for JSON)."""
    n_inputs = len(result.meta.get("axes", ())) or 1
    y_col = n_inputs + 1
    lines = [f"# gnuplot script for {data_file}", "set datafile separator ','",
             "set key autotitle columnhead", "set grid"]
    if fmt != "csv":
        lines.append(f"# data is JSON; convert {data_file} to CSV to plot")
    if n_inputs >= 2 and len(result.columns) > 2:
        lines += ["set pm3d map",
                  f"splot '{data_file}' using {n_inputs - 1}:{n_inputs}:{y_col}"]
    else:
        lines.append(f"plot '{data_file}' using {n_inputs}:{y_col} with lines")
    return "\n".join(lines) + "\n"
