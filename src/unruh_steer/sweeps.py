"""Deterministic parameter-sweep engine with CSV/JSON emission.

Evaluators take the whole grid at once, flattened in lexicographic order, one
array per axis, and work on whole arrays. Domain errors at single points
become row diagnostics instead of aborting the sweep. The result table is
column-major, one 1-D numpy array per column, and both writers emit it in
blocks of ``BLOCK_ROWS`` rows, a column at a time within a block, so no
writer holds a whole file's text. Serialization is reproducible: CSV
floats at 17 significant digits, JSON floats as the shortest repr that
round-trips, LF endings, and a timestamp derived from SOURCE_DATE_EPOCH
(epoch zero when unset) rather than the wall clock.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import suppress
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import ConsistencyError, DomainError, UnruhSteerError
from .model import (
    UnruhParams,
    _each,
    boundary_arguments,
    boundary_d,
    boundary_pairs,
    boundary_x,
    check_leaf,
    check_rows,
    coefficient_mask,
    d_underflow,
    free_coefficients,
    kossakowski_boundary,
    kossakowski_free,
    leaf_mask,
)
from .steering import (
    DENOMINATOR_GATE,
    SQRT6,
    coherence_sum_terms,
    sic_closed_form_free,
    steerability_functional_free,
    steerability_verdict_boundary,
    zero_denominator,
)

GRID_NAMES = ("a", "tau", "R", "z", "L")
DIAGNOSTICS_COLUMN = "diagnostics"
BLOCK_ROWS = 4096   # rows per writer chunk: the text of one block is in memory


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
        check_rows(self.count)
        if not math.isfinite(self.hi - self.lo):   # the span linspace divides
            raise DomainError("grid span max - min must be finite")
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
    """Column-major sweep output: column names, one 1-D array of cells per
    column, per-row diagnostics and metadata. A column is float64 for
    numbers, bool for flags, or object for a flag column with NaN rows."""

    columns: tuple
    data: list
    diagnostics: list
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        shape = (len(self.diagnostics),)
        if len(self.data) != len(self.columns) or not all(
                isinstance(cells, np.ndarray) and cells.shape == shape
                and cells.dtype in (float, bool, object)
                for cells in self.data):
            raise ConsistencyError("table needs one float64, bool or object"
                                   " array per column name, one cell per row")

    @property
    def rows(self) -> list:
        """The cells row by row as Python values, built on each access."""
        return list(zip(*(cells.tolist() for cells in self.data)))

    @property
    def has_diagnostics(self) -> bool:
        return any(self.diagnostics)

    def column(self, name: str) -> np.ndarray:
        return self.data[self.columns.index(name)]


def run_grid(axes, evaluator, out_columns, meta=None) -> SweepResult:
    """Evaluate ``evaluator`` on the cartesian product of the axes at once.

    ``axes`` is a sequence of (name, values) pairs, whose names the table's
    ``meta["axes"]`` records; rows appear in lexicographic order of the
    axes as given (first axis outermost). The evaluator receives that grid
    flattened, one 1-D float array per axis, and returns (columns,
    diagnostics): one array per output column and one diagnostic string
    per row. A column count, length or dtype that does not fit the table
    raises ConsistencyError.
    """
    values = [np.asarray(vals, dtype=float) for _, vals in axes]
    check_rows(math.prod(vals.size for vals in values))
    grid = np.meshgrid(*values, indexing="ij")
    flat = [mesh.ravel() for mesh in grid]
    columns, diagnostics = evaluator(*flat)
    names = tuple(name for name, _ in axes)
    return SweepResult(columns=names + tuple(out_columns),
                       data=flat + list(columns), diagnostics=list(diagnostics),
                       meta=dict(meta or {}, axes=names))


# ----- whole-axis evaluators -----

def _diagnostic(exc: UnruhSteerError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _fill_rows(columns, diagnostics, rows, point, *axes):
    """Store the scalar ``point`` at each of ``rows`` into the columns.

    An UnruhSteerError makes the row NaN, with the diagnostic
    "{Class}: {message}". The evaluators send only the rows their masks
    refuse.
    """
    for i in rows:
        try:
            values = point(*(float(axis[i]) for axis in axes))
        except UnruhSteerError as exc:
            values = (math.nan,) * len(columns)
            diagnostics[i] = _diagnostic(exc)
        for column, value in zip(columns, values):
            column[i] = value


def eval_sic_free(omega: float, tau, accel):
    """Columns (R, sic) of the free-space equilibrium on whole arrays, bit for
    bit the scalar path's; rows that ``UnruhParams`` (x = 0 here) or
    ``leaf_mask`` refuses go through the scalar checks, which flag them."""
    def point(t, a):   # raises on every row sent here, with the scalar text
        check_leaf(t, kossakowski_free(UnruhParams(omega, a)).ratio)

    fast = (accel > 0.0) & (0.0 < omega / (4.0 * math.pi) < math.inf)
    with np.errstate(all="ignore"):   # x, A = inf are limits; NaN only if refused
        x = np.where(fast, 2.0 * math.pi / accel * omega, 0.0)
        ratio = free_coefficients(omega, x).ratio
    fast &= leaf_mask(tau, ratio)
    columns = [np.where(fast, cells, math.nan)
               for cells in (ratio, sic_closed_form_free(tau, ratio))]
    diagnostics = [""] * tau.size
    _fill_rows(columns, diagnostics, np.flatnonzero(~fast), point, tau, accel)
    return columns, diagnostics


def eval_surface(tau, ratio):
    """Columns SURFACE_COLUMNS of ``steerability_functional_free``.

    Its terms, from ``coherence_sum_terms``, on whole arrays; the singular
    point comes back NaN/False with the diagnostic "singular".
    """
    with np.errstate(all="ignore"):
        term1, num2, denom2, singular = coherence_sum_terms(tau, ratio)
        literal = np.where(singular, math.nan, term1 + num2 / denom2)
        absolute = np.where(singular, math.nan,
                            np.abs(term1) + np.abs(num2) / denom2)
    bad = np.flatnonzero(~leaf_mask(tau, ratio))
    flag = object if bad.size else bool   # NaN in a bool array reads True
    columns = [literal, absolute, (literal > SQRT6).astype(flag),
               (absolute > SQRT6).astype(flag)]
    diagnostics = np.where(singular, "singular", "").tolist()
    _fill_rows(columns, diagnostics, bad,
               lambda t, r: steerability_functional_free(t, r)[:4], tau, ratio)
    return columns, diagnostics


def eval_boundary(omega: float, accel, z, sep):
    """Columns BOUNDARY_COLUMNS on whole arrays, bit for bit the scalar
    path's: ``+ - * /`` on the arrays, which round as Python floats do, and
    powers, sqrt, sin and exp through the scalar functions per distinct
    argument (``model._each``).

    A row goes through the arrays when its thermal and image-point
    arguments are all positive and finite, and its coefficients pass
    ``model.coefficient_mask`` (finite, and small enough that D, x1 and x3
    cannot overflow). The arguments imply valid inputs: sqrt(L^2 + 4 z^2)
    omega > 0 needs omega > 0, and then 2 z omega, L omega and
    2 pi omega / a in (0, inf) need z, L and a there. Its DegenerateLimit
    and DenominatorZero flags come from the arrays. Every other row (bad
    input, an argument at inf or 0, or an infinite, NaN or huge
    coefficient) goes through ``kossakowski_boundary`` and
    ``steerability_verdict_boundary``, which flag it.
    """
    n = accel.size
    columns = [np.full(n, math.nan) for _ in BOUNDARY_COLUMNS[:-1]]
    columns.append(np.full(n, math.nan, dtype=object))
    diagnostics = [""] * n
    with np.errstate(all="ignore"):
        x, args = boundary_arguments(omega, accel, z, sep)
        fast = (0.0 < x) & (x < math.inf)
        for arg in args:
            fast &= (0.0 < arg) & (arg < math.inf)
        rows = np.flatnonzero(fast)
        pairs = boundary_pairs(omega, x[rows], [arg[rows] for arg in args])
        finite = coefficient_mask(*pairs)
        fast[rows[~finite]] = False
        rows, pairs = rows[finite], [cells[finite] for cells in pairs]
        d, underflows = boundary_d(*pairs)
        x1, x3 = boundary_x(*pairs, d)
        denom = 1.0 + x1
        value = x3 / denom
    zero = ~underflows & (denom <= DENOMINATOR_GATE)
    kept = ~(underflows | zero)
    for column, cells in zip(columns, (*pairs, x1, x3, value, value > SQRT6)):
        column[rows[kept]] = cells[kept]
    for i, di in zip(rows[underflows].tolist(), d[underflows].tolist()):
        diagnostics[i] = _diagnostic(d_underflow(di))
    for i, denom_i in zip(rows[zero].tolist(), denom[zero].tolist()):
        diagnostics[i] = _diagnostic(zero_denominator(denom_i))

    def point(a, height, distance):
        coeffs = kossakowski_boundary(UnruhParams(omega, a), height, distance)
        return ((coeffs.A1, coeffs.A2, coeffs.B1, coeffs.B2)
                + tuple(steerability_verdict_boundary(coeffs)))

    _fill_rows(columns, diagnostics, np.flatnonzero(~fast), point, accel, z, sep)
    return columns, diagnostics


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


def _column_text(values, float_text) -> list:
    """Text of each cell of one column array (of one block), by its dtype.

    Bools read true/false and floats go through ``float_text``, each
    distinct float spelled once (``model._each``, keyed by its bit pattern
    so that -0.0 and 0.0 keep their own text). An object column (NaN in a
    flag column) goes cell by cell; a cell there that is neither a bool nor
    a number raises TypeError.
    """
    if values.dtype == float:
        return _each(float_text, values, object).tolist()
    if values.dtype == bool:
        return ["true" if x else "false" for x in values.tolist()]
    return [("true" if x else "false") if isinstance(x, (bool, np.bool_))
            else float_text(float(x)) for x in values]


def _row_blocks(result: SweepResult):
    """Slices of at most ``BLOCK_ROWS`` rows that cover the table in order."""
    return [slice(lo, lo + BLOCK_ROWS)
            for lo in range(0, len(result.diagnostics), BLOCK_ROWS)]


def csv_chunks(result: SweepResult):
    """CSV text in chunks: header, 17-significant-digit floats, LF endings.

    The diagnostics column appears only when some row, in any block, has a
    diagnostic. The header comes in the first chunk, with the first block.
    """
    header = list(result.columns)
    with_diagnostics = result.has_diagnostics
    if with_diagnostics:
        header.append(DIAGNOSTICS_COLUMN)
    head = ",".join(header) + "\n"
    for rows in _row_blocks(result):
        cells = [_column_text(col[rows], "{:.17g}".format)
                 for col in result.data]
        if with_diagnostics:
            cells.append([diag.replace(",", ";")
                          for diag in result.diagnostics[rows]])
        yield head + "\n".join(map(",".join, zip(*cells))) + "\n"
        head = ""
    if head:
        yield head


def _to_json(value):
    # strict JSON has no NaN or infinity: NaN -> null, +-inf -> "inf"/"-inf"
    if isinstance(value, float) and not math.isfinite(value):
        return None if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, dict):
        return {key: _to_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_json(item) for item in value]
    return value


def _json_float(value: float) -> str:
    return repr(value) if math.isfinite(value) else json.dumps(_to_json(value))


def json_chunks(result: SweepResult):
    """Strict JSON text in chunks: NaN as null, +-inf as "inf"/"-inf".

    The mapping covers rows and meta alike. The text is what
    ``json.dumps({"meta": ..., "rows": [...]}, indent=2)`` gives for the
    table as one dict per row, with the cells spelled in blocks of
    ``BLOCK_ROWS`` rows, a column at a time within a block. The first chunk
    holds the meta block and the first rows.
    """
    from . import __version__

    meta = dict(result.meta, version=__version__, timestamp=_timestamp())
    text = json.dumps({"meta": _to_json(meta), "rows": []}, indent=2,
                      allow_nan=False)
    if not result.diagnostics:
        yield text + "\n"
        return
    diag_key = json.dumps(DIAGNOSTICS_COLUMN)
    keys = [json.dumps(name).replace("%", "%%") for name in result.columns]
    template = ("    {\n" + ",\n".join(f"      {key}: %s" for key in keys)
                + "%s\n    }")
    # the rows replace the empty list that closes the text
    head = text[:-len("[]\n}")] + "[\n"
    for rows in _row_blocks(result):
        cells = [_column_text(col[rows], _json_float) for col in result.data]
        cells.append([diag and f",\n      {diag_key}: {json.dumps(diag)}"
                      for diag in result.diagnostics[rows]])
        yield head + ",\n".join([template % row for row in zip(*cells)])
        head = ",\n"
    yield "\n  ]\n}\n"


WRITERS = {"csv": csv_chunks, "json": json_chunks}


def write_result(result: SweepResult, path: str, fmt: str,
                 plot: str | None = None) -> list:
    """Write the table chunk by chunk (and, when ``plot`` names a column, a
    plot script that draws it, see :func:`plot_script`); returns the paths
    written.

    All or nothing: each file is streamed to a new temporary file in the
    directory it resolves to (mode "x" gives it the mode "w" would; a
    symlink stays a symlink), and the temporary files replace their targets
    only once all are complete. A failure removes them, leaves any file
    already at a path as it was, and an OSError names ``path``. A target
    that exists and is not a regular file, such as a FIFO or /dev/null, is
    written in place.
    """
    if fmt not in WRITERS:
        raise DomainError(f"unknown format {fmt!r}")
    files = [(path, WRITERS[fmt](result))]
    if plot is not None:
        files.append((path + ".gp",
                      [plot_script(result, os.path.basename(path), fmt, plot)]))
    staged = []    # (temporary file, target) pairs not yet moved
    try:
        for name, texts in files:
            target = os.path.realpath(name)
            special = os.path.exists(target) and not os.path.isfile(target)
            temp = target if special else f"{target}.{os.urandom(4).hex()}.tmp"
            with open(temp, "w" if special else "x", encoding="utf-8",
                      newline="") as handle:
                if not special:
                    staged.append((temp, target))
                handle.writelines(texts)
        while staged:
            os.replace(*staged[0])
            staged.pop(0)
    except OSError as exc:
        raise OSError(f"{path}: {exc.strerror or exc}") from exc
    finally:
        for temp, _ in staged:
            with suppress(OSError):
                os.remove(temp)
    return [name for name, _ in files]


def plot_script(result: SweepResult, data_file: str, fmt: str,
                column: str) -> str:
    """Minimal gnuplot companion for a CSV table (best effort for JSON)
    that draws ``column`` against the axes, or against the row index
    (gnuplot's column 0) for a table without axes."""
    n_inputs = len(result.meta.get("axes", ()))
    y_col = result.columns.index(column) + 1
    lines = [f"# gnuplot script for {data_file}", "set datafile separator ','",
             "set key autotitle columnhead", "set grid"]
    if fmt != "csv":
        lines.append(f"# data is JSON; convert {data_file} to CSV to plot")
    if n_inputs >= 2:
        lines += ["set pm3d map",
                  f"splot '{data_file}' using {n_inputs - 1}:{n_inputs}:{y_col}"]
    else:
        lines.append(f"plot '{data_file}' using {n_inputs}:{y_col} with lines")
    return "\n".join(lines) + "\n"
