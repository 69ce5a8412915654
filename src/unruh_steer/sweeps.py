"""Deterministic parameter-sweep engine with CSV/JSON emission.

The grid is flattened in lexicographic order, one array per axis, and
evaluated in blocks of at most ``BLOCK_ROWS`` rows, in row order: an
evaluator is called once per block, works on that block's arrays, and its
cells go into columns allocated once, so no stage holds whole-grid
temporaries. Each row gets its cells from one path: the arrays compute
exactly the rows that the scalar checks accept, and a refused row is NaN,
named by the error its scalar check raises ("{Class}: {message}") instead
of aborting the sweep. The result table is column-major, one 1-D numpy
array per column, and both writers emit it in the same blocks, a column at
a time within a block, so no writer holds a whole file's text.
Serialization is reproducible: CSV floats at 17 significant digits, JSON
floats as the shortest repr that round-trips, LF endings, and a timestamp
derived from SOURCE_DATE_EPOCH (epoch zero when unset) rather than the wall
clock. A spelled float costs ~0.6 us and an indexed cell a fraction of
that, so a block's float column is spelled one distinct bit pattern at a
time only where at most 3/4 of its cells are distinct (axis columns, the
boundary scan), and cell by cell elsewhere.
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
    BLOCK_ROWS,
    UnruhParams,
    boundary_arguments,
    boundary_pairs,
    check_leaf,
    check_rows,
    free_coefficients,
    kossakowski_boundary,
    kossakowski_free,
    leaf_mask,
)
from .steering import (
    SQRT6,
    boundary_verdict_rows,
    coherence_sum_terms,
    sic_closed_form_free,
)

GRID_NAMES = ("a", "tau", "R", "z", "L")
DIAGNOSTICS_COLUMN = "diagnostics"
_FLAG_TEXT = np.array(["false", "true"], dtype=object)
_FLAG_TYPES = frozenset((bool, np.bool_))
_FLAG_DTYPES = frozenset(map(np.dtype, (bool, object)))   # a flag column's, by NaN rows


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
    """Evaluate ``evaluator`` on the cartesian product of the axes, in
    blocks of at most ``BLOCK_ROWS`` rows.

    ``axes`` is a sequence of (name, values) pairs, whose names the table's
    ``meta["axes"]`` records; rows appear in lexicographic order of the
    axes as given (first axis outermost). The evaluator is called once per
    block, in row order (once with empty axes for an empty grid), with the
    block's rows of that grid flattened, one 1-D float array per axis, and
    returns (columns, diagnostics): one array per output column and one
    diagnostic string per row of the block. Its columns fill columns
    allocated once; a flag column is object where any block's is. A block
    whose column count, lengths or dtypes do not fit the table, or whose
    column changes dtype otherwise, raises ConsistencyError.
    """
    values = [np.asarray(vals, dtype=float) for _, vals in axes]
    n = math.prod(vals.size for vals in values)
    check_rows(n)
    flat = [mesh.ravel() for mesh in np.meshgrid(*values, indexing="ij")]
    data, diagnostics = None, []
    for rows in _row_blocks(max(n, 1)):
        columns, block_diagnostics = evaluator(*(axis[rows] for axis in flat))
        block = SweepResult(tuple(out_columns), list(columns),
                            list(block_diagnostics))
        if data is None:
            data = [np.empty(n, dtype=cells.dtype) for cells in block.data]
        for k, cells in enumerate(block.data):
            if data[k].dtype != cells.dtype:
                if {data[k].dtype, cells.dtype} != _FLAG_DTYPES:
                    raise ConsistencyError(f"column {out_columns[k]!r} changes"
                                           f" from {data[k].dtype} to {cells.dtype}")
                if data[k].dtype == bool:   # the first block with NaN flags
                    data[k] = data[k].astype(object)
            data[k][rows] = cells
        diagnostics += block.diagnostics
    names = tuple(name for name, _ in axes)
    return SweepResult(columns=names + tuple(out_columns), data=flat + data,
                       diagnostics=diagnostics, meta=dict(meta or {}, axes=names))


# ----- block evaluators -----

def _diagnostic(exc: UnruhSteerError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _name_rows(diagnostics, rows, check, *axes):
    """Name each of ``rows``, whose cells are NaN, by the UnruhSteerError of
    the scalar ``check`` at its inputs: "{Class}: {message}". The evaluators
    send exactly the rows their masks refuse, which their checks refuse too;
    a row the check accepts raises ConsistencyError."""
    for i in rows:
        try:
            check(*(float(axis[i]) for axis in axes))
        except UnruhSteerError as exc:
            diagnostics[i] = _diagnostic(exc)
        else:
            raise ConsistencyError(f"row {i}: the array mask refuses inputs"
                                   " that its scalar check accepts")


def eval_sic_free(omega: float, tau, accel):
    """Columns (R, sic) of the free-space equilibrium on a block's arrays,
    bit for bit the scalar path's; rows that ``UnruhParams`` (x = 0 here) or
    ``leaf_mask`` refuses are NaN, named by the scalar checks."""
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
    _name_rows(diagnostics, np.flatnonzero(~fast), point, tau, accel)
    return columns, diagnostics


def eval_surface(tau, ratio):
    """Columns SURFACE_COLUMNS of ``steerability_functional_free``.

    Its two readings, from ``coherence_sum_terms``, on a block's arrays; the
    singular point comes back NaN/False with the diagnostic "singular", and
    rows outside ``leaf_mask`` NaN, named by ``check_leaf``.
    """
    with np.errstate(all="ignore"):
        literal, absolute, singular = coherence_sum_terms(tau, ratio)
    singular_rows = np.flatnonzero(singular).tolist()
    literal[singular_rows] = absolute[singular_rows] = math.nan
    bad = np.flatnonzero(~leaf_mask(tau, ratio))
    flag = object if bad.size else bool   # NaN in a bool array reads True
    columns = [literal, absolute, (literal > SQRT6).astype(flag),
               (absolute > SQRT6).astype(flag)]
    for column in columns:
        column[bad] = math.nan
    diagnostics = [""] * tau.size
    for i in singular_rows:
        diagnostics[i] = "singular"
    _name_rows(diagnostics, bad, check_leaf, tau, ratio)
    return columns, diagnostics


def eval_boundary(omega: float, accel, z, sep):
    """Columns BOUNDARY_COLUMNS on a block's arrays, bit for bit the scalar
    path's: ``+ - * /`` on the arrays, which round as Python floats do, and
    powers, sqrt, sin and exp through the scalar functions per distinct
    argument (``model._each``).

    A row goes through the arrays exactly where ``kossakowski_boundary``
    accepts it: a valid omega, a > 0 (inf allowed), z and sep positive and
    finite, and finite image-point arguments (0 where they underflow). Its
    A/B cells come from ``model.boundary_pairs``; its x1, x3, value and
    satisfied cells, and its flags for coefficients too large for D,
    DegenerateLimit and DenominatorZero, from
    ``steering.boundary_verdict_rows``, where D, its gates and the
    criterion are stated once. Every other row is NaN, named by
    ``kossakowski_boundary``.
    """
    n = accel.size
    columns = [np.full(n, math.nan) for _ in BOUNDARY_COLUMNS[:-1]]
    columns.append(np.full(n, math.nan, dtype=object))
    diagnostics = [""] * n
    with np.errstate(all="ignore"):
        args = boundary_arguments(omega, z, sep)
        fast = ((accel > 0.0) & (0.0 < omega / (4.0 * math.pi) < math.inf)
                & (0.0 < z) & (z < math.inf) & (0.0 < sep) & (sep < math.inf))
        for arg in args:
            fast &= np.isfinite(arg)
        rows = np.flatnonzero(fast)
        free = free_coefficients(omega, 2.0 * math.pi / accel[rows] * omega)
        pairs = boundary_pairs(free, [arg[rows] for arg in args])
    verdicts, errors = boundary_verdict_rows(*pairs)
    kept = np.ones(rows.size, dtype=bool)
    kept[list(errors)] = False
    for column, cells in zip(columns, (*pairs, *verdicts)):
        column[rows[kept]] = cells[kept]
    for i, exc in errors.items():
        diagnostics[rows[i]] = _diagnostic(exc)

    def check(a, height, distance):
        kossakowski_boundary(UnruhParams(omega, a), height, distance)

    _name_rows(diagnostics, np.flatnonzero(~fast), check, accel, z, sep)
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


def _column_text(values, spell, strict=False) -> list:
    """Text of each cell of one column array (of one block), by its dtype.

    Floats go through ``spell``, a builtin mapped over the cells, and with
    ``strict`` (JSON) their non-finite cells through ``_to_json``. A spelled
    float costs ~0.6 us and an indexed cell a fraction of that, so each
    distinct bit pattern (-0.0 and 0.0 apart) is spelled once only where at
    most 3/4 of the block's cells are distinct; the cells of every other
    block are spelled directly. Bools read true/false. In an object column
    (NaN in a flag column) the bool cells do too, and the others go through
    float(), which raises TypeError for a cell that is not a number.
    """
    if values.dtype == bool:
        return _FLAG_TEXT[values.view(np.uint8)].tolist()
    if values.dtype == object:
        text = _FLAG_TEXT[values.astype(bool).view(np.uint8)]
        number = ~np.fromiter(map(_FLAG_TYPES.__contains__, map(type, values)),
                              bool, values.size)
        text[number] = _column_text(values[number].astype(float), spell, strict)
        return text.tolist()
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    cells = bits.view(float) if 4 * bits.size <= 3 * values.size else values
    text = list(map(spell, cells.tolist()))
    for i in np.flatnonzero(~np.isfinite(cells)).tolist() if strict else ():
        text[i] = json.dumps(_to_json(float(cells[i])))
    return text if cells is values else np.array(text, object)[where].tolist()


def _row_blocks(n: int):
    """Slices of at most ``BLOCK_ROWS`` rows that cover ``n`` rows in order."""
    return [slice(lo, lo + BLOCK_ROWS) for lo in range(0, n, BLOCK_ROWS)]


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
    for rows in _row_blocks(len(result.diagnostics)):
        cells = [_column_text(col[rows], "{:.17g}".format)
                 for col in result.data]
        if with_diagnostics:
            cells.append([diag and diag.replace(",", ";")
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
    # a row: each key's piece and its cell, the diagnostic, the close; the
    # comma that parts a row from the one before goes in the first piece
    row = [None] * (2 * len(result.columns)) + [None, "\n    }"]
    row[0:-2:2] = [f",\n      {json.dumps(name)}: " for name in result.columns]
    row[0] = ",\n    {" + row[0][1:]
    # the rows replace the empty list that closes the text
    head = text[:-len("[]\n}")] + "["
    for rows in _row_blocks(len(result.diagnostics)):
        diagnostics = result.diagnostics[rows]
        parts = row * len(diagnostics)
        for k, col in enumerate(result.data):
            parts[2 * k + 1::len(row)] = _column_text(col[rows], repr, True)
        parts[len(row) - 2::len(row)] = [
            diag and f",\n      {diag_key}: {json.dumps(diag)}" for diag in diagnostics]
        if head:   # no comma before the first row of the table
            parts[0] = parts[0][1:]
        yield head + "".join(parts)
        head = ""
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
