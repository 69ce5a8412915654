"""Command-line front end: equilibria, trajectories, and parameter sweeps.

Exit codes follow sysexits conventions where they exist: 0 success,
2 domain errors (bad physics parameters), 64 usage errors, 74 I/O errors.
Every subcommand writes CSV or JSON through the sweep-result machinery, so
outputs are byte-identical across runs. Sweeps run in one process, each
evaluator on blocks of grid rows (``sweeps.run_grid``).
"""

from __future__ import annotations

import argparse
import math
import operator
import sys
from functools import partial

import numpy as np

from . import __version__
from .errors import UnruhSteerError
from .model import (
    UnruhParams,
    check_leaf,
    check_omega,
    check_rows,
    equilibrium_boundary,
    equilibrium_free,
    evolve,
    kossakowski_boundary,
    kossakowski_free,
    steering_node_acceleration,
)
from .qmat import (FanoState, fano_vectors, random_density_matrix,
                   require_state)
from .steering import SQRT6, sic_mid_rows, steering_induced_coherence
from .sweeps import (
    BOUNDARY_COLUMNS,
    SIC_SWEEP_COLUMNS,
    SURFACE_COLUMNS,
    THEOREM_COLUMNS,
    WRITERS,
    GridSpec,
    SweepResult,
    eval_boundary,
    eval_sic_free,
    eval_surface,
    run_grid,
    write_result,
)

PROG = "unruh-steer"
EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_USAGE = 64
EXIT_IO = 74

STATE_COLUMNS = ("ax", "ay", "az", "bx", "by", "bz",
                 "txx", "txy", "txz", "tyx", "tyy", "tyz",
                 "tzx", "tzy", "tzz")

# command -> preset -> the options it sets; giving one of them too is a usage error
PRESETS = {
    "sic-sweep": {"fig1": {"tau": (-3.0, -2.0, -1.0, -0.5, 0.5, 1.0),
                           "grid": (GridSpec("a", "log", 0.5, 100.0, 200),)}},
    "tau-sweep": {"fig2": {"accel": (1.0, 2.0 * math.pi, 50.0),
                           "grid": (GridSpec("tau", "linear", -3.0, 1.0, 201),)}},
    "steerability-surface": {"fig3": {
        "grid": (GridSpec("tau", "linear", -3.0, 1.0, 500),
                 GridSpec("R", "linear", 0.0, 1.0, 500))}},
}

# command -> its list option, that list's axis, the grid's axis, its help
SIC_SWEEPS = {"sic-sweep": ("tau", "tau", "a", "coherence vs acceleration"),
              "tau-sweep": ("accel", "a", "tau", "coherence vs initial correlation")}

# command -> the column its --plot script draws; the one-row tables take no --plot
DRAWN = {"evolve": "az", "sic-sweep": "sic", "tau-sweep": "sic",
         "steerability-surface": "literal", "boundary-scan": "value",
         "theorem-check": "sic"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve that
    for domain errors and use 64 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _float_list(text: str):
    try:
        values = [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty number list")
    return values


def _int_arg(text: str, minimum: int = 1) -> int:
    if not (text.isdecimal() and int(text) >= minimum):
        raise argparse.ArgumentTypeError(
            f"must be an integer >= {minimum}, got {text!r}")
    return int(text)


def _grid_arg(text: str) -> GridSpec:
    try:
        return GridSpec.parse(text)
    except UnruhSteerError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _pick_grids(grids, names):
    """Reorder --grid specs into canonical order; demand an exact set."""
    grids = grids or []
    have = [g.name for g in grids]
    if sorted(have) != sorted(names):
        raise _UsageError(
            f"expected --grid for {', '.join(names)}; got {', '.join(have) or 'none'}")
    by_name = {g.name: g for g in grids}
    return [by_name[name] for name in names]


def _deliver(result: SweepResult, args, summary=()):
    result.meta = {"command": args.command, **result.meta}
    fmt = args.format or ("json" if (args.out or "").endswith(".json")
                          else "csv")
    if args.out:
        for line in summary:
            print(line)
        for path in write_result(result, args.out, fmt, plot=args.plot):
            print(f"wrote {path}")
    else:
        for line in summary:
            print(line, file=sys.stderr)
        sys.stdout.writelines(WRITERS[fmt](result))
    return EXIT_OK


# ----- subcommand handlers -----

def cmd_equilibrium(args) -> int:
    if (args.z is None) != (args.sep is None):
        raise _UsageError("--z and --sep must be given together")
    if args.accel is None:
        raise _UsageError("--accel is required")
    params = UnruhParams(args.omega, args.accel)
    if args.z is not None:
        if args.tau is not None:
            raise _UsageError("--tau is not taken with --z and --sep: the"
                              " mirror equilibrium sits on tau = R^2")
        coeffs = kossakowski_boundary(params, args.z, args.sep)
        ratio = coeffs.ratio
        columns = ("omega", "a", "z", "L", "R", "tau") + STATE_COLUMNS
        row = ((args.omega, args.accel, args.z, args.sep, ratio, ratio * ratio)
               + tuple(equilibrium_boundary(coeffs).to_vector()))
        meta = {"geometry": "boundary", "omega": args.omega,
                "accel": args.accel, "z": args.z, "sep": args.sep, "axes": ()}
    else:
        if args.tau is None:
            raise _UsageError("--tau is required for the free geometry")
        coeffs = kossakowski_free(params)
        state = equilibrium_free(args.tau, coeffs.ratio)
        columns = ("omega", "a", "tau", "R") + STATE_COLUMNS
        row = ((args.omega, args.accel, args.tau, coeffs.ratio)
               + tuple(state.to_vector()))
        meta = {"geometry": "free", "omega": args.omega,
                "accel": args.accel, "tau": args.tau, "axes": ()}
    return _deliver(SweepResult(columns, [np.array([cell]) for cell in row],
                                [""], meta), args)


_INIT_STATES = ("ground", "excited", "singlet", "tau-mixed")


def _initial_state(name: str, tau) -> FanoState:
    if (name == "tau-mixed") != (tau is not None):
        raise _UsageError("--init tau-mixed needs --tau, and no other --init takes it")
    # T is diagonal, built by np.diag so that no cell is -0 (+ 0.0 maps a
    # tau of -0 to 0); FanoState refuses a tau of +-inf or NaN
    if name in ("ground", "excited"):
        n = np.array([0.0, 0.0, 1.0 if name == "excited" else -1.0])
        return FanoState(n, n, np.diag([0.0, 0.0, 1.0]))
    diagonal = -1.0 if name == "singlet" else tau / 3.0 + 0.0
    state = FanoState(np.zeros(3), np.zeros(3), np.diag([diagonal] * 3))
    check_leaf(state.trace_sum)   # tau off the leaf: its own message, not NotPositive
    return state


def cmd_evolve(args) -> int:
    if args.accel is None:
        raise _UsageError("--accel is required")
    state = _initial_state(args.init, args.tau)
    coeffs = kossakowski_free(UnruhParams(args.omega, args.accel))
    traj = evolve(state, coeffs, t_end=args.t_end, samples=args.samples)
    columns = ("t",) + STATE_COLUMNS + ("tau",)
    traces = np.trace(traj.vectors[:, 6:].reshape(-1, 3, 3), axis1=1, axis2=2)
    data = [traj.times, *traj.vectors.T, traces]
    meta = {"omega": args.omega, "accel": args.accel, "init": args.init,
            "tau": traj.tau, "t_end": float(traj.times[-1]),
            "samples": args.samples, "step": traj.step,
            "converged": traj.converged, "landing": traj.landing,
            "axes": ("t",)}
    result = SweepResult(columns=columns, data=data,
                         diagnostics=[""] * len(traj.times), meta=meta)
    summary = (f"converged = {traj.converged}"
               f" (distance to equilibrium {traj.landing:.3e})",)
    return _deliver(result, args, summary)


def cmd_sic_sweep(args) -> int:
    option, listed, gridded, _ = SIC_SWEEPS[args.command]
    values = getattr(args, option)
    if values is None:
        raise _UsageError(f"--{option} list is required"
                          f" (or use --preset {', '.join(PRESETS[args.command])})")
    (grid,) = _pick_grids(args.grid, (gridded,))
    axes = ((listed, np.asarray(values, dtype=float)), (gridded, grid.values()))
    meta = {"omega": args.omega, option: list(values),
            "grid": grid.spec_string(), "preset": args.preset or ""}

    def evaluate(*flat):
        cells = dict(zip((listed, gridded), flat))
        return eval_sic_free(args.omega, cells["tau"], cells["a"])

    return _deliver(run_grid(axes, evaluate, SIC_SWEEP_COLUMNS, meta=meta), args)


def _surface_summary(result: SweepResult):
    n = len(result.diagnostics)
    kept = np.fromiter(map(operator.not_, result.diagnostics), bool, n)
    lines = []
    for form in ("literal", "absolute"):
        if not kept.any():
            lines.append(f"max {form} f: no unflagged grid points")
            continue
        values = np.where(kept, result.column(form), -math.inf)
        row = int(np.argmax(values))
        tau, ratio = result.column("tau")[row], result.column("R")[row]
        best = values[row]
        verdict = "EXCEEDED" if best > SQRT6 else "NOT exceeded"
        lines.append(f"max {form} f = {best:.9g} at (tau = {tau:.9g},"
                     f" R = {ratio:.9g}), threshold sqrt(6) {verdict}")
    return tuple(lines)


def cmd_surface(args) -> int:
    grids = _pick_grids(args.grid, ("tau", "R"))
    axes = tuple((g.name, g.values()) for g in grids)
    meta = {"grid": [g.spec_string() for g in grids],
            "preset": args.preset or ""}
    result = run_grid(axes, eval_surface, SURFACE_COLUMNS, meta=meta)
    return _deliver(result, args, _surface_summary(result))


def cmd_boundary_scan(args) -> int:
    grids = _pick_grids(args.grid, ("a", "z", "L"))
    axes = tuple((g.name, g.values()) for g in grids)
    meta = {"omega": args.omega, "grid": [g.spec_string() for g in grids]}
    result = run_grid(axes, partial(eval_boundary, args.omega),
                      BOUNDARY_COLUMNS, meta=meta)
    n_sat = sum(1 for flag in result.column("satisfied") if flag is True)
    n_diag = sum(1 for diag in result.diagnostics if diag)
    summary = (f"criterion satisfied at {n_sat} of {len(result.diagnostics)}"
               f" points ({n_diag} rows flagged)",)
    return _deliver(result, args, summary)


def cmd_node(args) -> int:
    a_star = steering_node_acceleration(args.tau, args.omega)
    if a_star is None:
        line = f"no steering node for tau = {args.tau:g} (tau <= 0)"
        row, diag = (args.tau, math.nan, math.nan), "no-node"
    elif a_star == 0.0:
        line = (f"steering node for tau = {args.tau:g} only in the"
                " zero-acceleration limit")
        row, diag = (args.tau, 0.0, math.nan), "zero-acceleration-limit"
    else:
        state = equilibrium_free(args.tau, math.sqrt(args.tau))
        sic = steering_induced_coherence(state)
        line = (f"steering node at a = {a_star:.9g} (omega = {args.omega:g});"
                f" sic(a*) = {sic:.3e}")
        row, diag = (args.tau, a_star, sic), ""
    meta = {"omega": args.omega, "tau": args.tau, "axes": ()}
    return _deliver(SweepResult(("tau", "a_star", "sic"),
                                [np.array([cell]) for cell in row], [diag],
                                meta), args, (line,))


def cmd_theorem_check(args) -> int:
    check_rows(args.count)
    rng = np.random.default_rng(args.seed)

    def evaluate(index):
        drawn = np.array([random_density_matrix(rng) for _ in range(index.size)])
        block = fano_vectors(drawn)
        require_state(drawn)
        return sic_mid_rows(block), [""] * index.size

    axes = (("state_index", np.arange(args.count, dtype=float)),)
    meta = {"seed": args.seed, "count": args.count}
    result = run_grid(axes, evaluate, THEOREM_COLUMNS, meta=meta)
    residual = max(result.column("residual"))
    summary = (f"max |sic - mid| = {residual:.3e} over {args.count} states"
               f" (seed {args.seed})",)
    return _deliver(result, args, summary)


# ----- parser -----

def build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"{PROG} {__version__}")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    def command(name, handler, about, omega=True, grid=False):
        sub = subs.add_parser(name, help=about)
        sub.set_defaults(handler=handler, plot=None, parser=sub)
        if omega:
            sub.add_argument("--omega", type=float, default=1.0)
        if grid:
            sub.add_argument("--grid", type=_grid_arg, action="append")
        if name in PRESETS:
            sub.add_argument("--preset", choices=tuple(PRESETS[name]))
        return sub

    p = command("equilibrium", cmd_equilibrium, "asymptotic state coefficients")
    p.add_argument("--accel", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--z", type=float)
    p.add_argument("--sep", type=float)

    p = command("evolve", cmd_evolve, "integrate toward equilibrium")
    p.add_argument("--accel", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--init", choices=_INIT_STATES, default="ground")
    p.add_argument("--t-end", type=float, dest="t_end")
    p.add_argument("--samples", type=_int_arg, default=201)

    for name, (option, *_, about) in SIC_SWEEPS.items():
        p = command(name, cmd_sic_sweep, about, grid=True)
        p.add_argument(f"--{option}", type=_float_list)

    command("steerability-surface", cmd_surface,
            "criterion functional over (tau, R)", omega=False, grid=True)

    command("boundary-scan", cmd_boundary_scan,
            "criterion verdict over (a, z, L)", grid=True)

    p = command("node", cmd_node, "acceleration where coherence vanishes")
    p.add_argument("--tau", type=float, required=True)

    p = command("theorem-check", cmd_theorem_check,
                "SIC = MID identity on random states", omega=False)
    p.add_argument("--seed", type=partial(_int_arg, minimum=0), default=0)
    p.add_argument("--count", type=_int_arg, default=100)

    for name, sub in subs.choices.items():
        sub.add_argument("--out",
                         help="output file; stdout (CSV/JSON text) if omitted")
        sub.add_argument("--format", choices=tuple(WRITERS),
                         help="default: by --out extension, else csv")
        if name in DRAWN:
            sub.add_argument("--plot", action="store_const", const=DRAWN[name],
                             help="also write a gnuplot script next to --out")
    return parser


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:   # argparse would report them with the top-level usage line
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        preset = getattr(args, "preset", None)
        for name, value in PRESETS.get(args.command, {}).get(preset, {}).items():
            if getattr(args, name) is not None:
                raise _UsageError(f"--preset {preset} sets --{name} itself")
            setattr(args, name, value)
        if hasattr(args, "omega"):
            check_omega(args.omega)
        if args.plot and not args.out:
            raise _UsageError("--plot requires --out")
        return args.handler(args)
    except (_UsageError, UnruhSteerError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, _UsageError) else EXIT_DOMAIN
    except OSError as exc:
        print(f"{PROG}: io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
