"""Command-line front end: equilibria, trajectories, and parameter sweeps.

Exit codes follow sysexits conventions where they exist: 0 success,
2 domain errors (bad physics parameters), 64 usage errors, 74 I/O errors.
Every subcommand writes CSV or JSON through the sweep-result machinery, so
outputs are byte-identical across runs. Sweeps run in one process, each
evaluator on whole grid axes.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import partial

import numpy as np

from . import __version__
from .errors import UnruhSteerError
from .model import (
    UnruhParams,
    equilibrium_boundary,
    equilibrium_free,
    evolve,
    kossakowski_boundary,
    kossakowski_free,
    relaxation_horizon,
    steering_node_acceleration,
)
from .qmat import FanoState, random_density_matrix
from .steering import SQRT6, steering_induced_coherence
from .sweeps import (
    BOUNDARY_COLUMNS,
    SIC_SWEEP_COLUMNS,
    SURFACE_COLUMNS,
    THEOREM_COLUMNS,
    GridSpec,
    SweepResult,
    eval_boundary,
    eval_sic_free,
    eval_surface,
    eval_theorem,
    result_to_csv,
    result_to_json,
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

FIG1_TAUS = (-3.0, -2.0, -1.0, -0.5, 0.5, 1.0)
FIG2_ACCELS = (1.0, 2.0 * math.pi, 50.0)


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


def _count_arg(text: str) -> int:
    if not (text.isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
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
    fmt = args.format or ("json" if (args.out or "").endswith(".json")
                          else "csv")
    if args.out:
        for line in summary:
            print(line)
        for path in write_result(result, args.out, fmt, plot=args.plot):
            print(f"wrote {path}")
    else:
        if args.plot:
            raise _UsageError("--plot requires --out")
        for line in summary:
            print(line, file=sys.stderr)
        sys.stdout.write(result_to_csv(result) if fmt == "csv"
                         else result_to_json(result))
    return EXIT_OK


# ----- subcommand handlers -----

def cmd_equilibrium(args) -> int:
    if (args.z is None) != (args.sep is None):
        raise _UsageError("--z and --sep must be given together")
    if args.accel is None:
        raise _UsageError("--accel is required")
    params = UnruhParams(args.omega, args.accel)
    if args.z is not None:
        coeffs = kossakowski_boundary(params, args.z, args.sep)
        eq = equilibrium_boundary(coeffs, fallback_tau=args.tau)
        columns = (("omega", "a", "z", "L", "R", "tau_eq", "trace_mismatch",
                    "is_limit") + STATE_COLUMNS)
        row = ((args.omega, args.accel, args.z, args.sep, coeffs.ratio,
                eq.tau_eq, eq.trace_mismatch, eq.is_limit)
               + tuple(eq.state.to_vector()))
        meta = {"command": "equilibrium", "geometry": "boundary",
                "omega": args.omega, "accel": args.accel,
                "z": args.z, "sep": args.sep, "axes": ()}
    else:
        if args.tau is None:
            raise _UsageError("--tau is required for the free geometry")
        coeffs = kossakowski_free(params)
        state = equilibrium_free(args.tau, coeffs.ratio)
        columns = ("omega", "a", "tau", "R") + STATE_COLUMNS
        row = ((args.omega, args.accel, args.tau, coeffs.ratio)
               + tuple(state.to_vector()))
        meta = {"command": "equilibrium", "geometry": "free",
                "omega": args.omega, "accel": args.accel,
                "tau": args.tau, "axes": ()}
    return _deliver(SweepResult(columns, [[cell] for cell in row], [""], meta),
                    args)


_INIT_STATES = ("ground", "excited", "singlet", "tau-mixed")


def _initial_state(name: str, tau) -> FanoState:
    if name in ("ground", "excited"):
        n = np.array([0.0, 0.0, 1.0 if name == "excited" else -1.0])
        return FanoState(n, n, np.outer(n, n))
    if name == "singlet":
        return FanoState(np.zeros(3), np.zeros(3), -np.eye(3))
    if tau is None:
        raise _UsageError("--init tau-mixed requires --tau")
    return FanoState(np.zeros(3), np.zeros(3), (tau / 3.0) * np.eye(3))


def cmd_evolve(args) -> int:
    if args.accel is None:
        raise _UsageError("--accel is required")
    state = _initial_state(args.init, args.tau)
    coeffs = kossakowski_free(UnruhParams(args.omega, args.accel))
    t_end = args.t_end if args.t_end is not None else relaxation_horizon(coeffs)
    samples = np.linspace(0.0, t_end, args.samples)
    traj = evolve(state, coeffs, t_end=t_end, sample_times=samples)
    columns = ("t",) + STATE_COLUMNS + ("tau",)
    vectors = np.array([s.to_vector() for s in traj.states])
    data = ([traj.times.tolist()] + vectors.T.tolist()
            + [[s.trace_sum for s in traj.states]])
    meta = {"command": "evolve", "omega": args.omega, "accel": args.accel,
            "init": args.init, "tau": traj.tau, "t_end": t_end,
            "samples": args.samples, "step": traj.step,
            "converged": traj.converged, "landing": traj.landing,
            "axes": ("t",)}
    result = SweepResult(columns=columns, data=data,
                         diagnostics=[""] * len(traj.states), meta=meta)
    summary = (f"converged = {traj.converged}"
               f" (distance to equilibrium {traj.landing:.3e})",)
    return _deliver(result, args, summary)


def cmd_sic_sweep(args) -> int:
    if args.preset == "fig1":
        taus, grid = list(FIG1_TAUS), GridSpec("a", "log", 0.5, 100.0, 200)
    elif args.tau is None:
        raise _UsageError("--tau list is required (or use --preset fig1)")
    else:
        taus, (grid,) = args.tau, _pick_grids(args.grid, ("a",))
    axes = (("tau", np.asarray(taus, dtype=float)), ("a", grid.values()))
    meta = {"command": "sic-sweep", "omega": args.omega, "tau": list(taus),
            "grid": grid.spec_string(), "preset": args.preset or "",
            "axes": ("tau", "a")}
    result = run_grid(axes, partial(eval_sic_free, args.omega),
                      SIC_SWEEP_COLUMNS, meta=meta)
    return _deliver(result, args)


def cmd_tau_sweep(args) -> int:
    if args.preset == "fig2":
        accels, grid = list(FIG2_ACCELS), GridSpec("tau", "linear", -3.0, 1.0, 201)
    elif args.accel is None:
        raise _UsageError("--accel list is required (or use --preset fig2)")
    else:
        accels, (grid,) = args.accel, _pick_grids(args.grid, ("tau",))
    axes = (("a", np.asarray(accels, dtype=float)), ("tau", grid.values()))
    meta = {"command": "tau-sweep", "omega": args.omega,
            "accel": list(accels), "grid": grid.spec_string(),
            "preset": args.preset or "", "axes": ("a", "tau")}
    result = run_grid(axes,
                      lambda accel, tau: eval_sic_free(args.omega, tau, accel),
                      SIC_SWEEP_COLUMNS, meta=meta)
    return _deliver(result, args)


def _surface_summary(result: SweepResult):
    kept = np.flatnonzero([not diag for diag in result.diagnostics])
    lines = []
    for form in ("literal", "absolute"):
        if kept.size == 0:
            lines.append(f"max {form} f: no unflagged grid points")
            continue
        values = np.asarray(result.column(form))[kept]
        row = kept[np.argmax(values)]
        tau, ratio = result.column("tau")[row], result.column("R")[row]
        best = values.max()
        verdict = "EXCEEDED" if best > SQRT6 else "NOT exceeded"
        lines.append(f"max {form} f = {best:.9g} at (tau = {tau:.9g},"
                     f" R = {ratio:.9g}), threshold sqrt(6) {verdict}")
    return tuple(lines)


def cmd_surface(args) -> int:
    if args.preset == "fig3":
        grids = [GridSpec("tau", "linear", -3.0, 1.0, 500),
                 GridSpec("R", "linear", 0.0, 1.0, 500)]
    else:
        grids = _pick_grids(args.grid, ("tau", "R"))
    axes = tuple((g.name, g.values()) for g in grids)
    meta = {"command": "steerability-surface",
            "grid": [g.spec_string() for g in grids],
            "preset": args.preset or "", "axes": ("tau", "R")}
    result = run_grid(axes, eval_surface, SURFACE_COLUMNS, meta=meta)
    return _deliver(result, args, _surface_summary(result))


def cmd_boundary_scan(args) -> int:
    grids = _pick_grids(args.grid, ("a", "z", "L"))
    axes = tuple((g.name, g.values()) for g in grids)
    meta = {"command": "boundary-scan", "omega": args.omega,
            "grid": [g.spec_string() for g in grids],
            "axes": ("a", "z", "L")}
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
        print(f"no steering node for tau = {args.tau:g} (tau <= 0)")
        row, diag = (args.tau, math.nan, math.nan), "no-node"
    elif a_star == 0.0:
        print(f"steering node for tau = {args.tau:g} only in the"
              " zero-acceleration limit")
        row, diag = (args.tau, 0.0, math.nan), "zero-acceleration-limit"
    else:
        state = equilibrium_free(args.tau, math.sqrt(args.tau))
        sic = steering_induced_coherence(state)
        print(f"steering node at a = {a_star:.9g} (omega = {args.omega:g});"
              f" sic(a*) = {sic:.3e}")
        row, diag = (args.tau, a_star, sic), ""
    if args.out:
        meta = {"command": "node", "omega": args.omega, "tau": args.tau,
                "axes": ()}
        return _deliver(SweepResult(("tau", "a_star", "sic"),
                                    [[cell] for cell in row], [diag], meta),
                        args)
    return EXIT_OK


def cmd_theorem_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    states = np.stack([random_density_matrix(rng) for _ in range(args.count)])
    axes = (("state_index", np.arange(args.count, dtype=float)),)
    meta = {"command": "theorem-check", "seed": args.seed,
            "count": args.count, "axes": ("state_index",)}
    result = run_grid(axes, partial(eval_theorem, states), THEOREM_COLUMNS,
                      meta=meta)
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

    def command(name, handler, about, omega=True):
        sub = subs.add_parser(name, help=about)
        sub.set_defaults(handler=handler)
        if omega:
            sub.add_argument("--omega", type=float, default=1.0)
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
    p.add_argument("--samples", type=_count_arg, default=201)

    p = command("sic-sweep", cmd_sic_sweep, "coherence vs acceleration")
    p.add_argument("--tau", type=_float_list)
    p.add_argument("--grid", type=_grid_arg, action="append")
    p.add_argument("--preset", choices=("fig1",))

    p = command("tau-sweep", cmd_tau_sweep, "coherence vs initial correlation")
    p.add_argument("--accel", type=_float_list)
    p.add_argument("--grid", type=_grid_arg, action="append")
    p.add_argument("--preset", choices=("fig2",))

    p = command("steerability-surface", cmd_surface,
                "criterion functional over (tau, R)", omega=False)
    p.add_argument("--grid", type=_grid_arg, action="append")
    p.add_argument("--preset", choices=("fig3",))

    p = command("boundary-scan", cmd_boundary_scan,
                "criterion verdict over (a, z, L)")
    p.add_argument("--grid", type=_grid_arg, action="append")

    p = command("node", cmd_node, "acceleration where coherence vanishes")
    p.add_argument("--tau", type=float, required=True)

    p = command("theorem-check", cmd_theorem_check,
                "SIC = MID identity on random states", omega=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_count_arg, default=100)

    for sub in subs.choices.values():
        sub.add_argument("--out",
                         help="output file; stdout (CSV/JSON text) if omitted")
        sub.add_argument("--format", choices=("csv", "json"),
                         help="default: by --out extension, else csv")
        sub.add_argument("--plot", action="store_true",
                         help="also write a gnuplot script next to --out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (_UsageError, UnruhSteerError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, _UsageError) else EXIT_DOMAIN
    except OSError as exc:
        print(f"{PROG}: io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
