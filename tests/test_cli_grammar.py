"""Property test of the CLI over its whole input grammar.

Every command runs with ``--omega``, ``--accel`` and its other float options
drawn from the edges of the float line: signed zeros, subnormals, values
next to 1, huge values, infinities, NaN and -1. Grid bounds come from the
same set, so many grids are usage errors and the rest reach the
evaluators. Sizes stay small (<= 3 points per grid axis, <= 3 samples,
<= 3 states), and each command's property runs under the ``deadline``
fixture. Every run must end in one of two ways:

- exit 0, with output that a strict JSON parser reads and no null cell in
  a row without a diagnostic (so every ``equilibrium`` table is null-free);
  its "inf"/"-inf" cells read back as floats, no state cell of an
  ``equilibrium`` or ``evolve`` table reads -0, and the R of a mirror
  ``equilibrium`` row is the free-space ratio of its (omega, a), bit for
  bit;
- exit 2 or 64, with one error line on stderr and nothing on stdout.

The commands that take ``--plot`` also run, on some draws, with ``--out``
to a CSV file and ``--plot``: on exit 0, every column index in the
script's ``using`` names a column of the CSV header; on any other exit,
neither file exists.
"""

import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import (HealthCheck, example, given, settings,  # noqa: E402
                        strategies as st)

from oracles import _from_json  # noqa: E402
from unruh_steer.cli import (DRAWN, EXIT_DOMAIN, EXIT_OK,  # noqa: E402
                             EXIT_USAGE, STATE_COLUMNS, main)
from unruh_steer.model import UnruhParams, kossakowski_free  # noqa: E402
from unruh_steer.sweeps import DIAGNOSTICS_COLUMN  # noqa: E402

EDGES = (0.0, -0.0, 5e-324, 1e-310, 1e-300, 1e-12, 1.0 - 1e-12, 1.0,
         1.0 + 1e-10, 1e12, 1e200, 1e308, math.inf, -math.inf, math.nan, -1.0,
         -1e308)
LEAVES = (-3.0, -1.0, 0.0, 0.25, 1.0)   # tau values inside [-3, 1]

edge = st.sampled_from(EDGES)
tau_value = st.sampled_from(LEAVES + EDGES)
small = st.integers(1, 3)
# grid bounds: positive and finite three times in four, so that most grids
# parse and reach the evaluators
bound = st.one_of(*[st.sampled_from([v for v in EDGES if 0.0 < v < math.inf])] * 3,
                  edge)


def _option(name, value):
    # the = form, so that a negative value is not read as an option
    return f"--{name}={value!r}"


def _values(name, values):
    return f"--{name}=" + ",".join(repr(v) for v in values)


@st.composite
def _grid(draw, name, bounds=bound):
    lo, hi = sorted([draw(bounds), draw(bounds)])
    scale = draw(st.sampled_from(("linear", "log")))
    return f"--grid={name}:{scale}:{lo!r}:{hi!r}:{draw(st.integers(2, 3))}"


@st.composite
def _equilibrium(draw):
    argv = ["equilibrium", _option("omega", draw(edge)),
            _option("accel", draw(edge))]
    tau = draw(tau_value)
    if draw(st.booleans()):
        argv += [_option("z", draw(edge)), _option("sep", draw(edge))]
        tau = draw(st.none() | st.just(tau))
    return argv + ([] if tau is None else [_option("tau", tau)])


@st.composite
def _evolve(draw):
    init = draw(st.sampled_from(("ground", "excited", "singlet", "tau-mixed")))
    argv = ["evolve", _option("omega", draw(edge)), _option("accel", draw(edge)),
            f"--init={init}", f"--samples={draw(small)}"]
    if init == "tau-mixed":
        argv.append(_option("tau", draw(tau_value)))
    t_end = draw(st.none() | edge)
    return argv + ([] if t_end is None else [_option("t-end", t_end)])


@st.composite
def _sic_sweep(draw):
    return ["sic-sweep", _option("omega", draw(edge)),
            _values("tau", draw(st.lists(tau_value, min_size=1, max_size=3))),
            draw(_grid("a"))]


@st.composite
def _tau_sweep(draw):
    return ["tau-sweep", _option("omega", draw(edge)),
            _values("accel", draw(st.lists(edge, min_size=1, max_size=3))),
            draw(_grid("tau", tau_value))]


@st.composite
def _surface(draw):
    return ["steerability-surface", draw(_grid("tau", tau_value)),
            draw(_grid("R", tau_value))]


@st.composite
def _boundary_scan(draw):
    return ["boundary-scan", _option("omega", draw(edge)), draw(_grid("a")),
            draw(_grid("z")), draw(_grid("L"))]


@st.composite
def _node(draw):
    return ["node", _option("omega", draw(edge)), _option("tau", draw(tau_value))]


@st.composite
def _theorem_check(draw):
    return ["theorem-check", f"--seed={draw(st.integers(0, 3))}",
            f"--count={draw(small)}"]


COMMANDS = {
    "equilibrium": _equilibrium(),
    "evolve": _evolve(),
    "sic-sweep": _sic_sweep(),
    "tau-sweep": _tau_sweep(),
    "steerability-surface": _surface(),
    "boundary-scan": _boundary_scan(),
    "node": _node(),
    "theorem-check": _theorem_check(),
}

# argvs run on every run: grids whose bounds are finite but whose span
# max - min overflows, and a mirror equilibrium at a = inf, whose JSON row
# spells a as "inf"
EXAMPLES = {
    "tau-sweep": ["tau-sweep", "--omega=1.0", "--accel=1.0",
                  "--grid=tau:linear:-1e308:1e308:3"],
    "steerability-surface": ["steerability-surface",
                             "--grid=tau:linear:-1e308:1e308:3",
                             "--grid=R:linear:0.0:1.0:2"],
    "equilibrium": ["equilibrium", "--omega=1.0", "--accel=inf", "--z=1.0",
                    "--sep=1.0"],
}


def _reject(token):
    raise ValueError(f"non-standard JSON token {token}")


def _check_table(text):
    table = json.loads(text, parse_constant=_reject)
    for row in _from_json(table["rows"], None):   # "inf"/"-inf" as floats
        signs = [math.copysign(1.0, row[name]) for name in STATE_COLUMNS
                 if row.get(name) == 0.0]
        assert -1.0 not in signs, f"-0 state cell in {row}"
        if table["meta"].get("geometry") == "boundary":
            free = kossakowski_free(UnruhParams(row["omega"], row["a"]))
            assert row["R"] == free.ratio, (row, free.ratio)
        if row.get(DIAGNOSTICS_COLUMN):
            continue
        nulls = [name for name, cell in row.items() if cell is None]
        assert not nulls, f"null {nulls} in an unflagged row {row}"


def _check_plot(table, script):
    header = table.read_text().split("\n", 1)[0].split(",")
    using = script.read_text().splitlines()[-1].split(" using ")[1].split()[0]
    for index in using.split(":"):
        assert 1 <= int(index) <= len(header), (using, header)


def _run(argv, capsys):
    """Exit code, stdout and stderr of one in-process run."""
    try:
        code = main(argv)
    except SystemExit as exc:   # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_grammar(command, tmp_path, capsys, deadline):
    table, script = tmp_path / "t.csv", tmp_path / "t.csv.gp"

    @settings(max_examples=80, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(COMMANDS[command], st.booleans())
    def run(argv, plot):
        for path in (table, script):
            path.unlink(missing_ok=True)
        plot = plot and command in DRAWN
        tail = ["--out", str(table), "--plot"] if plot else ["--format=json"]
        code, stdout, stderr = _run([*argv, *tail], capsys)
        assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_USAGE), (argv, code, stderr)
        if code == EXIT_OK:
            if plot:
                _check_plot(table, script)
            else:
                _check_table(stdout)
            return
        assert stdout == "", argv
        assert not (table.exists() or script.exists()), argv
        errors = [line for line in stderr.splitlines() if ": error: " in line]
        assert len(errors) == 1 and stderr.endswith(errors[0] + "\n"), stderr
        if not stderr.startswith("usage:"):
            assert stderr.startswith("unruh-steer: error: "), stderr
            assert stderr.count("\n") == 1, stderr

    if command in EXAMPLES:
        run = example(EXAMPLES[command], False)(run)
    run()

