"""The package's public surface: ``__all__`` is an explicit list and matches
what is importable, no module relies on ``assert`` for a runtime check,
the README's Library example runs against the current API, and the mutant
table of ``mutants.py`` still applies to the source."""

import ast
import contextlib
import io
from pathlib import Path

import pytest

import unruh_steer
from mutants import stale_entries


PUBLIC_NAMES = [
    "ConsistencyError",
    "DegenerateLimit", "DenominatorZero", "DomainError", "FanoState",
    "GridSpec", "KossakowskiBoundary", "KossakowskiFree", "NonHermitian",
    "NotPositive", "SicSolution", "SteerabilityFree", "SweepResult",
    "Trajectory", "UnphysicalDrift", "UnruhParams", "UnruhSteerError",
    "__version__", "concurrence", "equilibrium_boundary", "equilibrium_free",
    "evolve", "fano_to_matrix", "kossakowski_boundary", "kossakowski_free",
    "matrix_to_fano", "ode_rhs", "one_sided_mid",
    "random_density_matrix", "random_fano_state", "relaxation_horizon",
    "run_grid", "sic_closed_form_free", "sic_solution",
    "steerability_functional_free",
    "steering_induced_coherence", "steering_node_acceleration",
    "theorem1_residual",
]


def test_public_surface_is_pinned():
    # adding or dropping a public name is a deliberate edit of this list
    assert sorted(unruh_steer.__all__) == PUBLIC_NAMES


def test_all_names_resolve():
    names = unruh_steer.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from unruh_steer import *", namespace)
    for name in names:
        assert namespace[name] is getattr(unruh_steer, name)


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so runtime checks must raise
    root = Path(unruh_steer.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(root.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert len(list(root.glob("*.py"))) >= 7
    assert found == []


def test_no_unused_module_level_imports():
    # a name a module imports at top level must be read in that module, or,
    # in the package's __init__, be exported through __all__
    root = Path(unruh_steer.__file__).parent
    unused = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                read.update(ast.literal_eval(node.value))
        unused += [f"{path.name}:{node.lineno} {alias.name}"
                   for node in tree.body
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for alias in node.names
                   if (alias.asname or alias.name).split(".")[0] not in read]
    assert unused == []


# numpy's elementwise transcendentals: their loops need not round as libm
# does (ROADMAP item 3), so the package takes each through the scalar
# function (model._each); np.geomspace, which spaces log grids, is the one
# named exception, and np.sqrt and np.linalg are outside this policy
NUMPY_TRANSCENDENTALS = frozenset((
    "exp", "exp2", "expm1", "log", "log10", "log1p", "log2", "logaddexp",
    "logaddexp2", "logspace", "sin", "cos", "tan", "sinh", "cosh", "tanh",
    "arcsin", "arccos", "arctan", "arctan2", "arcsinh", "arccosh", "arctanh",
    "power", "float_power", "sinc"))


def test_no_numpy_transcendentals_in_package():
    root = Path(unruh_steer.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                module, names = node.value.id, [node.attr]
            elif isinstance(node, ast.ImportFrom):
                module, names = node.module, [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {module}.{name}" for name in names
                      if module in ("np", "numpy") and name in NUMPY_TRANSCENDENTALS]
    assert found == []


def _evaluator_nodes():
    """("function:line", node) for each node of each eval_* function of sweeps.py."""
    path = Path(unruh_steer.__file__).parent / "sweeps.py"
    return [(f"{func.name}:{node.lineno}", node)
            for func in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(func, ast.FunctionDef) and func.name.startswith("eval_")
            for node in ast.walk(func) if hasattr(node, "lineno")]


def test_sweep_evaluators_leave_flag_columns_to_name_rows():
    # a flag column is bool, and turns object only where sweeps._name_rows
    # NaNs a row: no evaluator makes an object column of its own
    assert [where for where, node in _evaluator_nodes()
            if isinstance(node, ast.Name) and node.id == "object"] == []


def test_sweep_evaluators_pass_raw_inputs():
    # the thermal factor and sinc are defined on every float, so an
    # evaluator computes each row at its own inputs: no np.where stand-ins
    # for the rows its mask refuses
    assert [where for where, node in _evaluator_nodes()
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) in ("np.where", "numpy.where")] == []


def test_readme_library_example_runs():
    # the ```python block under "## Library" is executed as written
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block.split("```", 1)[0], "README.md", "exec"), {})
    sic, closed_form, axis, mid = out.getvalue().splitlines()
    # the SVD, the closed form and MID agree, as the comments say
    assert float(closed_form) == pytest.approx(float(sic), abs=1e-12)
    assert float(mid) == pytest.approx(float(sic), abs=1e-12)
    assert axis.startswith("[")


def test_mutant_table_applies_to_the_source():
    # runs no mutant: an edit to mutated code, or a renamed test, shows here
    assert stale_entries() == []
