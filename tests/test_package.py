"""The package's public surface: ``__all__`` matches what is importable,
and no module relies on ``assert`` for a runtime check."""

import ast
from pathlib import Path

import unruh_steer


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
