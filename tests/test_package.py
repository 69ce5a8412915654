"""The package's public surface: ``__all__`` matches what is importable."""

import unruh_steer


def test_all_names_resolve():
    names = unruh_steer.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from unruh_steer import *", namespace)
    for name in names:
        assert namespace[name] is getattr(unruh_steer, name)
