"""Every exported name resolves, so a deleted function leaves no stale export."""

import importlib
import pkgutil

import pjdna


def test_every_name_in_all_resolves():
    modules = [pjdna] + [
        importlib.import_module(f"pjdna.{info.name}") for info in pkgutil.iter_modules(pjdna.__path__)
    ]
    assert len(modules) > 10
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"
