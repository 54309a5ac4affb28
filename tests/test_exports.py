"""Every exported name resolves and every imported name is used, so a
deleted function leaves no stale export or import."""

import ast
import importlib
import pathlib
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


def _annotation_names(node) -> set[str]:
    """Names in a quoted annotation such as ``-> "ReadPool"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return set()


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    """A module-level import whose name nothing reads (code, quoted
    annotations or ``__all__``) is a leftover of a deleted caller."""
    paths = sorted(pathlib.Path(pjdna.__file__).parent.glob("*.py"))
    assert len(paths) > 10
    stale = {p.name: _unused_imports(p.read_text()) for p in paths}
    assert not {name: found for name, found in stale.items() if found}


def test_stale_import_guard_sees_an_unused_name():
    source = "from .strand import DEFAULT_LAYOUT, ParseBatch\n\nx: 'DEFAULT_LAYOUT' = 1\n"
    assert _unused_imports(source) == ["ParseBatch (line 1)"]
