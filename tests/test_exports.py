"""Every exported name resolves, every imported name is used and every
error class is raised, so a deleted function leaves no stale export, import
or exception."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pjdna
from pjdna import errors


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


def _raised_or_subclassed(source: str) -> set[str]:
    """Names of the classes a module raises (``raise X`` or ``raise X(...)``,
    bare or as ``errors.X``) or subclasses."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found |= {exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)}
        elif isinstance(node, ast.ClassDef):
            found |= {b.id for b in node.bases if isinstance(b, ast.Name)}
    return found


def test_every_error_class_is_raised_or_subclassed():
    """An exception class that no module of the package raises or extends
    is a leftover of a deleted raiser."""
    classes = {name for name, obj in inspect.getmembers(errors, inspect.isclass)
               if issubclass(obj, BaseException) and obj.__module__ == errors.__name__}
    assert len(classes) > 5
    paths = sorted(pathlib.Path(pjdna.__file__).parent.glob("*.py"))
    used = set().union(*(_raised_or_subclassed(p.read_text()) for p in paths))
    assert not sorted(classes - used)


def test_raised_guard_sees_an_unraised_class():
    source = ("class A(Exception): pass\nclass B(A): pass\nclass C(A): pass\n"
              "def f():\n    raise B('x')\n")
    assert {"A", "B", "C"} - _raised_or_subclassed(source) == {"C"}
