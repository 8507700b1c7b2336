"""Every name a source module imports is used in it, every absolute import
is from the standard library, and a relative import inside a function breaks
an import cycle (no linter is a dependency, so the checks parse the modules
with ast)."""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "monodyn"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements that no Name node reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def local_relative_imports(source: str) -> list[tuple[str, int]]:
    """(module, line) of the relative imports inside function bodies."""
    return sorted({(node.module or node.names[0].name, node.lineno)
                   for fn in ast.walk(ast.parse(source))
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, ast.ImportFrom) and node.level})


def top_relative_imports(source: str) -> set[str]:
    """The sibling modules a module imports at module level."""
    return {name for node in ast.parse(source).body
            if isinstance(node, ast.ImportFrom) and node.level
            for name in ([node.module] if node.module
                         else [alias.name for alias in node.names])}


def test_the_check_sees_unused_names():
    assert unused_imports("import os\nimport a.b\nfrom x import y as z\n"
                          "from __future__ import annotations\n") == [
        "a (line 2)", "os (line 1)", "z (line 3)"]
    assert unused_imports("import a.b\nfrom x import y\n"
                          "def f() -> y:\n    return a.b\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == [], path.name


def test_the_check_sees_local_imports():
    source = ("from .a import b\nfrom . import c, d\nimport e\n"
              "def f():\n    from .g import h\n    import i\n"
              "    def k():\n        from . import m\n")
    assert local_relative_imports(source) == [("g", 5), ("m", 8)]
    assert top_relative_imports(source) == {"a", "c", "d"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_local_imports_break_cycles(path):
    # a function-local import is kept only where the imported module
    # imports this one at module level; any other belongs at the top
    acyclic = [f"{module} (line {line})"
               for module, line in local_relative_imports(path.read_text())
               if path.stem not in
               top_relative_imports((SRC / f"{module}.py").read_text())]
    assert acyclic == [], path.name


def absolute_imports(source: str) -> set[str]:
    """The top-level modules a module imports by absolute name, in any
    scope."""
    tree = ast.parse(source)
    return ({alias.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names}
            | {node.module.split(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and not node.level})


def test_the_check_sees_absolute_imports():
    source = ("import os.path\nfrom . import a\nfrom .b import c\n"
              "def f():\n    import mpmath as mp\n"
              "    from fractions import Fraction\n")
    assert absolute_imports(source) == {"os", "mpmath", "fractions"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_src_needs_the_standard_library_alone(path):
    assert absolute_imports(path.read_text()) - sys.stdlib_module_names \
        == set(), path.name
