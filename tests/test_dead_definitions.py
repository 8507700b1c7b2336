"""Every function, method and class defined in src/ is referenced: by a
name, an attribute or an import alias somewhere in src/, tests/ or
perfbench/, or by a string in perfbench (its span targets name what they
wrap).  No linter is a dependency, so the check parses the files with ast."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "monodyn").glob("*.py"))
READERS = SRC + sorted((ROOT / "tests").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def definitions(source: str) -> list[tuple[str, int]]:
    """(name, line) of the functions, methods and classes a module defines,
    dunder methods aside: Python calls those itself."""
    return [(node.name, node.lineno) for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def references(source: str, strings: bool = False) -> set[str]:
    """The names a module reads, the attributes it takes and the names it
    imports; with strings, also its string constants."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            out.add(node.value)
    return out


def test_the_check_sees_dead_definitions():
    source = ("class A:\n    def used(self):\n        return self.used\n"
              "    def dead(self):\n        pass\n    def __eq__(self, o):\n"
              "        pass\ndef f():\n    pass\nfrom m import g\n")
    assert definitions(source) == [("A", 1), ("f", 8), ("used", 2),
                                   ("dead", 4)]
    assert {"used", "g"} <= references(source)
    assert "dead" not in references(source) | references(source, True)
    assert "x" in references("t = ('x', 1)\n", strings=True)
    assert "x" not in references("t = ('x', 1)\n")


def test_no_dead_definitions():
    used = set()
    for path in READERS:
        used |= references(path.read_text())
    for path in PERFBENCH:
        used |= references(path.read_text(), strings=True)
    dead = [f"{path.name}: {name} (line {line})" for path in SRC
            for name, line in definitions(path.read_text())
            if name not in used]
    assert dead == []
