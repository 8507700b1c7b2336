"""Every function, method, class and module-level constant defined in src/
is referenced somewhere in src/, tests/ or perfbench/.  A module-level
function, a class or a constant counts as used when a name it does not
assign, an attribute, an import alias or a string in perfbench (its span
targets name what they wrap) names it, so a table nothing reads fails.  A
method or property counts as used only when an attribute access (.name) or
a string in perfbench names it: a bare name that matches it is some other
variable, as q is.  No linter is a dependency, so the check parses the files with ast.

What it still cannot see: which class an attribute access reaches.  A
method that shares its name with another class's method counts as used
when the other one is, as Semigroup.support_primes did through the calls
of RadicalPoint.support_primes."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "monodyn").glob("*.py"))
READERS = SRC + sorted((ROOT / "tests").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def definitions(source: str) -> list[tuple[str, int, bool]]:
    """(name, line, is a method) of the functions, methods and classes a
    module defines, then of the names its top-level assignments bind,
    dunders aside: Python calls those methods itself, and __version__ is
    read from outside."""
    tree = ast.parse(source)
    methods = {id(node) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in cls.body}
    defs = [(node.name, node.lineno, id(node) in methods)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))]
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            defs += [(node.id, node.lineno, False) for target in targets
                     for node in ast.walk(target)
                     if isinstance(node, ast.Name)]
    return [(name, line, method) for name, line, method in defs
            if not (name.startswith("__") and name.endswith("__"))]


def references(source: str, strings: bool = False) -> tuple[set, set]:
    """(names, attributes): the names a module reads and imports, and the
    attributes it takes; with strings, its string constants join both.  A
    name it only assigns is not read."""
    names, attrs = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            names.add(node.value)
            attrs.add(node.value)
    return names, attrs


def dead(sources: list[str], readers: list[str],
         perfbench: list[str]) -> list[tuple[int, str, int]]:
    """(source index, name, line) of each definition that nothing uses."""
    names, attrs = set(), set()
    for source, strings in ([(s, False) for s in readers]
                            + [(s, True) for s in perfbench]):
        more_names, more_attrs = references(source, strings)
        names |= more_names
        attrs |= more_attrs
    return [(i, name, line) for i, source in enumerate(sources)
            for name, line, method in definitions(source)
            if name not in (attrs if method else names | attrs)]


def test_the_check_sees_dead_definitions():
    source = ("class A:\n    def used(self):\n        return self.used\n"
              "    def dead(self):\n        pass\n    def __eq__(self, o):\n"
              "        pass\n    @property\n    def q(self):\n        pass\n"
              "def f():\n    pass\nfrom m import g\nq = 1\nprint(q)\n"
              "_TABLE: tuple = (2, 3, 5)\n__version__ = '0'\n")
    assert definitions(source) == [("A", 1, False), ("f", 11, False),
                                   ("used", 2, True), ("dead", 4, True),
                                   ("q", 9, True), ("q", 14, False),
                                   ("_TABLE", 16, False)]
    names, attrs = references(source)
    assert "g" in names and "used" in attrs and "q" in names - attrs
    assert "dead" not in names | attrs | references(source, True)[0]
    assert "_TABLE" not in names | attrs        # assigned, never read
    assert "x" in references("t = ('x', 1)\n", strings=True)[1]
    assert "x" not in references("t = ('x', 1)\n")[1]
    # q, a method, is read only as a bare name; f, a function, by its name;
    # the constant q is read by print, the planted _TABLE by nothing
    user = "from mod import A, f\nf(A())\n"
    assert dead([source], [source, user], []) == [(0, "dead", 4),
                                                  (0, "q", 9),
                                                  (0, "_TABLE", 16)]
    assert dead([source], [source, user], ["x = 'q'\n"]) == [(0, "dead", 4),
                                                             (0, "_TABLE", 16)]
    assert dead([source], [source, user + "print(mod._TABLE)\n"], []) == \
        [(0, "dead", 4), (0, "q", 9)]


def test_no_dead_definitions():
    found = dead([path.read_text() for path in SRC],
                 [path.read_text() for path in READERS],
                 [path.read_text() for path in PERFBENCH])
    assert [f"{SRC[i].name}: {name} (line {line})"
            for i, name, line in found] == []


# read from tests/ alone: none since the oracles moved to tests/oracles.py,
# and no definition may join
TEST_ONLY = []


def test_src_definitions_read_only_by_tests():
    """The definitions in src/ that nothing in src/ or perfbench/ reads,
    the exports of monodyn/__init__ counting as src/ reads: exactly those
    of TEST_ONLY, so a new definition that only a test calls fails."""
    sources = [path.read_text() for path in SRC]
    found = dead(sources, sources, [path.read_text() for path in PERFBENCH])
    assert sorted(f"{SRC[i].name}: {name}" for i, name, _ in found) \
        == TEST_ONLY
