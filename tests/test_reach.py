"""src/grafenne holds only what the program runs. Every public module-level
function, class and constant of the package must be named somewhere other
than its own definition: in the package, the benchmark, the scripts, or
the naive reference that the benchmark's checks load. A name that only
tests reach belongs under tests/."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "grafenne"
READERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "bench").glob("*.py")),
           *sorted((ROOT / "scripts").glob("*.py")), ROOT / "tests" / "naive_ref.py"]


def _defines(stmt):
    """The public names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [n.id for t in stmt.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return {n for n in names if not n.startswith("_")}


def _named(node):
    """Every name a subtree mentions: names, attributes, imported names,
    and strings that are identifiers (the tracer wraps ops by name)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            out.add(sub.value)
    return out


def unreached_names():
    """Public module-level names of the package that nothing outside their
    own definitions names, as "module.name"."""
    defined, named = {}, set()
    for path in READERS:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = _defines(stmt) if path.parent == PACKAGE else set()
            for name in own:
                defined[name] = f"{path.stem}.{name}"
            named |= _named(stmt) - own
    return sorted(where for name, where in defined.items() if name not in named)


def test_no_public_name_of_the_package_is_reached_only_from_tests():
    unreached = unreached_names()
    assert not unreached, f"named only by tests, or not at all: {unreached}"


def test_the_scan_sees_definitions_and_every_kind_of_use():
    tree = ast.parse("import a.b as c\nfrom d import e\nX: int = 1\nZ, _w = 2, 3\n"
                     "def f():\n    return g.h(Y, 'op_name', 'not an identifier')\n")
    assert [_defines(s) for s in tree.body] == [set(), set(), {"X"}, {"Z"}, {"f"}]
    assert _named(tree) >= {"b", "e", "g", "h", "Y", "op_name"}
    assert "not an identifier" not in _named(tree)
