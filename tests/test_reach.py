"""src/grafenne holds only what the program runs, checked two ways.

The name scan: every public module-level function, class and constant of
the package must be named somewhere other than its own definition: in the
package, the benchmark, the scripts, or the naive reference that the
benchmark's checks load. Every attribute a package class declares (a
dataclass field, or a `self.x =` assignment) must be read as an attribute
somewhere in those same files: one that is only written holds nothing
the program uses.

The traced traffic: the program's own traffic, every subcommand through
cli.main plus the naive reference, runs under a call tracer, and every
function, method and property of the package must be entered. A name only
tests reach, or a function nothing calls, belongs under tests/ or nowhere.
The ops that bench/tracing.py wraps by name (its TENSOR_OPS) are exempt,
read from that file, until the benchmark stops naming them. The same
traffic records the scalar arguments of every public tensor op: a
parameter that the program only ever passes one value is a constant
written as an argument.
"""

import ast
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import grafenne
import grafenne.tensor as T
from grafenne.cli import main
from grafenne.graph import load_graph
from grafenne.model import GrafenneConfig, GrafenneModel
from grafenne.tasks import METHODS
from naive_ref import naive_forward

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "grafenne"
READERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "bench").glob("*.py")),
           *sorted((ROOT / "scripts").glob("*.py")), ROOT / "tests" / "naive_ref.py"]
TOY = ROOT / "data" / "toy"


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


def _declared(cls):
    """The attributes a class statement declares: its annotated fields and
    every `self.x` it assigns."""
    out = {s.target.id for s in cls.body
           if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)}
    return out | {sub.attr for sub in ast.walk(cls)
                  if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                  and isinstance(sub.value, ast.Name) and sub.value.id == "self"}


def _read_attributes(node):
    """Every attribute name a subtree reads (`x.name` in a load)."""
    return {sub.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}


def write_only_attributes():
    """The attributes of package classes that no reader reads, as
    "module.Class.attribute"."""
    declared, read = {}, set()
    for path in READERS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.parent == PACKAGE:
            for stmt in tree.body:
                if isinstance(stmt, ast.ClassDef):
                    declared.update({f"{path.stem}.{stmt.name}.{attr}": attr
                                     for attr in _declared(stmt)})
        read |= _read_attributes(tree)
    return sorted(where for where, attr in declared.items() if attr not in read)


def test_no_attribute_of_a_package_class_is_only_written():
    written_only = write_only_attributes()
    assert not written_only, f"written, never read: {written_only}"


def test_the_attribute_scan_sees_fields_self_assignments_and_reads():
    cls = ast.parse("class C:\n    a: int\n    b = 1\n"
                    "    def __init__(self, o):\n        self.c, o.d = 1, 2\n"
                    "        self.e += self.f\n").body[0]
    assert _declared(cls) == {"a", "c", "e"}
    assert _read_attributes(cls) == {"f"}


def test_the_scan_sees_definitions_and_every_kind_of_use():
    tree = ast.parse("import a.b as c\nfrom d import e\nX: int = 1\nZ, _w = 2, 3\n"
                     "def f():\n    return g.h(Y, 'op_name', 'not an identifier')\n")
    assert [_defines(s) for s in tree.body] == [set(), set(), {"X"}, {"Z"}, {"f"}]
    assert _named(tree) >= {"b", "e", "g", "h", "Y", "op_name"}
    assert "not an identifier" not in _named(tree)


# ------------------------------------------------------------ traced traffic


SCALARS = (int, float, str, type(None), np.generic)  # bool is an int
OTHER = object()  # the one value every non-scalar argument counts as


def traced(run, watch=None):
    """The code objects of every frame entered while run() runs, and, for
    each code object of `watch` (code -> function name), a map
    (function name, parameter) -> the set of values its arguments took,
    each non-scalar argument counted as OTHER. Calls are recorded and no
    line is traced; the previous trace function returns."""
    entered, seen = set(), {}
    watch = watch or {}

    def tracer(frame, event, arg):
        code = frame.f_code
        entered.add(code)
        if code in watch:
            args = frame.f_locals
            for param in code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]:
                value = args[param]
                seen.setdefault((watch[code], param), set()).add(
                    value if isinstance(value, SCALARS) else OTHER)

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(previous)
    return entered, seen


def _code_of(obj):
    """The code objects of a class attribute: a function's, a property's
    accessors', a static or class method's function's."""
    if isinstance(obj, property):
        return [f.__code__ for f in (obj.fget, obj.fset, obj.fdel) if f is not None]
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    return [obj.__code__] if inspect.isfunction(obj) else []


def _in_package(code):
    return Path(code.co_filename).resolve().parent == PACKAGE


def _package_modules():
    return [importlib.import_module(f"grafenne.{info.name}")
            for info in pkgutil.iter_modules(grafenne.__path__)]


def functions_in_scope():
    """code object -> name ("module.function" or "Class.member") of every
    module-level function of the package and every method, property and
    static method of its classes, dunders other than __init__ left out.
    Code that dataclasses generate lives in no package file, and nested
    closures are no module or class attribute: neither is in scope."""
    scope = {}
    for module in _package_modules():
        stem = module.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, member in vars(obj).items():
                    if attr.startswith("__") and attr != "__init__":
                        continue
                    for code in _code_of(member):
                        scope[code] = f"{name}.{attr}"
            elif callable(obj):
                fn = inspect.unwrap(obj)  # through functools.lru_cache
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    scope[fn.__code__] = f"{stem}.{name}"
    return {code: name for code, name in scope.items() if _in_package(code)}


def benchmark_tensor_ops():
    """The names in bench/tracing.py's TENSOR_OPS, read from the file."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TENSOR_OPS" for t in stmt.targets):
            return ast.literal_eval(stmt.value)
    raise AssertionError("bench/tracing.py defines no TENSOR_OPS")


def _conf(path, **keys):
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")
    return str(path)


def program_traffic(tmp):
    """Every subcommand through cli.main, one process: run with every
    method (node classification with sampling caps and wall timing, then
    link prediction), stream with every strategy for each phase-2 backbone,
    transform and translate; then the naive reference forward."""
    toy = {k: TOY / f"{k}.tsv" for k in ("edges", "features", "labels")}
    cell = dict(methods=",".join(METHODS), seeds=0, epochs=2, patience=2, lr=0.01, dim=4,
                fp_iterations=2)
    calls = [("run", _conf(tmp / "nc.conf", **toy, **cell, caps="1,1,1", timing="wall")),
             ("run", _conf(tmp / "lp.conf", **toy, **cell, task="link_prediction"))]
    for phase2 in ("sage", "gat", "gin"):
        calls.append(("stream", _conf(
            tmp / f"{phase2}.conf", synth_nodes=60, T=2, phase2=phase2, epochs=2,
            stream_epochs=2, dim=4, u_size=5, p_n=0.2, p_f_add=0.1, p_f_del=0.3,
            p_e_add=0.1, p_e_del=0.1)))
    calls.append(("transform", _conf(tmp / "tf.conf", **toy)))
    calls.append(("translate", _conf(tmp / "tr.conf", features=toy["features"], scale=2)))

    def run():
        for module in _package_modules():  # empty every memo, as in a fresh process
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
        for command, conf in calls:
            flags = ["--workers", "1"] if command in ("run", "stream") else []
            code = main([command, "--config", conf, "--out", str(tmp / f"{command}.out"),
                         *flags])
            assert code == 0, (command, conf)
        g = load_graph(toy["edges"], toy["features"], toy["labels"])
        naive_forward(GrafenneModel(GrafenneConfig(layers=2, dim=3, seed=0)), g)
    return run


def public_tensor_ops():
    """code object -> name of every public module-level function of tensor."""
    return {fn.__code__: name for name, fn in vars(T).items()
            if inspect.isfunction(fn) and fn.__module__ == T.__name__
            and not name.startswith("_")}


@pytest.fixture(scope="module")
def traffic(tmp_path_factory):
    """The program's traffic, traced once: (entered code, tensor op arguments)."""
    return traced(program_traffic(tmp_path_factory.mktemp("traffic")), public_tensor_ops())


def test_the_program_s_traffic_enters_every_function_of_the_package(traffic):
    scope = functions_in_scope()
    exempt = {f"tensor.{op}" for op in benchmark_tensor_ops()}
    entered, _ = traffic
    missed = sorted({name for code, name in scope.items()
                     if code not in entered and name not in exempt})
    assert not missed, f"never entered by the program's traffic: {missed}"


def test_no_tensor_op_parameter_takes_one_scalar_value_only(traffic):
    _, seen = traffic
    assert ("attention", "coef") in seen  # the ops the program runs were recorded
    fixed = sorted(f"{op}({param}={next(iter(values))!r})"
                   for (op, param), values in seen.items()
                   if len(values) == 1 and OTHER not in values)
    assert not fixed, f"parameters the program passes one value only: {fixed}"


def test_the_scope_holds_methods_properties_and_functions_but_not_generated_code():
    names = set(functions_in_scope().values())
    assert {"HeteroGraph.__init__", "HeteroGraph.edges", "Tensor.shape", "GrafenneModel.forward",
            "model._embedding_row", "cli.main", "tensor._node"} <= names
    assert not {n for n in names if n.endswith(("__repr__", "__eq__", "__len__"))}
    assert "GrafenneConfig.__init__" not in names  # dataclass-generated
    assert "cli._KINDS" not in names and not any("<lambda>" in n for n in names)


def test_the_tracer_records_calls_and_restores_the_previous_tracer():
    def outer():
        return inner()

    def inner():
        return 1

    before = sys.gettrace()
    entered, _ = traced(outer)
    assert {outer.__code__, inner.__code__} <= entered
    assert sys.gettrace() is before


def test_the_tracer_records_the_scalar_arguments_of_watched_functions():
    def op(x, k, name="a", *, flag=None):
        return x

    def run():
        op(np.ones(2), 3)
        op(1.5, np.int64(3), flag=True)

    _, seen = traced(run, {op.__code__: "op"})
    assert seen == {("op", "x"): {OTHER, 1.5}, ("op", "k"): {3}, ("op", "name"): {"a"},
                    ("op", "flag"): {None, True}}
