"""No dead API: every function and method defined in ``src/wallx``, nested
ones included, is called when the pinned golden documents run: each
``GOLDEN_RUNS`` entry and each ``malformed.json`` entry goes through
``cli.main`` in process, as its pinning test runs it, under
``sys.setprofile``.  A function that only tests call is not part of what
the program does, so it is deleted rather than kept for them; a live one
that no document reaches gets a golden document.  ``__repr__``, ``__eq__``
and ``__hash__`` are exempt by rule.  The only other exemption is computed:
a method that the benchmark's tracer wraps by name and that no document
reaches.  That set is pinned to ``LatticeSpec.gamma_walls``, which waits
for the tracer to drop it.  Conversely, every function and method that
the tracer wraps by name is defined where the tracer looks for it.

No record-only data: every field of an ``@dataclass`` class in ``src/wallx``
is read by an attribute load in those sources or in ``perfbench``, outside
the class's own ``__post_init__`` (namedtuples are read by unpacking, so
they are left out).  This guard matches by bare name, so a dead field whose
name is also read on some other object passes it.

No unused import: a module reads every name it imports, unless its
``__all__`` exports it.

One home for L: a series or a window carries its functional, so no public
function takes a ``LinearFunctional`` parameter beside a ``LaurentSeries`` or
``Window`` one, which could only repeat it.

One int-scaling helper: ``math.lcm`` is called only in ``series._over_lcm``.
One home for each error policy: only ``jsonio`` (which locates errors) and
``cli`` (which reports them) catch ``InputError``, and only ``errors`` words
a work-budget message."""

import ast
import importlib
import importlib.util
import json
import re
import sys
from collections import Counter
from pathlib import Path

import wallx
from wallx import cli

from conftest import GOLDEN, GOLDEN_RUNS

SRC = Path(wallx.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "perfbench"
EXEMPT_DUNDERS = {"__repr__", "__eq__", "__hash__"}


def _definitions(path: Path) -> dict:
    """{(path, first line): qualified name} for every function and method in
    the file, nested ones included.  A decorated one starts at its first
    decorator, as its code object's ``co_firstlineno`` does."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    line = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found[(path, line)] = name
                visit(child, name + ".")
            else:
                visit(child, prefix)

    path = path.resolve()
    visit(ast.parse(path.read_text(), str(path)), "")
    return found


def _uncalled(paths, run) -> dict:
    """The definitions in the files ``paths`` (as ``_definitions`` gives
    them) whose code ``run()`` never calls."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    called = {(Path(code.co_filename).resolve(), code.co_firstlineno) for code in codes}
    return {key: name for p in paths for key, name in _definitions(p).items()
            if key not in called}


def test_call_map_finds_only_the_uncalled_function(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text("import functools\n\n"
                    "@functools.cache\ndef called():\n"
                    "    def inner():\n        return 1\n    return inner()\n\n"
                    "def uncalled():\n    return 2\n")
    spec = importlib.util.spec_from_file_location("synthetic", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert _uncalled([path], module.called) == {(path.resolve(), 9): "uncalled"}


def _run_golden_documents(tmp_path):
    """Every pinned golden run and malformed document through cli.main, each
    with the exit its pinning test expects.  A memoized function runs only
    on its first call in the process, so each module-level functools cache
    in wallx is emptied first."""
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "wallx":
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    for name, argv, code, _ in GOLDEN_RUNS:
        assert cli.main(["--input", str(GOLDEN / f"{name}.json"), *argv]) == code, name
    doc = tmp_path / "doc.json"
    for name, case in json.loads((GOLDEN / "malformed.json").read_text()).items():
        doc.write_text(json.dumps(case["document"]))
        assert cli.main(["--input", str(doc)]) == case["exit"], name


def test_every_definition_in_wallx_is_used_by_the_program(tmp_path, capsys):
    uncalled = _uncalled(sorted(SRC.glob("*.py")), lambda: _run_golden_documents(tmp_path))
    capsys.readouterr()
    found = {(key[0].name, name) for key, name in uncalled.items()
             if name.rpartition(".")[2] not in EXEMPT_DUNDERS}
    names = _tracer_names()
    traced = {(f"{mod}.py", attr) for mod, attr in names["FUNCTIONS"]}
    traced |= {(f"{mod}.py", f"{cls}.{attr}") for mod, cls, attr in names["METHODS"]}
    # kept only while the tracer wraps it; dropping it from METHODS fails
    # this until the method is deleted
    assert found & traced == {("lattice.py", "LatticeSpec.gamma_walls")}
    assert not found - traced, f"no golden document calls: {sorted(found - traced)}"


def _is_dataclass(node) -> bool:
    def name(expr):
        expr = expr.func if isinstance(expr, ast.Call) else expr
        return expr.attr if isinstance(expr, ast.Attribute) else getattr(expr, "id", None)
    return any(name(d) == "dataclass" for d in node.decorator_list)


def _attribute_loads(node) -> Counter:
    return Counter(child.attr for child in ast.walk(node)
                   if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load))


def _unread_fields(defining: dict, others: list):
    """(label, line, "Class.field") for each annotated field of an ``@dataclass``
    class in the trees of ``defining`` ({label: tree}) that no attribute load
    in those trees or in ``others`` reads, the class's own ``__post_init__``
    aside."""
    loads = sum((_attribute_loads(t) for t in [*defining.values(), *others]), Counter())
    for label, tree in defining.items():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            own = sum((_attribute_loads(f) for f in cls.body
                       if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"),
                      Counter())
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and loads[stmt.target.id] == own[stmt.target.id]):
                    yield label, stmt.lineno, f"{cls.name}.{stmt.target.id}"


def test_field_guard_finds_only_the_unread_fields():
    source = ("from dataclasses import dataclass\n"
              "@dataclass(frozen=True)\nclass A:\n"
              "    read: int\n    checked: int\n    unread: int\n"
              "    def __post_init__(self):\n        assert self.checked > 0\n"
              "@dataclass\nclass B:\n    stored: int\n"
              "class Plain:\n    ignored: int\n"
              "B(stored=1).stored = 2\n")
    caller = "print(A(read=1, checked=2, unread=3).read)\n"
    found = _unread_fields({"mod": ast.parse(source)}, [ast.parse(caller)])
    assert list(found) == [("mod", 5, "A.checked"), ("mod", 6, "A.unread"),
                           ("mod", 11, "B.stored")]


def test_every_dataclass_field_in_wallx_is_read_by_the_program():
    # a field that only tests or its own validator read is data nothing
    # computes with; namedtuples are read by unpacking, so they are not asked
    sources = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    bench = [ast.parse(p.read_text(), str(p)) for p in sorted(BENCH.glob("*.py"))]
    found = sorted(_unread_fields(sources, bench))
    assert not found, f"dataclass fields nothing reads: {found}"


def _tracer_names():
    """FUNCTIONS and METHODS of perfbench/tracing.py, read without importing it."""
    tree = ast.parse((BENCH / "tracing.py").read_text())
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("FUNCTIONS", "METHODS")}


def test_every_name_the_tracer_wraps_exists():
    # Tracer.installed looks functions up with getattr and methods in the
    # class's own __dict__, so a deleted or inherited one breaks a traced run
    names = _tracer_names()
    assert names["FUNCTIONS"] and names["METHODS"]
    missing = [(mod, attr) for mod, attr in names["FUNCTIONS"]
               if not hasattr(importlib.import_module(f"wallx.{mod}"), attr)]
    missing += [(mod, cls, attr) for mod, cls, attr in names["METHODS"]
                if attr not in vars(getattr(importlib.import_module(f"wallx.{mod}"), cls))]
    assert not missing, f"wrapped by perfbench/tracing.py but not defined: {missing}"


def _unused_imports(tree):
    """(line, name) for each name the module imports but never reads; a name
    listed in its ``__all__`` is exported, so it counts as read."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [(node.lineno, alias.asname or alias.name.partition(".")[0])
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (alias.asname or alias.name.partition(".")[0]) not in read]


def test_unused_import_guard_finds_only_the_unread_name():
    source = ("from __future__ import annotations\nimport math\nimport os.path\n"
              "from .series import Window, LinearFunctional as LF, expand\n"
              "from .errors import InputError\n__all__ = ['InputError']\n"
              "def f(w: Window):\n    return expand(os.path.join(math.pi))\n")
    assert _unused_imports(ast.parse(source)) == [(4, "LF")]


def test_no_module_imports_a_name_it_never_uses():
    found = {(p.name, line, name) for p in sorted(SRC.glob("*.py"))
             for line, name in _unused_imports(ast.parse(p.read_text(), str(p)))}
    assert not found, f"imported but never used: {sorted(found)}"


def _functional_beside_series(tree):
    """The name of each public function or method that has a parameter
    annotated ``LinearFunctional`` and one annotated ``LaurentSeries`` or
    ``Window``; an annotation is read as written, quoted or not."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_")):
            params = [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
            types = [set(re.findall(r"\w+", ast.unparse(a.annotation)))
                     for a in params if a.annotation is not None]
            if (any("LinearFunctional" in t for t in types)
                    and any(t & {"LaurentSeries", "Window"} for t in types)):
                found.append(node.name)
    return found


def test_functional_guard_finds_L_beside_a_series_or_window():
    source = ("def ok(s: LaurentSeries, n: int):\n    pass\n"
              "def grading(a, L: LinearFunctional | None = None):\n    pass\n"
              "def bad(f, L: series.LinearFunctional, window: Window):\n    pass\n"
              "def _private(s: 'LaurentSeries', L: LinearFunctional):\n    pass\n"
              "class K:\n"
              "    def m(self, s: 'LaurentSeries | None', *, L: LinearFunctional):\n"
              "        pass\n")
    assert _functional_beside_series(ast.parse(source)) == ["bad", "m"]


def test_no_public_function_takes_L_beside_a_series_or_window():
    # a series or a window carries its functional; a second copy of it could
    # only disagree
    found = {(p.name, name) for p in sorted(SRC.glob("*.py"))
             for name in _functional_beside_series(ast.parse(p.read_text(), str(p)))}
    assert not found, f"takes L beside a series or a window: {sorted(found)}"


def _lcm_calls(tree):
    """The name of the function around each math.lcm or bare lcm call
    (None at module level)."""
    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and (
                (isinstance(node.func, ast.Attribute) and node.func.attr == "lcm"
                 and isinstance(node.func.value, ast.Name) and node.func.value.id == "math")
                or (isinstance(node.func, ast.Name) and node.func.id == "lcm")):
            yield owner
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)
    return list(visit(tree, None))


def test_lcm_guard_finds_each_call_and_its_function():
    source = ("import math\nfrom math import lcm\nx = math.lcm(2, 3)\n"
              "def f(v):\n    def g():\n        return lcm(*v)\n    return math.lcm(g())\n"
              "def h(v):\n    return math.gcd(*v)\n")
    assert _lcm_calls(ast.parse(source)) == [None, "g", "f"]


def test_only_over_lcm_calls_lcm():
    found = {(p.name, owner) for p in sorted(SRC.glob("*.py"))
             for owner in _lcm_calls(ast.parse(p.read_text(), str(p)))}
    assert found == {("series.py", "_over_lcm")}


def _input_error_handlers(tree):
    """The line of each ``except`` clause that catches InputError."""
    def names(node):
        if isinstance(node, ast.Tuple):
            return [n for elt in node.elts for n in names(elt)]
        if isinstance(node, ast.Attribute):
            return [node.attr]
        return [node.id] if isinstance(node, ast.Name) else []
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler) and node.type is not None
            and "InputError" in names(node.type)]


def test_input_error_guard_finds_each_handler():
    source = ("try:\n    f()\nexcept InputError:\n    pass\n"
              "try:\n    f()\nexcept (KeyError, errors.InputError) as err:\n    pass\n"
              "try:\n    f()\nexcept ValueError:\n    pass\nexcept:\n    pass\n")
    assert _input_error_handlers(ast.parse(source)) == [3, 7]


def test_only_jsonio_and_cli_catch_input_errors():
    # jsonio locates errors at the parsed path; cli reports them
    found = {p.name for p in sorted(SRC.glob("*.py"))
             if _input_error_handlers(ast.parse(p.read_text(), str(p)))}
    assert found == {"jsonio.py", "cli.py"}


def test_only_errors_words_budget_messages():
    # every work budget raises through errors.charge and its one table
    found = {p.name for p in sorted(SRC.glob("*.py"))
             if "work budget exceeded" in p.read_text()}
    assert found == {"errors.py"}
