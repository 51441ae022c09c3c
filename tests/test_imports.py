"""No module imports a name at top level that it never uses, the package
keeps a known set of module-level caches, and only the class module reads
the private state of another object.

Every source module of the package (all but ``__init__.py``, which
re-exports) and every test module is parsed with ``ast``; a name bound by
a top-level import must appear as a name somewhere in the same module.
A module-level name bound to an empty ``{}`` or ``dict()`` is a cache that
lives for the whole process, and the package has exactly four.  A
``_``-prefixed attribute (dunders aside) of anything but ``self`` is read
only in ``context.py``, so the formats a class keeps there (its slot
table, its walk tables) stay inside it.  Every function, class
and method of an engine module (all but ``oracle.py`` and
``__init__.py``) is named by some engine module or benchmark file, so the
engine keeps no code that only the tests reach; a method counts as named
only by an attribute, and ``self.name`` only for its own class.  Every
field of an engine ``@dataclass`` is read as an attribute by some engine
module or benchmark file, so a record keeps no field that only the tests
read.  No parameter of an engine function or method is passed the same
literal by every call in the engine and the benchmark files, so the
engine keeps no knob that only the tests turn.

The static lints match names, so a method that shares its name with an
attribute of another object (``HalfEdgeGraph.genus`` beside
``spec.genus``) escapes them.  A traffic lint closes that gap: in a fresh
interpreter traced for calls only, every command of the command line
runs, and every function, method and property of an engine module must
have been entered.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import gch

PACKAGE = Path(gch.__file__).parent
TESTS = Path(__file__).parent
PERFBENCH = TESTS.parent / "perfbench"


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_import_is_found(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import os\nimport sys as system\nfrom math import pi, tau\n"
                    "print(system.argv, pi)\n")
    assert unused_imports(path) == ["os", "tau"]


def test_no_unused_top_level_imports():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    modules += sorted(TESTS.glob("*.py"))
    unused = {p.name: names for p in modules if (names := unused_imports(p))}
    assert unused == {}


def empty_dicts(path: Path) -> list[str]:
    """The module-level names bound to an empty ``{}`` or ``dict()``,
    annotated or not."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        empty = (isinstance(value, ast.Dict) and not value.keys
                 or isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                 and value.func.id == "dict" and not value.args and not value.keywords)
        if empty:
            found += [t.id for t in targets if isinstance(t, ast.Name)]
    return found


def test_empty_dict_is_found(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("A = {}\nB: dict[str, int] = dict()\nC = {1: 2}\nD = dict(x=1)\n"
                    "def f():\n    E = {}\n")
    assert empty_dicts(path) == ["A", "B"]


def test_module_level_caches_are_the_known_four():
    """The certificate cache and the class registry, the enumeration cache
    and the shared vertex pairs: the caches a session object would own."""
    caches = {f"{p.stem}.{name}" for p in sorted(PACKAGE.glob("*.py")) for name in empty_dicts(p)}
    assert caches == {"context._CERT_CACHE", "context._CLASSES", "generate._ENUM_CACHE",
                      "graph._PAIRS"}


def private_reads(path: Path) -> list[str]:
    """Each ``_``-prefixed attribute, dunders aside, that the module reads
    or sets on an object other than ``self``, as source text."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not (node.attr.startswith("__") and node.attr.endswith("__"))
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")):
            found.append(ast.unparse(node))
    return found


def test_private_read_is_found(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("a = ctx._orbit\nb = self._orbit\nc = d.__getitem__\ne = ctx.group._x\n"
                    "ctx.y._z = 1\n")
    assert private_reads(path) == ["ctx._orbit", "ctx.group._x", "ctx.y._z"]


def test_only_context_reads_private_attributes_of_other_objects():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "context.py"]
    reads = {p.name: names for p in modules if (names := private_reads(p))}
    assert reads == {}


def unnamed_definitions(modules: list[Path], callers: list[Path]) -> list[str]:
    """``module.name`` or ``module.Class.name`` of each function, class and
    method (dunders aside) of ``modules`` that nothing in ``modules`` or
    ``callers`` names; docstrings and comments do not count.  A function or
    class is named by a name or an attribute, a method only by an
    attribute: ``self.name`` inside a class names that class's method, and
    any other ``obj.name`` names every method called ``name``."""
    names, attributes, own = set(), set(), set()

    def scan(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                names.add(child.id)
            elif isinstance(child, ast.Attribute):
                if owner and isinstance(child.value, ast.Name) and child.value.id == "self":
                    own.add(owner + child.attr)
                else:
                    attributes.add(child.attr)
            if isinstance(child, ast.ClassDef):
                scan(child, module, f"{owner or module}{child.name}.")
            else:
                scan(child, module, owner)

    for path in modules + callers:
        scan(ast.parse(path.read_text()), f"{path.stem}.", None)
    found = []

    def visit(body, prefix, in_class):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                named = (node.name in attributes
                         or (prefix + node.name in own if in_class else node.name in names))
                if not dunder and not named:
                    found.append(prefix + node.name)
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{node.name}.", True)

    for path in modules:
        visit(ast.parse(path.read_text()).body, f"{path.stem}.", False)
    return sorted(found)


def test_unnamed_definition_is_found(tmp_path):
    engine, bench = tmp_path / "engine.py", tmp_path / "bench.py"
    engine.write_text('''"""unused, Box.spare and helper appear only in words here."""
def used():
    return _helper()
def _helper():
    return Box().size
def unused():
    pass
class Box:
    def __init__(self):
        self.size = 1
    def spare(self):
        pass
    def read(self):
        pass
''')
    bench.write_text("import engine\nengine.used()\nengine.Box.read\n")
    assert unnamed_definitions([engine], [bench]) == ["engine.Box.spare", "engine.unused"]
    assert unnamed_definitions([engine], []) == ["engine.Box.read", "engine.Box.spare",
                                                 "engine.unused", "engine.used"]


def test_method_is_named_only_by_attribute_on_its_class(tmp_path):
    """A local variable of a method's name, or ``self.name`` in another
    class that defines the name too, does not keep the method."""
    engine = tmp_path / "engine.py"
    engine.write_text('''def build():
    identity = 1
    return Matrix(), Poset().run(identity)
class Matrix:
    def identity(self):
        pass
class Catalog:
    def index(self):
        pass
class Poset:
    def index(self):
        pass
    def run(self, x):
        return self.index()
''')
    bench = tmp_path / "bench.py"
    bench.write_text("import engine\nengine.build()\nengine.Catalog\n")
    assert unnamed_definitions([engine], [bench]) == ["engine.Catalog.index",
                                                      "engine.Matrix.identity"]


# the documented reader of the matrices that ``gch complex --export`` writes
READERS = {"io.text_to_matrix"}


def test_engine_keeps_no_code_only_tests_reach():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name not in ("oracle.py", "__init__.py")]
    callers = sorted(PERFBENCH.glob("*.py"))
    assert callers, PERFBENCH
    assert set(unnamed_definitions(modules, callers)) - READERS == set()


# runs the workload file argv[1] with argv[3:] as ``argv`` under a global
# trace function that records the code object of every call and returns
# None, so no line is traced; prints (module, first line, name) of each
# code entered whose file lies in the directory argv[2]
TRACE = r"""
import json, sys
from pathlib import Path
workload, package = Path(sys.argv[1]), Path(sys.argv[2]).resolve()
entered = set()
sys.settrace(lambda frame, event, arg: entered.add(frame.f_code))
exec(compile(workload.read_text(), str(workload), "exec"), {"argv": sys.argv[3:]})
sys.settrace(None)
print(json.dumps(sorted({(Path(c.co_filename).stem, c.co_firstlineno, c.co_name) for c in entered
                         if Path(c.co_filename).resolve().parent == package})))
"""


def entered_code(workload: Path, package: Path, *argv: str) -> set[tuple[str, int, str]]:
    """(module, first line, name) of every function of the modules in
    ``package`` that the workload file entered, run in a fresh interpreter
    with ``package``'s parent on the path; a decorated function's first
    line is its first decorator's."""
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    result = subprocess.run([sys.executable, "-c", TRACE, str(workload), str(package), *argv],
                            capture_output=True, text=True, env=env, timeout=600)
    assert result.returncode == 0, result.stderr
    return set(map(tuple, json.loads(result.stdout)))


def never_entered(modules: list[Path], entered: set[tuple[str, int, str]]) -> list[str]:
    """``module.qualname`` of each function, method and property of
    ``modules`` (dunders aside), nested ones included, whose (module,
    first line, name) is not in ``entered``."""
    found = []

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                dunder = child.name.startswith("__") and child.name.endswith("__")
                first = min([d.lineno for d in child.decorator_list], default=child.lineno)
                if not dunder and (module, first, child.name) not in entered:
                    found.append(f"{module}.{qualname}")
                visit(child, module, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in modules:
        visit(ast.parse(path.read_text()), path.stem, "")
    return sorted(found)


def test_never_entered_code_is_found(tmp_path):
    package = tmp_path / "sample"
    package.mkdir()
    (package / "engine.py").write_text('''def used():
    return Box().size + helper()
def helper():
    def inner():
        return 1
    return inner()
def unused():
    pass
class Box:
    def __init__(self):
        self.flag = 1
    @property
    def size(self):
        return 1
    @property
    def spare(self):
        return 2
    def method(self):
        def nested():
            pass
        return 0
''')
    workload = tmp_path / "workload.py"
    workload.write_text("from sample import engine\nengine.used()\nengine.Box().method()\n")
    entered = entered_code(workload, package)
    assert {("engine", 1, "used"), ("engine", 4, "inner"), ("engine", 12, "size")} <= entered
    assert never_entered([package / "engine.py"], entered) == [
        "engine.Box.method.<locals>.nested", "engine.Box.spare", "engine.unused"]


# every command of ``gch.cli.main`` at genus 3, with the file arguments
# under the directory argv[0]
COMMANDS = r"""
import contextlib, io, json
from pathlib import Path
from gch.cli import main
from gch.complexes import KINDS

out = Path(argv[0])
theta = {"vertices": 2, "weights": [0, 0], "edges": [[0, 1], [0, 1], [0, 1]],
         "ribbon": [[0, 2, 4], [1, 5, 3]]}
(out / "theta.json").write_text(json.dumps(theta))
(out / "malformed.json").write_text(json.dumps({"vertices": 2, "edges": [[0, 2]]}))
commands = [["enumerate", "--genus", "3"], ["enumerate", "--genus", "3", "--ribbon"],
            ["enumerate", "--genus", "3", "--weighted"],
            ["enumerate", "--genus", "3", "--min-valence", "2", "--max-edges", "5", "--tadpoles"]]
for kind in KINDS:
    bound = ["--max-edges", "7"] if kind in ("com_geq2", "com_tad_geq2") else []
    for parity in ("even", "odd"):
        spec = ["--kind", kind, "--parity", parity, "--genus", "3", *bound]
        commands += [["complex", *spec, "--export", str(out / f"{kind}-{parity}")],
                     ["homology", *spec]]
for spine in ([], ["--spine"]):
    commands.append(["moduli", "--genus", "3", *spine, "--export", str(out / f"moduli{len(spine)}.json")])
commands += [["surface", "--input", str(out / "theta.json")],
             ["surface", "--input", str(out / "malformed.json")],
             ["verify", "--suite", "core"], ["verify", "--suite", "paper"]]
codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for command in commands:
        codes.append(main(command))
assert codes[:-3] == [0] * (len(codes) - 3) and codes[-3:] == [2, 0, 0], codes
"""

# read by no command: the documented reader of the matrices that
# ``gch complex --export`` writes, and the dictionary that only the
# benchmark reads
UNTRAVELLED = {"io.text_to_matrix", "linalg.SparseMatrix.entries"}


def test_every_engine_function_runs_under_the_commands(tmp_path):
    """In a fresh interpreter traced for calls only, every command of the
    command line enters every function, method and property of every
    engine module, so the engine keeps no code that only the tests run."""
    workload = tmp_path / "commands.py"
    workload.write_text(COMMANDS)
    entered = entered_code(workload, PACKAGE, str(tmp_path))
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name not in ("oracle.py", "__init__.py")]
    assert set(never_entered(modules, entered)) - UNTRAVELLED == set()


def _is_dataclass(decorator) -> bool:
    """Whether a class decorator is ``dataclass`` or ``dataclasses.dataclass``,
    called or not."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return (isinstance(decorator, ast.Name) and decorator.id == "dataclass"
            or isinstance(decorator, ast.Attribute) and decorator.attr == "dataclass")


def unread_fields(modules: list[Path], callers: list[Path]) -> list[str]:
    """``module.Class.field`` of each field of a ``@dataclass`` of ``modules``
    whose name no attribute read in ``modules`` or ``callers`` takes.
    Setting the attribute, passing the field by keyword and naming it in a
    docstring or a comment do not count as reads."""
    read = set()
    for path in modules + callers:
        read |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                found += [f"{path.stem}.{node.name}.{item.target.id}" for item in node.body
                          if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                          and item.target.id not in read]
    return sorted(found)


def test_unread_field_is_found(tmp_path):
    engine, bench = tmp_path / "engine.py", tmp_path / "bench.py"
    engine.write_text('''"""Box.spare is named only here."""
import dataclasses
from dataclasses import dataclass
@dataclass(frozen=True)
class Box:
    size: int
    spare: int
    kept: int
    written: int = 0
@dataclasses.dataclass
class Crate:
    label: str
class Plain:
    unread: int
def make():
    box = Box(1, spare=2, kept=3)
    box.written = 4
    return box.size
''')
    bench.write_text("import engine\nprint(engine.make().kept)\n")
    assert unread_fields([engine], [bench]) == ["engine.Box.spare", "engine.Box.written",
                                                "engine.Crate.label"]
    assert unread_fields([engine], []) == ["engine.Box.kept", "engine.Box.spare",
                                           "engine.Box.written", "engine.Crate.label"]


def test_engine_records_keep_no_field_only_tests_read():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name not in ("oracle.py", "__init__.py")]
    assert unread_fields(modules, sorted(PERFBENCH.glob("*.py"))) == []


def _parameters(node, method: bool):
    """The parameters of a function that a call can pass, in order, each
    with its default or None, and how many a call passes positionally; a
    method's ``self`` or ``cls`` is dropped."""
    args = node.args
    positional = args.posonlyargs + args.args
    defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
    drop = 1 if method and not static else 0
    params = list(zip(positional, defaults))[drop:] + list(zip(args.kwonlyargs, args.kw_defaults))
    return [(a.arg, default) for a, default in params], len(positional) - drop


def _literal(node) -> str | None:
    """The source of a literal argument or default, else None."""
    try:
        ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, RecursionError):
        return None
    return ast.unparse(node)


def fixed_knobs(modules: list[Path], callers: list[Path], exempt: set[str] = frozenset()) -> list[str]:
    """``module.function.parameter`` (``module.Class.method.parameter`` for
    a method) of each parameter that every call passes the same literal.
    Only functions and methods whose name ``modules`` define once are
    checked, and only when a call in ``modules`` or ``callers`` names them:
    a call is ``name(...)`` or ``obj.name(...)``, and a call that omits a
    defaulted parameter passes its default.  A function also named other
    than as the callee of a call (passed as a value, say) is skipped, since
    its calls are out of sight, as is a call that unpacks ``*args`` or
    ``**kwargs``.  ``exempt`` holds ``module.function.parameter`` names and
    module stems whose parameters are not checked."""
    definitions = {}
    for path in modules:
        def visit(node, prefix, in_class):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    definitions.setdefault(child.name, []).append(
                        (path.stem, prefix + child.name, child, in_class))
                    visit(child, f"{prefix}{child.name}.", False)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", True)
                else:
                    visit(child, prefix, in_class)
        visit(ast.parse(path.read_text()), "", False)
    checked = {name: found[0] for name, found in definitions.items()
               if len(found) == 1 and not name.startswith("__")}
    passed = {name: [] for name in checked}  # name -> one {parameter: literal} per call
    named_otherwise = set()
    for path in modules + callers:
        tree = ast.parse(path.read_text())
        callees = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in checked:
                continue
            callees.add(id(func))
            _, _, definition, method = checked[name]
            params, npos = _parameters(definition, method)
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                passed[name].append({})
                continue
            values = {}
            for (param, _), arg in zip(params[:npos], node.args):
                values[param] = _literal(arg)
            for keyword in node.keywords:
                values[keyword.arg] = _literal(keyword.value)
            for param, default in params:
                if param not in values and default is not None:
                    values[param] = _literal(default)
            passed[name].append(values)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in callees:
                named_otherwise.add(node.id if isinstance(node, ast.Name) else node.attr)
    found = []
    for name, (module, qualname, definition, method) in checked.items():
        calls = passed[name]
        if not calls or name in named_otherwise or module in exempt:
            continue
        for param, _ in _parameters(definition, method)[0]:
            knob = f"{module}.{qualname}.{param}"
            values = {call.get(param) for call in calls}
            if len(values) == 1 and None not in values and knob not in exempt:
                found.append(knob)
    return sorted(found)


def test_fixed_knob_is_found(tmp_path):
    engine, bench = tmp_path / "engine.py", tmp_path / "bench.py"
    engine.write_text('''def build(genus, forest_only, scale=2, *, mode="a"):
    return _walk(genus, 0) + _walk(genus + 1, 0)
def _walk(n, start):
    return n + start
def callback(x, flag=True):
    return x
def run(items):
    return sorted(items, key=callback) + [callback(1)]
class Box:
    def size(self, unit, exact=False):
        return unit
    def fill(self, unit):
        return self.size(unit) + self.size(unit, exact=False) + build(unit, True, scale=3)
def spread(*args, **kwargs):
    return Box().fill(*args) + Box().fill(**kwargs)
''')
    bench.write_text('''import engine
engine.build(4, True, mode="a")
engine.Box().fill(2)
engine.Box().fill(3)
''')
    assert fixed_knobs([engine], [bench]) == ["engine.Box.size.exact", "engine._walk.start",
                                              "engine.build.forest_only", "engine.build.mode"]
    assert fixed_knobs([engine], [bench], {"engine._walk.start", "engine"}) == []
    assert fixed_knobs([engine], [], {"engine.build.mode"}) == [
        "engine.Box.size.exact", "engine._walk.start", "engine.build.forest_only",
        "engine.build.scale"]


# the named families are built at many sizes by the checks and the tests,
# and ``main``'s ``argv`` is the seam that the command-line tests call
KNOBS = {"families", "cli.main.argv"}


def test_engine_passes_no_parameter_one_fixed_literal():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name not in ("oracle.py", "__init__.py")]
    assert fixed_knobs(modules, sorted(PERFBENCH.glob("*.py")), KNOBS) == []
