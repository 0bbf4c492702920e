"""Guards on the package source itself."""

import ast
import graphlib
import re
import runpy
import subprocess
import sys
import tomllib
from pathlib import Path

import transknot
from transknot import errors

SOURCES = sorted(Path(transknot.__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parents[1]


def test_sources_found():
    assert len(SOURCES) >= 10


def test_no_assert_statements():
    # `python -O` strips asserts; consistency checks raise TransknotError
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_float_outside_render_svg():
    # no float enters a decision; only the SVG picture is drawn in floats
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            id(node)
            for top in tree.body
            if path.name == "cli.py" and isinstance(top, ast.FunctionDef)
            and top.name == "render_svg"
            for node in ast.walk(top)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if id(node) not in allowed and (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float"
                or isinstance(node, ast.Constant) and isinstance(node.value, float)
            )
        ]
    assert found == []


# The routines that take int points, or read and write the curve's ints:
# on ints `/` is true division, which would put a float into a decision
# or a coordinate.
INT_ROUTINES = {
    "geometry.py": {
        "vec", "cross", "dot", "pair_determinants", "segment_crossing",
        "point_in_open_segment", "box", "in_open_cone", "in_closed_cone",
        "corner_sweep_contains", "turn_sign", "same_direction", "is_parallel",
        "box_overlapping_pairs", "box_meeting_pairs", "halvings", "corner_turns",
    },
    "diagram.py": {
        "_crossing_scan", "least_dist2", "_parse_rational", "_rational_text",
        "_read_canonical", "serialize_diagram", "splice", "sign_for_over", "over_for_sign",
    },
    "invariants.py": {"_chords", "v2"},
    "transversality.py": {
        "check_condition1", "check_condition2", "whitney_index", "regular_direction",
        "forced_over",
    },
}


def test_no_division_in_int_predicates():
    found = []
    for filename, names in sorted(INT_ROUTINES.items()):
        path = Path(transknot.__file__).parent / filename
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
        assert names <= set(functions)
        found += [
            f"{filename}:{name}:{node.lineno}"
            for name in sorted(names)
            for node in ast.walk(functions[name])
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
        ]
    assert found == []


def imported_names(node) -> list[str]:
    """The names an import statement binds, or [] for any other node."""
    if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"):
        return []
    return [(alias.asname or alias.name).split(".")[0] for alias in node.names]


def read_names(tree) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_no_unused_imports():
    # every name a module-level import binds is read in its module, and
    # every name an import inside a function binds is read in that
    # function
    found = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue  # binds the exported API
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = read_names(tree)
        for top in tree.body:
            for node in [top, *(top.body if isinstance(top, ast.If) else ())]:
                found += [f"{path.name}:{node.lineno}:{name}"
                          for name in imported_names(node) if name not in read]
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                read = read_names(fn)
                found += [f"{path.name}:{node.lineno}:{name}"
                          for node in ast.walk(fn)
                          for name in imported_names(node) if name not in read]
    assert found == []


def package_imports(node) -> list[str]:
    """The package modules an import statement names: x for ``from .x
    import ...``, ``from transknot.x import ...`` and ``import
    transknot.x``, and each x of ``from . import x``; [] for any other
    node."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("transknot.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    module = "transknot." + (node.module or "") if node.level else node.module
    if module.rstrip(".") == "transknot":
        return [alias.name for alias in node.names]
    return [module.split(".")[1]] if module.startswith("transknot.") else []


# The cli's per-command imports: each command loads only the modules it
# runs, which keeps start-up small (see test_lazy_imports).
DEFERRED_IMPORTS = {
    ("_descriptor", "framing"), ("_cmd_stabilize", "moves_singular"),
    ("_cmd_resolve", "moves_singular"), ("_cmd_order_check", "moves_singular"),
    ("_cmd_mtor", "framing"), ("_cmd_exists", "framing"), ("_cmd_distinguish", "framing"),
}


def test_the_modules_import_one_another_in_layers():
    # errors -> geometry -> diagram -> transversality -> invariants ->
    # framing and moves_singular -> cli: each module's imports at module
    # level form no cycle, so no import is put off into a function, or
    # behind TYPE_CHECKING, to break one.  The cli's per-command imports
    # are the one kind of import inside a function
    graph, deferred, found = {}, set(), []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inner = set()
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner |= {id(node) for node in ast.walk(fn)}
                deferred |= {(path.name, fn.name, module)
                             for node in ast.walk(fn) for module in package_imports(node)}
        graph[path.stem] = {module for node in ast.walk(tree) if id(node) not in inner
                            for module in package_imports(node)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if "TYPE_CHECKING" in (getattr(node, "id", None), getattr(node, "attr", None),
                                         getattr(node, "name", None))]
    assert found == []
    assert set().union(*graph.values()) <= set(graph)
    assert graph["geometry"] == {"errors"} and graph["diagram"] == {"errors", "geometry"}
    list(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError on a cycle
    assert deferred == {("cli.py", fn, module) for fn, module in DEFERRED_IMPORTS}


def test_dataclasses_only_in_moves_singular():
    # `import dataclasses` costs every command that loads it several
    # milliseconds (it pulls in `inspect`), so value types are
    # NamedTuples or small hand-written classes
    found = {
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    }
    assert found <= {"moves_singular.py"}, (
        f"dataclasses imported in {sorted(found)}: only moves_singular.py keeps it, for "
        "InvariantHandle and FramedInvariantHandle, which perfbench/tracer.py rebuilds "
        "around its wrappers with dataclasses.replace")


def test_only_the_random_diagram_search_retries():
    # every move makes one attempt that its docstring proves safe; the
    # rejection sampling in random_valid_diagram is the one loop that
    # retries, spelled `for _ in range(...)`
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                found += [
                    f"{path.name}:{fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, ast.For) and isinstance(node.target, ast.Name)
                    and node.target.id == "_" and isinstance(node.iter, ast.Call)
                    and isinstance(node.iter.func, ast.Name) and node.iter.func.id == "range"
                ]
    assert found == ["moves_singular.py:random_valid_diagram"]


# Reference routines: the tests check the int kernel against them, and
# perfbench/tracer.py counts the calls of the Fraction ones, so they stay
# in the package, but only they call one another.  ``corner_sweep_contains``
# and ``turn_sign`` are the corner rule that ``geometry.corner_turns``
# writes once on ints, ``in_open_cone`` the cone rule that
# ``transversality.forced_over`` writes once on ints, ``same_direction``
# and ``is_parallel`` the edge and corner tests that condition 1 and the
# random search take inline, ``pair_determinants`` the determinants that
# the pair pass takes inline, ``vec`` and ``dot`` the edge vector and
# squared length that render_svg reads from the int directions, ``sign``
# the sign the cone and corner references compare, and ``scale`` and
# ``neg`` build the tests' vectors.
REFERENCE_ROUTINES = {"segment_intersection", "dist2", "point_segment_dist2", "in_closed_cone",
                      "in_open_cone", "turn_sign", "corner_sweep_contains", "same_direction",
                      "is_parallel", "pair_determinants", "vec", "dot", "sign", "scale", "neg"}


def _own_locals(fn):
    """The ids of the Name nodes in fn that read or bind a name fn binds
    itself, as an argument or an assignment target: a local such as the
    scale L of diagram.py, not a reference routine."""
    bound = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)} | {
        node.id for node in ast.walk(fn)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    return {id(node) for node in ast.walk(fn) if isinstance(node, ast.Name) and node.id in bound}


def test_reference_routines_have_no_package_caller():
    # A local that a function binds by calling getattr on a name string
    # passes this guard; every other way to reach a routine is flagged.
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            id(node)
            for top in tree.body
            if path.name == "geometry.py" and isinstance(top, ast.FunctionDef)
            and top.name in REFERENCE_ROUTINES
            for node in ast.walk(top)
        }
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                allowed |= _own_locals(fn)
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if id(node) not in allowed and (
                isinstance(node, ast.Name) and node.id in REFERENCE_ROUTINES
                or isinstance(node, ast.Attribute) and node.attr in REFERENCE_ROUTINES
                or isinstance(node, ast.alias) and node.name in REFERENCE_ROUTINES | {"*"}
            )
        ]
    assert found == []


def bodies(tree, names) -> set[int]:
    """The ids of every node inside the named functions of the module
    ``tree``: (class name, method name) for a method, (None, name) for
    a module-level function."""
    return {id(node) for top in tree.body if isinstance(top, ast.ClassDef)
            for fn in top.body
            if isinstance(fn, ast.FunctionDef) and (top.name, fn.name) in names
            for node in ast.walk(fn)} | {
        id(node) for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and (None, fn.name) in names
        for node in ast.walk(fn)}


def test_one_builder_puts_crossings_on_a_curve():
    # a diagram is its curve, its coorientation and one over bit per
    # crossing of the curve: only _attach_over, which turns a reader's
    # map into bits, with_over and resolve call TransverseDiagram(...),
    # and no module hands the class to a call (object.__new__ included);
    # only the crossings view calls Crossing(...), and no module reaches
    # into the Crossing class or hands it to a call; nothing names
    # _from_entries, as there is one constructor
    def is_named(node, name):
        return (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name)

    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        view = bodies(tree, {("TransverseDiagram", "crossings")})
        builders = bodies(tree, {(None, "_attach_over"), ("TransverseDiagram", "with_over"),
                                 (None, "resolve")})
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and is_named(node.func, "Crossing") \
                    and id(node) not in view:
                found.append(f"{path.name}:{node.lineno}:Crossing(...)")
            if isinstance(node, ast.Call) and is_named(node.func, "TransverseDiagram") \
                    and id(node) not in builders:
                found.append(f"{path.name}:{node.lineno}:TransverseDiagram(...)")
            for name in ("Crossing", "TransverseDiagram"):
                if isinstance(node, ast.Call) and any(is_named(arg, name) for arg in node.args):
                    found.append(f"{path.name}:{node.lineno}:call on {name}")
            if isinstance(node, ast.Attribute) and is_named(node.value, "Crossing"):
                found.append(f"{path.name}:{node.lineno}:Crossing.{node.attr}")
            if is_named(node, "_from_entries") or isinstance(node, ast.FunctionDef) \
                    and node.name == "_from_entries":
                found.append(f"{path.name}:{node.lineno}:_from_entries")
    assert found == []


def test_only_frozen_writes_value_equality():
    # each value type names the data it stores as its _fields, and
    # Frozen alone turns them into equality and a hash
    found = []
    for path in SOURCES:
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef) or cls.name == "Frozen":
                continue
            for node in cls.body:
                names = [node.name] if isinstance(node, ast.FunctionDef) else [
                    t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
                found += [f"{path.name}:{node.lineno}:{cls.name}.{name}"
                          for name in names if name in ("__eq__", "__hash__")]
    assert found == []


def test_the_crossings_view_is_read_where_crossings_are_made_public():
    # the package reads a diagram's entries and over bits, and render_svg
    # the fractions along each edge; the Crossing values are read only
    # by the view itself, for callers outside the package.  A field
    # named in a class's _fields is read by Frozen's equality, hash and
    # repr, so no _fields names the view either
    readers = {("TransverseDiagram", "crossings")}
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = bodies(tree, readers)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "crossings"
                    and id(node) not in allowed):
                found.append(f"{path.name}:{node.lineno}:.crossings")
            if (isinstance(node, ast.Assign)
                    and "_fields" in [t.id for t in node.targets if isinstance(t, ast.Name)]
                    and "crossings" in ast.literal_eval(node.value)):
                found.append(f"{path.name}:{node.lineno}:_fields")
    assert found == []


def test_the_vertex_view_is_read_only_by_the_curve():
    # the package reads a curve's ints: scaled, int_directions and the
    # one-vertex and one-direction reads; the Fraction vertex view and
    # the edges built from it are for callers outside the package
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        curve = {id(node) for top in tree.body
                 if isinstance(top, ast.ClassDef) and top.name == "PolyCurve"
                 for node in ast.walk(top)}
        for node in ast.walk(tree):
            if id(node) in curve:
                continue
            if isinstance(node, ast.Attribute) and node.attr == "vertices":
                found.append(f"{path.name}:{node.lineno}:.vertices")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("edges", "edge")):
                found.append(f"{path.name}:{node.lineno}:.{node.func.attr}()")
    assert found == []


CODE_LINES = REPO / "tests" / "code_lines.py"
SAMPLE = "\n".join([
    '"""Module',
    'docstring."""',
    "",
    "# a comment",
    "import os  # counted",
    "",
    "class A:",
    '    """Class docstring."""',
    "",
    "    def f(self):",
    "        '''Function",
    "        docstring.'''",
    "        x = '''a string",
    "",
    "        of three lines'''",
    "        # another comment",
    "        return (x,",
    "                os)",
    '    "not a docstring"',
    "",
])


def test_code_line_counter_counts_a_sample_and_every_module():
    # code lines are not blank, not comments and not module, class or
    # function docstrings; every module of the package is listed
    count = runpy.run_path(str(CODE_LINES))["code_lines"]
    # import, class, def, the string's two non-blank lines, both lines
    # of the return, and the string that is not a docstring
    assert count(SAMPLE) == 8
    out = subprocess.run([sys.executable, str(CODE_LINES)], capture_output=True, text=True,
                         check=True).stdout.splitlines()
    counts = {name: int(n) for name, n in map(str.split, out)}
    assert list(counts) == [path.name for path in SOURCES] + ["total"]
    assert counts == {**{path.name: count(path.read_text(encoding="utf-8")) for path in SOURCES},
                      "total": sum(list(counts.values())[:-1])}


# a raise names a domain error, a ValueError for a bad argument, an
# AttributeError of the Frozen and module __getattr__ protocols, or an
# argparse.ArgumentTypeError, which argparse turns into a usage error
RAISABLE = {"ValueError", "AttributeError", "argparse.ArgumentTypeError"} | {
    name for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.TransknotError)
}


def test_every_raise_is_typed():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if ast.unparse(exc) not in RAISABLE:
                    found.append(f"{path.name}:{node.lineno}:{ast.unparse(exc)}")
    assert found == []


def test_moves_read_no_int_kernel_units():
    # the scaled ints and their marks stay inside diagram.py: a move
    # hands least_dist2 points on the curve, never scaled coordinates
    path = Path(transknot.__file__).parent / "moves_singular.py"
    found = [
        f"{node.attr}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and node.attr in ("scaled", "int_directions", "int_edges")
    ]
    assert found == []


def test_the_one_match_reader_raises_nothing():
    # the canonical route declines whatever it does not read, so every
    # diagnostic about a text comes from the line reader; and it has
    # one caller
    path = Path(transknot.__file__).parent / "diagram.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    found = [f"{name}:{node.lineno}" for name in ("_canonical_pattern", "_read_canonical")
             for node in ast.walk(functions[name]) if isinstance(node, ast.Raise)]
    assert found == []
    callers = {name for name, f in functions.items() for node in ast.walk(f)
               if isinstance(node, ast.Name) and node.id == "_read_canonical"}
    assert callers == {"parse_diagram"}


def test_one_interpreter_floor():
    # _parse_rational reads decimals by Fraction, whose grammar takes
    # PEP 515 underscores from 3.11 on, and _canonical_pattern needs the
    # possessive quantifiers of 3.11's re: the floor is stated once, in
    # the metadata and the README, and no module branches on a version
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("version", "version_info")
        and isinstance(node.value, ast.Name) and node.value.id == "sys"
        or isinstance(node, ast.ImportFrom) and node.module == "sys"
        and {alias.name for alias in node.names} & {"version", "version_info"}
    ]
    assert found == []
    project = tomllib.loads((REPO / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["requires-python"] == ">=3.11"
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    assert re.findall(r"Python >= ?([0-9.]*[0-9])", readme) == ["3.11"]
