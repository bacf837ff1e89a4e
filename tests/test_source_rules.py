import ast
from collections import Counter
from pathlib import Path

import planetree
import planetree.builder
import planetree.oracle
from planetree import geometry
from planetree.generators import path_complement, r_construction, random_instance
from planetree.graphs import GeometricGraph
from planetree.instance_io import dumps_instance, loads_instance


def test_no_bare_assert_in_the_package():
    # `python -O` strips assert statements, so no check in the package
    # may rest on one; checks raise AssertionError explicitly instead.
    found = []
    for path in sorted(Path(planetree.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_the_package_root_binds_no_name():
    # Each public name is declared once, in its module, and imported from
    # there; `import planetree` loads no submodule.
    path = Path(planetree.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    assert ast.get_docstring(tree) and len(tree.body) == 1


ALLOWED_IMPORTS = {
    "__future__", "argparse", "bisect", "dataclasses", "functools", "itertools",
    "json", "math", "operator", "os", "random", "sys", "typing",
}


def test_the_package_imports_only_listed_standard_modules():
    # The package runs on the standard library alone, and each module it
    # loads adds to the memory of every process that imports it, the
    # benchmark's measuring process included.  A new import must be
    # added to this list on purpose.
    found = []
    for path in sorted(Path(planetree.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # a relative import stays inside the package
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in ALLOWED_IMPORTS
            ]
    assert found == []


def _referenced_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_private_module_level_definition_is_used_in_the_package():
    # A private function or class that nothing else in the package names
    # is dead code, whatever the tests keep using.  References inside the
    # definition itself, such as a recursive call, do not count.
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(Path(planetree.__file__).parent.glob("*.py"))
    }
    refs = Counter(name for tree in trees.values() for name in _referenced_names(tree))
    unused = [
        f"{filename}:{node.lineno} {node.name}"
        for filename, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and refs[node.name] == Counter(_referenced_names(node))[node.name]
    ]
    assert unused == []


def _imported_names(tree):
    return {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


def _root_name(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return getattr(node, "id", None)


def _attributes_read(node, imported):
    """Attribute reads under `node` whose receiver is not an imported name.

    `os.path.exists` or `planetree.builder.FALLBACK` read a module's
    attribute, never a property, so they do not count as reads of a
    property of the same name.
    """
    return Counter(
        sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute)
        and isinstance(sub.ctx, ast.Load)
        and _root_name(sub.value) not in imported
    )


def test_every_property_is_read_by_the_program():
    # A property is a derived view; one that neither the package, outside
    # its own definition, nor the benchmark harness reads is dead code,
    # whatever the tests keep using.  The harness is read with `ast`, not
    # imported.  A read is matched by attribute name alone, leaving out
    # reads off an imported module or name; so a property still passes if
    # an unrelated object elsewhere has an attribute of the same name.
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(Path(planetree.__file__).parent.glob("*.py"))
    }
    harness = Path(__file__).resolve().parents[1] / "perfbench"
    readers = [*trees.values(), *(ast.parse(p.read_text()) for p in harness.glob("*.py"))]
    reads = sum(
        (_attributes_read(tree, _imported_names(tree)) for tree in readers), Counter()
    )
    properties = [
        (filename, node, _imported_names(tree))
        for filename, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(getattr(d, "id", None) == "property" for d in node.decorator_list)
    ]
    assert len(properties) > 3  # the rule has something to hold
    unread = [
        f"{filename}:{node.lineno} {node.name}"
        for filename, node, imported in properties
        if reads[node.name] == _attributes_read(node, imported)[node.name]
    ]
    assert unread == []


MEMOISERS = {"lru_cache", "cache", "cached_property"}


def _decorator_name(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def test_the_package_memoises_only_the_root_count():
    # Each fact is computed once per call and passed down.  The one
    # process-wide cache is the root count in `triangles._empty_triples`;
    # another would make more of a build's cost depend on what ran before.
    memoised, uses = [], 0
    for path in sorted(Path(planetree.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in MEMOISERS:
                uses += 1
            elif isinstance(node, ast.Attribute) and node.attr in MEMOISERS:
                uses += 1
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [_decorator_name(d) for d in node.decorator_list]
                memoised += [f"{path.name} {node.name}" for n in names if n in MEMOISERS]
    assert memoised == ["triangles.py _empty_triples"]
    assert uses == len(memoised)  # no cache built other than by decorator


def _traced_names():
    # The keys of the `wrappers` dict in `Tracer.installed`, read without
    # importing the harness.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    installed = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "installed"
    )
    wrappers = next(
        node.value
        for node in ast.walk(installed)
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "wrappers" for t in node.targets)
    )
    return [key.value for key in wrappers.keys]


def test_the_builder_binds_every_name_the_benchmark_tracer_wraps():
    # The tracer skips a name the builder no longer binds, and its
    # counters then read 0 without an error.
    names = _traced_names()
    assert "has_plane_spanning_tree" in names
    assert [name for name in names if not hasattr(planetree.builder, name)] == []


CERTIFY = "certify_plane_spanning_tree"


def test_only_the_api_boundary_certifies():
    # A tree is certified once, where it leaves the program: the exact
    # layers below (builder levels, the oracle, the convex recurrence)
    # return plain edge sets and leave the check to these callers.
    callers = set()
    for path in sorted(Path(planetree.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            refs = [
                node
                for node in ast.walk(top)
                if isinstance(node, ast.Name) and node.id == CERTIFY
                or isinstance(node, ast.Attribute) and node.attr == CERTIFY
            ]
            if refs:
                callers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert callers == {"builder.build_plane_tree", "cli.cmd_check", "cli.cmd_oracle"}


def _definitions(tree):
    """(name, node) for each top-level statement, with each method of a
    top-level class split out as `Class.method`."""
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        if not isinstance(top, ast.ClassDef):
            yield name, top
            continue
        for node in top.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{name}.{node.name}", node
            else:
                yield name, node


def _callers(path, matches):
    """Names of the definitions in path (top-level, or methods of a
    top-level class) holding a call that `matches`, one entry per call."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.stem}.{name}"
        for name, top in _definitions(tree)
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and matches(node)
    ]


def test_only_build_plane_tree_counts_the_root_witnesses():
    # The root count is passed down: the split scan and the crossing walk
    # take their caller's witnesses, and a side only filters its parent's.
    def root_count(call):
        named = getattr(call.func, "id", None) == "disconnected_empty_triangles"
        return named and all(kw.arg != "inherited" for kw in call.keywords)

    path = Path(planetree.builder.__file__)
    assert _callers(path, root_count) == ["builder.build_plane_tree"]


def test_the_builder_has_one_recursive_function():
    # The induction has one home: `_build` solves every closed side (a
    # leaf, a proper side or the whole graph) by calling itself, and no
    # other function of the builder lies on a cycle of calls.
    path = Path(planetree.builder.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    calls = {
        name: {
            sub.func.id
            for sub in ast.walk(node)
            if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) in functions
        }
        for name, node in functions.items()
    }

    def reached(name):
        seen, todo = set(), list(calls[name])
        while todo:
            callee = todo.pop()
            if callee not in seen:
                seen.add(callee)
                todo += calls[callee]
        return seen

    assert [name for name in functions if name in reached(name)] == ["_build"]
    assert "_build" in calls["_build"]


def test_only_one_helper_decodes_json():
    # One decoder turns every decoding failure into a format error.
    def json_loads(call):
        func = call.func
        return (
            isinstance(func, ast.Attribute)
            and func.attr == "loads"
            and getattr(func.value, "id", None) == "json"
        )

    callers = []
    for path in sorted(Path(planetree.__file__).parent.glob("*.py")):
        callers += _callers(path, json_loads)
    assert callers == ["instance_io._decode"]


def test_one_crossing_sweep_serves_certification_and_the_oracle():
    # The certifier's witness and the oracle's crossing table both come
    # from `graphs.crossing_pairs`; the oracle has no crossing test of
    # its own.
    def sweep(call):
        func = call.func
        return getattr(func, "id", getattr(func, "attr", None)) == "crossing_pairs"

    callers = []
    for path in sorted(Path(planetree.__file__).parent.glob("*.py")):
        callers += _callers(path, sweep)
    assert sorted(callers) == ["graphs.find_crossing_pair", "oracle.has_plane_spanning_tree"]
    oracle = Path(planetree.oracle.__file__)
    names = set(_referenced_names(ast.parse(oracle.read_text(), filename=str(oracle))))
    assert "segments_properly_cross" not in names


def test_only_the_sweep_loop_aligns():
    # `rotation.sweep_states` is the one sweep loop: it alone applies the
    # side laws, so it alone asks for the next alignment.  A scan that
    # wants fewer states stops taking them instead of sweeping itself.
    def aligns(call):
        func = call.func
        return getattr(func, "id", getattr(func, "attr", None)) == "_next_alignment"

    callers = []
    for path in sorted(Path(planetree.__file__).parent.glob("*.py")):
        callers += _callers(path, aligns)
    assert callers and set(callers) == {"rotation.sweep_states"}


# The modules whose every decision is exact.  `generators` rounds points
# on a circle and toward ear centroids to integers, and `svg` scales a
# picture; both may use floats.
EXACT_MODULES = ["geometry", "graphs", "triangles", "rotation", "builder", "convex", "oracle"]


def test_the_exact_modules_form_no_float():
    # No predicate rests on rounding: an exact module divides only with
    # `//`, names no `float` and writes no float literal.
    found = []
    for name in EXACT_MODULES:
        path = Path(planetree.__file__).parent / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
                or isinstance(node, ast.Name) and node.id == "float"
                or isinstance(node, ast.Constant) and isinstance(node.value, float)
            ):
                found.append(f"{name}.py:{node.lineno}")
    assert found == []


def _tables_reads(tree):
    """Lines where the result of `_below_tables` is used other than by
    binding it to plain names or passing it whole to a call."""
    def tables_call(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_below_tables"

    names, whole = set(), set()  # whole: ids of nodes used as a whole value
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and tables_call(node.value):
            if all(isinstance(t, ast.Name) for t in node.targets):
                names.update(t.id for t in node.targets)
                whole.add(id(node.value))
        elif isinstance(node, ast.Call):
            whole.update(id(arg) for arg in [*node.args, *(kw.value for kw in node.keywords)])
    return [
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in whole
        and (tables_call(node) or isinstance(node, ast.Name) and node.id in names
             and isinstance(node.ctx, ast.Load))
    ]


def test_only_the_triangles_module_reads_the_emptiness_tables():
    # The emptiness identity lives in `triangles.py` alone: elsewhere the
    # result of `_below_tables` (order, pos, below) is only passed whole
    # to that module's functions, never unpacked or indexed.
    bad = [
        "order, pos, below = _below_tables(ps)",
        "tables = _below_tables(ps)\nrows = tables[2]",
        "tables = _below_tables(ps)\nfor row in tables: pass",
        "rows = _below_tables(ps)[1]",
    ]
    assert all(_tables_reads(ast.parse(src)) for src in bad)
    assert _tables_reads(ast.parse("t = _below_tables(ps)\nf(t, g(_below_tables(ps)))")) == []
    found = [
        f"{path.name}:{line}"
        for path in sorted(Path(planetree.__file__).parent.glob("*.py"))
        if path.name != "triangles.py"
        for line in _tables_reads(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []
    generators = Path(planetree.__file__).parent / "generators.py"
    assert "_below_tables" in generators.read_text()  # the rule has something to hold


TRUSTING = {
    "geometry.PointSet.subset",
    "generators.convex_position_points",
    "graphs.induced_subgraph",
    "graphs.complete_graph",
    "generators.random_point_set",
    "generators.random_instance",
    "generators.path_complement",
    "generators.r_construction",
}


def test_only_derived_and_generated_records_skip_validation():
    # A record is validated once, where outside data enters (`PointSet`,
    # `GeometricGraph`, `loads_instance`, the CLI).  Only functions whose
    # points or edges are valid by construction may call a `_trusted`
    # constructor, and only those constructors may bypass `__init__`.
    def trusted(call):
        return getattr(call.func, "attr", None) == "_trusted"

    def bypass(call):
        func = call.func
        return getattr(func, "attr", None) == "__new__" and _root_name(func) == "object"

    callers, bypasses = [], []
    for path in sorted(Path(planetree.__file__).parent.glob("*.py")):
        callers += _callers(path, trusted)
        bypasses += _callers(path, bypass)
    assert set(callers) == TRUSTING  # so no `instance_io` or `cli` function
    assert sorted(bypasses) == ["geometry.PointSet._trusted", "graphs.GeometricGraph._trusted"]


def test_generation_validates_nothing_and_loading_validates_once(monkeypatch):
    # During generation nothing is validated: the rounded polygon is
    # certified by its strict hull order alone, and no edge set is checked
    # at all.  A loaded instance is still checked in full, once.
    degeneracy, post_init = [], []
    check_points = geometry._degeneracy
    check_edges = GeometricGraph.__post_init__

    def counted_degeneracy(pts):
        degeneracy.append(1)
        return check_points(pts)

    def counted_post_init(self):
        post_init.append(1)
        check_edges(self)

    monkeypatch.setattr(geometry, "_degeneracy", counted_degeneracy)
    monkeypatch.setattr(GeometricGraph, "__post_init__", counted_post_init)
    graphs = [
        random_instance(9, 1, "complete").graph,
        random_instance(9, 1).graph,
        path_complement(9).graph,
        *(inst.graph for inst in r_construction(9)),
    ]
    assert (degeneracy, post_init) == ([], [])
    for g in graphs:
        assert loads_instance(dumps_instance(g)) == g
        assert (degeneracy, post_init) == ([1], [1])
        degeneracy.clear()
        post_init.clear()
