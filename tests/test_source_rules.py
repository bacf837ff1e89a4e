import ast
from collections import Counter
from pathlib import Path

import planetree
import planetree.builder
import planetree.oracle


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


def _callers(path, matches):
    """Names of the top-level definitions in path holding a call that
    `matches`, one entry per call."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.stem}.{getattr(top, 'name', '<module>')}"
        for top in tree.body
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
