import ast
from collections import Counter
from pathlib import Path

import planetree


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
