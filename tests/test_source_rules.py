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
