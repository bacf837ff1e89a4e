import ast
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
