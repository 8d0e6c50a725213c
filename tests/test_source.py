import ast
from pathlib import Path

import ddmlab


def test_no_assert_statements_in_the_package():
    # every guard of a result must survive python -O, which strips asserts
    root = Path(ddmlab.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(root)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
