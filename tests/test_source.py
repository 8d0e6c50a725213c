import ast
import inspect
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


def test_no_public_cap_parameters():
    # every resource cap is a module constant read at call time, never a knob
    from ddmlab.engine import prune
    from ddmlab.verify import FiniteAlgebra

    api = [getattr(ddmlab, name) for name in ddmlab.__all__]
    found = [
        f"{fn.__name__}({name})"
        for fn in [obj for obj in api if callable(obj)] + [FiniteAlgebra, prune]
        for name in inspect.signature(fn).parameters
        if name.endswith("cap")
    ]
    assert found == []


def test_engine_and_verify_leave_set_forms_to_symbolic():
    # whether a set is a bitset or a tree is decided in ``symbolic`` alone
    root = Path(ddmlab.__file__).parent
    forms = {"TREE_CELLS", "_Node", "tree_cells", "_TreeSet"}
    found = []
    for module in ("engine.py", "verify.py"):
        tree = ast.parse((root / module).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name in forms:
                found.append(f"{module}:{node.lineno} {name}")
    assert found == []


def test_walk_and_certificate_stay_inside_the_engine():
    # every optimizer reaches the walk and the certificate re-check through
    # ``engine.RootFront``
    root = Path(ddmlab.__file__).parent
    private = {"_walk", "_certificate"}
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "engine.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name in private:
                found.append(f"{path.relative_to(root)}:{node.lineno} {name}")
    assert found == []


def test_verification_sizes_are_constants_not_parameters():
    # case counts, grids and slacks are fixed; the report names embed them
    from ddmlab import examples, suites, verify

    found = [
        f"{fn.__name__}{inspect.signature(fn)}"
        for fn in suites.SUITES.values()
        if list(inspect.signature(fn).parameters) != ["seed"]
    ]
    found += [
        f"{fn.__name__}({name})"
        for fn, names in (
            (examples.example_two, {"depth", "width"}),
            (examples.alternating_point, {"n"}),
            (verify.check_consistency, {"eps"}),
        )
        for name in names & set(inspect.signature(fn).parameters)
    ]
    assert found == []


def test_public_names_are_classes_and_functions_of_the_package():
    # ``__all__`` is an explicit list: no submodule, alias or constant leaks in
    found = [
        name
        for name in ddmlab.__all__
        if not (inspect.isclass(getattr(ddmlab, name)) or inspect.isfunction(getattr(ddmlab, name)))
        or not getattr(ddmlab, name).__module__.startswith("ddmlab.")
    ]
    assert found == []
    assert len(set(ddmlab.__all__)) == len(ddmlab.__all__)
