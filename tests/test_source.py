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


def test_walk_prices_nodes_through_eval_shifted_and_sets_through_init():
    """``perfbench/tracer.py`` counts ``engine.nodes`` as the
    ``measures.eval_shifted`` calls made under a solve, and
    ``symbolic.windowsets_built`` as the calls of ``WindowSet.__init__``.
    Until the library keeps these counters itself, the walk prices each
    node through ``eval_shifted`` on a cylinder made from the node's rank
    by ``WindowSet.ranked_cylinder`` and through no other pricing function,
    and ``symbolic`` builds no set around ``__init__``; otherwise both
    counters would read low while the work is still done."""
    root = Path(ddmlab.__file__).parent

    def names(tree):
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name:
                yield node.lineno, name

    engine = ast.parse((root / "engine.py").read_text(encoding="utf-8"))
    # the walk is the function ``_walk`` and the class ``_Walk`` of its nodes
    walk = [
        node for node in ast.walk(engine)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in ("_walk", "_Walk")
    ]
    assert len(walk) == 2
    used = {name for part in walk for _, name in names(part)}
    assert {"eval_shifted", "ranked_cylinder"} <= used
    pricing = {"cell_value", "_cell_sum", "eval0"}
    found = [
        f"engine.py:{line} {name}" for part in walk for line, name in names(part)
        if name in pricing
    ]
    symbolic = ast.parse((root / "symbolic.py").read_text(encoding="utf-8"))
    found += [f"symbolic.py:{line} {name}" for line, name in names(symbolic) if name == "__new__"]
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


def test_no_caller_picks_the_keep_rule():
    """The walk keeps the first cheapest option of one cost component and
    the Pareto antichain of more, so ``RootFront``, ``_walk`` and ``_Walk``
    take no keep rule and no module hands them ``prune`` or ``_cheapest``."""
    from ddmlab import engine

    for fn in (engine.RootFront, engine._walk, engine._Walk):
        assert "keep" not in inspect.signature(fn).parameters
    root = Path(ddmlab.__file__).parent
    rules = {"prune", "_cheapest"}
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if callee not in ("RootFront", "_walk", "_Walk"):
                continue
            for arg in node.args + [k.value for k in node.keywords]:
                name = getattr(arg, "id", None) or getattr(arg, "attr", None)
                if name in rules:
                    found.append(f"{path.relative_to(root)}:{node.lineno} {name}")
    assert found == []


def test_root_fronts_stay_integer_until_a_certificate():
    """The walk adds and compares integer numerators, and a root front keeps
    them up to the certificate, whose re-price through ``covers`` makes the
    rationals; ``_walk``, ``_Walk`` and ``RootFront`` make no ``Fraction``,
    and read no ``ZERO``, which is one."""
    root = Path(ddmlab.__file__).parent
    tree = ast.parse((root / "engine.py").read_text(encoding="utf-8"))
    parts = [
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name in ("_walk", "_Walk", "RootFront")
    ]
    assert len(parts) == 3
    found = [
        f"engine.py:{node.lineno} {node.id}" for part in parts for node in ast.walk(part)
        if isinstance(node, ast.Name) and node.id in ("Fraction", "ZERO")
    ]
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


def test_node_fronts_are_shared_only_by_their_owners():
    """A memo of node numerators, node fronts, frames and witness checks
    lives in one ``verify.phi_handle``, one ``verify.psi_handle``, one
    ``budgeted.psi_eps_grid`` call or one ``budgeted._chain`` call, and
    reaches the walk and the certificate through ``engine.RootFront``;
    ``engine`` keeps none at module level.  A cache that outlived its owner
    would serve repeated solves, such as a benchmark's passes, from memory,
    and would keep every front alive."""
    from ddmlab import engine

    root = Path(ddmlab.__file__).parent
    owners = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        scopes = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        scopes += [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for node in cls.body if isinstance(node, ast.FunctionDef)]
        for scope in scopes:
            for node in ast.walk(scope):
                if isinstance(node, ast.Call) and any(k.arg == "memo" for k in node.keywords):
                    owners.append((path.name, scope.name))
    # RootFront.__init__ hands its own parameter to the walk, and
    # phi_truncated through _phi_optimum to RootFront
    assert sorted(set(owners)) == [
        ("budgeted.py", "_chain"), ("budgeted.py", "psi_eps_grid"),
        ("engine.py", "__init__"), ("engine.py", "_phi_optimum"),
        ("engine.py", "phi_truncated"), ("verify.py", "phi_handle"),
        ("verify.py", "psi_handle"),
    ]
    # the memo is keyword-only, so no call passes it by position
    for fn in (engine._walk, engine.RootFront, engine._phi_optimum, engine.phi_truncated):
        param = inspect.signature(fn).parameters["memo"]
        assert (param.kind, param.default) == (inspect.Parameter.KEYWORD_ONLY, None)
    # no module-level dict and no function cache in the engine
    tree = ast.parse((root / "engine.py").read_text(encoding="utf-8"))
    for node in tree.body:
        value = getattr(node, "value", None)
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and value is not None:
            called = getattr(getattr(value, "func", None), "id", None)
            assert not isinstance(value, (ast.Dict, ast.DictComp)), ast.dump(node)
            assert called not in ("dict", "defaultdict", "OrderedDict"), ast.dump(node)
    names = {getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
             for node in ast.walk(tree)}
    assert not names & {"functools", "lru_cache"}
    held = [name for name, value in vars(engine).items()
            if not name.startswith("__") and isinstance(value, dict)]
    assert held == []


def test_price_tables_are_owned_by_the_chain_alone():
    """A chain's node prices, witness checks and frame live in the one memo
    of its ``budgeted._chain`` call, whose levels share one query and one
    truncation; the memo is the only sharing keyword, so no parameter or
    keyword anywhere is named ``prices``, and ``budgeted`` keeps no table at
    module level, where it would serve a later chain, on another query,
    from another chain's frame and prices."""
    from ddmlab import budgeted, engine

    root = Path(ddmlab.__file__).parent
    prices = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        prices += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.arg) and node.arg == "prices"
            or isinstance(node, ast.keyword) and node.arg == "prices"
        ]
    assert prices == []
    # the memo is the only keyword-only parameter of the walk, the root and
    # the public solve
    for fn in (engine._walk, engine.RootFront, engine._phi_optimum, engine.phi_truncated):
        params = inspect.signature(fn).parameters
        assert [p.name for p in params.values() if p.kind is p.KEYWORD_ONLY] == ["memo"]
    # the memo test above checks ``engine`` for a module-level cache
    tree = ast.parse((root / "budgeted.py").read_text(encoding="utf-8"))
    for node in tree.body:
        value = getattr(node, "value", None)
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and value is not None:
            called = getattr(getattr(value, "func", None), "id", None)
            assert not isinstance(value, (ast.Dict, ast.DictComp)), ast.dump(node)
            assert called not in ("dict", "defaultdict", "OrderedDict"), ast.dump(node)
    held = [name for name, value in vars(budgeted).items()
            if not name.startswith("__") and isinstance(value, dict)]
    assert held == []


def test_suites_keep_no_hand_rolled_verdicts():
    """A suite check collects its own failing cases and hands them to
    ``Report.expect``; a flag and a ``detail`` shared across checks let a
    FAIL name another check's case and a PASS carry one."""
    root = Path(ddmlab.__file__).parent
    found = []
    for module in ("suites.py", "examples.py"):
        tree = ast.parse((root / module).read_text(encoding="utf-8"))
        found += [
            f"{module}:{node.lineno} {node.id}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            and (node.id in ("ok", "detail") or node.id.endswith("_ok"))
        ]
    assert found == []


def test_each_measure_answers_its_own_bound():
    """Whether taking a full node attains its subtree optimum is asked of
    ``CylinderMeasure.takes``: the engine keeps only the full-node guard and
    knows no decision table, and no measure hands its parts over."""
    root = Path(ddmlab.__file__).parent
    found = []
    engine = ast.parse((root / "engine.py").read_text(encoding="utf-8"))
    for node in ast.walk(engine):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, ast.alias):
            name = node.name
        if name in ("transfer", "DecisionTable") or (isinstance(node, ast.Attribute)
                                                      and name == "table"):
            found.append(f"engine.py:{node.lineno} {name}")
    measures = ast.parse((root / "measures.py").read_text(encoding="utf-8"))
    found += [
        f"measures.py:{node.lineno} {cls.name}.{node.name}"
        for cls in measures.body if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "transfer"
    ]
    assert found == []


def test_symbolic_shares_values_only_in_capped_tables():
    """``symbolic`` keeps process-wide tables of windows, tree nodes, words
    and single-word cylinders, and no other: the node table is weak, the
    window table holds only windows inside the coordinate bound, ``_OPS`` is
    the fixed table of the set operations, and every insertion into the
    word and cylinder tables sits behind ``SHARED_CAP``.  An unbounded
    process-wide cache would serve repeated solves, such as a benchmark's
    passes, from ever more memory."""
    import weakref

    from ddmlab import symbolic

    held = {name for name, value in vars(symbolic).items()
            if not name.startswith("__") and isinstance(value, dict)}
    assert held == {"_OPS", "_WINDOWS", "_WORDS", "_CYLINDERS"}
    assert isinstance(symbolic._NODES, weakref.WeakValueDictionary)

    root = Path(ddmlab.__file__).parent
    tree = ast.parse((root / "symbolic.py").read_text(encoding="utf-8"))
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def capped(node):
        while node in parents:
            node = parents[node]
            if isinstance(node, ast.If) and any(
                    getattr(name, "id", None) == "SHARED_CAP" for name in ast.walk(node.test)):
                return True
        return False

    stores, found = [], []
    for node in ast.walk(tree):
        table = getattr(getattr(node, "value", None), "id", None)
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            stores.append(table)
            if table == "_OPS" or (table in ("_WORDS", "_CYLINDERS") and not capped(node)):
                found.append(f"symbolic.py:{node.lineno} {table}[...] =")
        elif isinstance(node, ast.Attribute) and table in ("_OPS", "_WORDS", "_CYLINDERS"):
            if node.attr != "get":
                found.append(f"symbolic.py:{node.lineno} {table}.{node.attr}")
    assert found == []
    assert {"_WORDS", "_CYLINDERS"} <= set(stores)


def test_the_walk_counters_stay_tied_to_cell_values():
    """``perfbench/tracer.py`` counts ``measures.cell_value.calls`` at every
    kind's ``cell_value``.  A walk node is a single-word cylinder, and
    ``measures._cell_sum`` prices a single word through ``cell_value``
    alone; ``CylinderMeasure.set_value``, which prices a multi-word bitset
    in one call, is never named by the engine.  Otherwise the counter would
    stop seeing the walk until the library counts its own work."""
    from fractions import Fraction

    from ddmlab import measures, symbolic

    root = Path(ddmlab.__file__).parent
    engine = ast.parse((root / "engine.py").read_text(encoding="utf-8"))
    found = [
        f"engine.py:{node.lineno}" for node in ast.walk(engine)
        if "set_value" in (getattr(node, "id", None), getattr(node, "attr", None),
                           getattr(node, "name", None))
    ]
    assert found == []

    class Cells(measures.BernoulliMeasure):
        def __init__(self):
            super().__init__((Fraction(1, 3), Fraction(2, 3)))
            self.cells = 0

        def cell_value(self, lo, word):
            self.cells += 1
            return super().cell_value(lo, word)

        def set_value(self, at, n, span, bits):
            raise AssertionError("a single word was priced as a set")

    mu = Cells()
    for span in (1, 2, 3):
        for rank in range(2 ** span):
            cylinder = symbolic.WindowSet.ranked_cylinder(2, 1, span, rank)
            ones = bin(rank).count("1")
            assert measures.eval_shifted(mu, -1, cylinder) == Fraction(2 ** ones, 3 ** span)
    assert mu.cells == 2 + 4 + 8


def test_every_public_helper_has_a_caller():
    """A public module-level function or class of the package that is not in
    ``__all__`` is named somewhere in ``src/`` or ``perfbench/`` outside its
    own definition: a helper that nothing calls is removed, not kept for
    the tests alone."""
    from collections import Counter

    root = Path(ddmlab.__file__).parent
    bench = root.parents[1] / "perfbench"
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(root.rglob("*.py")) + sorted(bench.rglob("*.py"))
    }
    assert any(path.parent == bench for path in trees)

    def named(tree):
        return Counter(
            node.name if isinstance(node, ast.alias)
            else getattr(node, "id", None) or getattr(node, "attr", None)
            for node in ast.walk(tree)
        )

    everywhere = sum((named(tree) for tree in trees.values()), Counter())
    found = [
        f"{path.relative_to(root)}:{node.lineno} {node.name}"
        for path, tree in trees.items() if path.parent != bench
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in ddmlab.__all__
        and everywhere[node.name] == named(node)[node.name]
    ]
    assert found == []
