"""The full-subtree bound of the take-or-split walk and the lazy frame.

A node whose grading floor is at or left of the query's canonical left edge
has a full subtree, whose optimum under a measure in Markov form is
T(w) * h(w0, k).  The walk stops at such a node when taking it attains that
optimum in every cost component.  These tests pin the closed form against
the unbounded tree, the guard against partial subtrees, and the bounded
walk against the unbounded walk and the enumeration oracles.  Any node,
full or partial, that costs 0 in every nonnegative component is taken as
well.  Both rules are switched off by patching ``engine._take_attains``
inside a test.
"""

import random
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from ddmlab import budgeted, engine, measures, suites, symbolic
from ddmlab.budgeted import BudgetedProblem, brute_force_psi, psi_budgeted
from ddmlab.covers import TruncationConfig, cover_cost, is_valid_cover
from ddmlab.errors import BitsetCapError, InfeasibleError
from ddmlab.symbolic import WindowSet

CHAIN_A = ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)))
# not stationary, so its decision tables split some full nodes
UNIFORM_CHAIN = measures.MarkovMeasure((F(1, 2), F(1, 2)), CHAIN_A)

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def cyl(j, *word):
    return WindowSet.cylinder(2, j, word)


@contextmanager
def unbounded():
    """The walk with the full-subtree bound switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_take_attains", lambda *args: False)
        yield


def counted_walk(monkeypatch):
    """Patch the walk's pricing to count the nodes it visits."""
    nodes = []
    price = measures.eval_shifted
    monkeypatch.setattr(measures, "eval_shifted", lambda *args: nodes.append(1) or price(*args))
    return nodes


def markov_form_measures():
    rng = random.Random(5)
    chain = measures.MarkovMeasure(suites.random_distribution(rng, 2),
                                   suites.random_stochastic_matrix(rng, 2))
    return {
        "markov": chain,
        "uniform chain": UNIFORM_CHAIN,
        "stationary": measures.stationary_markov(CHAIN_A),
        "bernoulli": measures.BernoulliMeasure((F(1, 3), F(2, 3))),
        "cesaro of markov": measures.cesaro(UNIFORM_CHAIN, 2),
        "convex of chains sharing one matrix": measures.ConvexMeasure(
            (F(1, 3), F(2, 3)), (UNIFORM_CHAIN, measures.MarkovMeasure((F(1, 5), F(4, 5)), CHAIN_A))),
    }


class TestDecisionTables:
    @pytest.mark.parametrize("name", sorted(markov_form_measures()))
    def test_closed_form_equals_the_unbounded_tree(self, name):
        # cyl(0, [s, t]) is full from the root on: its optimum is
        # a[s][t] * h(s, D) at coordinate 0; the base-graded tree at shift -1
        # reads every node at coordinate 1
        mu = markov_form_measures()[name]
        for base_graded, at in ((False, 0), (True, 1)):
            solve = engine.phi_paren_truncated if base_graded else engine.phi_truncated
            table = mu.table(at)
            for s, t in ((0, 1), (1, 1)):
                q = cyl(0, s, t)
                transition = table.a[s][t]
                for depth in range(13):
                    cfg = TruncationConfig(depth, 0, -at)
                    with unbounded():
                        tree = solve(q, mu, cfg).value
                    table.takes(s, depth)
                    assert tree == transition * table.rows[depth][s], (name, at, s, depth)
                    assert solve(q, mu, cfg).value == tree

    def test_convex_mix_answers_with_its_parts(self):
        # at coordinate 0 the point mass at 0101... prices (0,) at 1 and (1,)
        # at 0; the uniform product measure takes every full node
        point = measures.DiracMeasure(2, (0, 1))
        product = measures.BernoulliMeasure((F(1, 2), F(1, 2)))
        assert product.takes(0, (0,), 3) and product.takes(0, (1,), 3)
        # takes is asked only at a positive price, and a measure with no
        # table answers no; the node (1,) that the point mass prices 0 is
        # taken by the walk's zero-price stop, inside _take_attains
        assert not point.takes(0, (0,), 1)
        assert engine._take_attains([point], (0,), 1, 0, 2, 1, 1)
        assert not engine._take_attains([point], (1,), 1, 0, 2, 1, 0)
        assert UNIFORM_CHAIN.takes(0, (1,), 1) and not UNIFORM_CHAIN.takes(0, (0,), 1)
        # a zero-weight part is skipped, and a lone part of positive weight
        # lends its table, to a Cesàro average too
        assert measures.ConvexMeasure((F(1), F(0)), (product, point)).takes(0, (0,), 1)
        lone = measures.ConvexMeasure((F(1), F(0)), (UNIFORM_CHAIN, point))
        assert lone.table(1) is UNIFORM_CHAIN.table(1)
        averaged = measures.cesaro(UNIFORM_CHAIN, 1).table(0)
        assert measures.cesaro(lone, 1).table(0).rho == averaged.rho
        # a point-mass part that prices the node above 0 blocks
        mix = measures.ConvexMeasure((F(1, 2), F(1, 2)), (product, point))
        assert mix.takes(0, (1,), 1) and not mix.takes(0, (0,), 1)
        assert mix.table(0) is None
        # a convex mix nested in a convex mix composes
        nested = measures.ConvexMeasure((F(1, 3), F(2, 3)), (mix, product))
        assert nested.takes(0, (1,), 5) and not nested.takes(0, (0,), 5)
        inner = measures.ConvexMeasure((F(1, 2), F(1, 2)), (product, product))
        nested = measures.ConvexMeasure((F(1, 3), F(2, 3)), (inner, UNIFORM_CHAIN))
        assert nested.takes(0, (1,), 1) and not nested.takes(0, (0,), 1)

    def test_a_measure_without_a_table_is_not_priced_again(self, monkeypatch):
        # takes is asked at a price the walk already holds above 0, so a
        # point mass answers no unpriced, and so does a mix of such parts
        # alone; a mix with a part that may take prices only the others
        point = measures.DiracMeasure(2, (0, 1))
        mix = measures.ConvexMeasure((F(1, 2), F(1, 2)), (UNIFORM_CHAIN, point))
        words = []
        price = measures.DiracMeasure.cell_value
        monkeypatch.setattr(measures.DiracMeasure, "cell_value",
                            lambda self, lo, word: words.append(word) or price(self, lo, word))
        assert not point.takes(0, (0,), 1)
        assert not measures.cesaro(point, 2).takes(0, (0,), 1)
        assert words == []
        assert UNIFORM_CHAIN.takes(0, (1,), 1) and mix.takes(0, (1,), 1)
        assert words == [(1,)]

    def test_one_table_per_distinct_marginal(self):
        # a product or stationary chain reads the same marginal everywhere
        for mu in (measures.BernoulliMeasure((F(1, 3), F(2, 3))),
                   measures.stationary_markov(CHAIN_A)):
            assert mu.table(0) is mu.table(3)
        # a chain started off its stationary vector does not
        tables = [UNIFORM_CHAIN.table(at) for at in range(3)]
        assert len({id(table) for table in tables}) == 3
        assert tables[0].rho != tables[1].rho
        assert UNIFORM_CHAIN.table(1) is tables[1]

    def test_chain_tables_are_looked_up_per_coordinate(self, monkeypatch):
        # a repeated coordinate neither recomputes nor hashes its marginal
        for mu in (measures.MarkovMeasure((F(1, 2), F(1, 2)), CHAIN_A),
                   measures.BernoulliMeasure((F(1, 3), F(2, 3)))):
            tables = [mu.table(at) for at in range(3)]

            def marginal(lo):
                raise AssertionError(f"marginal at {lo} read again")

            monkeypatch.setattr(mu, "_marginal", marginal)
            assert [mu.table(at) for at in range(3)] == tables
            assert all(mu.table(at) is t for at, t in enumerate(tables))

    def test_cesaro_tables_are_kept_per_averaged_marginal(self):
        # the average of a product measure's marginals is one vector
        avg = measures.cesaro(measures.BernoulliMeasure((F(1, 3), F(2, 3))), 2)
        assert avg.table(0) is avg.table(3)
        # a chain started off its stationary vector averages new ones
        avg = measures.cesaro(UNIFORM_CHAIN, 1)
        tables = [avg.table(at) for at in range(3)]
        assert len({table.rho for table in tables}) == 3
        assert avg.table(1) is tables[1]

    def test_a_mix_of_chains_sharing_one_matrix_has_the_mixed_table(self):
        # w1 * rho1[w0] * T(w) + w2 * rho2[w0] * T(w) is rho[w0] * T(w) with
        # rho = w1 * rho1 + w2 * rho2; other matrices leave the mix without one
        other = measures.MarkovMeasure((F(1, 5), F(4, 5)), CHAIN_A)
        mix = measures.ConvexMeasure((F(1, 3), F(2, 3)), (UNIFORM_CHAIN, other))
        for at in range(3):
            rho = tuple(F(1, 3) * x + F(2, 3) * y
                        for x, y in zip(UNIFORM_CHAIN.table(at).rho, other.table(at).rho))
            table, reference = mix.table(at), measures.DecisionTable(rho, CHAIN_A)
            assert (table.rho, table.a) == (rho, CHAIN_A)
            assert [table.takes(s, k) for k in range(8) for s in (0, 1)] == [
                reference.takes(s, k) for k in range(8) for s in (0, 1)]
            assert table.rows == reference.rows
            assert mix.takes(at, (0, 1), 5) == reference.takes(0, 5)
        product = measures.BernoulliMeasure((F(1, 3), F(2, 3)))
        assert measures.ConvexMeasure((F(1, 2), F(1, 2)), (UNIFORM_CHAIN, product)).table(0) is None

    def test_cesaro_of_a_point_mass_has_no_table(self):
        avg = measures.cesaro(measures.DiracMeasure(2, (0, 1)), 2)
        assert avg.table(0) is None


class TestFullSubtreeGuard:
    def test_partial_subtree_is_never_bounded(self):
        # the root node [0] of cyl(-1, [0]) is partial: only its extension
        # by 0 lies in the query.  Bernoulli takes every full node, so a
        # bound at the root would charge it whole, at p[s], not p[0] * p[s]
        mu = measures.BernoulliMeasure((F(1, 3), F(2, 3)))
        q = cyl(-1, 0)
        cfg = TruncationConfig(1, 0, 0)
        assert engine.phi_truncated(q, mu, cfg).value == F(1, 3)
        assert engine.brute_force_phi(q, mu, cfg) == F(1, 3)

    def test_bound_stops_full_subtrees(self, monkeypatch):
        # the Bernoulli measure takes every full node: one node per root
        mu = measures.BernoulliMeasure((F(1, 3), F(2, 3)))
        nodes = counted_walk(monkeypatch)
        engine._walk(engine.build_frame(cyl(0, 0), TruncationConfig(12, 1, 0)),
                     [mu], engine._cheapest)
        assert len(nodes) == 2
        nodes.clear()
        with unbounded():
            engine._walk(engine.build_frame(cyl(0, 0), TruncationConfig(6, 1, 0)),
                         [mu], engine._cheapest)
        assert len(nodes) == 2 * (2 ** 7 - 1)

    def test_signed_components_are_never_bounded(self, monkeypatch):
        signed = measures.SignedDiffMeasure(measures.BernoulliMeasure((F(1, 2), F(1, 2))),
                                            F(1, 4), UNIFORM_CHAIN)
        nodes = counted_walk(monkeypatch)
        frame = engine.build_frame(cyl(0, 0), TruncationConfig(3, 0, 0))
        engine._walk(frame, [UNIFORM_CHAIN, signed], budgeted.prune)
        assert len(nodes) == 2 * (2 ** 4 - 1)  # every node, both components


class TestZeroNodes:
    # the point mass at 000... prices a node at 0 unless its word is all 0s;
    # the query reads coordinate -2, so at D=2 every node that may split is
    # partial and no decision table is ever consulted
    POINT = measures.DiracMeasure(2, (0,))
    CFG = TruncationConfig(2, 1, 0)

    def query(self):
        return symbolic.union_all(
            2, [cyl(-2, 0, 0, 0), cyl(-2, 1, 0, 1), cyl(-1, 1, 1), cyl(-2, 0, 1, 0)]
        )

    def test_zero_priced_partial_nodes_stop(self, monkeypatch):
        q = self.query()
        frame = engine.build_frame(q, self.CFG)
        assert frame.qlo - frame.floor0 == -self.CFG.depth
        nodes = counted_walk(monkeypatch)
        bounded = solved(engine.phi_truncated, q, self.POINT, self.CFG)
        visited = len(nodes)
        nodes.clear()
        with unbounded():
            assert solved(engine.phi_truncated, q, self.POINT, self.CFG) == bounded
        assert visited < len(nodes)
        assert bounded[0] == 1 == engine.brute_force_phi(q, self.POINT, self.CFG)

    def test_signed_components_walk_every_node_even_at_zero(self, monkeypatch):
        # the signed difference of the point mass and itself is 0 everywhere
        zero = measures.SignedDiffMeasure(self.POINT, 1, self.POINT)
        frame = engine.build_frame(self.query(), self.CFG)
        nodes = counted_walk(monkeypatch)
        engine._walk(frame, [self.POINT, zero], budgeted.prune)
        visited = len(nodes)
        nodes.clear()
        with unbounded():
            engine._walk(frame, [self.POINT, zero], budgeted.prune)
        assert visited == len(nodes)


class TestLazyFrame:
    def test_cells_listed_from_the_query_or_the_top_floor(self):
        frame = engine.build_frame(cyl(0, 1), TruncationConfig(9, 1, 0))
        assert (frame.qlo, frame.wlo, frame.whi) == (0, -9, 1)
        assert frame.cells == (2, 3)  # words 10 and 11 on [0, 1]
        frame = engine.build_frame(cyl(-2, 1), TruncationConfig(1, 0, -1))
        assert (frame.qlo, frame.floor0, frame.wlo) == (-2, -1, -2)
        assert frame.cells == (2, 3)  # words 10 and 11 on [-2, -1]

    def test_the_cap_bites_on_the_cell_listing_not_on_a_node(self):
        # the chain splits full nodes down to level -D, so at D=30 its walk
        # reaches nodes 32 coordinates wide, which are kept as trees; the
        # query cells are listed on [0, 25], past the 2**22-cell cap
        cert = engine.phi_truncated(cyl(0, 0), UNIFORM_CHAIN, TruncationConfig(30, 1, 0))
        assert cert.value == F(2 ** 30 + 1, 2 ** 32)
        assert is_valid_cover(cyl(0, 0), cert.witness)
        assert cover_cost(cert.witness, UNIFORM_CHAIN) == cert.value
        with pytest.raises(BitsetCapError, match="span 26"):
            engine.phi_truncated(cyl(0, 0), UNIFORM_CHAIN, TruncationConfig(1, 25, 0))

    def test_deep_point_mass_solves_with_a_checked_witness(self):
        point = measures.DiracMeasure(2, (0, 1))
        full = WindowSet.full_space(2)
        cert = engine.phi_truncated(full, point, TruncationConfig(30, 10, 0))
        assert cert.value == 0
        assert is_valid_cover(full, cert.witness)
        assert cover_cost(cert.witness, point) == 0


# -- bounded walk against the unbounded walk and the oracles ---------------


KINDS = ("dirac", "markov", "bernoulli", "cesaro", "convex", "stationary", "cesaro of markov",
         "convex of convex", "convex with a Cesàro of a chain",
         "convex of chains sharing one matrix")


def draw_measure(rng, kind):
    if kind == "signed":
        return measures.SignedDiffMeasure(suites.random_measure(rng, 2), F(rng.randint(0, 2), 2),
                                          suites.random_measure(rng, 2))
    if kind == "stationary":
        return measures.stationary_markov(suites.random_stochastic_matrix(rng, 2))
    if kind == "cesaro of markov":
        return measures.cesaro(suites.random_measure(rng, 2, "markov"), rng.randint(1, 2))
    if kind == "convex of convex":
        return measures.ConvexMeasure((F(1, 3), F(2, 3)), (suites.random_measure(rng, 2, "convex"),
                                                           draw_measure(rng, "markov")))
    if kind == "convex of chains sharing one matrix":
        a = suites.random_stochastic_matrix(rng, 2)
        return measures.ConvexMeasure((F(1, 4), F(3, 4)), [
            measures.MarkovMeasure(suites.random_distribution(rng, 2), a) for _ in range(2)])
    if kind == "convex with a Cesàro of a chain":
        return measures.ConvexMeasure((F(1, 4), F(3, 4)), (draw_measure(rng, "cesaro of markov"),
                                                           draw_measure(rng, "bernoulli")))
    return suites.random_measure(rng, 2, kind)


@st.composite
def instances(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    q = suites.random_window_set(rng, 2, lo_range=(-2, 1), max_span=3, allow_degenerate=True)
    if q.is_empty:
        q = WindowSet.full_space(2)
    cfg = TruncationConfig(draw(st.integers(1, 3)), draw(st.integers(0, 1)),
                           draw(st.sampled_from([0, -1])))
    return q, cfg, rng


def solved(solve, q, mu, cfg):
    cert = solve(q, mu, cfg)
    return cert.value, [(m, a.literal()) for m, a in cert.witness.entries]


@SETTINGS
@given(instances(), st.sampled_from(KINDS), st.booleans())
def test_bound_keeps_value_and_witness(instance, kind, base_graded):
    q, cfg, rng = instance
    mu = draw_measure(rng, kind)
    solve = engine.phi_paren_truncated if base_graded else engine.phi_truncated
    bounded = solved(solve, q, mu, cfg)
    with unbounded():
        assert solved(solve, q, mu, cfg) == bounded
    if cfg.depth <= 2:
        assert bounded[0] == engine.brute_force_phi(q, mu, cfg, base_graded)


def front_of(q, comps, cfg):
    root = engine.RootFront(q, comps, cfg, budgeted.prune)
    return root.frame, [(tuple(map(F, vec, root.dens)), engine._witness(root, trace))
                        for vec, trace in root.options]


def nondominated(vectors):
    vectors = set(vectors)
    return sorted(v for v in vectors
                  if not any(u != v and all(a <= b for a, b in zip(u, v)) for u in vectors))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(instances(), st.sampled_from(KINDS), st.sampled_from(KINDS + ("signed",)))
def test_fronts_agree_with_joint_enumeration(instance, kind, constraint_kind):
    q, cfg, rng = instance
    comps = [draw_measure(rng, kind), draw_measure(rng, constraint_kind)]
    frame, front = front_of(q, comps, cfg)
    with unbounded():
        assert front_of(q, comps, cfg)[1] == front
    leaves = [leaf for classes in engine._finest_classes(q, frame) for leaf in classes]
    assume((cfg.depth + 1) ** len(leaves) <= 5000)
    costs = engine._labeling_costs(frame, comps)
    assert [vec for vec, _ in front] == nondominated(costs(leaves))
    # a strict budget just above each front vector's constraint cost
    for vec, _ in front:
        problem = BudgetedProblem(q, comps[0], ((comps[1], vec[1] + F(1, 10 ** 6)),), cfg)
        try:
            value = psi_budgeted(problem).value
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                brute_force_psi(problem)
            continue
        assert value == brute_force_psi(problem)[0]


def test_bounded_walk_visits_fewer_nodes_on_deep_solves(monkeypatch):
    nodes = counted_walk(monkeypatch)
    mix = suites.random_measure(random.Random(3), 2, "convex")
    engine.phi_truncated(cyl(0, 0), mix, TruncationConfig(10, 1, 0))
    bounded = len(nodes)
    nodes.clear()
    with unbounded():
        engine.phi_truncated(cyl(0, 0), mix, TruncationConfig(10, 1, 0))
    assert bounded < len(nodes) // 10

