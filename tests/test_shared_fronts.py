"""Node fronts shared through a memo.

Below a full node (floor at or left of the query's canonical left edge)
every left extension of the word lies in Q, and a leaf has nothing below
it, so the fronts of both depend on the query only through the coordinate
the nodes are read at, the deepest floor and the right edge, besides the
keep rule and the measures.  Walks that share a memo reuse those fronts:
the queries of one ``verify.phi_handle`` or ``verify.psi_handle`` and the
shifts of one ``budgeted.psi_eps_grid``.  Every entry of a memo is keyed by
all it depends on, so any solves may share one, whatever their measures,
keep rules, right edges and gradings.  A partial node's front depends on
the cells of Q below it and must never be reused; the pair test below is
the trap for it.
"""

import random
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ddmlab import budgeted, engine, measures, suites, symbolic
from ddmlab.covers import TruncationConfig
from ddmlab.symbolic import WindowSet
from ddmlab.verify import FiniteAlgebra, phi_handle, psi_handle

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)
KINDS = ("dirac", "markov", "bernoulli", "cesaro", "convex")
CHAIN_A = ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)))
# not stationary, so its decision tables split some full nodes
UNIFORM_CHAIN = measures.MarkovMeasure((F(1, 2), F(1, 2)), CHAIN_A)


def draw_measure(rng, kind):
    if kind == "signed":
        return measures.SignedDiffMeasure(suites.random_measure(rng, 2), F(rng.randint(0, 2), 2),
                                          suites.random_measure(rng, 2))
    return suites.random_measure(rng, 2, kind)


def cyl(j, *word):
    return WindowSet.cylinder(2, j, word)


def same_certificate(shared, fresh):
    """Equal certificates and witness literals."""
    assert shared == fresh
    assert [(m, e.literal()) for m, e in shared.witness.entries] == [
        (m, e.literal()) for m, e in fresh.witness.entries
    ]


def same_root(shared, fresh):
    """Equal option vectors and traces, witness literals and certificates."""
    assert type(shared.options) is tuple
    assert shared.options == fresh.options
    for k in range(len(fresh.options)):
        same_certificate(shared.certificate(k), fresh.certificate(k))


@st.composite
def pinned_queries(draw):
    """Two to four queries of one pinned config, with a component list."""
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    depth, shift = draw(st.integers(0, 2)), draw(st.sampled_from([0, -1, -2]))
    cfg = TruncationConfig(depth, 0, shift, window_lo=min(-1, shift - depth), window_hi=2)
    queries = [
        suites.random_window_set(rng, 2, lo_range=(-1, 1), max_span=2, allow_degenerate=True)
        for _ in range(draw(st.integers(2, 4)))
    ]
    comps = [draw_measure(rng, draw(st.sampled_from(KINDS + ("signed",)))),
             draw_measure(rng, draw(st.sampled_from(KINDS)))]
    return cfg, queries, comps


def front_tables(memo):
    """The memo's node front tables, keyed by (keep, comps, at, floor_d,
    whi, dens)."""
    return [table for key, table in memo.items() if key[0] in (engine.prune, engine._cheapest)]


@SETTINGS
@given(pinned_queries(), st.booleans())
def test_queries_through_one_memo_equal_fresh_walks(instance, base_graded):
    cfg, queries, comps = instance
    memo: dict = {}
    for q in queries:
        for keep in (engine.prune, engine._cheapest):
            parts = comps if keep is engine.prune else comps[1:]
            shared = engine.RootFront(q, parts, cfg, keep, base_graded, memo=memo)
            same_root(shared, engine.RootFront(q, parts, cfg, keep, base_graded))
    assert all(type(front) is tuple for fronts in front_tables(memo) for front in fronts.values())


def test_one_memo_across_two_measures_serves_each_its_own_fronts():
    # the two Bernoulli measures put 1/3 and 2/3 on the symbol 0, and so on
    # the query; a front kept for one and read back for the other fails its
    # certificate
    q, cfg = cyl(0, 0), TruncationConfig(2, 1, 0, window_lo=-2, window_hi=1)
    memo: dict = {}
    values = [engine.phi_truncated(q, measures.BernoulliMeasure(p), cfg, memo=memo).value
              for p in ((F(1, 3), F(2, 3)), (F(2, 3), F(1, 3)))]
    assert values == [F(1, 3), F(2, 3)]


@st.composite
def mixed_solves(draw):
    """Three to five solves for one memo: each a scalar optimum or a Pareto
    root, over measures of all five kinds drawn from one small pool, at one
    of two right edges, either grading and a depth of its own."""
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    pool = [draw_measure(rng, draw(st.sampled_from(KINDS))) for _ in range(3)]
    shift = draw(st.sampled_from([0, -1]))
    solves = []
    for _ in range(draw(st.integers(3, 5))):
        depth = draw(st.integers(0, 2))
        cfg = TruncationConfig(depth, 0, shift, window_lo=min(-1, shift - depth),
                               window_hi=draw(st.sampled_from([2, 3])))
        q = suites.random_window_set(rng, 2, lo_range=(-1, 1), max_span=2, allow_degenerate=True)
        comps = [pool[draw(st.integers(0, 2))] for _ in range(draw(st.integers(1, 2)))]
        solves.append((draw(st.booleans()), q, comps, cfg, draw(st.booleans())))
    return solves


@SETTINGS
@given(mixed_solves())
def test_scalar_and_pareto_solves_through_one_memo_equal_fresh_solves(solves):
    memo: dict = {}
    for scalar, q, comps, cfg, base_graded in solves:
        if scalar:
            fresh = engine._phi_optimum(q, comps[0], cfg, base_graded)
            same_certificate(engine._phi_optimum(q, comps[0], cfg, base_graded, memo=memo), fresh)
            if not base_graded:
                same_certificate(engine.phi_truncated(q, comps[0], cfg, memo=memo), fresh)
        else:
            shared = engine.RootFront(q, comps, cfg, engine.prune, base_graded, memo=memo)
            same_root(shared, engine.RootFront(q, comps, cfg, engine.prune, base_graded))


@st.composite
def phi_handles(draw):
    """One nonnegative measure at a pinned config, with two to four queries
    and every member of the algebra the first two generate."""
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    depth, shift = draw(st.integers(0, 2)), draw(st.sampled_from([0, -1, -2]))
    cfg = TruncationConfig(depth, 0, shift, window_lo=min(-1, shift - depth), window_hi=2)
    queries = [
        suites.random_window_set(rng, 2, lo_range=(-1, 1), max_span=2, allow_degenerate=True)
        for _ in range(draw(st.integers(2, 4)))
    ]
    phi = draw_measure(rng, draw(st.sampled_from(KINDS)))
    return cfg, queries + FiniteAlgebra(2, queries[:2]).members, phi


@SETTINGS
@given(phi_handles())
def test_phi_handle_queries_equal_fresh_solves(instance):
    cfg, queries, phi = instance
    handle = phi_handle("phi", phi, cfg)
    memo: dict = {}
    for s in queries:
        fresh = engine.phi_truncated(s, phi, cfg)
        assert handle(s) == fresh.value
        same_certificate(engine.phi_truncated(s, phi, cfg, memo=memo), fresh)


def algebra_split_batch():
    """The shape of a benchmark batch: three cylinders, two single-symbol
    ones at coordinates -1 and 0 and a two-symbol one at 0, whose algebra
    has 64 members, under the depth-0 config of the splitting suite."""
    algebra = FiniteAlgebra(2, [cyl(-1, 1), cyl(0, 0), cyl(0, 1, 0)])
    assert len(algebra) == 64
    return algebra, suites.caratheodory_config(0)


@pytest.mark.parametrize("kind", KINDS)
def test_phi_handle_prices_each_leaf_once(monkeypatch, kind):
    # at depth 0 every node is a leaf; a fresh solve walks each member's
    # leaves, the handle's walks price each distinct leaf once, and both
    # re-check every member's certificate
    algebra, cfg = algebra_split_batch()
    phi = suites.random_measure(random.Random(14), 2, kind)
    handle = phi_handle("phi", phi, cfg)
    prices = []
    price = measures.eval_shifted
    monkeypatch.setattr(measures, "eval_shifted", lambda *args: prices.append(1) or price(*args))
    counts = []
    for solve in (handle, lambda s: engine.phi_truncated(s, phi, cfg).value):
        del prices[:]
        values = [solve(s) for s in algebra.members]
        counts.append(len(prices))
    assert values == [handle(s) for s in algebra.members]
    frames = [engine.build_frame(s, cfg).cells for s in algebra.members]
    leaves = {cell for cells in frames for cell in cells}
    assert len(leaves) == 32
    walked = sum(map(len, frames))
    assert counts[1] - counts[0] == walked - len(leaves)


def test_phi_handles_of_two_measures_keep_their_own_fronts():
    # a memo that outlived its handle, or was shared across measures, would
    # hand one measure's leaf fronts to the other
    algebra, cfg = algebra_split_batch()
    phis = [UNIFORM_CHAIN, suites.random_measure(random.Random(9), 2, "bernoulli")]
    handles = [phi_handle("phi", phi, cfg) for phi in phis]
    values = [[], []]
    for s in algebra.members:
        for k, (handle, phi) in enumerate(zip(handles, phis)):
            values[k].append(handle(s))
            assert values[k][-1] == engine.phi_truncated(s, phi, cfg).value
    assert values[0] != values[1]


@st.composite
def grids(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    q = suites.random_window_set(rng, 2, lo_range=(-1, 1), max_span=2)
    i_list = sorted(draw(st.sets(st.integers(-3, 0), min_size=1, max_size=3)), reverse=True)
    psi = draw_measure(rng, draw(st.sampled_from(KINDS + ("signed",))))
    phi = draw_measure(rng, draw(st.sampled_from(KINDS)))
    return q, psi, phi, i_list, draw(st.integers(0, 2)), draw(st.integers(0, 1))


@SETTINGS
@given(grids())
def test_grid_shifts_through_one_memo_equal_fresh_walks(instance):
    q, psi, phi, i_list, depth, width = instance
    sweep = engine.shift_sweep(q, i_list, depth, width)
    memo: dict = {}
    for cfg in sweep:
        shared = engine.RootFront(q, [psi, phi], cfg, engine.prune, memo=memo)
        same_root(shared, engine.RootFront(q, [psi, phi], cfg, engine.prune))
    grid = budgeted.psi_eps_grid(q, psi, phi, [F(1), F(1, 4)], i_list,
                                 TruncationConfig(depth, width, 0))
    assert grid.phi_surrogate == engine.phi_truncated(q, phi, sweep[-1]).value


class TestPartialNodesAreNotShared:
    # the node (floor 0, word (0, 0), of rank 0 on [0, 1]) is full for A,
    # whose canonical window starts at 0, and partial for B, which holds only
    # its extension by 1 at coordinate -1; reusing a front across the two
    # would change B's value
    CFG = TruncationConfig(2, 0, 0, window_lo=-2, window_hi=1)
    A = cyl(0, 0)
    B = cyl(-1, 1, 0)
    COMPS = [UNIFORM_CHAIN, suites.random_measure(random.Random(9), 2, "bernoulli")]

    @pytest.mark.parametrize("order", [(A, B), (B, A)], ids=["full first", "partial first"])
    def test_root_fronts_equal_fresh_walks(self, order):
        memo: dict = {}
        for q in order:
            shared = engine.RootFront(q, self.COMPS, self.CFG, engine.prune, memo=memo)
            same_root(shared, engine.RootFront(q, self.COMPS, self.CFG, engine.prune))

    @pytest.mark.parametrize("order", [(A, B), (B, A)], ids=["full first", "partial first"])
    def test_psi_handle_equals_fresh_handles(self, order):
        psi, phi = self.COMPS
        shared = psi_handle("psi", psi, phi, F(1, 8), self.CFG)
        for q in order:
            assert shared(q) == psi_handle("psi", psi, phi, F(1, 8), self.CFG)(q)

    def test_the_node_is_read_back_only_where_it_is_full(self):
        memo: dict = {}
        engine.RootFront(self.A, self.COMPS, self.CFG, engine.prune, memo=memo)
        [fronts] = front_tables(memo)
        assert (0, 0) in fronts  # (floor, rank)
        before = dict(fronts)
        engine.RootFront(self.B, self.COMPS, self.CFG, engine.prune, memo=memo)
        assert front_tables(memo) == [fronts]
        # B's partial nodes are walked and not stored; its leaves are shared
        assert all(fronts[key] is front for key, front in before.items())
        assert all(floor == -2 for floor, _ in set(fronts) - set(before))


def test_psi_handle_queries_share_leaves(monkeypatch):
    # at depth 0 every node is a leaf, so a member whose cells earlier
    # members priced walks none of them; only its certificates are priced
    cfg = suites.caratheodory_config(0)
    psi = suites.random_measure(random.Random(4), 2, "markov")
    shared = psi_handle("psi", psi, UNIFORM_CHAIN, F(1, 8), cfg)
    fresh = psi_handle("psi", psi, UNIFORM_CHAIN, F(1, 8), cfg)
    a, b = cyl(0, 0), cyl(0, 1)
    shared(a)
    shared(b)
    prices = []
    price = measures.eval_shifted
    monkeypatch.setattr(measures, "eval_shifted", lambda *args: prices.append(1) or price(*args))
    union = symbolic.union(a, b)
    values, counts = [], []
    for handle in (shared, fresh):
        del prices[:]
        values.append(handle(union))
        counts.append(len(prices))
    assert values[0] == values[1]
    leaves = len(engine.build_frame(union, cfg).cells)
    assert leaves == 32
    # both handles re-check the same options; the fresh one also walks
    assert counts[1] - counts[0] == 2 * leaves
