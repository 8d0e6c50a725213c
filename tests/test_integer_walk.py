"""The walk's integer arithmetic and rank-named nodes.

Each cost component of a walk is an integer numerator over one denominator,
which the component's measure reports through ``denominator(at, length)``
for the words the walk prices; fronts are added and compared as integers
up to the root, and only a certificate's re-price makes rationals.  A node
is named by its floor and the rank of its word, and a set is built from
ranks.  These tests pin the reported denominators against the cell values,
the re-check that catches a measure reporting too small a one, the memo
keys that keep fronts and numerators of different scales and right edges
apart, the integer bound thresholds against a rational filter, and the
rank constructors against the word constructors.
"""

import json
import random
from fractions import Fraction as F
from itertools import product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ddmlab import cli, engine, measures, suites, symbolic
from ddmlab.covers import TruncationConfig
from ddmlab.errors import CertificateError, InfeasibleError, RejectedInputError
from ddmlab.symbolic import Window, WindowSet

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)
KINDS = ("markov", "bernoulli", "stationary", "dirac", "cesaro", "convex", "signed")


def draw_measure(rng, n, kind):
    if kind == "markov":
        return measures.MarkovMeasure(suites.random_distribution(rng, n),
                                      suites.random_stochastic_matrix(rng, n))
    if kind == "bernoulli":
        return measures.BernoulliMeasure(suites.random_distribution(rng, n))
    if kind == "stationary":
        return measures.stationary_markov(suites.random_stochastic_matrix(rng, n))
    if kind == "dirac":
        return suites.random_dirac(rng, n)
    if kind == "cesaro":
        base = draw_measure(rng, n, rng.choice(("markov", "dirac", "convex")))
        return measures.cesaro(base, rng.randint(1, 3))
    if kind == "convex":
        parts = [draw_measure(rng, n, rng.choice(("markov", "bernoulli", "dirac")))
                 for _ in range(rng.randint(1, 3))]
        weights = suites.random_distribution(rng, len(parts))
        return measures.ConvexMeasure(weights, parts)
    c = F(rng.randint(0, 4), rng.randint(1, 5))
    return measures.SignedDiffMeasure(draw_measure(rng, n, "cesaro"), c,
                                      draw_measure(rng, n, "convex"))


@SETTINGS
@given(st.integers(0, 2 ** 16), st.sampled_from(KINDS), st.integers(2, 3),
       st.integers(0, 4), st.integers(1, 3))
def test_denominator_divides_every_cell_value(seed, kind, n, at, length):
    mu = draw_measure(random.Random(seed), n, kind)
    d = mu.denominator(at, length)
    assert type(d) is int and d > 0
    for size in range(1, length + 1):
        for word in product(range(n), repeat=size):
            assert d % mu.cell_value(at, word).denominator == 0, (mu, at, word)


@SETTINGS
@given(st.lists(st.fractions(max_denominator=50), max_size=6))
def test_exact_sum_is_the_rational_sum(values):
    total = measures.exact_sum(values)
    assert type(total) is F and total == sum(values, F(0))


class UnderReported(measures.BernoulliMeasure):
    """Prices 1/3 and 2/3 but reports every price a whole number."""

    def denominator(self, at, length):
        return 1


@pytest.mark.parametrize("keep", [engine._cheapest, engine.prune])
def test_an_under_reported_denominator_raises_and_returns_nothing(keep):
    mu = UnderReported((F(1, 3), F(2, 3)))
    q = WindowSet.cylinder(2, 0, [0])
    with pytest.raises(CertificateError, match="denominator"):
        engine.RootFront(q, [mu] * (1 if keep is engine._cheapest else 2),
                         TruncationConfig(1, 0, 0), keep)
    with pytest.raises(CertificateError, match="denominator"):
        engine.phi_truncated(q, mu, TruncationConfig(0, 0, 0))


def test_an_under_reported_denominator_is_an_internal_error_in_the_cli(
        tmp_path, capsys, monkeypatch):
    spec = {
        "alphabet": 2,
        "measures": {"chain": {"kind": "markov", "pi": ["1/3", "2/3"],
                               "A": [["1/2", "1/2"], ["1/4", "3/4"]]}},
        "sets": {"zero": "cyl(0,[0])"},
        "configs": {},
        "commands": {"phi": {"measure": "chain", "set": "zero", "depths": [1],
                             "widths": [0], "shifts": [0]}},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["phi", "--spec", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(measures.MarkovMeasure, "denominator", lambda self, at, length: 1)
    assert cli.main(["phi", "--spec", str(path)]) == cli.EXIT_INTERNAL == 4
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"error", "kind"}  # no value is printed
    assert payload["kind"] == "internal" and "denominator" in payload["error"]


def test_a_read_coordinate_past_the_bound_is_rejected_before_any_denominator():
    # a base-graded walk reads every node at -base_shift; far past the bound
    # a chain's marginal there is never computed, and at the bound a Cesàro
    # average still reads its base's marginals just past it
    chain = measures.MarkovMeasure((F(1, 3), F(2, 3)), ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4))))
    q = WindowSet.cylinder(2, 0, [0])
    with pytest.raises(RejectedInputError, match="coordinate"):
        engine.phi_paren_truncated(q, chain, TruncationConfig(1, 0, -10 ** 6))
    bound = symbolic.MAX_ABS_COORDINATE
    avg = measures.cesaro(chain, 2)
    cfg = TruncationConfig(1, 0, -bound)
    assert engine.phi_paren_truncated(q, avg, cfg).value == engine.brute_force_phi(q, avg, cfg, True)


def test_walks_at_different_denominators_keep_their_own_fronts(monkeypatch):
    # the same measure reporting twice its denominator scales every
    # numerator by 2; a front read back at the other scale would double or
    # halve the value
    mu = measures.BernoulliMeasure((F(1, 3), F(2, 3)))
    q = WindowSet.cylinder(2, 0, [0])
    cfg = TruncationConfig(2, 0, 0, window_lo=-2, window_hi=0)
    memo: dict = {}

    def rationals(**kwargs):
        root = engine.RootFront(q, [mu], cfg, engine._cheapest, **kwargs)
        return [(tuple(map(F, vec, root.dens)), trace) for vec, trace in root.options]

    first = rationals(memo=memo)
    reported = mu.denominator
    monkeypatch.setattr(mu, "denominator", lambda at, length: 2 * reported(at, length))
    second = rationals(memo=memo)
    assert first == second == rationals()
    # fronts are kept by (keep, comps, at, floor_d, whi, dens), numerators
    # by (at, whi, measure, denominator)
    fronts = {key[-1]: memo[key] for key in memo if key[0] is engine._cheapest}
    assert sorted(fronts) == [(27,), (54,)]
    (one,), (two,) = fronts[(27,)].values(), fronts[(54,)].values()
    assert [2 * vec[0] for vec, _ in one] == [vec[0] for vec, _ in two]
    nums = {key[-1]: memo[key] for key in memo if len(key) == 4 and key[2] is mu}
    assert sorted(nums) == [27, 54]
    assert {node: 2 * num for node, num in nums[27].items()} == nums[54]


def test_walks_with_different_right_edges_keep_their_own_fronts():
    # the node (floor 0, rank 0) is the word (0,) on [0, 0] at width 0 and
    # the word (0, 0) on [0, 1] at width 1; the point mass at 0101... prices
    # the first at 1 and the second at 0, with denominator 1 for both
    point = measures.DiracMeasure(2, (0, 1))
    q = WindowSet.cylinder(2, 0, [0])
    memo: dict = {}
    for width in (0, 1, 0):
        cfg = TruncationConfig(1, width, 0)
        shared = engine.phi_truncated(q, point, cfg, memo=memo)
        assert shared == engine.phi_truncated(q, point, cfg)
    # one front table, one numerator table and one root per right edge
    assert sorted(key[4] for key in memo if key[0] is engine._cheapest) == [0, 1]
    assert sorted(key[1] for key in memo if len(key) == 4) == [0, 1]
    assert sorted(key[1].width for key in memo if len(key) == 3) == [0, 1]


@SETTINGS
@given(st.integers(0, 2 ** 16), st.integers(0, 2), st.sampled_from([0, -1, -2]))
def test_root_vectors_are_rationals(seed, depth, shift):
    # a root option stays integer numerators over ``dens``; its certificate
    # carries the re-priced rationals, which equal the option
    rng = random.Random(seed)
    q = suites.random_window_set(rng, 2, lo_range=(-1, 1), max_span=2, allow_degenerate=True)
    comps = [draw_measure(rng, 2, rng.choice(KINDS)), draw_measure(rng, 2, "convex")]
    root = engine.RootFront(q, comps, TruncationConfig(depth, 1, shift), engine.prune)
    for k, (vec, _) in enumerate(root.options):
        cert = root.certificate(k)
        assert all(type(v) is F for v in (cert.value, *cert.vector))
        assert cert.vector == tuple(map(F, vec, root.dens))


@SETTINGS
@given(st.integers(0, 2 ** 16), st.integers(2, 4), st.integers(0, 2),
       st.lists(st.sampled_from(("on", "below", "above", "free")), min_size=3, max_size=3))
def test_cheapest_filters_numerators_as_the_rationals_they_stand_for(seed, size, depth, places):
    # each bound is read as the integer threshold ceil(b * d); the test
    # filters the options as rationals instead: strictly below every bound,
    # the least vector first.  A bound may sit exactly on an option's
    # component, just off it, or anywhere in [-40, 40], signed fronts included
    rng = random.Random(seed)
    q = suites.random_window_set(rng, 2, lo_range=(-1, 1), max_span=2, allow_degenerate=True)
    comps = [draw_measure(rng, 2, rng.choice(KINDS)) for _ in range(size)]
    root = engine.RootFront(q, comps, TruncationConfig(depth, 1, 0), engine.prune)
    rationals = [tuple(map(F, vec, root.dens)) for vec, _ in root.options]
    bounds = []
    for j, place in enumerate(places[:size - 1], 1):
        on = rng.choice(rationals)[j]
        offset = {"on": 0, "below": -F(1, 10 ** 9), "above": F(1, 10 ** 9)}.get(place)
        bounds.append(F(rng.randint(-40, 40), rng.randint(1, 20)) if offset is None else on + offset)
    feasible = [k for k, vec in enumerate(rationals)
                if all(v < b for v, b in zip(vec[1:], bounds))]
    if not feasible:
        with pytest.raises(InfeasibleError):
            root.cheapest(bounds)
        return
    assert root.cheapest(bounds) is root.certificate(min(feasible, key=rationals.__getitem__))


class TestRankConstructors:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ranked_cylinder_is_the_cylinder_of_the_word(self, n):
        for span in range(1, 4):
            for rank in range(n ** span):
                word = symbolic.rank_word(n, span, rank)
                ranked = WindowSet.ranked_cylinder(n, -1, span, rank)
                assert ranked == WindowSet.cylinder(n, -1, word)
                assert ranked.canonical_key() == WindowSet.cylinder(n, -1, word).canonical_key()

    def test_wide_sets_from_ranks_are_trees_equal_to_the_word_forms(self):
        # 2**17 words on [0, 16] exceed TREE_CELLS, so both forms are trees
        window = Window(0, 16)
        words = [(0,) * 17, (1,) + (0,) * 16, (1,) * 17]
        ranks = [symbolic.word_rank(2, w) for w in words]
        s = WindowSet.from_ranks(2, window, ranks)
        assert s == WindowSet.from_words(2, window, words)
        assert s == WindowSet.from_ranks(2, window, reversed(ranks + ranks))
        deep = WindowSet.ranked_cylinder(2, 0, 17, ranks[1])
        assert deep == WindowSet.cylinder(2, 0, words[1])

    @pytest.mark.parametrize("bad", [-1, 8])
    def test_a_rank_outside_the_window_is_rejected(self, bad):
        with pytest.raises(RejectedInputError, match="rank"):
            WindowSet.ranked_cylinder(2, 0, 3, bad)
        with pytest.raises(RejectedInputError, match="rank"):
            WindowSet.from_ranks(2, Window(0, 2), [0, bad])
        with pytest.raises(RejectedInputError, match="symbol"):
            WindowSet.ranked_cylinder(2, 0, 0, 0)
