"""Set-level pricing and the n-ary traces of the walk.

``measures.eval_shifted`` prices a single word by one ``cell_value`` call,
and ``measures._cell_sum`` the words of a multi-word bitset by one
``set_value`` call.  The base class sums the cell values; a chain adds its
path products over one denominator, a point mass tests one bit and a mix
weighs its parts' set values.  Every kind must price a set exactly as the
sum of its cells, and a mix a word as the weighted sum of its parts' cell
values, which it adds as integer pairs.  A mix answers ``takes`` by the
rule it had when it resolved its parts on every call, but resolves them
once per coordinate.  Three or more fronts of one
option each are summed into one option whose trace is the tuple of their
traces, and ``engine._witness`` must read the same nodes from it as from
nested pairs.
"""

import random
from fractions import Fraction as F
from itertools import product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ddmlab import engine, measures, suites
from ddmlab.covers import TruncationConfig
from ddmlab.symbolic import Window, WindowSet

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)
PLAIN = ("markov", "bernoulli", "dirac")
KINDS = PLAIN + ("cesaro", "convex", "signed")


def draw_measure(rng, n, kind, nest=1):
    """A measure of ``kind``; a mix's parts are mixes themselves at most
    ``nest`` levels down."""
    if kind == "markov":
        return measures.MarkovMeasure(suites.random_distribution(rng, n),
                                      suites.random_stochastic_matrix(rng, n))
    if kind == "bernoulli":
        return measures.BernoulliMeasure(suites.random_distribution(rng, n))
    if kind == "dirac":
        # exceptions inside the coordinates the test reads, so they matter
        period = tuple(rng.randrange(n) for _ in range(rng.randint(1, 4)))
        exceptions = [(rng.randint(0, 75), rng.randrange(n)) for _ in range(rng.randint(1, 3))]
        return measures.DiracMeasure(n, period, exceptions)

    def part():
        return draw_measure(rng, n, rng.choice(KINDS if nest else PLAIN), nest - 1)

    if kind == "cesaro":
        return measures.cesaro(part(), rng.randint(1, 3))
    if kind == "convex":
        parts = [part() for _ in range(rng.randint(1, 3))]
        return measures.ConvexMeasure(suites.random_distribution(rng, len(parts)), parts)
    return measures.SignedDiffMeasure(part(), F(rng.randint(0, 4), rng.randint(1, 5)), part())


def words_of(n, span, bits):
    """The words of a bitset in rank order, listed without ``symbolic``."""
    return [word for rank, word in enumerate(product(range(n), repeat=span)) if bits >> rank & 1]


@SETTINGS
@given(st.integers(0, 2 ** 16), st.sampled_from(KINDS), st.integers(2, 3),
       st.integers(0, 70), st.integers(1, 3), st.data())
def test_a_set_is_priced_as_the_sum_of_its_cells(seed, kind, n, at, span, data):
    mu = draw_measure(random.Random(seed), n, kind)
    bits = data.draw(st.integers(1, (1 << n ** span) - 1), label="bits")
    cells = measures.exact_sum([mu.cell_value(at, word) for word in words_of(n, span, bits)])
    value = mu.set_value(at, n, span, bits)
    assert type(value) is F
    assert value == cells == measures.CylinderMeasure.set_value(mu, at, n, span, bits), (mu, bits)


class Product(measures.CylinderMeasure):
    """A product measure that defines only ``cell_value`` and so prices every
    set through the base class's sum."""

    symbols = 2

    def __init__(self):
        self.cells = []

    def cell_value(self, lo, word):
        self.cells.append((lo, tuple(word)))
        value = F(1)
        for symbol in word:
            value *= F(1, 3) if symbol == 0 else F(2, 3)
        return value

    def _denominator(self, at, length):
        return 3 ** length


def test_a_kind_with_cell_values_alone_prices_sets_by_their_sum():
    mu = Product()
    assert type(mu).set_value is measures.CylinderMeasure.set_value
    # 00, 01 and 10 on [1, 2]: no end coordinate is redundant, so three cells
    s = WindowSet.from_words(2, Window(1, 2), [(0, 0), (0, 1), (1, 0)])
    assert measures.eval_shifted(mu, -1, s) == F(1, 9) + F(2, 9) + F(2, 9)
    assert mu.cells == [(2, (0, 0)), (2, (0, 1)), (2, (1, 0))]
    assert measures.eval0(mu, WindowSet.cylinder(2, 0, [1, 1])) == F(4, 9)
    assert mu.cells[3:] == [(0, (1, 1))]


def taken(trace):
    """The (floor, rank) nodes of a trace, read back off the entries of its
    witness on a depth-2 frame over [-2, 2]: entry m holds the ranks of the
    nodes taken at floor m on [m, 2]."""
    root = engine.RootFront(WindowSet.cylinder(2, 0, (0, 1, 0)), [measures.BernoulliMeasure(
        (F(1, 2), F(1, 2)))], TruncationConfig(2))
    assert (root.frame.floor0, root.frame.whi) == (0, 2)
    witness = engine._witness(root, trace)
    return sorted((m, r) for m, a in witness.entries for r in a.ranks_on(Window(m, 2)))


def test_a_trace_names_the_same_nodes_nested_or_flat():
    nodes = [(0, 1), (0, 3), (-1, 5), (-1, 2), (-2, 7)]
    nested = nodes[0]
    for node in nodes[1:]:
        nested = (nested, node)
    flat = tuple(nodes)
    mixed = ((nodes[0], nodes[1]), (nodes[2],), (nodes[3], (nodes[4],)))
    for trace in (nested, flat, mixed):
        assert taken(trace) == sorted(nodes)
    assert taken(()) == []


def test_one_option_fronts_sum_to_one_option_with_a_flat_trace():
    fronts = [[((1, 2), (0, 0))], (((3, 4), (0, 1)),), [((5, 6), ((-1, 0), (-1, 2)))]]
    [(vec, trace)] = engine._combine(fronts, engine.prune)
    assert vec == (9, 12)
    assert trace == ((0, 0), (0, 1), ((-1, 0), (-1, 2)))
    # the same sum as the pairwise fold, option for option
    fronts.append([((0, 1), (0, 3)), ((1, 0), (0, 4))])
    pairs = engine._combine(fronts, engine.prune)
    assert [vec for vec, _ in pairs] == [(9, 13), (10, 12)]
    assert [taken(t) for _, t in pairs] == [
        [(-1, 0), (-1, 2), (0, 0), (0, 1), (0, 3)], [(-1, 0), (-1, 2), (0, 0), (0, 1), (0, 4)]]


def terms(mu):
    """A mix's (weight, part, offset) terms of nonzero weight, read off the
    attributes its kind names."""
    if isinstance(mu, measures.CesaroMeasure):
        found = [(F(1, mu.n + 1), mu.base, j) for j in range(mu.n + 1)]
    elif isinstance(mu, measures.ConvexMeasure):
        found = [(w, part, 0) for w, part in zip(mu.weights, mu.parts)]
    else:
        found = [(F(1), mu.psi, 0), (-mu.c, mu.phi, 0)]
    return [term for term in found if term[0]]


def mixes(mu):
    """``mu`` and every mix nested in it, outermost first."""
    if not isinstance(mu, measures._Mix):
        return []
    return [mu] + [inner for _, part, _ in terms(mu) for inner in mixes(part)]


def draw_mix(rng, kind):
    """A mix of ``kind`` over two symbols whose parts are mixes themselves
    two levels down, beside a :class:`Product` part that defines only
    ``cell_value``."""
    parts = [draw_measure(rng, 2, rng.choice(KINDS), nest=2), Product()]
    rng.shuffle(parts)
    if kind == "cesaro":
        return measures.cesaro(measures.ConvexMeasure((F(1, 2), F(1, 2)), parts), rng.randint(1, 3))
    if kind == "convex":
        return measures.ConvexMeasure(suites.random_distribution(rng, 2), parts)
    return measures.SignedDiffMeasure(parts[0], F(rng.randint(0, 4), rng.randint(1, 5)), parts[1])


@SETTINGS
@given(st.integers(0, 2 ** 16), st.sampled_from(("cesaro", "convex", "signed")),
       st.integers(0, 60), st.lists(st.integers(0, 1), min_size=1, max_size=4), st.booleans())
def test_a_mix_prices_a_word_as_the_weighted_sum_of_its_parts(seed, kind, lo, word, as_list):
    word = word if as_list else tuple(word)
    for mu in mixes(draw_mix(random.Random(seed), kind)):
        expected = sum((w * part.cell_value(lo + offset, word) for w, part, offset in terms(mu)), F(0))
        value = mu.cell_value(lo, word)
        assert type(value) is F
        assert value == expected, (mu, lo, word)


def takes_uncached(mu, at, word, k):
    """The rule of ``_Mix.takes`` with every part resolved again on each call."""
    table = mu.table(at)
    if table is not None:
        return table.takes(word[0], k)
    parts = [(part, at + offset, part.table(at + offset)) for _, part, offset in terms(mu)]
    if not mu.nonnegative or not any(t or isinstance(part, measures._Mix) for part, _, t in parts):
        return False
    return all(takes_uncached(part, lo, word, k) if isinstance(part, measures._Mix)
               else part.takes(lo, word, k)
               for part, lo, t in parts if t or part.cell_value(lo, word))


@SETTINGS
@given(st.integers(0, 2 ** 16), st.sampled_from(("cesaro", "convex")), st.integers(0, 30),
       st.lists(st.lists(st.integers(0, 1), min_size=1, max_size=3), min_size=1, max_size=4),
       st.integers(0, 4))
def test_a_mix_takes_as_its_uncached_rule_and_resolves_its_parts_once(seed, kind, at, words, k):
    rng = random.Random(seed)
    parts = [draw_measure(rng, 2, rng.choice(PLAIN + ("cesaro", "convex"))) for _ in range(2)]
    mu = measures.cesaro(parts[0], 2) if kind == "cesaro" else measures.ConvexMeasure(
        suites.random_distribution(rng, 2), parts)
    words = [tuple(word) for word in words]
    expected = [takes_uncached(mu, at, word, k) for word in words]
    assert [mu.takes(at, word, k) for word in words] == expected
    # asked again at the same coordinate, no part's table is looked up
    asked = []
    with pytest.MonkeyPatch.context() as mp:
        for inner in mixes(mu):
            for _, part, _ in terms(inner):
                mp.setattr(part, "table", lambda at, part=part: asked.append((part, at)))
        assert [mu.takes(at, word, k) for word in words] == expected
    assert asked == []
