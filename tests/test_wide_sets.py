"""Wide window sets: a set whose canonical window holds more than
``symbolic.TREE_CELLS`` words is kept as a tree read from the window's left
edge.  Inside a test that threshold is lowered to one word, so that every
set over two or more symbols takes the tree path, and its results must
equal those of the bitset path."""

import random
from contextlib import contextmanager, nullcontext
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ddmlab import engine, measures, suites, symbolic
from ddmlab.covers import Cover, TruncationConfig, cover_cost, is_valid_cover
from ddmlab.errors import BitsetCapError, GradingViolationError
from ddmlab.symbolic import Window, WindowSet
from ddmlab.verify import FiniteAlgebra

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
OPS = ("union", "intersection", "difference")
KINDS = ("dirac", "markov", "bernoulli", "cesaro", "convex")


@contextmanager
def trees_only():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symbolic, "TREE_CELLS", 1)
        yield


def words_on_wider(s, extra):
    """The set's window ``extra`` coordinates wider on the left and its
    words there; None for degenerate sets."""
    if s.is_degenerate:
        return None
    lo, hi, _ = s.canonical_key()
    window = Window(lo - extra, hi)
    return window, list(s.words_on(window))


def rebuilt(s, listing):
    """The set built again from its words, a tree under ``trees_only``."""
    if listing is None:
        return s
    window, words = listing
    return WindowSet.from_words(s.n, window, words)


def key_bits(s):
    """The canonical key with a tree read back into its bitset."""
    key = s.canonical_key()
    if len(key) == 3 and isinstance(key[2], symbolic._Node):
        return key[:2] + (symbolic._tree_bits(s.n, key[2], key[1] - key[0] + 1, {}),)
    return key


@st.composite
def set_pairs(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    n = draw(st.sampled_from([2, 3]))
    span = 3 if n == 2 else 2
    a, b = (suites.random_window_set(rng, n, (-2, 1), span, allow_degenerate=True)
            for _ in range(2))
    return n, a, b, draw(st.integers(0, 2)), rng


@SETTINGS
@given(set_pairs(), st.sampled_from(OPS), st.integers(-3, 1))
def test_tree_algebra_equals_bitset_algebra(pair, op, g):
    n, a, b, extra, rng = pair
    mu = suites.random_measure(rng, n, rng.choice(KINDS))
    expected = {
        "key": a.canonical_key(),
        "op": symbolic.set_algebra(a, b, op).canonical_key(),
        "project": symbolic.project_min(a, g).canonical_key(),
        "shift": symbolic.shift(a, 1).canonical_key(),
        "price": measures.eval_shifted(mu, -2, a) if a.min_coordinate() >= -2 else None,
        "literal": a.literal(),
    }
    listings = words_on_wider(a, extra), words_on_wider(b, extra)
    with trees_only():
        ta, tb = rebuilt(a, listings[0]), rebuilt(b, listings[1])
        got = {
            "key": key_bits(ta),
            "op": key_bits(symbolic.set_algebra(ta, tb, op)),
            "project": key_bits(symbolic.project_min(ta, g)),
            "shift": key_bits(symbolic.shift(ta, 1)),
            "price": measures.eval_shifted(mu, -2, ta) if ta.min_coordinate() >= -2 else None,
            "literal": ta.literal(),
        }
        if listings[0] is not None:
            assert isinstance(ta.canonical_key()[2], symbolic._Node)
            assert ta.bits_on(listings[0][0]) == a.bits_on(listings[0][0])
    assert got == expected


@SETTINGS
@given(st.integers(0, 2 ** 16), st.sampled_from([2, 3]), st.integers(1, 4), st.booleans())
def test_hull_predicates_and_unions_agree_with_set_algebra(seed, n, count, trees):
    """``is_subset``, ``meets`` and ``union_all`` read the sets' bits on
    their hull; their answers must equal those of ``set_algebra`` and of a
    pairwise union, on bitset, degenerate and (under ``trees_only``) tree
    sets."""
    rng = random.Random(seed)
    span = 3 if n == 2 else 2
    with trees_only() if trees else nullcontext():
        sets = [suites.random_window_set(rng, n, (-2, 1), span, allow_degenerate=True)
                for _ in range(count)]
        sets += [WindowSet.empty(n), WindowSet.full_space(n)][:rng.randint(0, 2)]
        sets.append(symbolic.set_algebra(sets[0], sets[-1], "intersection"))  # a subset
        rng.shuffle(sets)
        for a in sets:
            for b in sets:
                assert symbolic.is_subset(a, b) == symbolic.set_algebra(a, b, "difference").is_empty
                assert symbolic.meets(a, b) == (
                    not symbolic.set_algebra(a, b, "intersection").is_empty)
        expected = WindowSet.empty(n)
        for s in sets:
            expected = symbolic.set_algebra(expected, s, "union")
        union = symbolic.union_all(n, iter(sets))
        assert key_bits(union) == key_bits(expected)
        assert union.canonicalize() is union
        if trees and not union.is_degenerate:
            assert isinstance(union.canonical_key()[2], symbolic._Node)


@SETTINGS
@given(st.integers(0, 2 ** 16), st.sampled_from([2, 3]), st.integers(0, 3),
       st.sampled_from(["", "empty query", "full entry", "tree entry"]), st.booleans())
def test_validity_on_one_hull_equals_a_subset_of_the_union(seed, n, count, case, inside):
    """``is_valid_cover`` reads q and every entry on their one hull; its
    answer must equal the grading test and ``is_subset`` of q in
    ``union_all`` of the entries, with an empty query, an empty cover, a
    full-space entry and an entry whose window holds more than TREE_CELLS
    words, which sends the hull to the tree path."""
    rng = random.Random(seed)
    span = 3 if n == 2 else 2
    sets = [suites.random_window_set(rng, n, (-2, 1), span, allow_degenerate=True)
            for _ in range(count)]
    if case == "full entry":
        sets.append(WindowSet.full_space(n))
    elif case == "tree entry":
        long = 17 if n == 2 else 11  # n ** long > TREE_CELLS
        sets.append(WindowSet.cylinder(n, rng.randint(-2, 1),
                                       [rng.randrange(n) for _ in range(long)]))
        assert isinstance(sets[-1].canonical_key()[2], symbolic._Node)
    q = suites.random_window_set(rng, n, (-2, 1), span, allow_degenerate=True)
    if case == "empty query":
        q = WindowSet.empty(n)
    elif inside:  # a query the entries cover
        q = symbolic.intersection(q, symbolic.union_all(n, sets))
    cover = Cover(tuple((rng.randint(-4, 0), a) for a in sets), base_shift=rng.choice([0, -1]))
    graded = all(a.min_coordinate() >= m + cover.base_shift for m, a in cover.entries)
    union = symbolic.union_all(n, [a for _, a in cover.entries])
    expected = graded and symbolic.is_subset(q, union)
    assert is_valid_cover(q, cover) == expected


@SETTINGS
@given(st.integers(0, 2 ** 16), st.sampled_from(KINDS), st.integers(1, 5), st.integers(0, 1))
def test_solves_through_trees_equal_solves_through_bitsets(seed, kind, depth, width):
    rng = random.Random(seed)
    q = suites.random_window_set(rng, 2, (-1, 0), 2)
    mu = suites.random_measure(rng, 2, kind)
    cfg = TruncationConfig(depth, width, 0)

    def solved():
        cert = engine.phi_truncated(q, mu, cfg)
        return cert.value, [(m, a.literal()) for m, a in cert.witness.entries]

    expected = solved()
    with trees_only():
        assert solved() == expected


class TestTrees:
    def test_a_deep_cylinder_is_one_node_per_coordinate(self):
        word = [0, 1] * 20
        s = WindowSet.cylinder(2, -30, word)
        lo, hi, node = s.canonical_key()
        assert (lo, hi, node.height) == (-30, 9, 40)
        assert s.literal() == "cyl(-30,[%s])" % ",".join(map(str, word))
        assert s == WindowSet.from_words(2, Window(-30, 9), [tuple(word)])

    def test_a_set_narrow_again_gets_its_bitset_back(self):
        deep = WindowSet.cylinder(2, -30, [0] * 31)
        narrow = symbolic.union(deep, WindowSet.cylinder(2, 0, [0]))
        assert narrow.canonical_key() == (0, 0, 0b01)
        assert narrow == WindowSet.cylinder(2, 0, [0])

    def test_pricing_sums_the_cylinders(self):
        chain = measures.MarkovMeasure((F(1, 2), F(1, 2)), ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4))))
        deep = WindowSet.cylinder(2, -40, [1] * 41)
        union = symbolic.union(deep, WindowSet.cylinder(2, -40, [0]))
        assert measures.eval_shifted(chain, -40, union) == F(1, 2) + F(1, 2) * F(3, 4) ** 40
        with pytest.raises(GradingViolationError):
            measures.eval_shifted(chain, -39, union)

    def test_listing_more_words_than_the_cap_is_a_cap_error(self):
        # x_-30 = 0 or x_0 = 0: 2**30 words on [-30, 0]
        s = symbolic.union(WindowSet.cylinder(2, -30, [0]), WindowSet.cylinder(2, 0, [0]))
        assert s.canonical_key()[:2] == (-30, 0)
        with pytest.raises(BitsetCapError):
            s.literal()
        with pytest.raises(BitsetCapError):
            s.bits_on(Window(-30, 0))

    def test_deep_witnesses_are_checked_through_trees(self):
        chain = measures.MarkovMeasure((F(1, 2), F(1, 2)), ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4))))
        q = WindowSet.cylinder(2, 0, [0])
        cert = engine.phi_truncated(q, chain, TruncationConfig(60, 1, 0))
        assert cert.value == F(2 ** 60 + 1, 2 ** 62)
        assert is_valid_cover(q, cert.witness)
        assert cover_cost(cert.witness, chain) == cert.value
        assert cert.witness.entries[-1][1].literal() == "cyl(-59,[%s])" % ",".join(["0"] * 60)


def test_algebra_members_keep_the_bitset_order():
    # under trees_only every member is a tree; the order is that of bitsets
    generators = [WindowSet.cylinder(2, 0, [0]), WindowSet.cylinder(2, 4, [1])]
    window = Window(0, 4)
    order = [m.bits_on(window) for m in FiniteAlgebra(2, generators)]
    with trees_only():
        members = FiniteAlgebra(2, generators).members
        assert all(isinstance(m.canonical_key()[2], symbolic._Node)
                   for m in members if not m.is_degenerate)
        assert [m.bits_on(window) for m in members] == order


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tree_cylinder_is_born_with_its_key(n):
    # over two or more symbols every cylinder is a tree here; its preset key
    # is the one read off its tree, and the same words as the bitset's key
    for start in (-1, 0, 2):
        for span in (1, 2, 3):
            for rank in range(n ** span):
                word = symbolic.rank_word(n, span, rank)
                flat = WindowSet.cylinder(n, start, word)
                with trees_only():
                    s = WindowSet.cylinder(n, start, word)
                    assert isinstance(s, symbolic._TreeSet) == (n > 1)
                    if n > 1:
                        assert s._key == symbolic._tree_key(n, start, s.bits)
                    else:
                        assert s._key == symbolic._canonical_key(n, s.window, s.bits, s._full)
                    # over one symbol it is the full space, kept windowless
                    assert (s.canonicalize() is s) == (n > 1)
                    assert key_bits(s) == flat.canonical_key()


def test_tree_sets_are_built_through_init(monkeypatch):
    # perfbench/tracer.py counts symbolic.windowsets_built at WindowSet.__init__
    built = []
    init = WindowSet.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(WindowSet, "__init__", counted)
    s = WindowSet.cylinder(2, 0, (0,) * 20)
    assert built == [symbolic._TreeSet]
    assert (s.n, s.window, s._full) == (2, Window(0, 19), False)
    assert not s.is_degenerate
    t = symbolic.union(s, WindowSet.cylinder(2, 0, (1,) * 20))
    assert isinstance(t, symbolic._TreeSet) and len(built) >= 3
