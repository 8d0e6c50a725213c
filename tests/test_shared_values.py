"""Values shared across calls.

``symbolic`` keeps one single-word cylinder per (n, start, span, rank) and
one word per (n, span, rank), in two tables of at most
``symbolic.SHARED_CAP`` values; a point mass keeps its point's word per
(lo, length).  A shared value must answer exactly what a freshly built one
would, and a table must stay within its cap.
"""

import random
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ddmlab import measures, suites, symbolic
from ddmlab.covers import TruncationConfig
from ddmlab.engine import phi_truncated
from ddmlab.errors import RejectedInputError
from ddmlab.measures import DiracMeasure, MarkovMeasure
from ddmlab.symbolic import Window, WindowSet

KINDS = ("dirac", "markov", "bernoulli", "cesaro", "convex")


@contextmanager
def fresh_tables(cap=None):
    """Empty word and cylinder tables, with their cap set to ``cap``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symbolic, "_CYLINDERS", {})
        mp.setattr(symbolic, "_WORDS", {})
        if cap is not None:
            mp.setattr(symbolic, "SHARED_CAP", cap)
        yield


def digits(n, span, rank):
    """The word of ``rank`` on a window of ``span`` coordinates, by divmod."""
    out = []
    for _ in range(span):
        rank, symbol = divmod(rank, n)
        out.append(symbol)
    return tuple(reversed(out))


def test_a_shared_cylinder_is_the_set_built_from_its_rank():
    rng = random.Random(11)
    mus = {n: [suites.random_measure(rng, n, kind) for kind in KINDS] for n in (1, 2, 3)}
    with fresh_tables():
        first = {}
        for _ in range(2):  # built and kept, then looked up
            for n in (1, 2, 3):
                for start in range(-2, 2):
                    for span in range(1, 4):
                        window = Window(start, start + span - 1)
                        for rank in range(n ** span):
                            s = WindowSet.ranked_cylinder(n, start, span, rank)
                            fresh = WindowSet.from_ranks(n, window, [rank]).canonicalize()
                            assert s.n == n and s.window == window
                            assert s.canonical_key() == fresh.canonical_key()
                            assert fresh.window == (window if n > 1 else None)
                            for mu in mus[n]:
                                assert (measures.eval_shifted(mu, -2, s)
                                        == measures.eval_shifted(mu, -2, fresh))
                            assert first.setdefault((n, start, span, rank), s) is s


def test_a_warm_table_still_rejects_bad_arguments():
    with fresh_tables():
        for rank in range(4):
            WindowSet.ranked_cylinder(2, 62, 2, rank)
        with pytest.raises(RejectedInputError, match="at least one symbol"):
            WindowSet.ranked_cylinder(2, 62, 0, 0)
        for bad in (-1, 4):
            with pytest.raises(RejectedInputError, match="rank"):
                WindowSet.ranked_cylinder(2, 62, 2, bad)
        with pytest.raises(RejectedInputError, match="coordinate 65"):
            WindowSet.ranked_cylinder(2, 63, 3, 0)
        with pytest.raises(RejectedInputError, match="alphabet"):
            WindowSet.ranked_cylinder(-2, 62, 2, 0)
        assert len(symbolic._CYLINDERS) == 4


def test_rank_word_rejects_a_rank_outside_the_window():
    # a rank past the window's last word would otherwise wrap to a word of
    # the window, as rank 5 on two binary coordinates to the word of rank 1
    with fresh_tables():
        assert symbolic.rank_word(2, 2, 1) == (0, 1)
        for n, span, bad in ((2, 2, 5), (2, 2, 4), (2, 2, -1), (3, 1, 3), (2, 0, 1)):
            with pytest.raises(RejectedInputError, match=f"rank {bad} outside"):
                symbolic.rank_word(n, span, bad)
        assert symbolic.rank_word(2, 0, 0) == ()
        assert set(symbolic._WORDS) == {(2, 2, 1), (2, 0, 0)}


def test_a_kept_bitset_cylinder_is_not_served_where_trees_are_asked():
    # as ``trees_only`` in test_wide_sets.py: every window of more than one
    # word keeps its set as a tree
    with fresh_tables():
        kept = WindowSet.ranked_cylinder(2, 0, 3, 5)
        assert isinstance(kept.bits, int)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(symbolic, "TREE_CELLS", 1)
            for start in (0, 1):
                tree = WindowSet.ranked_cylinder(2, start, 3, 5)
                assert isinstance(tree.bits, symbolic._Node)
                assert tree.window == Window(start, start + 2)
                assert list(tree.iter_words()) == [(1, 0, 1)]
        # nor is a tree kept where bitsets are asked
        assert isinstance(WindowSet.ranked_cylinder(2, 1, 3, 5).bits, int)
        assert WindowSet.ranked_cylinder(2, 0, 3, 5) is kept


def test_a_table_never_grows_past_its_cap():
    with fresh_tables(cap=2):
        for _ in range(2):
            for n in (1, 2, 3):
                for span in (1, 2):
                    window = Window(0, span - 1)
                    for rank in range(n ** span):
                        s = WindowSet.ranked_cylinder(n, 0, span, rank)
                        fresh = WindowSet.from_ranks(n, window, [rank]).canonicalize()
                        assert s.window == window and s.canonical_key() == fresh.canonical_key()
                        assert symbolic.rank_word(n, span, rank) == digits(n, span, rank)
                        assert len(symbolic._CYLINDERS) <= 2 and len(symbolic._WORDS) <= 2
        # the first values that fit are kept, and none is evicted
        assert list(symbolic._CYLINDERS) == [(1, 0, 1, 0), (1, 0, 2, 0)]
        assert list(symbolic._WORDS) == [(1, 1, 0), (1, 2, 0)]


def test_a_repeated_solve_builds_no_node_cylinder_again():
    mu = MarkovMeasure((F(1, 3), F(2, 3)), ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4))))
    q = symbolic.union(WindowSet.cylinder(2, 0, (1, 0)), WindowSet.cylinder(2, -1, (0, 1, 1)))
    cfg = TruncationConfig(2, 1, -1)
    built = []
    init = WindowSet.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    with fresh_tables(), pytest.MonkeyPatch.context() as mp:
        mp.setattr(WindowSet, "__init__", counted)
        first = phi_truncated(q, mu, cfg)
        once, kept = len(built), len(symbolic._CYLINDERS)
        second = phi_truncated(q, mu, cfg)
    assert first == second
    assert kept > 0 and len(built) - once == once - kept


def test_shared_words_are_the_digits_of_their_rank():
    with fresh_tables():
        first = {}
        for _ in range(2):
            for n in (1, 2, 3):
                for span in range(6):
                    for rank in range(n ** span):
                        word = symbolic.rank_word(n, span, rank)
                        assert word == digits(n, span, rank)
                        assert first.setdefault((n, span, rank), word) is word


@st.composite
def point_masses(draw):
    n = draw(st.integers(1, 3))
    period = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5))
    exceptions = draw(st.dictionaries(st.integers(-3, 80), st.integers(0, n - 1), max_size=6))
    return n, period, exceptions


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(point_masses(),
       st.lists(st.tuples(st.integers(0, 70), st.lists(st.integers(-1, 3), max_size=7)),
                min_size=1, max_size=6))
def test_a_point_mass_prices_each_word_by_its_coordinates(point, queries):
    n, period, exceptions = point
    mu = DiracMeasure(n, period, exceptions.items())

    def at(j):
        return exceptions.get(j, period[j % len(period)])

    for lo, word in queries:
        # each prefix at the same lo: a word kept per lo alone would be wrong
        for length in range(len(word), -1, -1):
            cell = tuple(word[:length])
            expected = F(all(at(lo + k) == symbol for k, symbol in enumerate(cell)))
            assert mu.cell_value(lo, cell) == expected
            assert mu.cell_value(lo, list(cell)) == expected
