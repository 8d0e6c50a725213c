"""Property tests of the word-level pricing behind eval0 and eval_shifted.

The reference sums cell values over the words of the set refined to a wider
window, read at the shifted coordinates; it never calls the pricing
functions under test.  The cell values of the product measures, taken over
integers and reduced once, are checked against one Fraction product per
symbol.
"""

import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ddmlab import covers, engine, measures, suites, symbolic
from ddmlab.covers import TruncationConfig
from ddmlab.errors import GradingViolationError, NegativeCoordinateError, RejectedInputError
from ddmlab.symbolic import Window, WindowSet

KINDS = ("dirac", "markov", "bernoulli", "cesaro", "convex")

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def window_sets(draw, n, lo_min):
    """A set on a window of span 1-4 starting at or right of lo_min; single
    words are drawn as often as general bitsets."""
    span = draw(st.integers(1, 4))
    lo = draw(st.integers(lo_min, lo_min + 3))
    cells = n ** span
    bits = draw(st.one_of(
        st.integers(0, (1 << cells) - 1),
        st.integers(0, cells - 1).map(lambda r: 1 << r),
    ))
    return WindowSet(n, Window(lo, lo + span - 1), bits)


@st.composite
def priced_cases(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    m = draw(st.sampled_from([0, -1, -2]))
    mu = suites.random_measure(random.Random(draw(st.integers(0, 2**16))), n,
                               draw(st.sampled_from(KINDS)))
    s = draw(window_sets(n, m))
    # a wider window, still at or right of the grade
    wide = Window(max(m, s.window.lo - draw(st.integers(0, 1))),
                  s.window.hi + draw(st.integers(0, 1)))
    return mu, m, s, wide


@SETTINGS
@given(priced_cases())
def test_eval_shifted_sums_the_refined_cells(case):
    mu, m, s, wide = case
    refined = symbolic.refine(s, wide)
    expected = sum(
        (mu.cell_value(wide.lo - m, word) for word in refined.words_on(wide)),
        measures.ZERO,
    )
    assert measures.eval_shifted(mu, m, s) == expected
    if m == 0:
        assert measures.eval0(mu, s) == expected


def product_cell(mu, lo, word):
    """Cell value as the textbook product, one Fraction factor per symbol."""
    if isinstance(mu, measures.ConvexMeasure):
        return sum((w * product_cell(part, lo, word) for w, part in zip(mu.weights, mu.parts)),
                   measures.ZERO)
    if isinstance(mu, measures.BernoulliMeasure):
        value = measures.ONE
        for symbol in word:
            value *= mu.p[symbol]
        return value
    if isinstance(mu, measures.MarkovMeasure):
        dist = mu.pi
        for _ in range(lo):
            dist = tuple(sum((dist[i] * mu.a[i][j] for i in range(len(dist))), measures.ZERO)
                         for j in range(len(dist)))
        value = dist[word[0]]
        for a, b in zip(word, word[1:]):
            value *= mu.a[a][b]
        return value
    return mu.cell_value(lo, word)


@SETTINGS
@given(st.integers(1, 3), st.sampled_from(["markov", "bernoulli", "convex"]),
       st.integers(0, 2**16), st.integers(0, 4), st.lists(st.integers(0, 2), min_size=1, max_size=6))
def test_product_cells_match_the_fraction_products(n, kind, seed, lo, word):
    mu = suites.random_measure(random.Random(seed), n, kind)
    word = tuple(symbol % n for symbol in word)
    value = mu.cell_value(lo, word)
    assert type(value) is measures.Fraction
    assert value == product_cell(mu, lo, word)


@SETTINGS
@given(priced_cases())
def test_canonical_key_is_unchanged_by_refine(case):
    _, _, s, wide = case
    assert symbolic.refine(s, wide).canonical_key() == s.canonical_key()


@SETTINGS
@given(st.integers(1, 3), st.integers(-3, 3), st.lists(st.integers(0, 2), min_size=1, max_size=4))
def test_a_single_word_is_its_own_canonical_form(n, start, word):
    word = [symbol % n for symbol in word]
    c = WindowSet.cylinder(n, start, word)
    if n == 1:
        assert c.canonical_key() == ("full",)
    else:
        assert c.canonical_key() == (start, start + len(word) - 1, c.bits)
    assert symbolic.refine(c, Window(start - 1, start + len(word))).canonical_key() == (
        c.canonical_key()
    )


def raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value)


@SETTINGS
@given(priced_cases())
def test_pricing_errors_keep_their_types(case):
    mu, m, s, _ = case
    n = s.n
    other = measures.BernoulliMeasure((measures.ONE,) + (measures.ZERO,) * n)
    # the grade is checked first, then a dependence below it, then the alphabet
    assert raised(measures.eval_shifted, mu, 1, s) is RejectedInputError
    if s.is_degenerate:
        assert raised(measures.eval_shifted, other, m, s) is RejectedInputError
        return
    below = symbolic.shift(s, s.min_coordinate() - m + 1)
    assert raised(measures.eval_shifted, mu, m, below) is GradingViolationError
    assert raised(measures.eval_shifted, other, m, below) is GradingViolationError
    assert raised(measures.eval_shifted, other, m, s) is RejectedInputError
    negative = symbolic.shift(s, s.min_coordinate() + 1)
    assert raised(measures.eval0, mu, negative) is NegativeCoordinateError
    assert raised(measures.eval0, other, negative) is RejectedInputError


def test_the_shifted_window_keeps_the_coordinate_bound():
    mu = measures.BernoulliMeasure((measures.ONE, measures.ZERO))
    s = WindowSet.cylinder(2, symbolic.MAX_ABS_COORDINATE - 1, [0])
    assert measures.eval_shifted(mu, -1, s) == 1
    assert raised(measures.eval_shifted, mu, -2, s) is RejectedInputError


def test_a_walk_to_the_coordinate_bound_prices_its_deepest_nodes():
    # level -64 of a width-1 walk holds words on [-64, 1]; they are read at
    # coordinate 0, so the accepted config solves
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    chain = measures.MarkovMeasure((half, half), ((half, half), (quarter, 1 - quarter)))
    q = WindowSet.cylinder(2, 0, [0])
    cfg = TruncationConfig(symbolic.MAX_ABS_COORDINATE, 1, 0)
    cert = engine.phi_truncated(q, chain, cfg)
    assert covers.is_valid_cover(q, cert.witness)
    assert covers.cover_cost(cert.witness, chain) == cert.value
    assert cert.witness.entries[-1][0] == -symbolic.MAX_ABS_COORDINATE
    # a grade far past the bound is still rejected
    assert raised(measures.eval_shifted, chain, -10 ** 6, q) is RejectedInputError
