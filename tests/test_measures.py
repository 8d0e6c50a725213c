import itertools
import random
from fractions import Fraction as F

import pytest

from ddmlab import measures, symbolic
from ddmlab.errors import (
    GradingViolationError,
    NegativeCoordinateError,
    NotIrreducibleError,
    NotStochasticError,
    RejectedInputError,
)
from ddmlab.measures import (
    BernoulliMeasure,
    DiracMeasure,
    MarkovMeasure,
    SignedDiffMeasure,
    cesaro,
    eval0,
    eval_shifted,
    stationary_distribution,
)
from ddmlab.symbolic import Window, WindowSet

CHAIN_A = ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)))


def cyl(j, *word):
    return WindowSet.cylinder(2, j, word)


ALT = DiracMeasure(2, (0, 1))  # 0 on even coordinates, 1 on odd


class TestEval0:
    def test_markov_single_coordinate_is_the_start_weight(self):
        mu = MarkovMeasure((F(1, 3), F(2, 3)), CHAIN_A)
        assert eval0(mu, cyl(0, 0)) == F(1, 3)
        assert eval0(mu, cyl(0, 1)) == F(2, 3)

    def test_markov_path_product(self):
        mu = MarkovMeasure((F(1, 3), F(2, 3)), CHAIN_A)
        assert eval0(mu, cyl(0, 0, 1)) == F(1, 3) * F(1, 2)
        assert eval0(mu, cyl(0, 1, 0, 0)) == F(2, 3) * F(1, 4) * F(1, 2)

    def test_point_mass_membership(self):
        assert eval0(ALT, cyl(0, 1)) == 0
        assert eval0(ALT, cyl(0, 0)) == 1
        assert eval0(ALT, cyl(1, 1)) == 1
        assert eval0(ALT, cyl(0, 0, 1, 0)) == 1

    def test_point_mass_exceptions(self):
        bumped = DiracMeasure(2, (0, 1), exceptions=((2, 1),))
        assert eval0(bumped, cyl(2, 1)) == 1
        assert eval0(bumped, cyl(0, 0, 1, 1)) == 1

    def test_bernoulli_product(self):
        mu = BernoulliMeasure((F(1, 4), F(3, 4)))
        assert eval0(mu, cyl(0, 0, 1)) == F(1, 4) * F(3, 4)
        assert eval0(mu, cyl(3, 1)) == F(3, 4)

    def test_degenerate_sets(self):
        mu = MarkovMeasure((F(1, 3), F(2, 3)), CHAIN_A)
        assert eval0(mu, WindowSet.empty(2)) == 0
        assert eval0(mu, WindowSet.full_space(2)) == 1

    def test_rejects_negative_coordinates(self):
        with pytest.raises(NegativeCoordinateError):
            eval0(ALT, cyl(-1, 0))

    def test_finite_additivity(self):
        rng = random.Random(3)
        kinds = [
            MarkovMeasure((F(1, 3), F(2, 3)), CHAIN_A),
            BernoulliMeasure((F(2, 5), F(3, 5))),
            ALT,
            cesaro(ALT, 2),
        ]
        for _ in range(80):
            mu = rng.choice(kinds)
            window = Window(rng.randint(0, 2), rng.randint(3, 4))
            count = 2 ** window.span
            bits = rng.randrange(1, 1 << count)
            s = WindowSet(2, window, bits)
            parts = [
                WindowSet.from_words(2, window, [w]) for w in s.words_on(window)
            ]
            assert eval0(mu, s) == sum(eval0(mu, p) for p in parts)

    def test_monotone_for_nonnegative_kinds(self):
        rng = random.Random(9)
        mu = MarkovMeasure((F(1, 3), F(2, 3)), CHAIN_A)
        for _ in range(60):
            window = Window(0, 2)
            big = rng.randrange(1, 256)
            small = big & rng.randrange(1, 256)
            if small == 0:
                continue
            a = WindowSet(2, window, small)
            b = WindowSet(2, window, big)
            assert eval0(mu, a) <= eval0(mu, b)


class TestEvalShifted:
    def test_alternating_point_one_step(self):
        assert eval_shifted(ALT, -1, cyl(0, 0)) == 0
        assert eval_shifted(ALT, -1, cyl(0, 1)) == 1

    def test_zero_shift_is_identity(self):
        mu = BernoulliMeasure((F(1, 2), F(1, 2)))
        s = cyl(1, 0, 1)
        assert eval_shifted(mu, 0, s) == eval0(mu, s)

    def test_stationary_chain_is_shift_invariant(self):
        mu = measures.stationary_markov(CHAIN_A)
        rng = random.Random(17)
        for _ in range(50):
            start = rng.randint(0, 2)
            word = [rng.randrange(2) for _ in range(rng.randint(1, 3))]
            c = WindowSet.cylinder(2, start, word)
            # oracle: the shifted cylinder evaluated by the path formula
            for m in range(0, -3, -1):
                moved = symbolic.shift(c, m)
                direct = eval0(mu, moved)
                assert eval_shifted(mu, m, c) == direct == eval0(mu, c)

    def test_one_symbol_cylinders_price_as_their_cell_at_any_coordinate(self):
        # over one symbol a one-word cylinder canonicalizes to the full space,
        # which eval_shifted prices at coordinate 0, not at the cylinder's
        # coordinate; the two agree because every kind has one total mass
        dirac = DiracMeasure(1, (0,), ((2, 0),))
        bern = BernoulliMeasure((F(1),))
        kinds = [
            dirac,
            MarkovMeasure((F(1),), ((F(1),),)),
            bern,
            cesaro(dirac, 2),
            measures.ConvexMeasure((F(1, 3), F(2, 3)), (dirac, bern)),
            SignedDiffMeasure(bern, F(1, 2), dirac),
        ]
        for mu in kinds:
            for floor in range(-2, 3):
                for at in range(max(floor, 0), floor + 4):  # read at coordinates >= 0
                    for span in range(1, 4):
                        cylinder = WindowSet.ranked_cylinder(1, floor, span, 0)
                        assert eval_shifted(mu, floor - at, cylinder) == mu.cell_value(
                            at, (0,) * span
                        )

    def test_grading_violation(self):
        with pytest.raises(GradingViolationError):
            eval_shifted(ALT, -1, cyl(-2, 0))
        with pytest.raises(RejectedInputError):
            eval_shifted(ALT, 1, cyl(0, 0))


class TestStationaryDistribution:
    def test_swap_chain_is_uniform(self):
        assert stationary_distribution([[0, 1], [1, 0]]) == (F(1, 2), F(1, 2))

    def test_two_state_chain_hand_elimination(self):
        # pi A = pi with sum 1: pi0 = pi0/2 + pi1/4 and pi0 + pi1 = 1
        # give pi0 = 1/3, pi1 = 2/3
        pi = stationary_distribution(CHAIN_A)
        assert pi == (F(1, 3), F(2, 3))
        n = len(pi)
        for j in range(n):
            assert sum(pi[i] * CHAIN_A[i][j] for i in range(n)) == pi[j]

    def test_cycle_is_uniform(self):
        cycle = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        assert stationary_distribution(cycle) == (F(1, 3),) * 3

    def test_errors(self):
        with pytest.raises(NotStochasticError):
            stationary_distribution([[F(1, 2), F(1, 4)], [0, 1]])
        with pytest.raises(NotIrreducibleError):
            stationary_distribution([[1, 0], [0, 1]])

    def test_an_empty_chain_needs_a_state(self):
        with pytest.raises(RejectedInputError, match="a chain needs at least one state"):
            stationary_distribution([])


class TestCesaro:
    def test_two_term_average_splits_the_mass(self):
        avg = cesaro(ALT, 1)
        assert eval0(avg, cyl(0, 0)) == F(1, 2)
        assert eval0(avg, WindowSet.full_space(2)) == 1

    def test_three_term_average_term_by_term(self):
        # oracle: evaluate each shifted indicator separately
        q = cyl(0, 0)
        terms = [eval0(ALT, symbolic.shift(q, -i)) for i in range(3)]
        assert terms == [1, 0, 1]
        assert eval0(cesaro(ALT, 2), q) == F(sum(terms), 3) == F(2, 3)

    def test_matches_shift_sum_on_random_sets(self):
        rng = random.Random(29)
        avg = cesaro(ALT, 2)
        for _ in range(40):
            window = Window(rng.randint(0, 1), rng.randint(2, 3))
            bits = rng.randrange(1, 1 << (2 ** window.span))
            s = WindowSet(2, window, bits)
            expected = sum(eval0(ALT, symbolic.shift(s, -i)) for i in range(3)) / 3
            assert eval0(avg, s) == expected


class TestBernoulliIsAMarkovChain:
    # a product measure is the Markov chain whose start and rows all equal p

    def test_prices_every_word_as_the_product_of_its_weights(self):
        rng = random.Random(17)
        for n in (1, 2, 3):
            weights = [rng.randint(0, 4) for _ in range(n)]
            weights[rng.randrange(n)] += 1
            p = tuple(F(w, sum(weights)) for w in weights)
            mu = BernoulliMeasure(p)
            for length in range(1, 5):
                for word in itertools.product(range(n), repeat=length):
                    expected = F(1)
                    for symbol in word:
                        expected *= p[symbol]
                    for lo in range(4):
                        assert mu.cell_value(lo, word) == expected

    def test_decision_tables_match_the_single_product_table(self):
        rng = random.Random(23)
        for n in (2, 3):
            weights = [rng.randint(1, 5) for _ in range(n)]
            p = tuple(F(w, sum(weights)) for w in weights)
            single = measures.DecisionTable(p, (p,) * n)
            mu = BernoulliMeasure(p)
            for at in range(4):
                table = mu.table(at)
                for k in range(7):
                    for s in range(n):
                        assert table.takes(s, k) == single.takes(s, k)

    def test_keeps_its_own_message_and_repr(self):
        with pytest.raises(RejectedInputError, match="weights are not a distribution"):
            BernoulliMeasure((F(1, 2), F(1, 4)))
        with pytest.raises(RejectedInputError, match="weights are not a distribution"):
            BernoulliMeasure(())
        assert repr(BernoulliMeasure((F(1, 2), F(1, 2)))) == (
            "BernoulliMeasure((Fraction(1, 2), Fraction(1, 2)))"
        )

    def test_pricing_and_tables_come_from_the_chain(self):
        assert issubclass(BernoulliMeasure, MarkovMeasure)
        assert not {"cell_value", "table"} & set(BernoulliMeasure.__dict__)


@pytest.mark.parametrize("mu", [MarkovMeasure((F(1, 3), F(2, 3)), CHAIN_A),
                                BernoulliMeasure((F(1, 4), F(3, 4)))], ids=["markov", "bernoulli"])
@pytest.mark.parametrize("ask", [
    lambda mu: mu.cell_value(-3, (0, 1)),
    lambda mu: mu.set_value(-3, 2, 2, 0b0110),
    lambda mu: mu.takes(-3, (0, 1), 1),
    lambda mu: mu.denominator(-3, 2),
], ids=["cell_value", "set_value", "takes", "denominator"])
def test_a_chain_asked_for_a_negative_coordinate_names_it(mu, ask):
    # the marginals start at coordinate 0; the chain once recursed toward
    # minus infinity until Python's recursion limit
    with pytest.raises(NegativeCoordinateError, match="coordinate -3 "):
        ask(mu)
    assert mu.cell_value(0, (0, 1)) == mu.pi[0] * mu.a[0][1]


def test_signed_difference_linearity():
    rng = random.Random(41)
    psi = cesaro(ALT, 1)
    phi = BernoulliMeasure((F(1, 2), F(1, 2)))
    diff = SignedDiffMeasure(psi, F(3, 2), phi)
    assert not diff.nonnegative
    for _ in range(40):
        window = Window(rng.randint(0, 2), rng.randint(2, 4))
        bits = rng.randrange(1, 1 << (2 ** window.span))
        s = WindowSet(2, window, bits)
        assert eval0(diff, s) == eval0(psi, s) - F(3, 2) * eval0(phi, s)


def test_the_mix_kinds_only_check_and_name_their_inputs():
    # pricing, denominators and bounds live in one mix; each kind keeps its
    # attributes, repr and messages, in their old order
    point, coin = ALT, BernoulliMeasure((F(1, 2), F(1, 2)))
    for kind in (measures.CesaroMeasure, measures.ConvexMeasure, SignedDiffMeasure):
        assert {name for name, v in vars(kind).items() if callable(v)} == {"__init__", "__repr__"}
    avg, diff = cesaro(point, 2), SignedDiffMeasure(point, F(1, 2), coin)
    assert (avg.base, avg.n, diff.psi, diff.c, diff.phi) == (point, 2, point, F(1, 2), coin)
    assert repr(avg) == "CesaroMeasure(DiracMeasure(2, (0, 1), ()), 2)"
    assert repr(diff) == ("SignedDiffMeasure(DiracMeasure(2, (0, 1), ()), 1/2, "
                          "BernoulliMeasure((Fraction(1, 2), Fraction(1, 2))))")
    three = DiracMeasure(3, (0,))
    for make, message in (
        (lambda: measures.ConvexMeasure((F(1),), (point, three)), "weights and parts disagree"),
        (lambda: measures.ConvexMeasure((F(1), F(1)), (point, three)), "weights are not convex"),
        (lambda: measures.ConvexMeasure((F(1), F(0)), (point, three)), "different alphabets"),
        (lambda: SignedDiffMeasure(point, F(-1), three), "scale must be nonnegative"),
        (lambda: SignedDiffMeasure(point, F(0), three), "different alphabets"),
        (lambda: cesaro(point, 0), "average length must be positive"),
    ):
        with pytest.raises(RejectedInputError, match=message):
            make()


def test_a_mix_nested_past_the_cap_is_an_input_error():
    # a mix nests as deep as Python lets pricing recurse only up to the cap;
    # one level more is rejected when it is built, not by a RecursionError
    # from eval0 or denominator
    base = BernoulliMeasure((F(1, 3), F(2, 3)))
    mu, built = base, 0
    with pytest.raises(RejectedInputError, match=r"\(measures\.MIX_DEPTH_CAP = 100\)"):
        for _ in range(1200):
            mu = measures.ConvexMeasure((1,), (mu,))
            built += 1
    assert built == measures.MIX_DEPTH_CAP
    s = cyl(0, 1, 0)
    assert eval0(mu, s) == eval0(base, s) == F(2, 9)
    assert mu.denominator(0, 1) == base.denominator(0, 1)
    for kind in (lambda m: cesaro(m, 1), lambda m: SignedDiffMeasure(m, F(1, 2), base)):
        with pytest.raises(RejectedInputError, match="MIX_DEPTH_CAP"):
            kind(mu)


def test_signed_difference_goes_negative():
    diff = SignedDiffMeasure(ALT, F(2), BernoulliMeasure((F(1, 2), F(1, 2))))
    assert eval0(diff, WindowSet.full_space(2)) == -1


def test_convex_combination():
    mix = measures.ConvexMeasure(
        (F(1, 2), F(1, 2)), (ALT, BernoulliMeasure((F(1, 2), F(1, 2))))
    )
    assert eval0(mix, cyl(0, 0)) == F(1, 2) * 1 + F(1, 2) * F(1, 2)
    with pytest.raises(RejectedInputError):
        measures.ConvexMeasure((F(1, 2), F(1, 4)), (ALT, ALT))


def test_an_empty_markov_measure_needs_a_state():
    with pytest.raises(RejectedInputError, match="a chain needs at least one state"):
        MarkovMeasure([], [])


def test_validation_errors():
    with pytest.raises(RejectedInputError):
        MarkovMeasure((F(1, 2), F(1, 4)), CHAIN_A)
    with pytest.raises(NotStochasticError):
        MarkovMeasure((F(1, 2), F(1, 2)), ((F(1, 2), F(1, 4)), (0, 1)))
    with pytest.raises(RejectedInputError):
        DiracMeasure(2, ())
    with pytest.raises(RejectedInputError):
        DiracMeasure(2, (0, 2))
    with pytest.raises(RejectedInputError):
        SignedDiffMeasure(ALT, F(-1), ALT)
