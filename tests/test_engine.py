import random
from fractions import Fraction as F

import pytest

from ddmlab import engine, measures, symbolic, verify
from ddmlab.covers import TruncationConfig, cover_cost, is_valid_cover
from ddmlab.engine import (
    brute_force_phi,
    brute_force_phi_overlapping,
    phi_grid,
    phi_paren_truncated,
    phi_truncated,
)
from ddmlab.errors import (
    BitsetCapError,
    BudgetExceededError,
    CertificateError,
    RejectedInputError,
    TooLargeError,
)
from ddmlab.measures import BernoulliMeasure, DiracMeasure, MarkovMeasure, eval0
from ddmlab.suites import random_measure, random_window_set
from ddmlab.symbolic import WindowSet

CHAIN_A = ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)))
ALT = DiracMeasure(2, (0, 1))
X = WindowSet.full_space(2)


def cyl(j, *word):
    return WindowSet.cylinder(2, j, word)


def chain():
    return measures.stationary_markov(CHAIN_A)


class TestAnchors:
    def test_point_mass_collapses_on_the_full_space(self):
        cert = phi_truncated(X, ALT, TruncationConfig(1, 0, 0))
        assert cert.value == 0
        assert is_valid_cover(X, cert.witness)
        assert cover_cost(cert.witness, ALT) == 0

    def test_stationary_chain_keeps_full_mass(self):
        for depth, width in [(0, 0), (1, 0), (2, 1), (3, 2)]:
            cert = phi_truncated(X, chain(), TruncationConfig(depth, width, 0))
            assert cert.value == 1

    def test_point_mass_cylinder_is_free_one_grade_down(self):
        cert = phi_truncated(cyl(0, 0), ALT, TruncationConfig(1, 0, 0))
        assert cert.value == 0
        assert brute_force_phi(cyl(0, 0), ALT, TruncationConfig(1, 0, 0)) == 0

    def test_empty_query_costs_nothing(self):
        cert = phi_truncated(WindowSet.empty(2), ALT, TruncationConfig(2, 1, -1))
        assert cert.value == 0
        assert cert.witness.entries == ()

    def test_signed_measures_rejected(self):
        signed = measures.SignedDiffMeasure(ALT, F(1), BernoulliMeasure((F(1, 2), F(1, 2))))
        with pytest.raises(RejectedInputError):
            phi_truncated(X, signed, TruncationConfig(1))


class TestOracleEquality:
    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(101)
        kinds = ["dirac", "markov", "bernoulli", "cesaro", "convex"]
        for k in range(60):
            q = random_window_set(rng, 2, lo_range=(-2, 1), max_span=4,
                                  allow_degenerate=True)
            if q.is_empty:
                q = X
            phi = random_measure(rng, 2, kinds[k % len(kinds)])
            cfg = TruncationConfig(rng.randint(1, 2), rng.randint(0, 1),
                                   rng.choice([0, -1]))
            assert phi_truncated(q, phi, cfg).value == brute_force_phi(q, phi, cfg)

    def test_matches_overlapping_cover_search(self):
        rng = random.Random(103)
        for _ in range(25):
            q = random_window_set(rng, 2, lo_range=(0, 1), max_span=2)
            phi = random_measure(rng, 2)
            cfg = TruncationConfig(1, 0, 0)
            assert phi_truncated(q, phi, cfg).value == brute_force_phi_overlapping(
                q, phi, cfg
            )


class TestTruncationMonotonicity:
    def test_value_never_increases_in_depth_or_width(self):
        rng = random.Random(107)
        for _ in range(40):
            q = random_window_set(rng, 2, lo_range=(-1, 1), max_span=3)
            phi = random_measure(rng, 2)
            values = {}
            for depth in (0, 1, 2):
                for width in (0, 1, 2):
                    values[(depth, width)] = phi_truncated(
                        q, phi, TruncationConfig(depth, width, 0)
                    ).value
            for depth in (0, 1, 2):
                assert values[(depth, 0)] >= values[(depth, 1)] >= values[(depth, 2)]
            for width in (0, 1, 2):
                assert values[(0, width)] >= values[(1, width)] >= values[(2, width)]


class TestShiftCovariance:
    def test_grid_checks_the_shift_identity(self):
        rng = random.Random(109)
        for _ in range(25):
            q = random_window_set(rng, 2, lo_range=(-1, 1), max_span=2)
            phi = random_measure(rng, 2)
            result = phi_grid(q, phi, 1, 0, [0, -1, -2])
            assert result.nonincreasing_toward_zero

    def test_grid_rejects_a_mirrored_value_that_disagrees(self, monkeypatch):
        # the mirrored solve prices the complement, so covariance must fail
        monkeypatch.setattr(engine.symbolic, "shift", lambda s, i: symbolic.complement(s))
        with pytest.raises(CertificateError, match="shift covariance"):
            phi_grid(cyl(0, 0), chain(), 1, 0, [0, -1])

    def test_empty_shift_list_is_rejected(self):
        with pytest.raises(RejectedInputError, match="shift list is empty"):
            phi_grid(cyl(0, 0), ALT, 1, 0, [])

    def test_sweep_pins_the_top_cells_window(self):
        # every cell shares the floor min(i) - D and the top cell's window,
        # which holds the window each cell would get on its own
        rng = random.Random(113)
        for _ in range(25):
            q = random_window_set(rng, 2, lo_range=(-1, 1), max_span=2)
            if q.is_empty:
                continue
            sweep = engine.shift_sweep(q, [0, -1, -3], 2, 1)
            top = engine.build_frame(q, TruncationConfig(5, 1, 0))
            for cfg in sweep:
                assert cfg.base_shift - cfg.depth == -5
                assert (cfg.window_lo, cfg.window_hi) == (top.wlo, top.whi)
                own = engine.build_frame(q, TruncationConfig(cfg.depth, 1, cfg.base_shift))
                assert top.wlo <= own.wlo and own.whi <= top.whi

    def test_stationary_grid_is_constant(self):
        result = phi_grid(cyl(0, 0), chain(), 2, 0, [0, -1, -2])
        values = [row.certificate.value for row in result.rows]
        assert values == [F(1, 3)] * 3

    def test_empty_grid_is_zero(self):
        result = phi_grid(WindowSet.empty(2), ALT, 1, 0, [0, -1])
        assert [row.certificate.value for row in result.rows] == [0, 0]

    def test_point_mass_grid(self):
        result = phi_grid(cyl(0, 0), ALT, 1, 0, [0, -1])
        assert [row.certificate.value for row in result.rows] == [0, 0]


class TestOuterMeasureShape:
    # the truncated optimum at one fixed truncation behaves like an outer
    # measure on sampled window sets
    def test_monotone_and_subadditive(self):
        rng = random.Random(113)
        cfg = TruncationConfig(1, 0, 0, window_lo=-3, window_hi=3)
        for phi in (ALT, chain(), BernoulliMeasure((F(1, 3), F(2, 3)))):
            value = lambda s: phi_truncated(s, phi, cfg).value
            sets = [random_window_set(rng, 2, lo_range=(-2, 1), max_span=2)
                    for _ in range(8)]
            for a in sets:
                for b in sets:
                    u = symbolic.union(a, b)
                    assert value(u) <= value(a) + value(b)
                    if symbolic.is_subset(a, b):
                        assert value(a) <= value(b)


class TestConsistentCollapse:
    def test_truncated_value_equals_the_direct_value(self):
        rng = random.Random(127)
        mu = chain()
        for _ in range(25):
            start = rng.randint(0, 2)
            word = [rng.randrange(2) for _ in range(rng.randint(1, 3))]
            q = WindowSet.cylinder(2, start, word)
            direct = eval0(mu, q)
            for cfg in (
                TruncationConfig(1, 0, 0),
                TruncationConfig(2, 1, -1),
                TruncationConfig(3, 2, -2),
            ):
                assert phi_truncated(q, mu, cfg).value == direct


class TestSandwich:
    def test_pointwise_bounds_carry_to_the_optimum(self):
        pi = measures.stationary_distribution(CHAIN_A)
        pi0 = (F(1, 2), F(1, 2))
        lam = min(pi[i] / pi0[i] for i in range(2))
        alpha = max(pi[i] / pi0[i] for i in range(2))
        phi = MarkovMeasure(pi, CHAIN_A)
        phi0 = MarkovMeasure(pi0, CHAIN_A)
        rng = random.Random(131)
        cfg = TruncationConfig(2, 0, 0)
        for _ in range(20):
            q = random_window_set(rng, 2, lo_range=(-2, 1), max_span=3,
                                  allow_degenerate=True)
            v = phi_truncated(q, phi, cfg).value
            v0 = phi_truncated(q, phi0, cfg).value
            assert lam * v0 <= v <= alpha * v0

    def test_bounded_density(self):
        # start vectors bound each other pointwise, so the optima do too
        phi0 = MarkovMeasure((F(1, 2), F(1, 2)), CHAIN_A)
        phi = MarkovMeasure((F(1, 3), F(2, 3)), CHAIN_A)
        c = max(F(1, 2) / F(1, 3), F(1, 2) / F(2, 3))
        rng = random.Random(137)
        cfg = TruncationConfig(1, 1, 0)
        for _ in range(20):
            q = random_window_set(rng, 2, lo_range=(-1, 1), max_span=2)
            assert phi_truncated(q, phi0, cfg).value <= c * phi_truncated(q, phi, cfg).value


class TestBaseGradedVariant:
    def test_zero_shift_agrees_with_the_plain_optimum(self):
        rng = random.Random(139)
        for _ in range(20):
            q = random_window_set(rng, 2, lo_range=(-1, 1), max_span=2)
            phi = random_measure(rng, 2)
            cfg = TruncationConfig(rng.randint(1, 2), rng.randint(0, 1), 0)
            assert phi_paren_truncated(q, phi, cfg).value == phi_truncated(q, phi, cfg).value

    def test_stationary_chain_ignores_the_pricing_shift(self):
        mu = chain()
        q = cyl(0, 0)
        baseline = phi_paren_truncated(q, mu, TruncationConfig(1, 0, 0)).value
        for i in (0, -1, -2):
            cert = phi_paren_truncated(q, mu, TruncationConfig(1, 0, i))
            assert cert.value == baseline == eval0(mu, q)

    def test_point_mass_full_space_one_shift_down(self):
        cert = phi_paren_truncated(X, ALT, TruncationConfig(1, 0, -1))
        assert cert.value == 0
        assert brute_force_phi(X, ALT, TruncationConfig(1, 0, -1), base_graded=True) == 0

    def test_matches_brute_force(self):
        rng = random.Random(149)
        for _ in range(15):
            q = random_window_set(rng, 2, lo_range=(0, 1), max_span=2)
            phi = random_measure(rng, 2)
            for i in (0, -1):
                cfg = TruncationConfig(1, 0, i)
                assert phi_paren_truncated(q, phi, cfg).value == brute_force_phi(
                    q, phi, cfg, base_graded=True
                )

    def test_nonincreasing_in_the_pricing_shift_at_matched_depth(self):
        # re-indexing a depth-D cover one slot down lands in the depth-(D+1)
        # class and prices one shift up, so value(D+1, i) <= value(D, i-1)
        rng = random.Random(151)
        for _ in range(15):
            q = random_window_set(rng, 2, lo_range=(0, 1), max_span=2)
            phi = random_measure(rng, 2)
            [pinned] = engine.shift_sweep(q, [0], 3, 0)
            wlo, whi = pinned.window_lo, pinned.window_hi
            for depth, i in ((1, 0), (2, -1)):
                shallow = phi_paren_truncated(
                    q, phi,
                    TruncationConfig(depth, 0, i - 1, window_lo=wlo, window_hi=whi),
                ).value
                deeper = phi_paren_truncated(
                    q, phi,
                    TruncationConfig(depth + 1, 0, i, window_lo=wlo, window_hi=whi),
                ).value
                assert deeper <= shallow


class TestWitnesses:
    def test_round_trip(self):
        rng = random.Random(151)
        for _ in range(30):
            q = random_window_set(rng, 2, lo_range=(-1, 1), max_span=3)
            phi = random_measure(rng, 2)
            cfg = TruncationConfig(rng.randint(1, 2), rng.randint(0, 1), 0)
            cert = phi_truncated(q, phi, cfg)
            assert is_valid_cover(q, cert.witness)
            assert cover_cost(cert.witness, phi) == cert.value
            # witnesses are disjoint across entries
            for m1, a1 in cert.witness.entries:
                for m2, a2 in cert.witness.entries:
                    if m1 != m2:
                        assert not symbolic.meets(a1, a2)

    def test_deterministic_witness(self):
        cert1 = phi_truncated(X, ALT, TruncationConfig(1, 0, 0))
        cert2 = phi_truncated(X, ALT, TruncationConfig(1, 0, 0))
        assert cert1.witness.entries == cert2.witness.entries
        # ties prefer the coarsest index
        assert cert1.witness.entries[0][0] == 0


class TestThreeSymbols:
    def test_cycle_chain_collapses_exactly(self):
        cycle = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
        mu = measures.stationary_markov(cycle)
        assert mu.pi == (F(1, 3),) * 3
        q = WindowSet.cylinder(3, 0, [2, 0])
        direct = eval0(mu, q)
        assert direct == F(1, 3)
        for cfg in (TruncationConfig(1, 0, 0), TruncationConfig(2, 1, -1)):
            assert phi_truncated(q, mu, cfg).value == direct

    def test_point_mass_matches_brute_force(self):
        point = DiracMeasure(3, (0, 2, 1))
        x3 = WindowSet.full_space(3)
        cfg = TruncationConfig(1, 0, 0)
        value = phi_truncated(x3, point, cfg).value
        assert value == brute_force_phi(x3, point, cfg)
        avg = measures.cesaro(point, 2)
        assert phi_truncated(x3, avg, cfg).value == brute_force_phi(x3, avg, cfg)


class TestCaps:
    # every cap error names its constant and the value it was read at

    def test_node_cap(self, monkeypatch):
        monkeypatch.setattr(engine, "NODE_CAP", 3)
        with pytest.raises(BudgetExceededError, match=r"\(engine\.NODE_CAP = 3\)"):
            phi_truncated(X, ALT, TruncationConfig(3, 2, 0))

    def test_brute_force_cap(self, monkeypatch):
        monkeypatch.setattr(engine, "LABELING_CAP", 10)
        with pytest.raises(TooLargeError, match=r"\(engine\.LABELING_CAP = 10\)"):
            brute_force_phi(X, ALT, TruncationConfig(3, 3, 0))

    def test_brute_force_class_cap(self, monkeypatch):
        monkeypatch.setattr(engine, "CLASS_CAP", 1)
        with pytest.raises(TooLargeError, match=r"\(engine\.CLASS_CAP = 1\)"):
            brute_force_phi(X, ALT, TruncationConfig(1, 0, 0))

    def test_overlapping_pool_cap(self, monkeypatch):
        monkeypatch.setattr(engine, "POOL_CAP", 4)
        with pytest.raises(TooLargeError, match=r"\(engine\.POOL_CAP = 4\)"):
            brute_force_phi_overlapping(X, ALT, TruncationConfig(2, 2, 0))

    def test_algebra_cap(self):
        with pytest.raises(TooLargeError, match=r"\(verify\.ALGEBRA_CAP = 4096\)"):
            verify.FiniteAlgebra(2, [cyl(j, 0) for j in range(-2, 3)])

    def test_bitset_cap(self):
        with pytest.raises(BitsetCapError, match=r"bitset cap \(symbolic\.MAX_CELLS = 4194304\)"):
            phi_truncated(cyl(0, 0), chain(), TruncationConfig(1, 25, 0))

    def test_window_override_must_contain_the_query(self):
        with pytest.raises(RejectedInputError):
            phi_truncated(cyl(2, 1), ALT, TruncationConfig(1, 0, 0, window_hi=1))
        with pytest.raises(RejectedInputError):
            phi_truncated(cyl(-3, 1), ALT, TruncationConfig(1, 0, 0, window_lo=-2))
