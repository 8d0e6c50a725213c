import random
import time
from fractions import Fraction as F

import pytest

from ddmlab import engine, examples, measures, suites, symbolic, verify
from ddmlab.budgeted import BudgetedProblem, brute_force_psi, psi_budgeted
from ddmlab.covers import TruncationConfig, is_valid_cover
from ddmlab.errors import (
    BitsetCapError,
    CertificateError,
    InfeasibleError,
    RejectedInputError,
    TooLargeError,
)
from ddmlab.measures import BernoulliMeasure, DiracMeasure, cesaro, eval0, eval_shifted
from ddmlab.suites import caratheodory_config, random_measure, random_window_set
from ddmlab.symbolic import Window, WindowSet
from ddmlab.verify import (
    ApproxFamilySpec,
    FiniteAlgebra,
    PiecewiseLinear,
    SetFunctionHandle,
    caratheodory_measurable,
    check_approximation,
    check_consistency,
    check_outer_measure_axioms,
    check_splitting_closure,
    measure_handle,
    norm_defect,
    phi_handle,
    psi_handle,
)

CHAIN_A = ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)))
ALT = DiracMeasure(2, (0, 1))


def cyl(j, *word):
    return WindowSet.cylinder(2, j, word)


def chain():
    return measures.stationary_markov(CHAIN_A)


def max_handle(shift=-2):
    """A non-additive set function: the larger of two shifted measures."""
    deep_chain = lambda s: eval_shifted(chain(), shift, s)
    deep_point = lambda s: eval_shifted(ALT, shift, s)
    return SetFunctionHandle("max", lambda s: max(deep_chain(s), deep_point(s)), 2)


def split_reference(mu, a, tests):
    """caratheodory_measurable through set_algebra, as a tuple of its fields."""
    for q in tests:
        whole = mu(q)
        split = mu(symbolic.intersection(q, a)) + mu(symbolic.difference(q, a))
        if whole != split:
            return False, q, whole, split
    return True, None, None, None


def closure_reference(mu, algebra):
    """check_splitting_closure in Fraction arithmetic, as (name, verdict, detail)."""
    members = algebra.members
    bits_list = [m.bits_on(algebra._window) for m in members]
    values = {bits: mu(m) for m, bits in zip(members, bits_list)}
    mask = (1 << (algebra.n ** algebra._window.span)) - 1
    passing = [
        a for a in bits_list
        if all(values[q] == values[q & a] + values[q & ~a & mask] for q in bits_list)
    ]
    kept = set(passing)
    pairs = [(a, b) for a in passing for b in passing if not a & b]
    return [
        ("closed under complement", all((~a & mask) in kept for a in passing), ""),
        ("closed under disjoint union", all((a | b) in kept for a, b in pairs), ""),
        ("finitely additive on the family",
         all(values[a | b] == values[a] + values[b] for a, b in pairs), ""),
        ("family size", True, f"{len(passing)} of {len(members)} members pass"),
    ]


class TestFiniteAlgebra:
    def test_single_generator(self):
        algebra = FiniteAlgebra(2, [cyl(0, 0)])
        assert len(algebra) == 4
        assert cyl(0, 1) in algebra

    def test_three_independent_generators(self):
        algebra = FiniteAlgebra(2, [cyl(-1, 0), cyl(0, 0), cyl(1, 0)])
        assert len(algebra) == 256

    def test_closed_under_operations(self):
        algebra = FiniteAlgebra(2, [cyl(0, 0), cyl(1, 1)])
        members = list(algebra)
        for a in members[:6]:
            for b in members[:6]:
                for op in ("union", "intersection", "difference"):
                    assert symbolic.set_algebra(a, b, op) in algebra

    def test_cap(self):
        gens = [cyl(j, 0) for j in range(-2, 3)]
        with pytest.raises(TooLargeError):
            FiniteAlgebra(2, gens)

    def test_generators_over_another_alphabet_are_rejected(self):
        # these once gave only {empty, full}, and a member
        # union(cyl(0,[0]), cyl(0,[2])) read over 3 symbols
        for n, other in ((2, 3), (3, 2)):
            with pytest.raises(RejectedInputError, match="operands live over different alphabets"):
                FiniteAlgebra(n, [WindowSet.cylinder(other, 0, [other - 1])])


class TestCaratheodorySplitting:
    def test_additive_measure_splits_everything(self):
        algebra = FiniteAlgebra(2, [cyl(0, 0), cyl(1, 0)])
        mu = measure_handle("chain", chain())
        for a in algebra.generators:
            assert caratheodory_measurable(mu, a, algebra).ok

    def test_truncated_point_mass_splits_on_a_wider_algebra(self):
        cfg = caratheodory_config(depth=1)
        mu = phi_handle("point mass optimum", ALT, cfg)
        algebra = FiniteAlgebra(2, [cyl(-1, 0), cyl(0, 0), cyl(1, 0)])
        result = caratheodory_measurable(mu, cyl(0, 0), algebra)
        assert result.ok

    def test_non_additive_handle_fails_with_a_witness(self):
        algebra = FiniteAlgebra(2, [cyl(0, 0), cyl(1, 0)])
        deep_chain = lambda s: eval_shifted(chain(), -2, s)
        deep_point = lambda s: eval_shifted(ALT, -2, s)
        bad = SetFunctionHandle("max", lambda s: max(deep_chain(s), deep_point(s)), 2)
        found = False
        for a in algebra:
            result = caratheodory_measurable(bad, a, algebra)
            if not result.ok:
                found = True
                assert result.counterexample is not None
                assert result.left != result.right
                break
        assert found

    def test_closure_of_the_passing_family(self):
        cfg = caratheodory_config(depth=1)
        mu = phi_handle("point mass optimum", ALT, cfg)
        algebra = FiniteAlgebra(2, [cyl(-1, 0), cyl(0, 0)])
        report = check_splitting_closure(mu, algebra)
        assert report.ok

    def test_handle_requires_pinned_windows(self):
        with pytest.raises(RejectedInputError):
            phi_handle("loose", ALT, TruncationConfig(1))

    def test_closure_equals_the_fraction_reference(self):
        # the max handle prices members at many denominators, so the
        # integer scaling meets every per-member comparison both ways
        deep_chain = SetFunctionHandle("deep chain", lambda s: eval_shifted(chain(), -3, s), 2)
        for mu, gens in (
            (deep_chain, [cyl(-1, 0), cyl(0, 0), cyl(0, 1, 0)]),
            (max_handle(), [cyl(-1, 0), cyl(0, 0), cyl(0, 1, 0)]),
            (max_handle(-3), [cyl(0, 0), cyl(1, 0)]),
            (phi_handle("point mass optimum", ALT, caratheodory_config(depth=1)),
             [cyl(-1, 0), cyl(0, 0), cyl(1, 0)]),
        ):
            algebra = FiniteAlgebra(2, gens)
            report = check_splitting_closure(mu, algebra)
            got = [(c.name, c.verdict == verify.PASS, c.detail) for c in report.checks]
            assert got == closure_reference(mu, algebra)

    def test_split_equals_the_set_algebra_formulation(self):
        algebra = FiniteAlgebra(2, [cyl(-1, 0), cyl(0, 0), cyl(0, 1, 0)])
        handles = [
            SetFunctionHandle("deep chain", lambda s: eval_shifted(chain(), -3, s), 2),
            phi_handle("point mass optimum", ALT, caratheodory_config(depth=1)),
            max_handle(),
        ]
        sets = [
            cyl(0, 1),
            cyl(-1, 1),
            cyl(2, 1),  # outside the algebra's window
            cyl(-2, 1, 0),  # straddles its left edge
            symbolic.complement(cyl(0, 0, 1)),
            WindowSet.full_space(2),
            WindowSet.empty(2),
        ]
        outcomes = set()
        for mu in handles:
            for a in sets:
                result = caratheodory_measurable(mu, a, algebra)
                got = (result.ok, result.counterexample, result.left, result.right)
                assert got == split_reference(mu, a, algebra)
                outcomes.add(result.ok)
        assert outcomes == {True, False}

    def test_split_on_an_algebra_of_the_empty_and_full_sets(self):
        algebra = FiniteAlgebra(2, [WindowSet.full_space(2)])
        assert len(algebra) == 2
        mu = max_handle()
        for a in (cyl(40, 1, 0), WindowSet.full_space(2), WindowSet.empty(2)):
            result = caratheodory_measurable(mu, a, algebra)
            got = (result.ok, result.counterexample, result.left, result.right)
            assert got == split_reference(mu, a, algebra)

    def test_split_rejects_another_alphabet(self):
        algebra = FiniteAlgebra(2, [cyl(0, 0)])
        with pytest.raises(RejectedInputError):
            caratheodory_measurable(measure_handle("chain", chain()),
                                    WindowSet.cylinder(3, 0, [2]), algebra)

    def test_evaluators_see_canonical_sets(self):
        seen = []
        mu = SetFunctionHandle("spy", lambda s: seen.append(s) or F(0), 2)
        wide = WindowSet(2, Window(-1, 1), cyl(0, 1).bits_on(Window(-1, 1)))
        mu(wide)
        assert seen[-1].window == Window(0, 0)


    def test_the_suite_does_not_depend_on_the_seed(self):
        one, seven = suites.suite_caratheodory(1), suites.suite_caratheodory(7)
        assert [c.as_dict() for c in one.checks] == [c.as_dict() for c in seven.checks]


class TestEmptyQuery:
    # every optimizer reads the empty query off one root front with a
    # single zero option, whose empty cover is re-checked like any other

    def test_root_front_has_one_zero_option(self):
        empty = WindowSet.empty(2)
        root = engine.RootFront(empty, [chain(), ALT], TruncationConfig(1), engine.prune)
        assert root.frame.cells == ()
        assert root.options == (((0, 0), ()),)

    def test_oracles_give_zero(self):
        empty, cfg = WindowSet.empty(2), TruncationConfig(2, 1, -1)
        assert engine.brute_force_phi(empty, chain(), cfg) == 0
        assert engine.brute_force_phi(empty, chain(), cfg, base_graded=True) == 0
        assert engine.brute_force_phi_overlapping(empty, chain(), cfg) == 0
        problem = BudgetedProblem(empty, ALT, ((chain(), F(1, 2)),), cfg)
        assert brute_force_psi(problem) == (0, (0, 0))
        for bound in (F(0), F(-1)):
            problem = BudgetedProblem(empty, ALT, ((chain(), bound),), cfg)
            with pytest.raises(InfeasibleError, match="no labeling meets the budgets"):
                brute_force_psi(problem)

    def test_a_window_that_misses_the_floor_is_rejected(self):
        # the empty query's window is checked like any other query's
        pinned = TruncationConfig(1, 0, 0, window_lo=0, window_hi=1)
        for q in (WindowSet.empty(2), cyl(0, 0)):
            with pytest.raises(RejectedInputError, match="must reach the grading floor"):
                engine.phi_truncated(q, chain(), pinned)

    def test_optimizers_give_zero_on_an_empty_checked_cover(self):
        empty, cfg = WindowSet.empty(2), caratheodory_config(depth=1)
        phi = engine.phi_truncated(empty, chain(), cfg)
        psi = psi_budgeted(BudgetedProblem(empty, ALT, ((chain(), F(1, 2)),), cfg))
        for cert in (phi, psi):
            assert cert.value == 0 and cert.witness.entries == ()
            assert is_valid_cover(empty, cert.witness)
        assert (phi.vector, psi.vector) == (None, (0, 0))
        assert psi_handle("psi", ALT, chain(), F(1, 2), cfg)(empty) == 0

    def test_a_nonpositive_budget_is_infeasible(self):
        empty, cfg = WindowSet.empty(2), caratheodory_config(depth=1)
        for bound in (F(0), F(-1)):
            with pytest.raises(InfeasibleError):
                psi_budgeted(BudgetedProblem(empty, ALT, ((chain(), bound),), cfg))
            with pytest.raises(InfeasibleError):
                psi_handle("psi", ALT, chain(), bound, cfg)


class TestPsiHandle:
    KINDS = ("dirac", "markov", "bernoulli", "cesaro", "convex")

    def test_equals_the_budgeted_solve_at_the_truncated_base(self):
        rng = random.Random(41)
        checked = moved = 0
        for depth in (0, 1, 2):
            cfg = caratheodory_config(depth)
            for kind in self.KINDS:
                phi = random_measure(rng, 2, kind)
                psi = random_measure(rng, 2)
                eps = F(1, rng.choice([2, 4, 8]))
                handle = psi_handle("psi", psi, phi, eps, cfg)
                for _ in range(4):
                    s = random_window_set(rng, 2, lo_range=(-1, 1), max_span=2,
                                          allow_degenerate=True)
                    base = engine.phi_truncated(s, phi, cfg).value
                    try:
                        cert = psi_budgeted(BudgetedProblem(s, psi, ((phi, base + eps),), cfg))
                    except InfeasibleError:
                        with pytest.raises(InfeasibleError):
                            handle(s)
                        continue
                    assert handle(s) == cert.value
                    checked += 1
                    # the chosen option is not the one that attains the base
                    moved += cert.vector[1] != base
        assert checked >= 50 and moved >= 1

    def test_signed_phi_is_rejected_when_the_handle_is_built(self):
        signed = measures.SignedDiffMeasure(ALT, F(2), BernoulliMeasure((F(1, 2), F(1, 2))))
        with pytest.raises(RejectedInputError, match="nonnegative"):
            psi_handle("signed", chain(), signed, F(1, 2), caratheodory_config(depth=1))

    def test_nonpositive_slack_fails_on_the_empty_set(self):
        with pytest.raises(InfeasibleError):
            psi_handle("tight", chain(), ALT, F(0), caratheodory_config(depth=1))

    def test_one_tree_walk_per_evaluation(self, monkeypatch):
        handle = psi_handle("psi", BernoulliMeasure((F(1, 3), F(2, 3))), chain(), F(1, 2),
                            caratheodory_config(depth=2))
        walks = []
        walk = engine._walk
        monkeypatch.setattr(engine, "_walk",
                            lambda *args, **kwargs: walks.append(1) or walk(*args, **kwargs))
        for k, s in enumerate([cyl(0, 0), cyl(-1, 1, 0), symbolic.complement(cyl(0, 1, 1))]):
            handle(s)
            assert len(walks) == k + 1


class TestOuterMeasureAxioms:
    def test_probability_kinds_pass(self):
        rng = random.Random(251)
        samples = []
        for _ in range(8):
            window = Window(rng.randint(0, 1), rng.randint(2, 3))
            bits = rng.randrange(1, 1 << (2 ** window.span))
            samples.append(WindowSet(2, window, bits))
        samples.append(WindowSet.full_space(2))
        for mu in (chain(), BernoulliMeasure((F(1, 3), F(2, 3))), ALT):
            report = check_outer_measure_axioms(measure_handle("m", mu), samples)
            assert report.ok

    def test_truncated_optimum_passes(self):
        cfg = TruncationConfig(1, 0, 0, window_lo=-3, window_hi=3)
        handle = phi_handle("trunc", ALT, cfg)
        samples = [cyl(0, 0), cyl(-1, 1), cyl(0, 0, 1), WindowSet.full_space(2)]
        assert check_outer_measure_axioms(handle, samples).ok

    def test_signed_difference_fails_monotonicity(self):
        signed = measures.SignedDiffMeasure(ALT, F(2), BernoulliMeasure((F(1, 2), F(1, 2))))
        handle = SetFunctionHandle("signed", lambda s: eval0(signed, s), 2)
        samples = [cyl(0, 0), WindowSet.full_space(2), WindowSet.empty(2)]
        report = check_outer_measure_axioms(handle, samples)
        verdicts = {c.name: c.verdict for c in report.checks}
        assert verdicts["monotone"] == verify.FAIL


class TestPiecewiseLinear:
    def test_identity(self):
        assert verify.IDENTITY(F(3, 7)) == F(3, 7)

    def test_breakpoints_and_extrapolation(self):
        f = PiecewiseLinear(((0, 0), (1, 2)), final_slope=F(1, 2))
        assert f(F(1, 2)) == 1
        assert f(3) == 2 + F(1, 2) * 2

    def test_validation(self):
        with pytest.raises(RejectedInputError):
            PiecewiseLinear(((1, 1),))
        with pytest.raises(RejectedInputError):
            PiecewiseLinear(((0, 0), (1, -1)))
        with pytest.raises(RejectedInputError):
            PiecewiseLinear(((0, 0),), final_slope=-1)


class TestApproximation:
    def test_constant_family_of_a_plain_measure_passes(self):
        # a single outer measure viewed as a constant family, zero defect;
        # the grid carries the matched indices t/4 and t/8 for t = 1
        mu = chain()
        grid = [F(1), F(1, 4), F(1, 8)]
        handles = tuple((t, measure_handle(f"t={t}", mu)) for t in grid)
        zero = SetFunctionHandle("zero", lambda s: F(0), 2)
        spec = ApproxFamilySpec(handles, zero, verify.IDENTITY)
        pairs = [(cyl(0, 0, 1), cyl(0, 0)), (cyl(0, 1), WindowSet.full_space(2))]
        families = [[cyl(0, 0), cyl(0, 1)]]
        report = check_approximation(spec, pairs, families)
        assert report.ok and not report.inconclusive

    def test_decreasing_grid_is_required(self):
        mu = chain()
        single = measure_handle("single", mu)
        spec = ApproxFamilySpec(
            ((F(1, 2), single), (F(1), single)),
            SetFunctionHandle("z", lambda s: F(0), 2),
        )
        # same handle at both indices is fine
        check_approximation(spec, [], [], samples=[WindowSet.full_space(2)])
        # larger values at a larger index violate the precondition
        double = SetFunctionHandle("double", lambda s: 2 * eval0(mu, s), 2)
        bad = ApproxFamilySpec(
            ((F(1, 2), single), (F(1), double)),
            SetFunctionHandle("z2", lambda s: F(0), 2),
        )
        with pytest.raises(RejectedInputError):
            check_approximation(bad, [], [], samples=[WindowSet.full_space(2)])

    def test_each_family_keeps_its_own_verdict(self):
        # a three-member family needs the indices t/4, t/8 and t/16, none of
        # which the grid holds for any t; the two-member one is matched at
        # t = 1, where a union of nonempty sets costs 1 and its parts 1/4 each
        bern = BernoulliMeasure((F(1, 2), F(1, 2)))
        nonempty = SetFunctionHandle("nonempty", lambda s: F(0) if s.is_empty else F(1), 2)
        handles = ((F(1), nonempty),) + tuple(
            (t, measure_handle(f"t={t}", bern)) for t in (F(1, 4), F(1, 8))
        )
        spec = ApproxFamilySpec(handles, SetFunctionHandle("z", lambda s: F(0), 2))
        unmatched = [cyl(0, 0, 0), cyl(0, 0, 1), cyl(0, 1)]
        failing = [cyl(0, 0, 0), cyl(0, 1, 1)]
        union = symbolic.union_all(2, failing).literal()
        name = "(iii) subadditive on disjoint families"
        for families in ([unmatched, failing], [failing, unmatched]):
            checks = {c.name: c for c in check_approximation(spec, [], families).checks}
            failed = verify.Check(name, verify.FAIL, f"family union {union} at index 1")
            assert checks[name] == failed
        checks = {c.name: c for c in check_approximation(spec, [], [unmatched]).checks}
        assert checks[name] == verify.Check(
            name, verify.INCONCLUSIVE, "no matched grid indices for the family"
        )

    def test_nested_pairs_are_required(self):
        mu = chain()
        handles = ((F(1), measure_handle("h", mu)),)
        spec = ApproxFamilySpec(handles, SetFunctionHandle("z", lambda s: F(0), 2))
        with pytest.raises(RejectedInputError):
            check_approximation(spec, [(WindowSet.full_space(2), cyl(0, 0))], [])


class TestNormDefect:
    def scan_oracle(self, phi, window_cap, m_cap):
        """The defect by pricing every set on [0, window_cap] at every shift."""
        n, window = phi.symbols, Window(0, window_cap)
        best = F(0)
        for bits in range(1 << n ** (window_cap + 1)):
            a = WindowSet(n, window, bits).canonicalize()
            if a.is_degenerate:
                continue
            base = eval0(phi, a)
            for m in range(0, -m_cap - 1, -1):
                gap = abs(eval0(phi, symbolic.shift(a, m)) - base)
                best = max(best, gap)
        return best

    def assert_witness(self, phi, window_cap, m_cap, res):
        """The witness is a canonical set on [0, window_cap] at a shift
        within the cap, re-priced to the defect; none at zero defect."""
        if res.defect == 0:
            assert res.witness is None
            return
        m, a = res.witness
        assert -m_cap <= m < 0
        assert a.canonicalize() is a and not a.is_degenerate
        assert 0 <= a.min_coordinate() and a.window.hi <= window_cap
        assert abs(eval0(phi, symbolic.shift(a, m)) - eval0(phi, a)) == res.defect

    def test_stationary_measures_have_zero_defect(self):
        cfg = TruncationConfig(1, 0, 0)
        for mu in (chain(), BernoulliMeasure((F(1, 3), F(2, 3)))):
            res = norm_defect(mu, 1, 1, cfg)
            assert res.defect == 0 == self.scan_oracle(mu, 1, 1)
            assert res.truncated_total == res.total_mass == 1
            assert res.bound_holds
            assert res.witness is None

    def test_alternating_point_mass_has_defect_one(self):
        cfg = TruncationConfig(1, 0, 0)
        res = norm_defect(ALT, 1, 1, cfg)
        assert res.defect == 1 == self.scan_oracle(ALT, 1, 1)
        assert res.truncated_total == 0
        assert res.bound_holds
        m, witness = res.witness
        assert abs(eval0(ALT, symbolic.shift(witness, m)) - eval0(ALT, witness)) == 1
        self.assert_witness(ALT, 1, 1, res)

    def test_closed_form_equals_the_scan(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        cfg = TruncationConfig(1, 0, 0)
        kinds = ["dirac", "markov", "bernoulli", "cesaro", "convex"]

        # n = 3 at cap 2 would scan 2^27 sets
        @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
        @hypothesis.given(st.integers(0, 2 ** 16), st.sampled_from(kinds),
                          st.sampled_from([(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)]),
                          st.integers(0, 3))
        def check(seed, kind, shape, m_cap):
            n, window_cap = shape
            phi = random_measure(random.Random(seed), n, kind)
            res = norm_defect(phi, window_cap, m_cap, cfg)
            assert res.defect == self.scan_oracle(phi, window_cap, m_cap)
            self.assert_witness(phi, window_cap, m_cap, res)

        check()

    def test_cap_eight_is_certified_in_under_a_second(self):
        cfg = TruncationConfig(1, 0, 0)
        start = time.perf_counter()
        res = norm_defect(chain(), 8, 3, cfg)
        elapsed = time.perf_counter() - start
        assert res.defect == 0 and res.witness is None and res.bound_holds
        assert elapsed < 1, f"{elapsed:.2f} s"
        # a chain started at 0 moves furthest from its start at m = -3, where
        # P(X_3 = 1) = 21/32; its Hahn set, 256 cells on [0, 8], is cyl(0,[1])
        started = measures.MarkovMeasure((F(1), F(0)), CHAIN_A)
        res = norm_defect(started, 8, 3, cfg)
        assert res.defect == F(21, 32) and res.witness == (-3, cyl(0, 1))
        self.assert_witness(started, 8, 3, res)
        self.assert_witness(ALT, 8, 3, norm_defect(ALT, 8, 3, cfg))

    def test_a_negative_shift_cap_is_rejected(self):
        with pytest.raises(RejectedInputError, match="m_cap -1"):
            norm_defect(examples.alternating_point(), 1, -1, TruncationConfig(1, 0, 0))

    def test_caps_beyond_the_bounds_keep_their_errors(self):
        cfg = TruncationConfig(1, 0, 0)
        # 2^65 words: the bitset cap is hit before any word is listed
        with pytest.raises(BitsetCapError) as caught:
            norm_defect(ALT, 64, 1, cfg)
        assert caught.value.kind == "resource"
        # words read at coordinate 65, past the +-64 bound
        with pytest.raises(RejectedInputError, match="coordinate 65"):
            norm_defect(ALT, 1, 64, cfg)
        with pytest.raises(RejectedInputError):
            norm_defect(ALT, -1, 1, cfg)

    def test_a_witness_that_does_not_reprice_raises(self, monkeypatch):
        eval0_ = measures.eval0
        monkeypatch.setattr(measures, "eval0", lambda mu, s: 2 * eval0_(mu, s))
        with pytest.raises(CertificateError) as caught:
            norm_defect(ALT, 1, 1, TruncationConfig(1, 0, 0))
        assert caught.value.kind == "internal"


class TestConsistency:
    def test_stationary_family_is_consistent(self):
        samples = [cyl(0, 0), cyl(1, 1, 0), cyl(0, 0, 1)]
        report = check_consistency(
            chain(), 3, samples,
            grid=[TruncationConfig(1), TruncationConfig(2, 1, -1)],
            prepend=chain(),
        )
        assert report.ok

    def test_cesaro_average_is_consistent_and_accepts_a_prefix(self):
        # period-2 point mass makes the two-term average shift invariant
        avg = cesaro(ALT, 1)
        samples = [cyl(0, 0), cyl(1, 1), cyl(0, 0, 1)]
        report = check_consistency(
            avg, 2, samples, grid=[TruncationConfig(1)], prepend=chain()
        )
        assert report.ok

    def test_alternating_point_mass_is_not(self):
        report = check_consistency(ALT, 2, [cyl(0, 0), cyl(1, 1)])
        assert not report.ok
        assert "disagree" in report.checks[0].detail
