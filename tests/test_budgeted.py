import random
from fractions import Fraction as F
from operator import le

import pytest

from ddmlab import budgeted, engine, measures, symbolic
from ddmlab.budgeted import (
    BudgetedProblem,
    brute_force_psi,
    psi_budgeted,
    psi_chain,
    psi_eps_grid,
    psi_signed,
    prune,
)
from ddmlab.covers import TruncationConfig, cover_cost
from ddmlab.engine import phi_truncated
from ddmlab.errors import DimensionCapError, InfeasibleError, RejectedInputError
from ddmlab.measures import BernoulliMeasure, DiracMeasure, SignedDiffMeasure, cesaro, eval0
from ddmlab.suites import random_measure, random_window_set
from ddmlab.symbolic import Window, WindowSet

CHAIN_A = ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)))
ALT = DiracMeasure(2, (0, 1))
X = WindowSet.full_space(2)


def cyl(j, *word):
    return WindowSet.cylinder(2, j, word)


def overlapping_budgeted_oracle(problem):
    """Exact search over arbitrary overlapping covers drawn from the grade
    cylinders of the working window, with the strict budget filter.

    Independent of the Pareto recursion; tiny instances only.  For
    nonnegative objectives this must agree with the disjoint optimum.
    """
    frame = engine.build_frame(problem.q, problem.cfg)
    comps = [problem.objective] + [m for m, _ in problem.constraints]
    bounds = [b for _, b in problem.constraints]
    cells = list(problem.q.words_on(Window(frame.wlo, frame.whi)))
    index = {cell: k for k, cell in enumerate(cells)}
    pool = []
    for m in range(0, -frame.depth - 1, -1):
        position = frame.floor(m) - frame.wlo
        seen = {}
        for cell in cells:
            seen.setdefault(cell[position:], []).append(cell)
        for suffix, group in sorted(seen.items()):
            mask = 0
            for cell in group:
                mask |= 1 << index[cell]
            cylnder = WindowSet.cylinder(frame.n, frame.floor(m), suffix)
            vec = tuple(
                measures.eval_shifted(c, frame.cost_shift(m), cylnder) for c in comps
            )
            pool.append((vec, mask))
    assert len(pool) <= 16, "instance too large for the subset search"
    full = (1 << len(cells)) - 1
    best = None
    for pick in range(1, 1 << len(pool)):
        covered = 0
        total = tuple(F(0) for _ in comps)
        for k, (vec, mask) in enumerate(pool):
            if (pick >> k) & 1:
                covered |= mask
                total = tuple(a + b for a, b in zip(total, vec))
        if covered != full:
            continue
        if not all(total[j + 1] < bounds[j] for j in range(len(bounds))):
            continue
        if best is None or total[0] < best:
            best = total[0]
    return best


class TestBudgetedOptimum:
    def test_slack_budget_reduces_to_the_unconstrained_optimum(self):
        rng = random.Random(211)
        for _ in range(20):
            q = random_window_set(rng, 2, lo_range=(-1, 1), max_span=2)
            phi = random_measure(rng, 2, rng.choice(["markov", "bernoulli"]))
            psi = random_measure(rng, 2)
            cfg = TruncationConfig(1, 0, 0)
            unconstrained = phi_truncated(q, psi, cfg).value
            slack = cover_cost(phi_truncated(q, phi, cfg).witness, phi) + 1
            cert = psi_budgeted(BudgetedProblem(q, psi, ((phi, slack + 1),), cfg))
            assert cert.value == unconstrained

    def test_objective_equal_to_the_budget_measure_hits_the_floor(self):
        rng = random.Random(223)
        for _ in range(20):
            q = random_window_set(rng, 2, lo_range=(-1, 1), max_span=2)
            phi = random_measure(rng, 2, rng.choice(["markov", "dirac"]))
            cfg = TruncationConfig(1, 0, 0)
            floor = phi_truncated(q, phi, cfg).value
            eps = F(1, 3)
            cert = psi_budgeted(BudgetedProblem(q, phi, ((phi, floor + eps),), cfg))
            assert floor <= cert.value < floor + eps
            assert cert.value == floor

    def test_matches_joint_enumeration(self):
        rng = random.Random(227)
        for _ in range(40):
            q = random_window_set(rng, 2, lo_range=(-1, 1), max_span=2)
            phi = random_measure(rng, 2, rng.choice(["markov", "bernoulli", "dirac"]))
            psi = random_measure(rng, 2)
            cfg = TruncationConfig(1, 0, 0)
            base = phi_truncated(q, phi, cfg).value
            eps = rng.choice([F(1), F(1, 2), F(1, 4)])
            problem = BudgetedProblem(q, psi, ((phi, base + eps),), cfg)
            value, vector = brute_force_psi(problem)
            cert = psi_budgeted(problem)
            assert cert.value == value
            assert cert.vector == vector

    def test_disjoint_witness_equals_overlapping_search(self):
        rng = random.Random(229)
        for _ in range(25):
            q = random_window_set(rng, 2, lo_range=(0, 0), max_span=2)
            phi = random_measure(rng, 2, rng.choice(["markov", "bernoulli"]))
            psi = random_measure(rng, 2)
            cfg = TruncationConfig(1, 0, 0)
            base = phi_truncated(q, phi, cfg).value
            problem = BudgetedProblem(q, psi, ((phi, base + F(1, 2)),), cfg)
            oracle = overlapping_budgeted_oracle(problem)
            try:
                value = psi_budgeted(problem).value
            except InfeasibleError:
                value = None
            assert value == oracle

    def test_infeasible_budget(self):
        with pytest.raises(InfeasibleError):
            psi_budgeted(BudgetedProblem(X, ALT, ((ALT, F(0)),), TruncationConfig(1)))

    def test_empty_query(self):
        cert = psi_budgeted(
            BudgetedProblem(WindowSet.empty(2), ALT, ((ALT, F(1)),), TruncationConfig(1))
        )
        assert cert.value == 0
        with pytest.raises(InfeasibleError):
            psi_budgeted(
                BudgetedProblem(WindowSet.empty(2), ALT, ((ALT, F(0)),), TruncationConfig(1))
            )

    def test_witness_reprices_to_the_vector(self):
        mu = measures.stationary_markov(CHAIN_A)
        psi = BernoulliMeasure((F(1, 3), F(2, 3)))
        cfg = TruncationConfig(2, 0, 0)
        base = phi_truncated(X, mu, cfg).value
        cert = psi_budgeted(BudgetedProblem(X, psi, ((mu, base + F(1, 2)),), cfg))
        assert cover_cost(cert.witness, psi) == cert.value
        assert cover_cost(cert.witness, mu) == cert.vector[1]
        assert cert.vector[1] < base + F(1, 2)


class TestEpsGrid:
    def test_consistent_pair_is_grid_constant(self):
        phi = measures.stationary_markov(CHAIN_A)
        psi = BernoulliMeasure((F(1, 3), F(2, 3)))
        q = cyl(0, 0)
        grid = psi_eps_grid(q, psi, phi, [F(1), F(1, 2), F(1, 4)], [0, -1, -2],
                            TruncationConfig(1, 0, 0))
        direct = eval0(psi, q)
        for cert in grid.cells.values():
            assert cert is not None and cert.value == direct
        assert grid.nondecreasing_as_eps_shrinks
        assert grid.nondecreasing_as_i_decreases

    def test_huge_slack_column_is_unconstrained(self):
        phi = ALT
        psi = cesaro(ALT, 1)
        q = X
        grid = psi_eps_grid(q, psi, phi, [F(100), F(1)], [0], TruncationConfig(1, 0, 0))
        free = phi_truncated(q, psi, TruncationConfig(1, 0, 0)).value
        assert grid.cells[(F(100), 0)].value == free

    def test_monotone_flags_on_random_instances(self):
        rng = random.Random(233)
        for _ in range(15):
            q = random_window_set(rng, 2, lo_range=(-1, 1), max_span=2)
            phi = random_measure(rng, 2, rng.choice(["markov", "bernoulli", "dirac"]))
            psi = random_measure(rng, 2)
            grid = psi_eps_grid(q, psi, phi, [F(1), F(1, 2), F(1, 4), F(1, 8)],
                                [0, -1, -2], TruncationConfig(1, 0, 0))
            assert grid.nondecreasing_as_eps_shrinks
            assert grid.nondecreasing_as_i_decreases

    def test_cells_equal_budgeted_solves_at_the_sweep_configs(self, monkeypatch):
        rng = random.Random(307)
        checks = []
        certificate = engine._certificate

        def counted(root, option):
            if len(root.comps) == 2:
                checks.append(1)
            return certificate(root, option)

        monkeypatch.setattr(engine, "_certificate", counted)
        eps_list = [F(1), F(1, 2), F(1, 4), F(1, 8)]
        i_list = [0, -1, -2]
        shared = 0
        for _ in range(10):
            q = random_window_set(rng, 2, lo_range=(-1, 1), max_span=2)
            phi = random_measure(rng, 2, rng.choice(["markov", "bernoulli", "dirac"]))
            psi = random_measure(rng, 2)
            del checks[:]
            grid = psi_eps_grid(q, psi, phi, eps_list, i_list, TruncationConfig(1, 0, 0))
            rechecked = len(checks)
            sweep = engine.shift_sweep(q, i_list, 1, 0)
            # each distinct option a cell picks is re-checked once, and so is
            # the deepest shift's least-phi option that gives the budget base;
            # within one shift's front an option is known by its vector
            picked = {(i, cert.vector) for (_, i), cert in grid.cells.items()
                      if cert is not None}
            base = engine.RootFront(q, [psi, phi], sweep[-1], budgeted.prune).least(1)
            assert base.vector[1] == grid.phi_surrogate
            assert rechecked == len(picked | {(i_list[-1], base.vector)})
            shared += len(picked) < len(grid.cells)
            for eps in eps_list:
                for i, cfg in zip(i_list, sweep):
                    cell = grid.cells[(eps, i)]
                    problem = BudgetedProblem(q, psi, ((phi, grid.phi_surrogate + eps),), cfg)
                    if cell is None:
                        with pytest.raises(InfeasibleError):
                            psi_budgeted(problem)
                        continue
                    cert = psi_budgeted(problem)
                    assert (cell.value, cell.vector) == (cert.value, cert.vector)
                    assert [(m, e.literal()) for m, e in cell.witness.entries] == [
                        (m, e.literal()) for m, e in cert.witness.entries
                    ]
        assert shared >= 1

    def test_input_validation(self):
        with pytest.raises(RejectedInputError):
            psi_eps_grid(X, ALT, ALT, [F(1, 2), F(1)], [0], TruncationConfig(1))
        with pytest.raises(RejectedInputError):
            psi_eps_grid(X, ALT, ALT, [F(1)], [-1, 0], TruncationConfig(1))

    def test_empty_lists_are_rejected(self):
        with pytest.raises(RejectedInputError, match="slack list is empty"):
            psi_eps_grid(X, ALT, ALT, [], [0], TruncationConfig(1))
        with pytest.raises(RejectedInputError, match="shift list is empty"):
            psi_eps_grid(X, ALT, ALT, [F(1)], [], TruncationConfig(1))

    def test_config_carries_only_depth_and_width(self):
        # the grid sets the shifts and the window, so other fields are refused
        for cfg, name in (
            (TruncationConfig(1, 0, -1), "base_shift"),
            (TruncationConfig(1, 0, 0, window_lo=-9), "window_lo"),
            (TruncationConfig(1, 0, 0, window_hi=9), "window_hi"),
        ):
            with pytest.raises(RejectedInputError, match=name):
                psi_eps_grid(X, ALT, ALT, [F(1)], [0, -1], cfg)


class TestChains:
    def test_single_level_reduces_to_the_budgeted_optimum(self):
        phi = ALT
        psi = cesaro(ALT, 1)
        cfg = TruncationConfig(1, 0, 0)
        eps = F(1, 2)
        certs = psi_chain(X, phi, [psi], eps, cfg)
        base = phi_truncated(X, phi, cfg).value
        direct = psi_budgeted(BudgetedProblem(X, psi, ((phi, base + eps),), cfg))
        assert len(certs) == 1 and certs[0].value == direct.value

    def test_identical_levels_stay_at_the_floor(self):
        phi = measures.stationary_markov(CHAIN_A)
        cfg = TruncationConfig(1, 0, 0)
        eps = F(1, 4)
        floor = phi_truncated(X, phi, cfg).value
        certs = psi_chain(X, phi, [phi, phi, phi], eps, cfg)
        for cert in certs:
            assert floor <= cert.value < floor + eps

    def test_level_budgets_feed_forward(self):
        phi = ALT
        psi1 = cesaro(ALT, 1)
        psi2 = cesaro(ALT, 2)
        cfg = TruncationConfig(1, 0, 0)
        eps = F(1, 2)
        certs = psi_chain(X, phi, [psi1, psi2], eps, cfg)
        base = phi_truncated(X, phi, cfg).value
        level2 = psi_budgeted(
            BudgetedProblem(
                X, psi2, ((phi, base + eps), (psi1, certs[0].value + eps)), cfg
            )
        )
        assert certs[1].value == level2.value

    def test_chain_cap(self):
        with pytest.raises(DimensionCapError, match=r"\(budgeted\.CHAIN_CAP = 3\)"):
            psi_chain(X, ALT, [ALT] * 4, F(1, 2), TruncationConfig(1))


class TestSignedChains:
    def test_zero_scales_collapse(self):
        rng = random.Random(239)
        for _ in range(10):
            q = random_window_set(rng, 2, lo_range=(-1, 1), max_span=2)
            phi = random_measure(rng, 2, "markov")
            psis = [random_measure(rng, 2), random_measure(rng, 2, "bernoulli")]
            cfg = TruncationConfig(1, 0, 0)
            signed = psi_signed(q, phi, psis, [F(0), F(0)], F(1, 2), cfg)
            plain = psi_chain(q, phi, psis, F(1, 2), cfg)
            assert [c.value for c in signed] == [c.value for c in plain]

    def test_fixed_cover_linearity(self):
        psi = cesaro(ALT, 1)
        phi = BernoulliMeasure((F(1, 2), F(1, 2)))
        diff = SignedDiffMeasure(psi, F(2, 3), phi)
        cfg = TruncationConfig(1, 0, 0)
        cert = phi_truncated(X, psi, cfg)
        cover = cert.witness
        assert cover_cost(cover, diff) == cover_cost(cover, psi) - F(2, 3) * cover_cost(
            cover, phi
        )

    def test_bracket_around_the_unsigned_optimum(self):
        rng = random.Random(241)
        for _ in range(25):
            q = random_window_set(rng, 2, lo_range=(-1, 1), max_span=2)
            phi = random_measure(rng, 2, rng.choice(["markov", "bernoulli"]))
            psi = random_measure(rng, 2)
            c = F(rng.randint(0, 3), 2)
            eps = F(1, 2)
            cfg = TruncationConfig(1, 0, 0)
            floor = phi_truncated(q, phi, cfg).value
            budget = floor + eps
            signed_value = psi_signed(q, phi, [psi], [c], eps, cfg)[0].value
            unsigned_value = psi_budgeted(
                BudgetedProblem(q, psi, ((phi, budget),), cfg)
            ).value
            assert unsigned_value - c * budget <= signed_value
            assert signed_value <= unsigned_value - c * floor

    def test_scale_count_must_match(self):
        with pytest.raises(RejectedInputError):
            psi_signed(X, ALT, [ALT], [F(1), F(1)], F(1, 2), TruncationConfig(1))
        with pytest.raises(RejectedInputError):
            psi_signed(X, ALT, [ALT], [F(-1)], F(1, 2), TruncationConfig(1))


def test_concatenated_witnesses_bound_the_union_value():
    # witnesses of disjoint parts at slacks eps/2 and eps/4 merge into a
    # cover of the union; when its budget cost stays under the union's
    # budget at slack 2*eps, the union optimum is at most the sum of the
    # part optima
    rng = random.Random(251)
    checked = 0
    for _ in range(30):
        phi = random_measure(rng, 2, rng.choice(["markov", "bernoulli", "dirac"]))
        psi = random_measure(rng, 2)
        q1 = cyl(0, 0)
        q2 = cyl(0, 1)
        union = symbolic.union(q1, q2)
        eps = F(1, 2)
        [cfg] = engine.shift_sweep(union, [0], 1, 0)
        parts = []
        for q, slack in ((q1, eps / 2), (q2, eps / 4)):
            base = phi_truncated(q, phi, cfg).value
            parts.append(psi_budgeted(BudgetedProblem(q, psi, ((phi, base + slack),), cfg)))
        merged_entries = {}
        for cert in parts:
            for m, a in cert.witness.entries:
                merged_entries[m] = (
                    symbolic.union(merged_entries[m], a) if m in merged_entries else a
                )
        from ddmlab.covers import Cover, is_valid_cover

        merged = Cover(tuple(merged_entries.items()), base_shift=0)
        assert is_valid_cover(union, merged)
        union_base = phi_truncated(union, phi, cfg).value
        if cover_cost(merged, phi) < union_base + 2 * eps:
            value = psi_budgeted(
                BudgetedProblem(union, psi, ((phi, union_base + 2 * eps),), cfg)
            ).value
            assert value <= parts[0].value + parts[1].value
            checked += 1
    assert checked > 0


def test_prune_drops_dominated_and_duplicate_vectors():
    antichain = [((F(1), F(0)), "b"), ((F(0), F(1)), "a")]
    assert prune(antichain) == [((F(0), F(1)), "a"), ((F(1), F(0)), "b")]
    items = [((F(1), F(0)), "x"), ((F(0), F(0)), "y"), ((F(0), F(0)), "z")]
    assert prune(items) == [((F(0), F(0)), "y")]
    # the kept vectors and their order do not depend on the input order
    rng = random.Random(5)
    vectors = [(F(rng.randint(0, 3)), F(rng.randint(0, 3))) for _ in range(12)]
    kept = [vec for vec, _ in prune([(vec, None) for vec in vectors])]
    for _ in range(5):
        rng.shuffle(vectors)
        assert [vec for vec, _ in prune([(vec, None) for vec in vectors])] == kept
    assert kept == sorted(kept)
    for u in kept:
        assert not any(u != v and all(a <= b for a, b in zip(v, u)) for v in kept)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_prune_keeps_each_vector_no_earlier_one_dominates(width):
    # pairs take the sweep against the least second component kept, other
    # widths the scan; both keep, in sorted order, each vector that no
    # vector sorted before it weakly dominates, so the first of equal ones
    rng = random.Random(width)
    for _ in range(200):
        items = [(tuple(F(rng.randint(-2, 3)) for _ in range(width)), k)
                 for k in range(rng.randint(1, 12))]
        ordered = sorted(items, key=lambda item: item[0])
        expected = [(vec, k) for j, (vec, k) in enumerate(ordered)
                    if not any(all(map(le, earlier, vec)) for earlier, _ in ordered[:j])]
        assert prune(items) == expected


def test_signed_vectors_survive_pruning():
    # a vector with a negative objective must not be pruned by a smaller
    # positive one
    kept = prune([((F(-1), F(2)), "a"), ((F(0), F(1)), "b")])
    assert len(kept) == 2
