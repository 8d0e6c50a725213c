"""Seeded verification suites behind the command-line ``verify`` command.

Each suite is deterministic given its seed and returns a Report whose
checks carry exact witnesses.  INCONCLUSIVE is reserved for the one-sided
approximation check; everything else is PASS or FAIL.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import engine, examples, measures, symbolic, verify
from .budgeted import (
    BudgetedProblem, brute_force_psi, psi_budgeted, psi_chain, psi_eps_grid, psi_signed
)
from .covers import Cover, TruncationConfig, cover_cost, disjointify, is_valid_cover
from .errors import InfeasibleError, RejectedInputError
from .verify import FiniteAlgebra, Report

F = Fraction


# -- random instance generators -----------------------------------------


def random_window_set(rng: random.Random, n: int, lo_range=(-2, 1), max_span=3,
                      allow_degenerate=False) -> symbolic.WindowSet:
    if allow_degenerate and rng.random() < 0.1:
        return (
            symbolic.WindowSet.full_space(n)
            if rng.random() < 0.5
            else symbolic.WindowSet.empty(n)
        )
    lo = rng.randint(*lo_range)
    span = rng.randint(1, max_span)
    window = symbolic.Window(lo, lo + span - 1)
    count = n ** span
    bits = rng.randrange(1, 1 << count)
    return symbolic.WindowSet(n, window, bits).canonicalize()


def random_cylinder(rng: random.Random, n: int, lo_range=(0, 2), max_len=3) -> symbolic.WindowSet:
    start = rng.randint(*lo_range)
    word = [rng.randrange(n) for _ in range(rng.randint(1, max_len))]
    return symbolic.WindowSet.cylinder(n, start, word)


def random_distribution(rng: random.Random, n: int):
    weights = [rng.randint(1, 4) for _ in range(n)]
    total = sum(weights)
    return tuple(F(w, total) for w in weights)


def random_stochastic_matrix(rng: random.Random, n: int):
    return tuple(random_distribution(rng, n) for _ in range(n))


def random_dirac(rng: random.Random, n: int) -> measures.DiracMeasure:
    period = tuple(rng.randrange(n) for _ in range(rng.randint(1, 3)))
    exceptions = ()
    if rng.random() < 0.3:
        exceptions = ((rng.randint(-3, 3), rng.randrange(n)),)
    return measures.DiracMeasure(n, period, exceptions)


def random_measure(rng: random.Random, n: int, kind: str | None = None) -> measures.CylinderMeasure:
    kind = kind or rng.choice(["dirac", "markov", "bernoulli", "cesaro", "convex"])
    if kind == "dirac":
        return random_dirac(rng, n)
    if kind == "markov":
        return measures.MarkovMeasure(random_distribution(rng, n), random_stochastic_matrix(rng, n))
    if kind == "bernoulli":
        return measures.BernoulliMeasure(random_distribution(rng, n))
    if kind == "cesaro":
        return measures.cesaro(random_dirac(rng, n), rng.randint(1, 2))
    return measures.ConvexMeasure(
        (F(1, 2), F(1, 2)),
        (random_dirac(rng, n), measures.BernoulliMeasure(random_distribution(rng, n))),
    )


def random_cover(rng: random.Random, n: int, base_shift: int, depth: int) -> Cover:
    entries = []
    for m in range(0, -depth - 1, -1):
        if rng.random() < 0.3:
            continue
        raw = random_window_set(rng, n, lo_range=(-2, 1), max_span=3, allow_degenerate=True)
        graded = symbolic.project_min(raw, m + base_shift)
        if not graded.is_empty:
            entries.append((m, graded))
    return Cover(tuple(entries), base_shift)


# -- suites --------------------------------------------------------------


def suite_oracle(seed: int) -> Report:
    """Tree optimum equals the exhaustive labeling enumeration."""
    cases = 100
    rng = random.Random(seed)
    report = Report("tree optimum against exhaustive enumeration")
    kinds = ["dirac", "markov", "bernoulli", "cesaro", "convex"]
    mismatches = []
    for k in range(cases):
        n = 2
        q = random_window_set(rng, n, lo_range=(-2, 1), max_span=4, allow_degenerate=True)
        if q.is_empty:
            q = symbolic.WindowSet.full_space(n)
        phi = random_measure(rng, n, kinds[k % len(kinds)])
        cfg = TruncationConfig(rng.randint(1, 2), rng.randint(0, 1), rng.choice([0, -1]))
        value = engine.phi_truncated(q, phi, cfg).value
        oracle = engine.brute_force_phi(q, phi, cfg)
        if value != oracle:
            mismatches.append(f"case {k}: {value} != {oracle} on {q.literal()}")
    report.expect(f"{cases} random instances agree", mismatches)
    return report


def suite_disjointify(seed: int) -> Report:
    """Disjoint refinement of covers, and optimality of disjoint witnesses
    against an exact overlapping-cover search on oracle-sized instances."""
    cases, overlap_cases = 1000, 30
    rng = random.Random(seed)
    report = Report("disjoint cover refinement")
    union_fails, cost_fails = [], []
    for k in range(cases):
        n = 2
        cover = random_cover(rng, n, rng.choice([0, -1]), rng.randint(1, 2))
        phi = random_measure(rng, n)
        refined = disjointify(cover)
        if refined.union(n) != cover.union(n):
            union_fails.append(f"case {k}: union changed")
        union_fails += [
            f"case {k}: entries overlap"
            for (m1, a1) in refined.entries for (m2, a2) in refined.entries
            if m1 != m2 and symbolic.meets(a1, a2)
        ]
        if cover_cost(refined, phi) > cover_cost(cover, phi):
            cost_fails.append(f"case {k}: cost increased")
    report.expect(f"{cases} covers keep their union and stay disjoint", union_fails)
    report.expect("cost never increases for nonnegative measures", cost_fails)
    mismatches = []
    for k in range(overlap_cases):
        n = 2
        q = random_window_set(rng, n, lo_range=(0, 1), max_span=2)
        phi = random_measure(rng, n)
        cfg = TruncationConfig(1, 0, 0)
        value = engine.phi_truncated(q, phi, cfg).value
        overlapping = engine.brute_force_phi_overlapping(q, phi, cfg)
        if value != overlapping:
            mismatches.append(f"case {k}: {value} != {overlapping}")
    report.expect(
        f"disjoint witness optimum matches overlapping-cover search on {overlap_cases} instances",
        mismatches,
    )
    return report


def suite_axioms(seed: int) -> Report:
    """Outer measure axioms for direct evaluators and truncated optima."""
    rng = random.Random(seed)
    n = 2
    samples = [random_window_set(rng, n, lo_range=(0, 1), max_span=2, allow_degenerate=True)
               for _ in range(10)]
    samples += [symbolic.WindowSet.empty(n), symbolic.WindowSet.full_space(n)]
    report = Report("outer measure axioms")
    for label, mu in [
        ("markov evaluator", measures.MarkovMeasure(random_distribution(rng, n),
                                                    random_stochastic_matrix(rng, n))),
        ("bernoulli evaluator", measures.BernoulliMeasure(random_distribution(rng, n))),
        ("point-mass evaluator", random_dirac(rng, n)),
    ]:
        report.include(
            label, verify.check_outer_measure_axioms(verify.measure_handle(label, mu), samples)
        )
    wide = [random_window_set(rng, n, lo_range=(-2, 1), max_span=3, allow_degenerate=True)
            for _ in range(8)]
    cfg = TruncationConfig(2, 0, 0, window_lo=-4, window_hi=4)
    for label, phi in [
        ("truncated optimum of a point mass", examples.alternating_point()),
        ("truncated optimum of a chain", measures.MarkovMeasure(
            random_distribution(rng, n), random_stochastic_matrix(rng, n))),
    ]:
        handle = verify.phi_handle(label, phi, cfg)
        report.include(label, verify.check_outer_measure_axioms(handle, wide))
    signed = measures.SignedDiffMeasure(examples.alternating_point(), F(2),
                                        measures.BernoulliMeasure((F(1, 2), F(1, 2))))
    report.add("signed difference breaks monotonicity somewhere", any(
        measures.eval0(signed, a) > measures.eval0(signed, b)
        for a in samples for b in samples
        if symbolic.is_subset(a, b) and not a.is_degenerate and not b.is_degenerate
        and a.min_coordinate() >= 0 and b.min_coordinate() >= 0
    ))
    return report


CONSISTENCY_GRID = tuple(
    TruncationConfig(d, w, i) for d in (1, 2, 3) for w in (0, 1, 2) for i in (0, -1, -2)
)


def suite_consistency(seed: int) -> Report:
    """Stationary chain: the truncated optimum is grid-constant and equal to
    the direct value on random cylinders."""
    cylinders = 50
    rng = random.Random(seed)
    a = ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)))
    phi = measures.stationary_markov(a)
    report = Report("consistent family collapse")
    mismatches = []
    for k in range(cylinders):
        q = random_cylinder(rng, 2, lo_range=(0, 2), max_len=3)
        direct = measures.eval0(phi, q)
        for cfg in CONSISTENCY_GRID:
            value = engine.phi_truncated(q, phi, cfg).value
            if value != direct:
                mismatches.append(f"case {k} at {cfg}: {value} != {direct}")
    report.expect(
        f"{cylinders} cylinders x {len(CONSISTENCY_GRID)} truncations all equal the direct value",
        mismatches,
    )
    samples = [random_cylinder(rng, 2, lo_range=(0, 2), max_len=2) for _ in range(6)]
    report.include("stationary family", verify.check_consistency(
        phi, 3, samples, grid=[TruncationConfig(1), TruncationConfig(2, 1, -1)],
        prepend=measures.stationary_markov(a),
    ))
    dirac = examples.alternating_point()
    sub = verify.check_consistency(dirac, 2, samples)
    inconsistent = sub.checks[0].verdict == verify.FAIL
    report.add("alternating point mass is inconsistent", inconsistent, sub.checks[0].detail)
    return report


def suite_monotonicity(seed: int) -> Report:
    """Budgeted grid monotone in both axes, and the explicit re-indexing of
    a deeper-shift witness stays feasible one shift up."""
    cases = 50
    rng = random.Random(seed)
    report = Report("budgeted grid monotonicity")
    eps_list = [F(1), F(1, 2), F(1, 4), F(1, 8)]
    i_list = [0, -1, -2]
    eps_fails, i_fails, pad_fails = [], [], []
    for k in range(cases):
        n = 2
        q = random_window_set(rng, n, lo_range=(-1, 1), max_span=2)
        phi = random_measure(rng, n, rng.choice(["markov", "bernoulli", "dirac"]))
        psi = random_measure(rng, n)
        cfg = TruncationConfig(1, 0, 0)
        grid = psi_eps_grid(q, psi, phi, eps_list, i_list, cfg)
        if not grid.nondecreasing_as_eps_shrinks:
            eps_fails.append(f"case {k}: slack axis")
        if not grid.nondecreasing_as_i_decreases:
            i_fails.append(f"case {k}: shift axis")
        # explicit re-indexing at the largest slack: the witness one shift
        # deeper, moved down one index with an empty top entry, prices
        # identically one shift up
        deeper = grid.cells[(eps_list[0], -1)]
        upper = grid.cells[(eps_list[0], 0)]
        if deeper is None or upper is None:
            continue
        moved = Cover(tuple((m - 1, a) for m, a in deeper.witness.entries), base_shift=0)
        if not is_valid_cover(q, moved):
            pad_fails.append(f"case {k}: moved witness invalid")
            continue
        if cover_cost(moved, phi) != cover_cost(deeper.witness, phi):
            pad_fails.append(f"case {k}: moved witness re-priced")
        if upper.value > cover_cost(moved, psi):
            pad_fails.append(f"case {k}: moved witness beats the optimum")
    report.expect(f"slack axis monotone on {cases} instances", eps_fails)
    report.expect(f"shift axis monotone on {cases} instances", i_fails)
    report.expect("re-indexed witnesses stay feasible and price identically", pad_fails)
    return report


def suite_budgeted_oracle(seed: int) -> Report:
    """Pareto solver equals exhaustive enumeration with budget filter."""
    cases = 40
    rng = random.Random(seed)
    report = Report("budgeted optimum against exhaustive enumeration")
    mismatches = []
    for k in range(cases):
        n = 2
        q = random_window_set(rng, n, lo_range=(-1, 1), max_span=2)
        phi = random_measure(rng, n, rng.choice(["markov", "bernoulli", "dirac"]))
        psi = random_measure(rng, n)
        cfg = TruncationConfig(1, 0, 0)
        base = engine.phi_truncated(q, phi, cfg).value
        eps = rng.choice([F(1), F(1, 2), F(1, 4)])
        problem = BudgetedProblem(q, psi, ((phi, base + eps),), cfg)
        try:
            value = psi_budgeted(problem).value
        except InfeasibleError:
            value = None
        try:
            oracle, _ = brute_force_psi(problem)
        except InfeasibleError:
            oracle = None
        if value != oracle:
            mismatches.append(f"case {k}: {value} != {oracle}")
    report.expect(f"{cases} budgeted instances agree", mismatches)
    return report


def suite_signed(seed: int) -> Report:
    """Signed optimum sits inside the exact bracket around the unsigned
    optimum over the same feasible class, and collapses at zero scale."""
    cases = 50
    rng = random.Random(seed)
    report = Report("signed chain bracket")
    bracket_fails, collapse_fails = [], []
    for k in range(cases):
        n = 2
        depth_n = 1 + (k % 2)
        q = random_window_set(rng, n, lo_range=(-1, 1), max_span=2)
        phi = random_measure(rng, n, rng.choice(["markov", "bernoulli"]))
        psis = [random_measure(rng, n, rng.choice(["markov", "bernoulli", "dirac"]))
                for _ in range(depth_n)]
        cs = [F(rng.randint(0, 2), rng.randint(1, 2)) for _ in range(depth_n)]
        eps = F(1, 2)
        cfg = TruncationConfig(1, 0, 0)
        surrogate = engine.phi_truncated(q, phi, cfg).value
        budget = surrogate + eps
        try:
            signed_certs = psi_signed(q, phi, psis, cs, eps, cfg)
        except InfeasibleError:
            continue
        constraints: list = [(phi, budget)]
        for level in range(depth_n):
            signed_value = signed_certs[level].value
            unsigned_same_class = psi_budgeted(
                BudgetedProblem(q, psis[level], tuple(constraints), cfg)
            ).value
            c = cs[level]
            low = unsigned_same_class - c * budget
            high = unsigned_same_class - c * surrogate
            if not low <= signed_value <= high:
                bracket_fails.append(
                    f"case {k} level {level}: {signed_value} outside [{low},{high}]"
                )
            signed_obj = (
                measures.SignedDiffMeasure(psis[level], c, phi) if c != 0 else psis[level]
            )
            constraints.append((signed_obj, signed_value + eps))
        zero_signed = psi_signed(q, phi, psis, [F(0)] * depth_n, eps, cfg)
        plain = psi_chain(q, phi, psis, eps, cfg)
        if [c.value for c in zero_signed] != [c.value for c in plain]:
            collapse_fails.append(f"case {k}: zero-scale chain differs")
    report.expect(f"bracket holds on {cases} instances", bracket_fails)
    report.expect("zero scales collapse to the unsigned chain", collapse_fails)
    return report


def caratheodory_config(depth: int = 1):
    # base shift -2 keeps every generator of the test window coarse enough
    # for the splitting argument at finite truncation
    return TruncationConfig(depth, 0, -2, window_lo=-2 - depth, window_hi=2)


def suite_caratheodory(seed: int) -> Report:
    """Splitting identity and closure of the splitting family for truncated
    and budgeted optima over an explicit finite algebra.  The suite draws
    nothing at random, so its report does not depend on the seed."""
    n = 2
    report = Report("splitting identity at finite scale")
    generators = [
        symbolic.WindowSet.cylinder(n, j, [0]) for j in (-1, 0, 1)
    ]
    algebra = FiniteAlgebra(n, generators)
    report.add(
        "finite test algebra built",
        len(algebra) == 256,
        f"{len(algebra)} members from {len(generators)} generators over [-1,1]",
    )
    cfg = caratheodory_config()
    dirac = examples.alternating_point()
    chain = measures.stationary_markov(((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4))))
    handles = [
        verify.phi_handle("truncated point-mass optimum", dirac, cfg),
        verify.phi_handle("truncated chain optimum", chain, cfg),
        verify.psi_handle("budgeted optimum at slack budget",
                          measures.BernoulliMeasure((F(1, 2), F(1, 2))), chain, F(4), cfg),
    ]
    cylinders = [
        symbolic.WindowSet.cylinder(n, j, [s]) for j in (-2, -1, 0, 1, 2) for s in (0, 1)
    ]
    for handle in handles:
        splits = [(a, verify.caratheodory_measurable(handle, a, algebra)) for a in cylinders]
        report.expect(f"{handle.label}: all window generators split", [
            f"{a.literal()} fails on {split.counterexample.literal()}"
            for a, split in splits if not split.ok
        ])
        report.include(handle.label, verify.check_splitting_closure(handle, algebra))
    # shifting a passing set one step either way keeps it passing
    handle = handles[0]
    inner = [symbolic.WindowSet.cylinder(n, j, [s]) for j in (-1, 0, 1) for s in (0, 1)]
    report.expect("splitting survives one-step shifts", [
        f"{a.literal()} shifted by {step}"
        for a in inner if verify.caratheodory_measurable(handle, a, algebra).ok
        for step in (1, -1)
        if not verify.caratheodory_measurable(handle, symbolic.shift(a, step), algebra).ok
    ])
    # a deliberately non-additive evaluator fails with a witness
    def deep(mu):
        return lambda s: measures.eval_shifted(mu, -4, s)

    bad = verify.SetFunctionHandle(
        "max of two measures", lambda s: max(deep(chain)(s), deep(dirac)(s)), n
    )
    report.add(
        "non-additive evaluator is rejected with a counterexample",
        any(not verify.caratheodory_measurable(bad, a, algebra).ok for a in cylinders),
    )
    return report


def suite_approximation(seed: int) -> Report:
    """Approximation axioms for budgeted-grid families: a consistent pair
    passes everything, an inconsistent pair never fails (ii)."""
    n = 2
    report = Report("approximation axioms")
    cfg = TruncationConfig(1, 0, 0, window_lo=-2, window_hi=2)
    grid = [F(2), F(1), F(1, 2), F(1, 4), F(1, 8), F(1, 16)]
    chain = measures.stationary_markov(((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4))))
    bern = measures.BernoulliMeasure((F(1, 3), F(2, 3)))
    pairs = [
        (symbolic.WindowSet.cylinder(n, 0, [0]), symbolic.WindowSet.full_space(n)),
        (
            symbolic.WindowSet.cylinder(n, 0, [0, 1]),
            symbolic.WindowSet.cylinder(n, 0, [0]),
        ),
        (symbolic.WindowSet.empty(n), symbolic.WindowSet.cylinder(n, 1, [1])),
    ]
    families = [
        [symbolic.WindowSet.cylinder(n, 0, [0]), symbolic.WindowSet.cylinder(n, 0, [1])],
        [
            symbolic.WindowSet.cylinder(n, 0, [0, 0]),
            symbolic.WindowSet.cylinder(n, 0, [0, 1]),
        ],
    ]
    samples = [symbolic.WindowSet.full_space(n), symbolic.WindowSet.cylinder(n, 0, [0])]

    def family_spec(psi, phi):
        handles = tuple(
            (t, verify.psi_handle(f"slack {t}", psi, phi, t, cfg)) for t in grid
        )
        nu = verify.phi_handle("truncated base optimum", phi, cfg)
        return verify.ApproxFamilySpec(handles, nu, verify.IDENTITY)

    report.include(
        "consistent pair",
        verify.check_approximation(family_spec(bern, chain), pairs, families, samples),
    )
    dirac = examples.alternating_point()
    spec = family_spec(measures.cesaro(dirac, 1), dirac)
    report.include("inconsistent pair", verify.check_approximation(spec, pairs, families, samples))
    return report


def suite_defect(seed: int) -> Report:
    """Shift-mismatch defect: zero for invariant starts, one for the
    alternating point mass, always consistent with the mass bound."""
    report = Report("shift mismatch defect")
    cfg = TruncationConfig(1, 0, 0)
    chain = measures.stationary_markov(((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4))))
    res = verify.norm_defect(chain, 1, 1, cfg)
    report.add("stationary chain has zero defect", res.defect == 0)
    report.add(
        "stationary chain keeps full mass",
        res.truncated_total == res.total_mass,
        f"{res.truncated_total} vs {res.total_mass}",
    )
    report.add("mass bound holds for the chain", res.bound_holds)
    bern = measures.BernoulliMeasure((F(1, 3), F(2, 3)))
    res = verify.norm_defect(bern, 1, 1, cfg)
    report.add("product measure has zero defect", res.defect == 0)
    dirac = examples.alternating_point()
    res = verify.norm_defect(dirac, 1, 1, cfg)
    report.add("alternating point mass has defect 1 at caps (1,1)", res.defect == 1)
    report.add(
        "point mass: truncated total 0 is consistent with the bound",
        res.truncated_total == 0 and res.bound_holds,
        f"defect {res.defect}, truncated {res.truncated_total}",
    )
    return report


def example_sample_sets(seed: int, n: int, count: int = 20):
    rng = random.Random(seed)
    return [
        random_window_set(rng, n, lo_range=(-2, 1), max_span=3, allow_degenerate=True)
        for _ in range(count)
    ]


def suite_example_bounds(seed: int) -> Report:
    """End-to-end reproduction of both reference instances."""
    report = Report("reference instance bounds")
    report.include("point mass", examples.example_one())
    report.include(
        "two-state chain", examples.example_two(sample_sets=example_sample_sets(seed, 2))
    )
    return report


SUITES = {
    "oracle": suite_oracle,
    "budgeted-oracle": suite_budgeted_oracle,
    "disjointify": suite_disjointify,
    "axioms": suite_axioms,
    "consistency": suite_consistency,
    "monotonicity": suite_monotonicity,
    "signed": suite_signed,
    "caratheodory": suite_caratheodory,
    "approximation": suite_approximation,
    "defect": suite_defect,
    "example-bounds": suite_example_bounds,
}


def run_suite(name: str, seed: int) -> list[Report]:
    if name == "all":
        return [SUITES[key](seed) for key in sorted(SUITES)]
    if not isinstance(name, str) or name not in SUITES:
        known = ", ".join(["all"] + sorted(SUITES))
        raise RejectedInputError(f"unknown suite {name!r}; known suites: {known}")
    return [SUITES[name](seed)]
