"""Executable checkers for measure-theoretic properties at finite scale.

Everything countable in the abstract statements is replaced here by an
explicit finite surrogate: finite algebras of window sets, finite grids of
approximation indices, finite families of samples.  Checkers return
machine-readable verdicts with exact witnesses; the one-sided approximation
check distinguishes INCONCLUSIVE from FAIL because its finite form is only
sufficient.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from . import engine, measures, symbolic
from .budgeted import BudgetedProblem, psi_budgeted
from .covers import TruncationConfig
from .errors import CertificateError, GridNotMonotoneError, RejectedInputError, TooLargeError

ZERO = Fraction(0)

ALGEBRA_CAP = 4096  # most members a FiniteAlgebra enumerates

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class Check:
    name: str
    verdict: str
    detail: str = ""

    def as_dict(self):
        return {"name": self.name, "verdict": self.verdict, "detail": self.detail}


@dataclass
class Report:
    title: str
    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = ""):
        self.checks.append(Check(name, PASS if ok else FAIL, detail))

    def expect(self, name: str, failures: Sequence[str], inconclusive: Sequence[str] = ()):
        """FAIL naming the last of ``failures``, else INCONCLUSIVE naming the
        last of ``inconclusive``, else PASS: each check collects its own
        cases, so a PASS carries no detail and a verdict names a case of its
        own check."""
        for verdict, cases in ((FAIL, failures), (INCONCLUSIVE, inconclusive), (PASS, ("",))):
            if cases:
                self.checks.append(Check(name, verdict, cases[-1]))
                return

    def include(self, prefix: str, sub: Report):
        """Copy the checks of ``sub`` here, each named ``"{prefix}: {name}"``."""
        self.checks += [Check(f"{prefix}: {c.name}", c.verdict, c.detail) for c in sub.checks]

    @property
    def failed(self) -> list[Check]:
        return [c for c in self.checks if c.verdict == FAIL]

    @property
    def inconclusive(self) -> list[Check]:
        return [c for c in self.checks if c.verdict == INCONCLUSIVE]

    @property
    def ok(self) -> bool:
        return not self.failed


class SetFunctionHandle:
    """A labelled evaluator WindowSet -> Fraction with a value cache.

    The evaluator must send the empty set to zero; that is checked at
    construction.  Backed by direct measure evaluation or by an optimizer
    at a fixed truncation.
    """

    def __init__(self, label: str, evaluator: Callable[[symbolic.WindowSet], Fraction], n: int):
        self.label = label
        self._evaluator = evaluator
        self._cache: dict = {}
        self.n = n
        if self(symbolic.WindowSet.empty(n)) != 0:
            raise RejectedInputError(f"handle {label!r} does not vanish on the empty set")

    def __call__(self, s: symbolic.WindowSet) -> Fraction:
        key = (s.n, s.canonical_key())
        if key not in self._cache:
            self._cache[key] = self._evaluator(s.canonicalize())
        return self._cache[key]


def measure_handle(label: str, mu: measures.CylinderMeasure) -> SetFunctionHandle:
    return SetFunctionHandle(label, lambda s: measures.eval0(mu, s), mu.symbols)


def phi_handle(
    label: str, phi: measures.CylinderMeasure, cfg: TruncationConfig
) -> SetFunctionHandle:
    """Truncated cover optimum as a set function at one fixed truncation.

    The config must pin the working window, so all queries share one class
    and one memo, which reads back an earlier query's full nodes, leaves and
    prices; each query's witness is still re-checked (:class:`engine.RootFront`).
    """
    if cfg.window_lo is None or cfg.window_hi is None:
        raise RejectedInputError("handle configs must pin the working window")
    memo: dict = {}
    return SetFunctionHandle(
        label, lambda s: engine.phi_truncated(s, phi, cfg, memo=memo).value, phi.symbols
    )


def psi_handle(
    label: str,
    psi: measures.CylinderMeasure,
    phi: measures.CylinderMeasure,
    eps: Fraction,
    cfg: TruncationConfig,
) -> SetFunctionHandle:
    """Budgeted optimum at slack eps, budget base the per-query truncated
    unconstrained optimum, all at one fixed truncation.

    Each query walks its tree once, for the root front over [psi, phi].  The
    budget base is the front's least phi component: pruning keeps every
    nondominated vector, and the least of the phi-minimal vectors is never
    dominated, so that component is the truncated phi optimum.  The option
    attaining the base is re-checked through the window-set path like the
    chosen option, each distinct option once per query.  The handle's
    queries share one config and one memo, which reads back an earlier
    query's full nodes, leaves and prices (:class:`engine.RootFront`).
    """
    if cfg.window_lo is None or cfg.window_hi is None:
        raise RejectedInputError("handle configs must pin the working window")
    if not phi.nonnegative:
        raise RejectedInputError("cover optimization needs a nonnegative measure")
    eps = Fraction(eps)
    comps = [psi, phi]
    memo: dict = {}

    def evaluator(s):
        root = engine.RootFront(s, comps, cfg, engine.prune, memo=memo)
        base = root.least(1).vector[1]
        return root.cheapest([base + eps]).value

    return SetFunctionHandle(label, evaluator, psi.symbols)


class FiniteAlgebra:
    """Closure of finitely many window sets under union, intersection and
    difference, together with the empty and full sets.

    Built through the atom partition of the generators: every member is a
    union of atoms, so the closure is enumerated directly.
    """

    def __init__(self, n: int, generators: Sequence[symbolic.WindowSet]):
        self.n = n
        self.generators = tuple(generators)
        window = symbolic._hull(n, self.generators) or symbolic.Window(0, 0)
        count = n ** window.span
        gen_bits = [g.bits_on(window) for g in generators]
        atoms: dict[tuple[bool, ...], int] = {}
        for cell in range(count):
            signature = tuple(bool((b >> cell) & 1) for b in gen_bits)
            atoms[signature] = atoms.get(signature, 0) | (1 << cell)
        atom_masks = sorted(atoms.values())
        if 1 << len(atom_masks) > ALGEBRA_CAP:
            raise TooLargeError(
                f"algebra closure exceeded the cap (verify.ALGEBRA_CAP = {ALGEBRA_CAP})"
            )
        members = {}
        for pick in range(1 << len(atom_masks)):
            bits = 0
            for k, mask in enumerate(atom_masks):
                if (pick >> k) & 1:
                    bits |= mask
            members[symbolic.WindowSet(n, window, bits).canonicalize()] = bits
        self.members = sorted(members, key=_member_order)
        self._window = window  # also the hull of the members' windows
        self._bits = [members[s] for s in self.members]  # each member on the window

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def _member_order(s: symbolic.WindowSet) -> str:
    """Sort key of an algebra member: its canonical window and its bitset on
    that window, whichever form the set is kept in."""
    key = s.canonical_key()
    if len(key) == 3:
        key = (key[0], key[1], s.bits_on(symbolic.Window(key[0], key[1])))
    return repr(key)


@dataclass
class SplitResult:
    ok: bool
    counterexample: symbolic.WindowSet | None = None
    left: Fraction | None = None
    right: Fraction | None = None


def caratheodory_measurable(
    mu: SetFunctionHandle, a: symbolic.WindowSet, tests: FiniteAlgebra
) -> SplitResult:
    """Does ``a`` split every test set additively under ``mu``?

    Returns the first violating test set with both side values on failure.
    Each test set is split as a bitset on the hull of the algebra's window
    and ``a``'s canonical window.
    """
    # the algebra's window is the hull of its generators' windows
    hull = symbolic._hull(tests.n, (a, *tests.generators)) or symbolic.Window(0, 0)
    a_bits = a.bits_on(hull)
    outside = ~a_bits
    n = tests.n
    values: dict = {}  # bitset on the hull -> value, for this call only

    def value(bits):
        v = values.get(bits)
        if v is None:
            v = values[bits] = mu(symbolic.WindowSet(n, hull, bits))
        return v

    if hull == tests._window:
        bits_list = tests._bits
    else:
        bits_list = [q.bits_on(hull) for q in tests]
    for q, q_bits in zip(tests, bits_list):
        whole = values[q_bits] = mu(q)
        split = value(q_bits & a_bits) + value(q_bits & outside)
        if whole != split:
            return SplitResult(False, q, whole, split)
    return SplitResult(True)


def check_splitting_closure(mu: SetFunctionHandle, algebra: FiniteAlgebra) -> Report:
    """Finite-scale closure of the family of splitting sets: closed under
    complement and disjoint union, with ``mu`` finitely additive on it."""
    report = Report(f"splitting family closure under {mu.label}")
    # mu is evaluated once per member; closure under the Boolean operations
    # lets every split be looked up as plain bitset arithmetic, and scaling
    # the values by the lcm of their denominators makes every sum and
    # comparison one on integers
    bits_list = algebra._bits
    fractions = [mu(member) for member in algebra.members]
    scale = math.lcm(*(v.denominator for v in fractions))
    values = {
        bits: v.numerator * (scale // v.denominator) for bits, v in zip(bits_list, fractions)
    }
    mask = (1 << (algebra.n ** algebra._window.span)) - 1
    pairs = list(values.items())
    passing = []
    for a in bits_list:
        outside = ~a & mask
        for q, whole in pairs:
            if whole != values[q & a] + values[q & outside]:
                break
        else:
            passing.append(a)
    passing_set = set(passing)
    comp_ok = all((~a & mask) in passing_set for a in passing)
    report.add("closed under complement", comp_ok)
    union_ok = True
    additive_ok = True
    for a in passing:
        for b in passing:
            if a & b:
                continue
            if (a | b) not in passing_set:
                union_ok = False
            if values[a | b] != values[a] + values[b]:
                additive_ok = False
    report.add("closed under disjoint union", union_ok)
    report.add("finitely additive on the family", additive_ok)
    report.add(
        "family size",
        True,
        f"{len(passing)} of {len(algebra)} members pass",
    )
    return report


def check_outer_measure_axioms(
    mu: SetFunctionHandle, samples: Sequence[symbolic.WindowSet]
) -> Report:
    """Vanishing at the empty set, monotonicity, finite subadditivity; all
    comparisons exact over the supplied samples."""
    n = mu.n
    report = Report(f"outer measure axioms for {mu.label}")
    report.add("vanishes on the empty set", mu(symbolic.WindowSet.empty(n)) == 0)
    report.expect("monotone", [
        f"{a.literal()} inside {b.literal()} but {mu(a)} > {mu(b)}"
        for a in samples for b in samples
        if symbolic.is_subset(a, b) and mu(a) > mu(b)
    ])
    failures = [
        f"{a.literal()} | {b.literal()}"
        for a in samples for b in samples
        if mu(symbolic.union(a, b)) > mu(a) + mu(b)
    ]
    for k in range(0, len(samples) - 2):
        family = samples[k : k + 3]
        if mu(symbolic.union_all(n, family)) > sum(mu(s) for s in family):
            failures.append("triple family at offset %d" % k)
    report.expect("finitely subadditive", failures)
    return report


@dataclass(frozen=True)
class PiecewiseLinear:
    """Nondecreasing piecewise-linear function on [0, inf) with f(0) = 0,
    given by rational breakpoints and a final slope."""

    points: tuple[tuple[Fraction, Fraction], ...]
    final_slope: Fraction = Fraction(1)

    def __post_init__(self):
        pts = tuple(
            (Fraction(x), Fraction(y)) for x, y in sorted(self.points)
        )
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "final_slope", Fraction(self.final_slope))
        if not pts or pts[0] != (0, 0):
            raise RejectedInputError("first breakpoint must be (0, 0)")
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x1 == x0 or y1 < y0:
                raise RejectedInputError("breakpoints must increase")
        if self.final_slope < 0:
            raise RejectedInputError("final slope must be nonnegative")

    def __call__(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        if x < 0:
            raise RejectedInputError("argument must be nonnegative")
        pts = self.points
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x <= x1:
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        x0, y0 = pts[-1]
        return y0 + self.final_slope * (x - x0)


IDENTITY = PiecewiseLinear(((0, 0),), 1)


@dataclass
class ApproxFamilySpec:
    """A finite decreasing grid of approximation indices with one handle per
    index, the defect functional nu, and the discount f."""

    family: tuple[tuple[Fraction, SetFunctionHandle], ...]
    nu: SetFunctionHandle
    f: PiecewiseLinear = IDENTITY

    def __post_init__(self):
        fam = tuple(sorted(((Fraction(t), h) for t, h in self.family), key=lambda p: p[0]))
        if not fam or fam[0][0] <= 0:
            raise RejectedInputError("grid indices must be positive")
        self.family = fam

    @property
    def t_min(self) -> Fraction:
        return self.family[0][0]

    def limit_surrogate(self) -> SetFunctionHandle:
        """The largest-value grid member, standing in for the limit."""
        return self.family[0][1]

    def at_or_below(self, t: Fraction) -> tuple[Fraction, SetFunctionHandle]:
        """Largest grid index <= t; over-estimates the family at t."""
        best = None
        for ti, h in self.family:
            if ti <= t:
                best = (ti, h)
        if best is None:
            raise RejectedInputError(f"no grid index at or below {t}")
        return best

    def exact(self, t: Fraction):
        for ti, h in self.family:
            if ti == t:
                return h
        return None


def check_approximation(
    spec: ApproxFamilySpec,
    pairs: Sequence[tuple[symbolic.WindowSet, symbolic.WindowSet]],
    disjoint_families: Sequence[Sequence[symbolic.WindowSet]],
    samples: Sequence[symbolic.WindowSet] = (),
) -> Report:
    """The three approximation axioms over finite surrogates.

    (i) is exact on the limit surrogate.  (ii) is verified in the
    sufficient finite form: the family at the largest grid index below
    f(nu(B minus A)) + t_min, applied to A, must not exceed the limit
    surrogate at B; cells where this sufficient check fails are reported
    INCONCLUSIVE, never FAIL.  (iii) uses the two-slack bookkeeping on the
    supplied disjoint families at matched grid indices, and is INCONCLUSIVE
    when the required indices are off the grid.
    """
    report = Report("outer measure approximation axioms")
    n = spec.nu.n
    # grid monotonicity is a precondition of the definition
    check_sets = list(samples) or [symbolic.WindowSet.full_space(n)]
    for s in check_sets:
        values = [h(s) for _, h in spec.family]
        if any(a < b for a, b in zip(values, values[1:])):
            raise GridNotMonotoneError(
                f"family is not setwise decreasing in the index on {s.literal()}"
            )
    limit = spec.limit_surrogate()
    report.add("(i) vanishes on the empty set", limit(symbolic.WindowSet.empty(n)) == 0)
    one_sided = []
    for a, b in pairs:
        if not symbolic.is_subset(a, b):
            raise RejectedInputError("pairs must be nested")
        t = spec.f(spec.nu(symbolic.difference(b, a))) + spec.t_min
        t_grid, handle = spec.at_or_below(t)
        if handle(a) > limit(b):
            one_sided.append(
                f"sufficient check failed at A={a.literal()} B={b.literal()} "
                f"(grid index {t_grid})"
            )
    report.expect("(ii) discounted domination", [], one_sided)
    failures, unmatched = [], []
    for family in disjoint_families:
        family = list(family)
        for x in family:
            for y in family:
                if x is not y and symbolic.meets(x, y):
                    raise RejectedInputError("family members must be disjoint")
        u = symbolic.union_all(n, family)
        matched = False
        for t_union, handle_union in spec.family:
            # the part k handle sits at eps 2^-k with eps = t/2
            handles = [
                spec.exact(t_union / Fraction(2 ** k) / 2) for k in range(1, len(family) + 1)
            ]
            if any(h is None for h in handles):
                continue
            matched = True
            if handle_union(u) > sum(h(part) for h, part in zip(handles, family)):
                failures.append(f"family union {u.literal()} at index {t_union}")
        if not matched:
            unmatched.append("no matched grid indices for the family")
    report.expect("(iii) subadditive on disjoint families", failures, unmatched)
    return report


@dataclass
class DefectResult:
    defect: Fraction
    total_mass: Fraction
    truncated_total: Fraction
    bound_holds: bool
    witness: tuple[int, symbolic.WindowSet] | None


def norm_defect(
    phi: measures.CylinderMeasure, window_cap: int, m_cap: int, cfg: TruncationConfig
) -> DefectResult:
    """Largest shift mismatch |phi(S^m A) - phi(A)| over sets A on
    [0, window_cap] and -m_cap <= m <= 0, a lower bound for the full
    supremum.  ``bound_holds`` compares the truncated total mass, an upper
    bound, with total mass minus that lower bound, so a False certifies
    nothing.  Each m gives a signed, finitely additive set function on the
    cells of [0, window_cap], whose supremum is the larger of its positive
    and negative cell sums, attained by the cells of that sign (the Hahn
    set): O(n^(window_cap+1) * m_cap) cell prices.  The witness (m, Hahn
    set), none at zero defect, is re-priced through ``eval0`` and ``shift``."""
    if not phi.nonnegative:
        raise RejectedInputError("defect scan needs a nonnegative measure")
    if m_cap < 0:
        raise RejectedInputError(f"m_cap {m_cap} is negative")
    n = phi.symbols
    window = symbolic.Window(0, window_cap)
    symbolic._cell_count(n, window)  # the bitset cap, before any word is listed
    symbolic._check_coordinate(window_cap + m_cap)  # the farthest coordinate read
    words = list(itertools.product(range(n), repeat=window.span))  # in rank order
    base = [phi.cell_value(0, word) for word in words]
    defect, witness = ZERO, None
    for m in range(-1, -m_cap - 1, -1):
        gaps = [phi.cell_value(-m, word) - b for word, b in zip(words, base)]
        for sign in (1, -1):
            ranks = [r for r, gap in enumerate(gaps) if sign * gap > 0]
            mass = sign * measures.exact_sum([gaps[r] for r in ranks])
            if mass > defect:
                defect, witness = mass, (m, ranks)
    if witness is not None:
        m, ranks = witness
        a = symbolic.WindowSet.from_ranks(n, window, ranks).canonicalize()
        repriced = measures.eval0(phi, symbolic.shift(a, m)) - measures.eval0(phi, a)
        if abs(repriced) != defect:
            raise CertificateError(f"defect witness at shift {m} re-prices to {repriced}")
        witness = (m, a)
    total = measures.eval0(phi, symbolic.WindowSet.full_space(n))
    truncated = engine.phi_truncated(symbolic.WindowSet.full_space(n), phi, cfg).value
    return DefectResult(defect, total, truncated, truncated <= total - defect, witness)


def check_consistency(
    phi: measures.CylinderMeasure,
    depth: int,
    samples: Sequence[symbolic.WindowSet],
    grid: Sequence[TruncationConfig] = (),
    prepend: measures.CylinderMeasure | None = None,
) -> Report:
    """Consistency of the shifted family and its consequences.

    The family phi_m = phi . S^m is consistent iff adjacent grades agree on
    every set of the finer grade; on samples this is an exact scan.  When
    consistent, the truncated optimum of any sampled set must equal its
    direct value at every supplied truncation, and prefixing a consistent
    chain in front (budgeting by its own truncated value plus slack) must
    leave the truncated optimum unchanged on cylinder samples, at slack 1/2.
    """
    report = Report("consistency of the shifted family")
    # the scan stops at the first disagreement
    disagreement = list(itertools.islice((
        f"grades {m} and {m - 1} disagree on {a.literal()}"
        for a in samples if not a.is_degenerate
        for m in range(min(0, int(a.min_coordinate())), -depth, -1)
        if measures.eval_shifted(phi, m, a) != measures.eval_shifted(phi, m - 1, a)
    ), 1))
    report.expect("adjacent grades agree", disagreement)
    if disagreement:
        return report
    failures = []
    for cfg in grid:
        for a in samples:
            if a.is_degenerate or a.min_coordinate() < 0:
                continue
            direct = measures.eval0(phi, a)
            value = engine.phi_truncated(a, phi, cfg).value
            if value != direct:
                failures.append(f"{a.literal()} at {cfg}: {value} != {direct}")
    report.expect("truncated optimum equals the direct value", failures)
    if prepend is not None:
        failures = []
        for cfg in grid or (TruncationConfig(depth),):
            for a in samples:
                if a.is_degenerate or a.min_coordinate() < 0:
                    continue
                plain = engine.phi_truncated(a, phi, cfg).value
                budget = engine.phi_truncated(a, prepend, cfg).value + Fraction(1, 2)
                chained = psi_budgeted(
                    BudgetedProblem(a, phi, ((prepend, budget),), cfg)
                ).value
                if chained != plain:
                    failures.append(f"{a.literal()} at {cfg}: {chained} != {plain}")
        report.expect("prefixed consistent chain leaves the optimum unchanged", failures)
    return report
