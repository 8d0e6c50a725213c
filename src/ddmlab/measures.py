"""Exact evaluation of finitely additive set functions on window sets.

Every measure here is an evaluator of cylinders supported on coordinates
>= 0, extended to finite unions by summing over disjoint word cells.  All
values are exact rationals; no floating point enters any value path.

The graded family attached to a base measure phi is phi_m = phi . S^m for
m <= 0, evaluated through :func:`eval_shifted`.  Shifted pricing never
builds the shifted set: it reads the set's canonical words once and prices
each at its coordinate minus m, so a set costs O(words x word length).

A measure is in Markov form at a coordinate when it prices every word read
there as rho[w0] * prod a[wk][wk+1], with one fixed vector and matrix.  The
take-or-split walk prices all nodes of a tree at one coordinate, so in a
subtree holding every left extension of a node's word the optimum of such a
measure is known in closed form; :class:`DecisionTable` records when taking
the node whole attains it, and :meth:`CylinderMeasure.transfer` hands the
tables of a measure's parts to the walk.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import symbolic
from .errors import (
    CertificateError,
    GradingViolationError,
    NegativeCoordinateError,
    NotIrreducibleError,
    NotStochasticError,
    RejectedInputError,
)

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class DecisionTable:
    """Take-or-split decisions of a measure in Markov form (rho, a).

    A node whose word w is read at the table's coordinate and which has k
    levels below it, every left extension of w among them, costs
    T(w) * h(w0, k) at best, where T(w) is the transition product of w,
    h(s, 0) = rho[s] and h(s, k) = min(rho[s], sum_t a[t][s] * h(t, k-1)).
    Taking the node whole costs T(w) * rho[w0], so it is optimal exactly
    when h(w0, k) = rho[w0].  Rows are computed on demand and kept.
    """

    __slots__ = ("rho", "a", "rows", "_takes")

    def __init__(self, rho, a):
        self.rho = tuple(rho)
        self.a = a
        self.rows = [self.rho]  # rows[k][s] = h(s, k)
        self._takes = [(True,) * len(self.rho)]

    def takes(self, s: int, k: int) -> bool:
        """Whether taking a node whose word starts with s, with k levels
        below it, attains the optimum of its subtree (ties go to take)."""
        takes = self._takes
        while len(takes) <= k:
            rho, a, h = self.rho, self.a, self.rows[-1]
            n = len(rho)
            split = [sum((a[t][j] * h[t] for t in range(n)), ZERO) for j in range(n)]
            takes.append(tuple(r <= x for r, x in zip(rho, split)))
            self.rows.append(tuple(min(r, x) for r, x in zip(rho, split)))
        return takes[k][s]


class CylinderMeasure:
    """Base class: a finitely additive set function on window sets over
    coordinates >= 0, defined through its value on single-word cylinders."""

    nonnegative = True
    symbols = 0

    def cell_value(self, lo: int, word: tuple[int, ...]) -> Fraction:
        raise NotImplementedError

    def transfer(self, at: int) -> tuple:
        """The parts of positive weight that this measure sums, for words
        read at coordinate ``at``, as (part, table) pairs: ``table`` is the
        part's :class:`DecisionTable` when the part is in Markov form there,
        else None.  Tables are kept per measure and coordinate."""
        return ((self, None),)


class MarkovMeasure(CylinderMeasure):
    """Markov chain measure: an initial distribution pushed through a
    stochastic matrix, evaluated on cylinders by the usual path product."""

    def __init__(self, pi, a):
        self.pi = tuple(_as_fraction(x) for x in pi)
        self.a = tuple(tuple(_as_fraction(x) for x in row) for row in a)
        n = len(self.pi)
        if n < 1 or len(self.a) != n or any(len(row) != n for row in self.a):
            raise RejectedInputError("matrix and initial vector sizes disagree")
        if any(x < 0 for x in self.pi) or sum(self.pi) != 1:
            raise RejectedInputError("initial vector is not a distribution")
        for row in self.a:
            if any(x < 0 for x in row):
                raise RejectedInputError("negative transition probability")
            if sum(row) != 1:
                raise NotStochasticError("matrix row does not sum to one")
        self.symbols = n
        self._marginals = {0: self.pi}
        # transitions as (numerator, denominator) pairs: a path product is
        # taken over integers and reduced once
        self._steps = tuple(tuple((x.numerator, x.denominator) for x in row) for row in self.a)
        self._tables: dict[int, DecisionTable] = {}

    def __repr__(self):
        return f"MarkovMeasure(pi={self.pi}, a={self.a})"

    def transfer(self, at: int) -> tuple:
        table = self._tables.get(at)
        if table is None:
            table = self._tables[at] = DecisionTable(self._marginal(at), self.a)
        return ((self, table),)

    def _marginal(self, lo: int) -> tuple[Fraction, ...]:
        if lo not in self._marginals:
            prev = self._marginal(lo - 1)
            n = len(prev)
            cur = tuple(
                sum((prev[i] * self.a[i][j] for i in range(n)), ZERO) for j in range(n)
            )
            self._marginals[lo] = cur
        return self._marginals[lo]

    def cell_value(self, lo: int, word: tuple[int, ...]) -> Fraction:
        start = self._marginal(lo)[word[0]]
        num, den = start.numerator, start.denominator
        steps = self._steps
        for k in range(len(word) - 1):
            p, q = steps[word[k]][word[k + 1]]
            num *= p
            den *= q
        return Fraction(num, den)


class DiracMeasure(CylinderMeasure):
    """Point mass at an eventually-periodic two-sided sequence.

    The point is period[j % len(period)] at coordinate j, overridden by the
    finitely many exceptions, so membership in any finite-window set is
    decidable.
    """

    def __init__(self, symbols: int, period, exceptions=()):
        self.symbols = int(symbols)
        self.period = tuple(period)
        self.exceptions = tuple(sorted((int(j), int(s)) for j, s in exceptions))
        if not self.period:
            raise RejectedInputError("period must be nonempty")
        bad = [s for s in self.period if not 0 <= s < self.symbols]
        bad += [s for _, s in self.exceptions if not 0 <= s < self.symbols]
        if bad:
            raise RejectedInputError(f"symbols {bad} outside the alphabet")

    def __repr__(self):
        return f"DiracMeasure({self.symbols}, {self.period}, {self.exceptions})"

    def point_at(self, j: int) -> int:
        for k, s in self.exceptions:
            if k == j:
                return s
        return self.period[j % len(self.period)]

    def cell_value(self, lo: int, word: tuple[int, ...]) -> Fraction:
        for offset, symbol in enumerate(word):
            if self.point_at(lo + offset) != symbol:
                return ZERO
        return ONE


class BernoulliMeasure(CylinderMeasure):
    """Product measure with one fixed symbol distribution per coordinate."""

    def __init__(self, p):
        self.p = tuple(_as_fraction(x) for x in p)
        if any(x < 0 for x in self.p) or sum(self.p) != 1:
            raise RejectedInputError("weights are not a distribution")
        self.symbols = len(self.p)
        self._steps = tuple((x.numerator, x.denominator) for x in self.p)
        self._table: DecisionTable | None = None

    def __repr__(self):
        return f"BernoulliMeasure({self.p})"

    def transfer(self, at: int) -> tuple:
        # every row of the transition matrix is p, at every coordinate
        if self._table is None:
            self._table = DecisionTable(self.p, (self.p,) * self.symbols)
        return ((self, self._table),)

    def cell_value(self, lo: int, word: tuple[int, ...]) -> Fraction:
        num = den = 1
        steps = self._steps
        for symbol in word:
            p, q = steps[symbol]
            num *= p
            den *= q
        return Fraction(num, den)


class CesaroMeasure(CylinderMeasure):
    """Average of the first n+1 backward shift images of a base measure.

    Evaluating at a set with min coordinate >= 0 only ever evaluates the
    base on sets with min coordinate >= 0, so the average stays inside the
    base algebra.
    """

    def __init__(self, base: CylinderMeasure, n: int):
        if n < 1:
            raise RejectedInputError("average length must be positive")
        self.base = base
        self.n = int(n)
        self.symbols = base.symbols
        self.nonnegative = base.nonnegative
        self._tables: dict[int, DecisionTable | None] = {}

    def __repr__(self):
        return f"CesaroMeasure({self.base!r}, {self.n})"

    def transfer(self, at: int) -> tuple:
        # in Markov form when the base is at each averaged coordinate, with
        # one matrix: rho is then the average of the base's vectors
        if at not in self._tables:
            forms = [self.base.transfer(at + j) for j in range(self.n + 1)]
            tables = [form[0][1] for form in forms if len(form) == 1 and form[0][1]]
            table = None
            if len(tables) == len(forms) and all(t.a == tables[0].a for t in tables):
                rho = [sum(col, ZERO) / len(tables) for col in zip(*(t.rho for t in tables))]
                table = DecisionTable(rho, tables[0].a)
            self._tables[at] = table
        return ((self, self._tables[at]),)

    def cell_value(self, lo: int, word: tuple[int, ...]) -> Fraction:
        total = sum((self.base.cell_value(lo + j, word) for j in range(self.n + 1)), ZERO)
        return total / (self.n + 1)


class ConvexMeasure(CylinderMeasure):
    """Convex combination of measures over the same alphabet."""

    def __init__(self, weights, parts):
        self.weights = tuple(_as_fraction(x) for x in weights)
        self.parts = tuple(parts)
        if len(self.weights) != len(self.parts) or not self.parts:
            raise RejectedInputError("weights and parts disagree")
        if any(w < 0 for w in self.weights) or sum(self.weights) != 1:
            raise RejectedInputError("weights are not convex")
        sizes = {p.symbols for p in self.parts}
        if len(sizes) != 1:
            raise RejectedInputError("parts live over different alphabets")
        self.symbols = self.parts[0].symbols
        self.nonnegative = all(p.nonnegative for p in self.parts)

    def __repr__(self):
        return f"ConvexMeasure({self.weights}, {self.parts})"

    def transfer(self, at: int) -> tuple:
        return tuple(
            pair for w, part in zip(self.weights, self.parts) if w for pair in part.transfer(at)
        )

    def cell_value(self, lo: int, word: tuple[int, ...]) -> Fraction:
        total = ZERO
        for w, part in zip(self.weights, self.parts):
            value = part.cell_value(lo, word)
            if value:  # a part that misses the cell adds nothing
                total += w * value
        return total


class SignedDiffMeasure(CylinderMeasure):
    """psi - c * phi with c >= 0; the one kind that may evaluate negative."""

    nonnegative = False

    def __init__(self, psi: CylinderMeasure, c, phi: CylinderMeasure):
        self.psi = psi
        self.c = _as_fraction(c)
        self.phi = phi
        if self.c < 0:
            raise RejectedInputError("scale must be nonnegative")
        if psi.symbols != phi.symbols:
            raise RejectedInputError("parts live over different alphabets")
        self.symbols = psi.symbols

    def __repr__(self):
        return f"SignedDiffMeasure({self.psi!r}, {self.c}, {self.phi!r})"

    def cell_value(self, lo: int, word: tuple[int, ...]) -> Fraction:
        return self.psi.cell_value(lo, word) - self.c * self.phi.cell_value(lo, word)


def cesaro(mu: CylinderMeasure, n: int) -> CylinderMeasure:
    """The running average of mu over its first n+1 backward shifts."""
    return CesaroMeasure(mu, n)


def _cell_sum(mu: CylinderMeasure, n: int, key, m: int) -> Fraction:
    """Sum of the cell values of a canonical key's words, each read m
    coordinates to the right, in rank order."""
    lo, hi, bits = key
    if not isinstance(bits, int):  # a wide set: price its cylinders
        return sum((mu.cell_value(lo - m, word) for word in symbolic.tree_cells(n, key)), ZERO)
    at, span = lo - m, hi - lo + 1
    if bits.bit_count() == 1:
        return mu.cell_value(at, symbolic.rank_word(n, span, bits.bit_length() - 1))
    total = ZERO
    while bits:
        low = bits & -bits
        total += mu.cell_value(at, symbolic.rank_word(n, span, low.bit_length() - 1))
        bits ^= low
    return total


def eval0(mu: CylinderMeasure, s: symbolic.WindowSet) -> Fraction:
    """Value of the base set function on a window set over coordinates >= 0.

    Computed by summing the disjoint word cells of the canonical form; the
    empty set gets 0 and the full space the measure's total mass.
    """
    if mu.symbols != s.n:
        raise RejectedInputError("set and measure alphabets disagree")
    key = s.canonical_key()
    if key == ("empty",):
        return ZERO
    if key == ("full",):
        return sum((mu.cell_value(0, (b,)) for b in range(s.n)), ZERO)
    lo = key[0]
    if lo < 0:
        raise NegativeCoordinateError(
            f"set depends on coordinate {lo} below the base algebra"
        )
    return _cell_sum(mu, s.n, key, 0)


def eval_shifted(mu: CylinderMeasure, m: int, s: symbolic.WindowSet) -> Fraction:
    """Value of the grade-m member of the shifted family, phi . S^m.

    Requires m <= 0 and the set determined on coordinates >= m.  The set's
    canonical words are priced at their coordinates minus m; the shifted
    set itself is never built.
    """
    if m > 0:
        raise RejectedInputError("grades are nonpositive")
    key = s.canonical_key()
    if key in (("empty",), ("full",)):
        return eval0(mu, s)
    if key[0] < m:
        raise GradingViolationError(f"set depends on coordinate {key[0]} below grade {m}")
    # the words are read at their left edge moved m coordinates right, and
    # that coordinate must stay inside the bound
    symbolic._check_coordinate(key[0] - m)
    if mu.symbols != s.n:
        raise RejectedInputError("set and measure alphabets disagree")
    return _cell_sum(mu, s.n, key, m)


def _reachable(a: Sequence[Sequence[Fraction]], start: int, transpose: bool) -> set[int]:
    n = len(a)
    seen = {start}
    frontier = [start]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            edge = a[j][i] if transpose else a[i][j]
            if edge > 0 and j not in seen:
                seen.add(j)
                frontier.append(j)
    return seen


def stationary_distribution(a: Sequence[Sequence]) -> tuple[Fraction, ...]:
    """The unique probability vector fixed by an irreducible stochastic
    matrix, found by exact Gaussian elimination."""
    a = [[_as_fraction(x) for x in row] for row in a]
    n = len(a)
    if any(len(row) != n for row in a):
        raise RejectedInputError("matrix is not square")
    for row in a:
        if any(x < 0 for x in row):
            raise RejectedInputError("negative transition probability")
        if sum(row) != 1:
            raise NotStochasticError("matrix row does not sum to one")
    if len(_reachable(a, 0, False)) != n or len(_reachable(a, 0, True)) != n:
        raise NotIrreducibleError("transition matrix is not irreducible")
    # unknowns pi_0..pi_{n-1}: (A^T - I) pi = 0 with the last equation
    # replaced by sum(pi) = 1.
    rows = []
    for j in range(n - 1):
        rows.append([a[i][j] - (1 if i == j else 0) for i in range(n)] + [ZERO])
    rows.append([ONE] * n + [ONE])
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    pi = tuple(rows[r][n] for r in range(n))
    if sum(pi) != 1:
        raise CertificateError(f"elimination left a vector of mass {sum(pi)}, not 1")
    return pi


def stationary_markov(a: Sequence[Sequence]) -> MarkovMeasure:
    """Markov measure started from the stationary vector of ``a``."""
    pi = stationary_distribution(a)
    return MarkovMeasure(pi, tuple(tuple(_as_fraction(x) for x in row) for row in a))
