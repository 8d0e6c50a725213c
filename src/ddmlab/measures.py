"""Exact evaluation of finitely additive set functions on window sets.

Every measure here is an evaluator of cylinders supported on coordinates
>= 0, extended to finite unions by summing over disjoint word cells.  All
values are exact rationals; no floating point enters any value path, and a
caller may add them as integers over a :meth:`CylinderMeasure.denominator`.

The graded family attached to a base measure phi is phi_m = phi . S^m for
m <= 0, evaluated through :func:`eval_shifted`.  Shifted pricing never
builds the shifted set: it reads the set's canonical words once and prices
each at its coordinate minus m, so a set costs O(words x word length).

A measure is in Markov form at a coordinate when it prices every word read
there as rho[w0] * prod a[wk][wk+1], with one fixed vector and matrix.  The
take-or-split walk prices all nodes of a tree at one coordinate, so in a
subtree holding every left extension of a node's word the optimum of such a
measure is known in closed form; :class:`DecisionTable` records when taking
the node whole attains it, and :meth:`CylinderMeasure.takes` answers that
for a whole measure, from its :meth:`CylinderMeasure.table` or its parts.
"""

from __future__ import annotations

import math
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


def _shared_table(tables: dict, rho: tuple, a) -> DecisionTable:
    """The table of ``tables`` for marginal ``rho``, made on first use: one per
    distinct marginal, so a product or stationary chain keeps one."""
    table = tables.get(rho)
    if table is None:
        table = tables[rho] = DecisionTable(rho, a)
    return table


class CylinderMeasure:
    """Base class: a finitely additive set function on window sets over
    coordinates >= 0, defined through its value on single-word cylinders."""

    nonnegative = True
    symbols = 0

    def cell_value(self, lo: int, word: tuple[int, ...]) -> Fraction:
        raise NotImplementedError

    def denominator(self, at: int, length: int) -> int:
        """A multiple of the denominator of every cell value of a word of at
        most ``length`` symbols read at ``at``, kept once ``_denominator`` made it."""
        dens = self.__dict__.setdefault("_dens", {})
        if (at, length) not in dens:
            dens[(at, length)] = self._denominator(at, length)
        return dens[(at, length)]

    def _denominator(self, at: int, length: int) -> int:
        raise NotImplementedError

    def table(self, at: int) -> DecisionTable | None:
        """The measure's :class:`DecisionTable` when it is in Markov form for
        words read at coordinate ``at``, else None.  Tables are kept per
        measure and grown on demand."""
        return None

    def takes(self, at: int, word: tuple[int, ...], k: int) -> bool:
        """Whether taking a node whose word is read at ``at``, with k levels
        below it and every left extension of the word among them, attains
        the optimum of its subtree under this measure: the table's decision,
        else no.  Asked only in nonnegative walks and at a node this measure
        prices above 0, for a node priced 0 is taken on that bound alone; for
        a signed measure, whose subtree may price below 0, it is wrong."""
        table = self.table(at)
        return table is not None and table.takes(word[0], k)


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
        # starts and transitions as (numerator, denominator) pairs: a path
        # product is taken over integers and reduced once
        self._starts: dict[int, tuple] = {}
        self._steps = tuple(tuple((x.numerator, x.denominator) for x in row) for row in self.a)
        self._at: dict[int, DecisionTable] = {}  # coordinate -> table
        self._tables: dict[tuple[Fraction, ...], DecisionTable] = {}  # by marginal

    def __repr__(self):
        return f"MarkovMeasure(pi={self.pi}, a={self.a})"

    def table(self, at: int) -> DecisionTable:
        table = self._at.get(at)
        if table is None:
            table = self._at[at] = _shared_table(self._tables, self._marginal(at), self.a)
        return table

    def _denominator(self, at: int, length: int) -> int:
        start = math.lcm(*(x.denominator for x in self._marginal(at)))
        return start * math.lcm(*(q for row in self._steps for _, q in row)) ** (length - 1)

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
        starts = self._starts.get(lo)
        if starts is None:
            starts = self._starts[lo] = tuple(
                (x.numerator, x.denominator) for x in self._marginal(lo)
            )
        prev = word[0]
        num, den = starts[prev]
        steps = self._steps
        for symbol in word[1:]:
            p, q = steps[prev][symbol]
            num *= p
            den *= q
            prev = symbol
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

    def _denominator(self, at: int, length: int) -> int:
        return 1

    def cell_value(self, lo: int, word: tuple[int, ...]) -> Fraction:
        for offset, symbol in enumerate(word):
            if self.point_at(lo + offset) != symbol:
                return ZERO
        return ONE


class BernoulliMeasure(MarkovMeasure):
    """Product measure with one fixed symbol distribution p per coordinate:
    the Markov chain that starts from p and whose every row is p."""

    def __init__(self, p):
        self.p = tuple(_as_fraction(x) for x in p)
        if any(x < 0 for x in self.p) or sum(self.p) != 1:
            raise RejectedInputError("weights are not a distribution")
        super().__init__(self.p, (self.p,) * len(self.p))

    def __repr__(self):
        return f"BernoulliMeasure({self.p})"


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
        self._at: dict[int, DecisionTable | None] = {}
        self._tables: dict[tuple[Fraction, ...], DecisionTable] = {}  # by averaged marginal

    def __repr__(self):
        return f"CesaroMeasure({self.base!r}, {self.n})"

    def table(self, at: int) -> DecisionTable | None:
        # in Markov form when the base is at each averaged coordinate, with
        # one matrix: rho is then the average of the base's vectors
        if at not in self._at:
            tables = [self.base.table(at + j) for j in range(self.n + 1)]
            table = None
            if all(tables) and all(t.a == tables[0].a for t in tables):
                rho = tuple(sum(col, ZERO) / len(tables) for col in zip(*(t.rho for t in tables)))
                table = _shared_table(self._tables, rho, tables[0].a)
            self._at[at] = table
        return self._at[at]

    def _denominator(self, at: int, length: int) -> int:
        return (self.n + 1) * math.lcm(*(self.base.denominator(at + j, length)
                                         for j in range(self.n + 1)))

    def cell_value(self, lo: int, word: tuple[int, ...]) -> Fraction:
        total = exact_sum([self.base.cell_value(lo + j, word) for j in range(self.n + 1)])
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

    def table(self, at: int) -> DecisionTable | None:
        parts = [part for w, part in zip(self.weights, self.parts) if w]
        return parts[0].table(at) if len(parts) == 1 else None  # a lone part has weight 1

    def takes(self, at: int, word: tuple[int, ...], k: int) -> bool:
        # the minimum of a sum is at least the sum of the parts' minimums; a
        # part with no table is priced, and one priced 0 adds 0 at its best
        return all(part.takes(at, word, k) for w, part in zip(self.weights, self.parts)
                   if w and (part.table(at) is not None or part.cell_value(at, word)))

    def _denominator(self, at: int, length: int) -> int:
        return math.lcm(*(w.denominator * part.denominator(at, length)
                          for w, part in zip(self.weights, self.parts) if w))

    def cell_value(self, lo: int, word: tuple[int, ...]) -> Fraction:
        # a part that misses the cell adds nothing
        return exact_sum([w * value for w, part in zip(self.weights, self.parts)
                          if (value := part.cell_value(lo, word))])


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

    def _denominator(self, at: int, length: int) -> int:
        return math.lcm(self.psi.denominator(at, length),
                        self.c.denominator * self.phi.denominator(at, length))

    def cell_value(self, lo: int, word: tuple[int, ...]) -> Fraction:
        return self.psi.cell_value(lo, word) - self.c * self.phi.cell_value(lo, word)


def cesaro(mu: CylinderMeasure, n: int) -> CylinderMeasure:
    """The running average of mu over its first n+1 backward shifts."""
    return CesaroMeasure(mu, n)


def exact_sum(values) -> Fraction:
    """Exact sum of rationals, added as integers over their lcm denominator."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    d = 1
    for v in values:
        d = math.lcm(d, v.denominator)
    total = 0
    for v in values:
        total += v.numerator * (d // v.denominator)
    return Fraction(total, d)


def _cell_sum(mu: CylinderMeasure, n: int, key, m: int) -> Fraction:
    """Sum of the cell values of a canonical key's words, each read m
    coordinates to the right, in rank order."""
    lo, hi, bits = key
    if not isinstance(bits, int):  # a wide set: price its cylinders
        return exact_sum(mu.cell_value(lo - m, word) for word in symbolic.tree_cells(n, key))
    at, span = lo - m, hi - lo + 1
    if bits.bit_count() == 1:
        return mu.cell_value(at, symbolic.rank_word(n, span, bits.bit_length() - 1))
    values = []
    while bits:
        low = bits & -bits
        values.append(mu.cell_value(at, symbolic.rank_word(n, span, low.bit_length() - 1)))
        bits ^= low
    return exact_sum(values)


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
