"""Exact evaluation of finitely additive set functions on window sets.

Every measure here is an evaluator of cylinders supported on coordinates
>= 0, extended to finite unions by summing over disjoint word cells.  All
values are exact rationals; no floating point enters any value path, and a
caller may add them as integers over a :meth:`CylinderMeasure.denominator`.
The Cesàro, convex and signed kinds are one weighted mix of shifted measures,
and a mix of parts in Markov form with one matrix is in Markov form too.

The graded family attached to a base measure phi is phi_m = phi . S^m for
m <= 0, evaluated through :func:`eval_shifted`.  Shifted pricing never
builds the shifted set: it reads the set's canonical words once at their
coordinate minus m, so a set costs O(words x word length).  One word is
priced by :meth:`CylinderMeasure.cell_value`, a tree by its cylinders' cell
values, and a multi-word bitset by one :meth:`CylinderMeasure.set_value`
call: a chain adds path products over one denominator, a point mass tests
one bit, a mix weighs its parts' set values, and other kinds sum cells.

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
MIX_DEPTH_CAP = 100  # levels a mix of mixes nests; pricing recurses once per level


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

    def set_value(self, at: int, n: int, span: int, bits: int) -> Fraction:
        """Value of the set of the words of ``bits``, ranked over ``n``
        symbols on [at, at + span - 1]: the sum of their cell values."""
        return exact_sum([self.cell_value(at, word) for word in _words(n, span, bits)])

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
        n = len(self.a)
        if n < 1:
            raise RejectedInputError("a chain needs at least one state")
        if len(self.pi) != n or any(len(row) != n for row in self.a):
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
        # starts and steps as numerators over one denominator per coordinate and
        # one per step: a path product is an integer over ``_denominator``
        self._starts: dict[int, tuple[int, tuple[int, ...]]] = {}
        self._step = math.lcm(*(x.denominator for row in self.a for x in row))
        self._steps = tuple(tuple(x.numerator * (self._step // x.denominator) for x in row)
                            for row in self.a)
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
        return self._start(at)[0] * self._step ** (length - 1)

    def _start(self, at: int) -> tuple[int, tuple[int, ...]]:
        """The lcm of the marginal's denominators at ``at``, and its entries over it."""
        start = self._starts.get(at)
        if start is None:
            marginal = self._marginal(at)
            den = math.lcm(*(x.denominator for x in marginal))
            start = self._starts[at] = (den, tuple(x.numerator * (den // x.denominator)
                                                   for x in marginal))
        return start

    def _marginal(self, lo: int) -> tuple[Fraction, ...]:
        if lo not in self._marginals:
            if lo < 0:
                raise NegativeCoordinateError(f"coordinate {lo} is below the base algebra")
            prev = self._marginal(lo - 1)
            n = len(prev)
            cur = tuple(
                sum((prev[i] * self.a[i][j] for i in range(n)), ZERO) for j in range(n)
            )
            self._marginals[lo] = cur
        return self._marginals[lo]

    def _path(self, starts: tuple[int, ...], word: tuple[int, ...]) -> int:
        """``word``'s path product from start numerators ``starts``, over ``_denominator``."""
        prev = word[0]
        num = starts[prev]
        steps = self._steps
        for symbol in word[1:]:
            num *= steps[prev][symbol]
            prev = symbol
        return num

    def cell_value(self, lo: int, word: tuple[int, ...]) -> Fraction:
        den, starts = self._starts.get(lo) or self._start(lo)
        return Fraction(self._path(starts, word), den * self._step ** (len(word) - 1))

    def set_value(self, at: int, n: int, span: int, bits: int) -> Fraction:
        den, starts = self._start(at)
        total = sum(self._path(starts, word) for word in _words(n, span, bits))
        return Fraction(total, den * self._step ** (span - 1))


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
        # the point's word and its rank on a window, by (lo, length)
        self._points: dict[tuple[int, int], tuple[tuple[int, ...], int]] = {}

    def __repr__(self):
        return f"DiracMeasure({self.symbols}, {self.period}, {self.exceptions})"

    def point_at(self, j: int) -> int:
        for k, s in self.exceptions:
            if k == j:
                return s
        return self.period[j % len(self.period)]

    def _denominator(self, at: int, length: int) -> int:
        return 1

    def _point(self, lo: int, length: int) -> tuple[tuple[int, ...], int]:
        """The point's word on [lo, lo + length - 1] and its rank, kept per
        (lo, length)."""
        point = self._points.get((lo, length))
        if point is None:
            word = tuple(map(self.point_at, range(lo, lo + length)))
            point = self._points[(lo, length)] = (word, symbolic.word_rank(self.symbols, word))
        return point

    def cell_value(self, lo: int, word: tuple[int, ...]) -> Fraction:
        """1 when the point's word on [lo, lo + len(word) - 1] is ``word``,
        else 0."""
        point = self._points.get((lo, len(word))) or self._point(lo, len(word))
        return ONE if point[0] == tuple(word) else ZERO

    def set_value(self, at: int, n: int, span: int, bits: int) -> Fraction:
        """1 when the bit of the point's word is set, else 0."""
        return ONE if bits >> self._point(at, span)[1] & 1 else ZERO


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


class _Mix(CylinderMeasure):
    """sum_i weights[i] * parts[i], part i read offsets[i] coordinates to the
    right and dropped at weight 0: the Cesàro, convex and signed kinds, each of
    which only checks its inputs and names its weights."""

    def __init__(self, weights, parts, offsets):
        if len({part.symbols for part in parts}) != 1:
            raise RejectedInputError("parts live over different alphabets")
        self._depth = 1 + max(getattr(part, "_depth", 0) for part in parts)
        if self._depth > MIX_DEPTH_CAP:
            raise RejectedInputError(
                f"a mix nests {self._depth} levels deep (measures.MIX_DEPTH_CAP = {MIX_DEPTH_CAP})")
        self.symbols = parts[0].symbols
        # a kind that declares itself signed stays signed whatever its weights
        self.nonnegative = self.nonnegative and all(
            w >= 0 and part.nonnegative for w, part in zip(weights, parts))
        self._terms = tuple(term for term in zip(weights, parts, offsets) if term[0])
        self._at: dict[int, DecisionTable | None] = {}
        self._tables: dict[tuple[Fraction, ...], DecisionTable] = {}  # by mixed marginal

    def table(self, at: int) -> DecisionTable | None:
        # in Markov form when every part is where it is read, with one matrix;
        # rho mixes the parts' vectors, and a lone part (weight 1) lends its table
        if at not in self._at:
            tables = [part.table(at + offset) for _, part, offset in self._terms]
            table = None
            if self.nonnegative and all(tables) and all(t.a == tables[0].a for t in tables):
                rho = tuple(sum((w * t.rho[s] for (w, _, _), t in zip(self._terms, tables)), ZERO)
                            for s in range(self.symbols))
                lone = len(tables) == 1 and rho == tables[0].rho
                table = tables[0] if lone else _shared_table(self._tables, rho, tables[0].a)
            self._at[at] = table
        return self._at[at]

    def takes(self, at: int, word: tuple[int, ...], k: int) -> bool:
        table = self.table(at)
        if table is not None:
            return table.takes(word[0], k)
        # the minimum of a sum is at least the sum of the parts' minimums, and a
        # part priced 0 adds 0 at its best; a part with neither a table nor a
        # rule of its own answers no, and some part prices the node above 0
        parts = [(part, at + offset, part.table(at + offset)) for _, part, offset in self._terms]
        if not self.nonnegative or not any(t or isinstance(part, _Mix) for part, _, t in parts):
            return False
        return all(part.takes(lo, word, k) for part, lo, t in parts
                   if t or part.cell_value(lo, word))

    def _denominator(self, at: int, length: int) -> int:
        return math.lcm(*(w.denominator * part.denominator(at + offset, length)
                          for w, part, offset in self._terms))

    def cell_value(self, lo: int, word: tuple[int, ...]) -> Fraction:
        return self._weigh(lo, word, None)

    def set_value(self, at: int, n: int, span: int, bits: int) -> Fraction:
        return self._weigh(at, None, (n, span, bits))

    def _weigh(self, at: int, word, cells) -> Fraction:
        """The parts' cell values of ``word``, or set values of ``cells`` = (n,
        span, bits), each read at ``at`` plus its offset, summed by weight."""
        # a part that misses the set adds nothing; the rest add over one lcm
        num, den = 0, 1
        for w, part, offset in self._terms:
            if cells is None:
                value = part.cell_value(at + offset, word)
            else:
                value = part.set_value(at + offset, *cells)
            if value:
                q = w.denominator * value.denominator
                d = math.lcm(den, q)
                num = num * (d // den) + w.numerator * value.numerator * (d // q)
                den = d
        return Fraction(num, den)


class CesaroMeasure(_Mix):
    """Average of the first n+1 backward shift images of a base measure, which
    reads the base only on coordinates >= 0 and so stays inside its algebra."""

    def __init__(self, base: CylinderMeasure, n: int):
        if n < 1:
            raise RejectedInputError("average length must be positive")
        self.base = base
        self.n = int(n)
        super().__init__((Fraction(1, self.n + 1),) * (self.n + 1), (base,) * (self.n + 1),
                         range(self.n + 1))

    def __repr__(self):
        return f"CesaroMeasure({self.base!r}, {self.n})"


class ConvexMeasure(_Mix):
    """Convex combination of measures over the same alphabet."""

    def __init__(self, weights, parts):
        self.weights = tuple(_as_fraction(x) for x in weights)
        self.parts = tuple(parts)
        if len(self.weights) != len(self.parts) or not self.parts:
            raise RejectedInputError("weights and parts disagree")
        if any(w < 0 for w in self.weights) or sum(self.weights) != 1:
            raise RejectedInputError("weights are not convex")
        super().__init__(self.weights, self.parts, (0,) * len(self.parts))

    def __repr__(self):
        return f"ConvexMeasure({self.weights}, {self.parts})"


class SignedDiffMeasure(_Mix):
    """psi - c * phi with c >= 0; the one kind that may evaluate negative."""

    nonnegative = False  # even at c = 0, which its mix would read as nonnegative

    def __init__(self, psi: CylinderMeasure, c, phi: CylinderMeasure):
        self.psi = psi
        self.c = _as_fraction(c)
        self.phi = phi
        if self.c < 0:
            raise RejectedInputError("scale must be nonnegative")
        super().__init__((ONE, -self.c), (psi, phi), (0, 0))

    def __repr__(self):
        return f"SignedDiffMeasure({self.psi!r}, {self.c}, {self.phi!r})"


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


def _words(n: int, span: int, bits: int) -> list[tuple[int, ...]]:
    """The words of a bitset over ``n`` symbols on ``span`` coordinates."""
    return [symbolic.rank_word(n, span, rank) for rank in symbolic.bit_ranks(bits)]


def _cell_sum(mu: CylinderMeasure, n: int, key, m: int) -> Fraction:
    """Value of a canonical key's words, read m coordinates to the right: a
    single word by its cell value, several by one set value, and a tree by
    the cell values of its cylinders."""
    lo, hi, bits = key
    if not isinstance(bits, int):  # a wide set: price its cylinders
        return exact_sum(mu.cell_value(lo - m, word) for word in symbolic.tree_cells(n, key))
    at, span = lo - m, hi - lo + 1
    if bits & (bits - 1):
        return mu.set_value(at, n, span, bits)
    return mu.cell_value(at, symbolic.rank_word(n, span, bits.bit_length() - 1))


def eval0(mu: CylinderMeasure, s: symbolic.WindowSet) -> Fraction:
    """Value of the base set function on a window set over coordinates >= 0:
    the grade-0 member of the shifted family."""
    if mu.symbols != s.n:
        raise RejectedInputError("set and measure alphabets disagree")
    key = s.canonical_key()
    if len(key) > 1 and key[0] < 0:
        raise NegativeCoordinateError(f"set depends on coordinate {key[0]} below the base algebra")
    return eval_shifted(mu, 0, s)


def eval_shifted(mu: CylinderMeasure, m: int, s: symbolic.WindowSet) -> Fraction:
    """Value of the grade-m member of the shifted family, phi . S^m.

    Requires m <= 0 and the set determined on coordinates >= m.  The set's
    canonical words are priced at their coordinates minus m, never building
    the shifted set; the empty set gets 0 and the full space the total mass.
    """
    if m > 0:
        raise RejectedInputError("grades are nonpositive")
    key = s.canonical_key()
    if len(key) > 1:  # neither the empty set nor the full space
        if key[0] < m:
            raise GradingViolationError(f"set depends on coordinate {key[0]} below grade {m}")
        # the words are read at their left edge moved m coordinates right, and
        # that coordinate must stay inside the bound
        symbolic._check_coordinate(key[0] - m)
    if mu.symbols != s.n:
        raise RejectedInputError("set and measure alphabets disagree")
    if len(key) == 1:  # the full space costs the total mass
        return exact_sum([mu.cell_value(0, (b,)) for b in range(s.n)]) if key == ("full",) else ZERO
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
    if n < 1:
        raise RejectedInputError("a chain needs at least one state")
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
