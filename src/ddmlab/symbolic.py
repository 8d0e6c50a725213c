"""Exact finite-window subsets of the two-sided full shift on N symbols.

A point of the space is a bi-infinite sequence over symbols {0..N-1}.  Only
sets determined by finitely many coordinates are represented: a WindowSet
fixes a coordinate window [lo, hi] and a bitset of words over that window,
and denotes the set of all sequences whose restriction to the window is one
of the words.  The full space and the empty set carry a degenerate
windowless encoding so canonical equality is cheap.

Word order: words over [lo, hi] are ranked lexicographically with
coordinate lo as the most significant digit,

    rank(word) = sum(word[j] * N**(hi - lo - j) for j in range(span))

and bit ``rank`` of the bitset marks membership of that word.  Test
fixtures rely on this exact layout.

The one-step left shift maps sequence sigma to tau with tau[j] = sigma[j+1],
so the i-th shift power carries a set determined on [lo, hi] to one
determined on [lo - i, hi - i].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import BitsetCapError, RejectedInputError

MAX_ABS_COORDINATE = 64
MAX_CELLS = 1 << 22


def _check_coordinate(c: int) -> None:
    if abs(c) > MAX_ABS_COORDINATE:
        raise RejectedInputError(
            f"coordinate {c} outside the configured bound +-{MAX_ABS_COORDINATE}"
        )


@dataclass(frozen=True)
class Alphabet:
    """Symbol set {0..size-1}."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise RejectedInputError("alphabet needs at least one symbol")


@dataclass(frozen=True, order=True)
class Window:
    """Closed coordinate range [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise RejectedInputError(f"window [{self.lo},{self.hi}] is empty")
        _check_coordinate(self.lo)
        _check_coordinate(self.hi)

    @property
    def span(self) -> int:
        return self.hi - self.lo + 1

    def contains(self, other: "Window") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


def _cell_count(n: int, window: Window) -> int:
    count = n ** window.span
    if count > MAX_CELLS:
        raise BitsetCapError(
            f"window span {window.span} over {n} symbols exceeds the bitset cap"
        )
    return count


def word_rank(n: int, word: tuple[int, ...]) -> int:
    r = 0
    for symbol in word:
        if not 0 <= symbol < n:
            raise RejectedInputError(f"symbol {symbol} outside alphabet of size {n}")
        r = r * n + symbol
    return r


def rank_word(n: int, span: int, rank: int) -> tuple[int, ...]:
    out = []
    for _ in range(span):
        out.append(rank % n)
        rank //= n
    return tuple(reversed(out))


class WindowSet:
    """A subset of the shift space determined on a finite window.

    Instances keep the window they were built on; two instances denoting the
    same subset compare equal (and hash equal) through their canonical form,
    in which no end coordinate is redundant and the full/empty sets have the
    degenerate windowless encoding.  Immutable.
    """

    __slots__ = ("n", "window", "bits", "_full", "_key")

    def __init__(self, n: int, window: Window | None, bits: int, full: bool = False):
        if n < 1:
            raise RejectedInputError("alphabet needs at least one symbol")
        if window is None:
            if bits != 0:
                raise RejectedInputError("degenerate set carries no word bits")
        else:
            count = _cell_count(n, window)
            if bits < 0 or bits >> count:
                raise RejectedInputError("bitset does not fit the window")
            full = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "_full", full)
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("WindowSet is immutable")

    # -- construction -------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> "WindowSet":
        return cls(n, None, 0, full=False)

    @classmethod
    def full_space(cls, n: int) -> "WindowSet":
        return cls(n, None, 0, full=True)

    @classmethod
    def cylinder(cls, n: int, start: int, word: Iterable[int]) -> "WindowSet":
        word = tuple(word)
        if not word:
            raise RejectedInputError("cylinder needs at least one symbol")
        window = Window(start, start + len(word) - 1)
        _cell_count(n, window)
        return cls(n, window, 1 << word_rank(n, word))

    @classmethod
    def from_words(cls, n: int, window: Window, words: Iterable[tuple[int, ...]]) -> "WindowSet":
        bits = 0
        for word in words:
            word = tuple(word)
            if len(word) != window.span:
                raise RejectedInputError("word length does not match the window span")
            bits |= 1 << word_rank(n, word)
        return cls(n, window, bits)

    # -- canonical form ------------------------------------------------

    def canonical_key(self):
        key = self._key
        if key is None:
            key = _canonical_key(self.n, self.window, self.bits, self._full)
            object.__setattr__(self, "_key", key)
        return key

    def canonicalize(self) -> "WindowSet":
        key = self.canonical_key()
        if key == ("empty",):
            return WindowSet.empty(self.n)
        if key == ("full",):
            return WindowSet.full_space(self.n)
        lo, hi, bits = key
        return WindowSet(self.n, Window(lo, hi), bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WindowSet):
            return NotImplemented
        return self.n == other.n and self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash((self.n, self.canonical_key()))

    # -- predicates ----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.canonical_key() == ("empty",)

    @property
    def is_full(self) -> bool:
        return self.canonical_key() == ("full",)

    @property
    def is_degenerate(self) -> bool:
        return self.canonical_key() in (("empty",), ("full",))

    def min_coordinate(self) -> int | float:
        """Smallest coordinate the set genuinely depends on; +inf for the
        empty and full sets."""
        key = self.canonical_key()
        if key in (("empty",), ("full",)):
            return math.inf
        return key[0]

    def max_coordinate(self) -> int | float:
        key = self.canonical_key()
        if key in (("empty",), ("full",)):
            return -math.inf
        return key[1]

    # -- views ----------------------------------------------------------

    def bits_on(self, window: Window) -> int:
        """Raw membership bitset of this set materialized on ``window``.

        ``window`` must contain the canonical window.
        """
        key = self.canonical_key()
        count = _cell_count(self.n, window)
        if key == ("empty",):
            return 0
        if key == ("full",):
            return (1 << count) - 1
        lo, hi, bits = key
        if not window.contains(Window(lo, hi)):
            raise RejectedInputError("target window does not contain the set's window")
        n = self.n
        # extend on the right first: one new least-significant digit at a time
        for _ in range(window.hi - hi):
            run = (1 << n) - 1
            new = 0
            tmp = bits
            while tmp:
                low = tmp & -tmp
                r = low.bit_length() - 1
                new |= run << (r * n)
                tmp ^= low
            bits = new
            hi += 1
        # then on the left: replicate for each new most-significant digit
        size = n ** (hi - lo + 1)
        for _ in range(lo - window.lo):
            bits = sum(bits << (a * size) for a in range(n))
            size *= n
            lo -= 1
        return bits

    def ranks_on(self, window: Window) -> Iterator[int]:
        """Yield the ranks of the member words materialized on ``window``,
        ascending."""
        bits = self.bits_on(window)
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def words_on(self, window: Window) -> Iterator[tuple[int, ...]]:
        """Yield the member words materialized on ``window``, rank order."""
        span = window.span
        for r in self.ranks_on(window):
            yield rank_word(self.n, span, r)

    def iter_words(self) -> Iterator[tuple[int, ...]]:
        """Member words on the canonical window (empty for degenerate sets)."""
        key = self.canonical_key()
        if key in (("empty",), ("full",)):
            return iter(())
        lo, hi, _ = key
        return self.words_on(Window(lo, hi))

    def literal(self) -> str:
        """Textual fixture form: full, empty, cyl(...), or union(cyl...)."""
        key = self.canonical_key()
        if key == ("empty",):
            return "empty"
        if key == ("full",):
            return "full"
        lo, _, _ = key
        parts = [
            "cyl(%d,[%s])" % (lo, ",".join(str(s) for s in w)) for w in self.iter_words()
        ]
        if len(parts) == 1:
            return parts[0]
        return "union(%s)" % ", ".join(parts)

    def __repr__(self) -> str:
        return f"WindowSet({self.n}, {self.literal()})"


def _canonical_key(n: int, window: Window | None, bits: int, full: bool):
    if window is None:
        return ("full",) if full else ("empty",)
    span = window.span
    total = n ** span
    if bits == 0:
        return ("empty",)
    if bits == (1 << total) - 1:
        return ("full",)
    lo, hi = window.lo, window.hi
    if not bits & (bits - 1):
        # one word (n > 1 here: over one symbol every set is empty or full):
        # each end coordinate splits it from a nonmember sibling word
        return (lo, hi, bits)
    changed = True
    while changed and hi > lo:
        changed = False
        # lo digit redundant iff the n most-significant blocks coincide
        sub = n ** (hi - lo)
        mask = (1 << sub) - 1
        first = bits & mask
        if all(((bits >> (a * sub)) & mask) == first for a in range(1, n)):
            bits = first
            lo += 1
            changed = True
            continue
        # hi digit redundant iff every n-run of ranks is all-or-none
        runs = n ** (hi - lo)
        run_mask = (1 << n) - 1
        compressed = 0
        ok = True
        for r in range(runs):
            run = (bits >> (r * n)) & run_mask
            if run == run_mask:
                compressed |= 1 << r
            elif run != 0:
                ok = False
                break
        if ok:
            bits = compressed
            hi -= 1
            changed = True
    return (lo, hi, bits)


# -- operations --------------------------------------------------------


def refine(s: WindowSet, target: Window) -> WindowSet:
    """Re-express ``s`` on the containing window ``target``.

    The result denotes the same subset of the shift space; each target word
    is a member exactly when its restriction to the original window is.
    """
    if s.window is not None and not target.contains(s.window):
        raise RejectedInputError("refine target must contain the current window")
    if s.window is None and not s.is_empty and not s.is_full:  # pragma: no cover
        raise RejectedInputError("degenerate set in inconsistent state")
    return WindowSet(s.n, target, s.bits_on(target))


def set_algebra(a: WindowSet, b: WindowSet, op: str) -> WindowSet:
    """Exact Boolean combination of two window sets, canonicalized.

    ``op`` is one of ``union``, ``intersection``, ``difference``.
    """
    if a.n != b.n:
        raise RejectedInputError("operands live over different alphabets")
    ka, kb = a.canonical_key(), b.canonical_key()
    degens = (("empty",), ("full",))
    if ka in degens and kb in degens:
        window = None
    elif ka in degens:
        window = Window(kb[0], kb[1])
    elif kb in degens:
        window = Window(ka[0], ka[1])
    else:
        window = Window(min(ka[0], kb[0]), max(ka[1], kb[1]))
    if window is None:
        fa, fb = ka == ("full",), kb == ("full",)
        if op == "union":
            res = fa or fb
        elif op == "intersection":
            res = fa and fb
        elif op == "difference":
            res = fa and not fb
        else:
            raise RejectedInputError(f"unknown set operation {op!r}")
        return WindowSet.full_space(a.n) if res else WindowSet.empty(a.n)
    ba, bb = a.bits_on(window), b.bits_on(window)
    if op == "union":
        bits = ba | bb
    elif op == "intersection":
        bits = ba & bb
    elif op == "difference":
        bits = ba & ~bb
    else:
        raise RejectedInputError(f"unknown set operation {op!r}")
    return WindowSet(a.n, window, bits).canonicalize()


def union(a: WindowSet, b: WindowSet) -> WindowSet:
    return set_algebra(a, b, "union")


def intersection(a: WindowSet, b: WindowSet) -> WindowSet:
    return set_algebra(a, b, "intersection")


def difference(a: WindowSet, b: WindowSet) -> WindowSet:
    return set_algebra(a, b, "difference")


def complement(s: WindowSet) -> WindowSet:
    return set_algebra(WindowSet.full_space(s.n), s, "difference")


def shift(s: WindowSet, i: int) -> WindowSet:
    """Apply the i-th power of the left shift to the set.

    A set determined on [lo, hi] becomes one determined on [lo-i, hi-i];
    the word table is unchanged.
    """
    if s.window is None or i == 0:
        return s
    window = Window(s.window.lo - i, s.window.hi - i)
    return WindowSet(s.n, window, s.bits)


def project_min(s: WindowSet, g: int) -> WindowSet:
    """Smallest set determined on coordinates >= g that contains ``s``.

    Forgets every coordinate below g by existential projection.
    """
    key = s.canonical_key()
    if key in (("empty",), ("full",)):
        return s
    lo, hi, bits = key
    if g <= lo:
        return s.canonicalize()
    if g > hi:
        return WindowSet.full_space(s.n)
    n = s.n
    span = hi - lo + 1
    for _ in range(g - lo):
        sub = n ** (span - 1)
        mask = (1 << sub) - 1
        acc = 0
        for a in range(n):
            acc |= (bits >> (a * sub)) & mask
        bits = acc
        span -= 1
    return WindowSet(n, Window(g, hi), bits).canonicalize()


def meets(a: WindowSet, b: WindowSet) -> bool:
    return not set_algebra(a, b, "intersection").is_empty


def is_subset(a: WindowSet, b: WindowSet) -> bool:
    return set_algebra(a, b, "difference").is_empty


def union_all(n: int, sets: Iterable[WindowSet]) -> WindowSet:
    acc = WindowSet.empty(n)
    for s in sets:
        acc = set_algebra(acc, s, "union")
    return acc


def all_window_sets(n: int, window: Window) -> Iterator[WindowSet]:
    """Every subset determined on ``window`` (2**(n**span) sets, keep small)."""
    count = _cell_count(n, window)
    for bits in range(1 << count):
        yield WindowSet(n, window, bits).canonicalize()
