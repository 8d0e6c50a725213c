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

A set whose canonical window holds more than TREE_CELLS words is kept as a
tree instead of a bitset (a bitset of a long word grows as N**span), read
from the window's left
edge rightwards: a node reads one coordinate and has one child per symbol,
and a leaf holds all or none of the words that begin with the path to it.
Equal subtrees are one shared object, so a deep cylinder costs one node
per coordinate and equality is identity.  A wide set supports the set
algebra, canonical form, shift, projection and pricing by its cylinders;
listing its words or its bitset stays under the MAX_CELLS cap.
"""

from __future__ import annotations

import math
import operator
import weakref
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

from .errors import BitsetCapError, RejectedInputError

MAX_ABS_COORDINATE = 64
MAX_CELLS = 1 << 22  # the bitset cap: most words a set lists or a bitset holds
TREE_CELLS = 1 << 16  # a canonical window of more words keeps its set as a tree


def _check_coordinate(c: int) -> None:
    if abs(c) > MAX_ABS_COORDINATE:
        raise RejectedInputError(
            f"coordinate {c} outside the configured bound +-{MAX_ABS_COORDINATE}"
        )


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


# one shared Window per (lo, hi), built and checked once; only valid windows
# are stored, at most 8,385 under the +-64 bound
_WINDOWS: dict[tuple[int, int], Window] = {}


def _window(lo: int, hi: int) -> Window:
    window = _WINDOWS.get((lo, hi))
    if window is None:
        window = _WINDOWS[(lo, hi)] = Window(lo, hi)
    return window


def _cell_count(n: int, window: Window) -> int:
    count = n ** window.span
    if count > MAX_CELLS:
        raise BitsetCapError(
            f"window span {window.span} over {n} symbols exceeds the bitset cap"
            f" (symbolic.MAX_CELLS = {MAX_CELLS})"
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
    out = [0] * span
    for j in range(span - 1, -1, -1):
        rank, out[j] = divmod(rank, n)
    return tuple(out)


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
        """The set of one word on [start, start + len(word) - 1]."""
        word = tuple(word)
        return cls.ranked_cylinder(n, start, len(word), word_rank(n, word))

    @classmethod
    def ranked_cylinder(cls, n: int, start: int, span: int, rank: int) -> "WindowSet":
        """The set of the word of ``rank`` on [start, start + span - 1], born
        with its canonical key: one word has no redundant end coordinate,
        and over one symbol it is the full space."""
        if span < 1:
            raise RejectedInputError("cylinder needs at least one symbol")
        window = _window(start, start + span - 1)
        if not 0 <= rank < n ** span:
            raise RejectedInputError(f"rank {rank} outside the words of a {span}-coordinate window")
        if n ** span > TREE_CELLS:
            s = _TreeSet(n, window, _ranks_tree(n, [rank], span))
            key = (start, window.hi, s.bits)
        else:
            bits = 1 << rank
            s = cls(n, window, bits)
            key = (start, window.hi, bits) if n > 1 else ("full",)
        object.__setattr__(s, "_key", key)
        return s

    @classmethod
    def from_words(cls, n: int, window: Window, words: Iterable[tuple[int, ...]]) -> "WindowSet":
        words = [tuple(word) for word in words]
        if any(len(word) != window.span for word in words):
            raise RejectedInputError("word length does not match the window span")
        return cls.from_ranks(n, window, [word_rank(n, word) for word in words])

    @classmethod
    def from_ranks(cls, n: int, window: Window, ranks: Iterable[int]) -> "WindowSet":
        """The set of the words of ``ranks`` on ``window``."""
        ranks, size = set(ranks), n ** window.span
        if ranks and (min(ranks) < 0 or max(ranks) >= size):
            raise RejectedInputError("a rank lies outside the words of the window")
        if size > TREE_CELLS:
            return _TreeSet(n, window, _ranks_tree(n, list(ranks), window.span))
        bits = 0
        for r in ranks:
            bits |= 1 << r
        return cls(n, window, bits)

    # -- canonical form ------------------------------------------------

    def canonical_key(self):
        key = self._key
        if key is None:
            key = _canonical_key(self.n, self.window, self.bits, self._full)
            object.__setattr__(self, "_key", key)
        return key

    def canonicalize(self) -> "WindowSet":
        """The set on its canonical window: the set itself when its window
        and bits already are the key's."""
        window = self.window
        if window is None:  # the degenerate encoding of the empty or full set
            return self
        key = self.canonical_key()
        if key == ("empty",):
            return WindowSet.empty(self.n)
        if key == ("full",):
            return WindowSet.full_space(self.n)
        lo, hi, bits = key
        if bits is self.bits and window.lo == lo and window.hi == hi:
            return self
        if isinstance(bits, _Node):
            return _TreeSet(self.n, _window(lo, hi), bits)
        return WindowSet(self.n, _window(lo, hi), bits)

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
        if not (window.lo <= lo and hi <= window.hi):
            raise RejectedInputError("target window does not contain the set's window")
        n = self.n
        if isinstance(bits, _Node):
            bits = _tree_bits(n, bits, hi - lo + 1, {})
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
        lo, hi, bits = key
        if isinstance(bits, _Node):
            span = hi - lo + 1
            cells = tree_cells(self.n, key, lambda word: self.n ** (span - len(word)))
            return (
                word + rest
                for word in cells
                for rest in product(range(self.n), repeat=span - len(word))
            )
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
    # counting the members builds no bitset as wide as the window
    members = bits.bit_count()
    if members == 0:
        return ("empty",)
    cells = n ** window.span
    if members == cells:
        return ("full",)
    lo, hi = window.lo, window.hi
    # one word (n > 1 here: over one symbol every set is empty or full) has
    # no redundant end: each end coordinate splits it from a sibling word
    changed = members > 1
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
        trimmed = _without_last_digit(n, bits, n * sub)
        if trimmed is not None:
            bits = trimmed
            hi -= 1
            changed = True
    if cells > TREE_CELLS and n ** (hi - lo + 1) > TREE_CELLS:
        return (lo, hi, _bits_tree(n, bits, hi - lo + 1, {}))
    return (lo, hi, bits)


def _without_last_digit(n: int, bits: int, size: int) -> int | None:
    """The bitset of ``size`` ranks with its last digit dropped, when that
    digit is redundant, else None.  The digit is redundant iff every n-run
    of ranks is all-or-none, that is iff the runs' lowest bits, each spread
    over its run, give the bitset back; one bit per run is then kept, every
    n-th digit of the padded binary form."""
    lowest = ((1 << size) - 1) // ((1 << n) - 1)  # the lowest bit of every run
    firsts = bits & lowest
    if (firsts << n) - firsts != bits:
        return None
    return int(format(firsts, f"0{size}b")[n - 1 :: n], 2)


# -- wide sets ---------------------------------------------------------


class _Node:
    """A node of a wide set's tree: the words on the coordinates at and right
    of the one it reads, with one child per symbol there.  The two leaves,
    which hold all words or none, have no children."""

    __slots__ = ("kids", "height", "__weakref__")

    def __init__(self, kids: tuple | None, height: int):
        self.kids = kids
        self.height = height  # coordinates read on the longest path


_EMPTY = _Node(None, 0)
_FULL = _Node(None, 0)
# live nodes by their children, one table for the process, so that equal
# subtrees built anywhere are one object; a node leaves it with its last set
_NODES: "weakref.WeakValueDictionary[tuple, _Node]" = weakref.WeakValueDictionary()


def _node(kids: tuple) -> _Node:
    first = kids[0]
    if first.kids is None and all(kid is first for kid in kids):
        return first
    node = _NODES.get(kids)
    if node is None:
        node = _NODES[kids] = _Node(kids, 1 + max(kid.height for kid in kids))
    return node


class _TreeSet(WindowSet):
    """A window set too wide for a bitset: ``bits`` holds the tree of its
    words, read from the window's left edge."""

    __slots__ = ()

    def __init__(self, n: int, window: Window, tree: _Node):
        # built as a windowless set, which the bitset cap does not bind,
        # then given its window and tree
        super().__init__(n, None, 0)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "bits", tree)

    def canonical_key(self):
        key = self._key
        if key is None:
            key = _tree_key(self.n, self.window.lo, self.bits)
            object.__setattr__(self, "_key", key)
        return key


def _ranks_tree(n: int, ranks: list[int], span: int) -> _Node:
    """Tree of distinct member ranks on a window of ``span`` coordinates."""
    if not ranks:
        return _EMPTY
    if len(ranks) == n ** span:
        return _FULL
    sub = n ** (span - 1)
    groups: list[list[int]] = [[] for _ in range(n)]
    for r in ranks:
        groups[r // sub].append(r % sub)
    return _node(tuple(_ranks_tree(n, group, span - 1) for group in groups))


def _bits_tree(n: int, bits: int, span: int, memo: dict) -> _Node:
    """Tree of a bitset on a window of ``span`` coordinates; equal blocks,
    looked up in ``memo``, are split once."""
    size = n ** span
    if bits == 0:
        return _EMPTY
    if bits == (1 << size) - 1:
        return _FULL
    node = memo.get((span, bits))
    if node is None:
        sub = size // n
        mask = (1 << sub) - 1
        node = memo[(span, bits)] = _node(
            tuple(_bits_tree(n, (bits >> (a * sub)) & mask, span - 1, memo) for a in range(n))
        )
    return node


def _tree_bits(n: int, node: _Node, span: int, memo: dict) -> int:
    """Bitset of a tree on a window of ``span`` coordinates."""
    if node.kids is None:
        return (1 << n ** span) - 1 if node is _FULL else 0
    bits = memo.get((node, span))
    if bits is None:
        sub = n ** (span - 1)
        bits = memo[(node, span)] = sum(
            _tree_bits(n, kid, span - 1, memo) << (a * sub) for a, kid in enumerate(node.kids)
        )
    return bits


def _tree_key(n: int, lo: int, node: _Node):
    """Canonical key of the tree read from coordinate ``lo``: the left edge
    moves right while no child differs, the right edge is the end of the
    longest path, and a window of at most TREE_CELLS words gets its bitset
    back."""
    while node.kids is not None and all(kid is node.kids[0] for kid in node.kids):
        node = node.kids[0]
        lo += 1
    if node is _EMPTY:
        return ("empty",)
    if node is _FULL:
        return ("full",)
    if n ** node.height > TREE_CELLS:
        return (lo, lo + node.height - 1, node)
    return (lo, lo + node.height - 1, _tree_bits(n, node, node.height, {}))


def tree_cells(n: int, key, weight=lambda word: 1) -> list[tuple[int, ...]]:
    """The words, in rank order, of the cylinders at the left edge of a wide
    canonical key that make it up, one per full leaf.  Cylinders whose
    ``weight`` adds up past MAX_CELLS hit the cap."""
    node = key[2]
    cells = []
    total = 0
    stack = [(node, ())]
    while stack:
        node, word = stack.pop()
        if node is _FULL:
            total += weight(word)
            if total > MAX_CELLS:
                raise BitsetCapError(
                    f"a set over {n} symbols lists more cells than the bitset cap"
                    f" (symbolic.MAX_CELLS = {MAX_CELLS})"
                )
            cells.append(word)
        elif node.kids is not None:
            stack.extend((kid, word + (a,)) for a, kid in reversed(list(enumerate(node.kids))))
    return cells


def _tree_on(n: int, key, lo: int) -> _Node:
    """Tree of a canonical key read from coordinate ``lo``, at or left of
    its window."""
    if key in (("empty",), ("full",)):
        return _FULL if key == ("full",) else _EMPTY
    left, hi, bits = key
    if not isinstance(bits, _Node):
        bits = _bits_tree(n, bits, hi - left + 1, {})
    for _ in range(left - lo):
        bits = _node((bits,) * n)
    return bits


# the set operations, on bitsets and on 0/1 flags for degenerate sets and a
# tree's leaves (flags are ints: ``~`` on a bool is deprecated)
_OPS = {
    "union": operator.or_,
    "intersection": operator.and_,
    "difference": lambda x, y: x & ~y,
}


def _apply(op, u: _Node, v: _Node, memo: dict) -> _Node:
    """Tree of the Boolean combination of two trees read from one coordinate."""
    if u.kids is None and v.kids is None:
        return _FULL if op(int(u is _FULL), int(v is _FULL)) else _EMPTY
    node = memo.get((u, v))
    if node is None:
        n = len(u.kids or v.kids)
        pairs = zip(u.kids or (u,) * n, v.kids or (v,) * n)
        node = memo[(u, v)] = _node(tuple(_apply(op, x, y, memo) for x, y in pairs))
    return node


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
    combine = _OPS.get(op)
    if combine is None:
        raise RejectedInputError(f"unknown set operation {op!r}")
    ka, kb = a.canonical_key(), b.canonical_key()
    degens = (("empty",), ("full",))
    if ka in degens and kb in degens:
        window = None
    elif ka in degens:
        window = _window(kb[0], kb[1])
    elif kb in degens:
        window = _window(ka[0], ka[1])
    else:
        window = _window(min(ka[0], kb[0]), max(ka[1], kb[1]))
    if window is None:
        if combine(int(ka == ("full",)), int(kb == ("full",))):
            return WindowSet.full_space(a.n)
        return WindowSet.empty(a.n)
    if a.n ** window.span > TREE_CELLS:
        u, v = _tree_on(a.n, ka, window.lo), _tree_on(a.n, kb, window.lo)
        return _TreeSet(a.n, window, _apply(combine, u, v, {})).canonicalize()
    bits = combine(a.bits_on(window), b.bits_on(window))
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
    return type(s)(s.n, window, s.bits)


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
    if isinstance(bits, _Node):
        memo: dict = {}
        for _ in range(g - lo):  # the union of the children forgets a coordinate
            if bits.kids is not None:
                kids = bits.kids
                bits = kids[0]
                for kid in kids[1:]:
                    bits = _apply(_OPS["union"], bits, kid, memo)
        return _TreeSet(n, Window(g, hi), bits).canonicalize()
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
    """Canonical union of the sets; the empty set when there are none."""
    acc = None
    for s in sets:
        if acc is not None:
            acc = set_algebra(acc, s, "union")
        elif s.n != n:
            raise RejectedInputError("operands live over different alphabets")
        else:
            acc = s.canonicalize()
    return WindowSet.empty(n) if acc is None else acc


def all_window_sets(n: int, window: Window) -> Iterator[WindowSet]:
    """Every subset determined on ``window`` (2**(n**span) sets, keep small)."""
    count = _cell_count(n, window)
    for bits in range(1 << count):
        yield WindowSet(n, window, bits).canonicalize()
