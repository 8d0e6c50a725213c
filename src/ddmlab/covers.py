"""Graded covers of window sets and their exact costs.

A cover is a finite family of entries (m, A) with nonpositive index m.  The
entry at index m must be determined on coordinates >= m + base_shift, and a
cover of Q must have union containing Q.  Its cost under a measure phi is
the sum of the shifted values phi_(m + cost base)(A).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_

from . import measures, symbolic
from .errors import GradingViolationError, RejectedInputError


@dataclass(frozen=True)
class Cover:
    """Finite indexed family of window sets; empty entries are dropped.

    ``base_shift`` fixes the grading floor of each entry (coordinate
    m + base_shift).  ``cost_base`` lets pricing use a different shift than
    grading, which the base-graded variant of the optimizer needs; it
    defaults to ``base_shift``.
    """

    entries: tuple[tuple[int, symbolic.WindowSet], ...]
    base_shift: int = 0
    cost_base: int | None = None

    def __post_init__(self):
        if self.base_shift > 0:
            raise RejectedInputError("base shift must be nonpositive")
        if self.cost_base is not None and self.cost_base > 0:
            raise RejectedInputError("cost base must be nonpositive")
        kept = []
        for m, a in self.entries:
            if m > 0:
                raise RejectedInputError("cover indices are nonpositive")
            if not a.is_empty:
                kept.append((int(m), a))
        object.__setattr__(self, "entries", tuple(kept))

    @property
    def pricing_base(self) -> int:
        return self.base_shift if self.cost_base is None else self.cost_base

    def union(self, n: int) -> symbolic.WindowSet:
        """The union of the entries; an empty cover has no alphabet of its
        own, so ``n`` gives it."""
        return symbolic.union_all(n, (a for _, a in self.entries))


@dataclass(frozen=True)
class TruncationConfig:
    """Finite surrogate for the untruncated cover class.

    depth D keeps indices m in {-D..0}; width W extends the working window
    W coordinates to the right of the query's window, enlarging the class
    of admissible entries (the value is nonincreasing in both D and W).
    base_shift i grades entry m at coordinate m + i.  window_lo / window_hi
    pin the working window absolutely so separate queries share one cover
    class; both default to bounds derived from the query set.
    """

    depth: int
    width: int = 0
    base_shift: int = 0
    window_lo: int | None = None
    window_hi: int | None = None

    def __post_init__(self):
        if self.depth < 0 or self.width < 0:
            raise RejectedInputError("depth and width must be nonnegative")
        if self.base_shift > 0:
            raise RejectedInputError("base shift must be nonpositive")


@dataclass(frozen=True)
class ValueCertificate:
    """An exact optimum together with the witness that attains it."""

    value: Fraction
    witness: Cover
    config: TruncationConfig
    vector: tuple[Fraction, ...] | None = None


def is_valid_cover(q: symbolic.WindowSet, c: Cover) -> bool:
    """Grading holds for every entry and the union of entries contains q,
    read off the bits of q and the entries on their one hull."""
    for m, a in c.entries:
        if a.min_coordinate() < m + c.base_shift:
            return False
    if q.is_empty:
        return True
    if not c.entries:
        return False
    _, bits = symbolic._on_hull(q.n, [q] + [a for _, a in c.entries])
    if bits is None:  # every set degenerate, or a tree-form hull
        return symbolic.is_subset(q, c.union(q.n))
    return not bits[0] & ~reduce(or_, bits[1:])


def cover_cost(c: Cover, phi: measures.CylinderMeasure) -> Fraction:
    """Sum of the shifted measure values over the entries."""
    base = c.pricing_base
    return measures.exact_sum(measures.eval_shifted(phi, m + base, a) for m, a in c.entries)


def disjointify(c: Cover) -> Cover:
    """Make the entries pairwise disjoint by subtracting all higher-indexed
    entries, preserving the union.  Cost never increases for nonnegative
    measures.  Entries sharing an index are merged first."""
    merged: dict[int, symbolic.WindowSet] = {}
    n = None
    for m, a in c.entries:
        n = a.n
        merged[m] = symbolic.union(merged[m], a) if m in merged else a
    if n is None:
        return c
    out = []
    seen = symbolic.WindowSet.empty(n)
    for m in sorted(merged, reverse=True):
        b = symbolic.difference(merged[m], seen)
        seen = symbolic.union(seen, merged[m])
        if not b.is_empty:
            if b.min_coordinate() < m + c.base_shift:
                raise GradingViolationError(
                    f"entry at index {m} lost its grading after disjointification"
                )
            out.append((m, b))
    return Cover(tuple(out), c.base_shift, c.cost_base)
