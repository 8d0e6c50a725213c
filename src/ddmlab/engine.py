"""Exact truncated cover optima via a refinement-tree dynamic program.

The truncated problem: cover a query set Q by entries A_m, m in {-D..0},
where the entry at m is a window set determined on coordinates
>= floor(m) and within the working window, and minimize the sum of the
shifted measure values.  Two gradings are supported:

* shifted grading: floor(m) = m + i and pricing at m + i (the default);
* base grading:    floor(m) = m     and pricing at m + i.

By finite additivity every cover decomposes into single-word cylinders of
the working window, and restricting to disjoint witnesses loses nothing, so
the optimum is computed exactly by a take-or-split recursion over word
classes: a node at level m is a word over [floor(m), whi] met by Q; it is
either charged whole at level m or split on coordinate floor(m) - 1 into
its children at level m - 1, while m > -D.

The frame is lazy.  It lists the query cells only on [min(qlo, floor0), whi],
where qlo is the query's canonical left edge: a node graded at or left of
qlo has a *full* subtree, since every left extension of its word lies in Q,
so its children are the n symbols, generated without any cell list.  A
node's cylinder is built only when the walk reaches it, and a long one is a
tree-form window set (module ``symbolic``), so the bitset cap bites on the
cell listing, not on the depth.  Every node of a tree is
priced at one coordinate, which lets a full subtree be bounded: when every
cost component is either 0 at the node or answers
:meth:`measures.CylinderMeasure.takes` true, taking the node attains the
subtree's optimum and its children are not expanded.  A node of any
kind, full or partial, that costs 0 in every component is taken as well,
since 0 bounds its subtree below.  Take wins ties under either keep rule,
so the bound changes no value, witness or front.  Components that may be
negative are never bounded.

One walk of this tree serves every optimizer, through :class:`RootFront`.
Each node returns a front of (cost vector, trace) options, one cost
component per measure.  One component, the scalar problem, keeps the first
cheapest option; more, the budgeted problems (module ``budgeted``), keep
the Pareto antichain left by :func:`prune`.  Costs are integer numerators,
one denominator per component, up to the root front; only a certificate's
re-price makes rationals.  Solves may share work through a memo their
caller owns, keyed by all each entry depends on (:class:`_Walk`,
:class:`RootFront`): the queries of a phi or psi handle, the shifts of a
psi grid, the levels of a psi chain (modules ``verify`` and ``budgeted``);
the engine keeps no cache of its own.  Every optimum's witness is
re-validated and re-priced on each component through the window-set path,
and a mismatch raises :class:`CertificateError`; a trace certified before
reads its checked witness back.  An independent brute-force enumerator
over grade labelings of the finest classes is the oracle for both problems.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import add, itemgetter, lt

from . import covers, measures, symbolic
from .covers import Cover, TruncationConfig, ValueCertificate
from .errors import (
    BudgetExceededError, CertificateError, InfeasibleError, RejectedInputError, TooLargeError
)

# resource caps, read when a solve runs; past each one a solve raises
NODE_CAP = 500_000  # tree nodes a walk visits
FRONT_CAP = 20_000  # vectors a Pareto front keeps
CLASS_CAP = 16  # finest classes the labeling oracle enumerates
LABELING_CAP = 400_000  # grade labelings the labeling oracle enumerates
POOL_CAP = 32  # grade cylinders the overlapping-cover oracle searches

ZERO = Fraction(0)


@dataclass(frozen=True)
class Frame:
    """Resolved geometry of one truncated problem."""

    n: int
    depth: int
    base_shift: int
    floor0: int  # grading floor of level 0
    qlo: int  # query's canonical left edge (floor0 for the full space)
    wlo: int  # left edge of the working window, at or left of every floor
    whi: int  # right edge of the working window and of every entry window
    cells: tuple[int, ...]  # ranks of the query cells on [min(qlo, floor0), whi], ascending

    def floor(self, m: int) -> int:
        return self.floor0 + m

    def cost_shift(self, m: int) -> int:
        return self.base_shift + m


def _edges(q: symbolic.WindowSet, floor0: int) -> tuple[int, int]:
    """The query's canonical window, read as [floor0, floor0] for a
    degenerate set."""
    key = q.canonical_key()
    if key in (("full",), ("empty",)):
        return floor0, floor0
    return key[0], key[1]


def _window(cfg: TruncationConfig, floor0: int, qlo: int, qhi: int) -> tuple[int, int]:
    """Working window (wlo, whi) of a query with edges (qlo, qhi) whose
    level 0 is graded at ``floor0``: the config's pinned edges, else the
    hull of the query and the deepest floor, widened ``cfg.width``
    coordinates to the right."""
    floor_d = floor0 - cfg.depth
    wlo = min(qlo, floor_d) if cfg.window_lo is None else cfg.window_lo
    whi = max(qhi, floor0) + cfg.width if cfg.window_hi is None else cfg.window_hi
    if wlo > min(qlo, floor_d):
        raise RejectedInputError("window override must reach the grading floor and the query")
    if whi < max(qhi, floor0):
        raise RejectedInputError("window override must contain the query window")
    return wlo, whi


def build_frame(
    q: symbolic.WindowSet, cfg: TruncationConfig, base_graded: bool = False
) -> Frame:
    """Resolve windows and list the query cells by rank on the lazy window
    [min(qlo, floor0), whi]; an empty Q lists none."""
    floor0 = 0 if base_graded else cfg.base_shift
    qlo, qhi = _edges(q, floor0)
    wlo, whi = _window(cfg, floor0, qlo, qhi)
    cells = tuple(q.ranks_on(symbolic._window(min(qlo, floor0), whi)))
    return Frame(q.n, cfg.depth, cfg.base_shift, floor0, qlo, wlo, whi, cells)


# -- the take-or-split walk --------------------------------------------


def prune(items):
    """Keep the nondominated (vector, trace) pairs, deterministic order.

    After the lexicographic sort no vector dominates one sorted before it,
    so one pass suffices, against the kept vectors or, for pairs, against
    the least second component kept; weak dominance also drops the later
    copies of a repeated vector.
    """
    kept, least = [], None  # for pairs, the least second component kept
    for vec, trace in sorted(items, key=itemgetter(0)):
        if len(vec) == 2 and (least is None or vec[1] < least):
            least = vec[1]
        elif len(vec) == 2 or any(all(a <= b for a, b in zip(kvec, vec)) for kvec, _ in kept):
            continue
        kept.append((vec, trace))
    if len(kept) > FRONT_CAP:
        raise BudgetExceededError(
            f"Pareto front exceeded the size cap (engine.FRONT_CAP = {FRONT_CAP})"
        )
    return kept


def _cheapest(options):
    """Keep rule of one component: the first cheapest option, so a tie goes to take."""
    return [min(options, key=itemgetter(0))]


def _combine(fronts, keep):
    """Minkowski sum of child fronts, each partial sum reduced by ``keep``.

    A translate of an antichain is an antichain in the same sorted order,
    so a sum with a one-vector factor is left as it is.  Three or more
    fronts of one option each, as at a depth-0 root, sum in one pass to one
    option whose trace is the tuple of theirs; the loop is quicker for two.
    """
    if len(fronts) > 2 and max(map(len, fronts)) == 1:
        vecs, traces = zip(*[front[0] for front in fronts])
        return [(tuple(map(sum, zip(*vecs))), traces)]
    acc = fronts[0]
    for front in fronts[1:]:
        nxt = [
            (tuple(map(add, vec, cvec)), (trace, ctrace))
            for vec, trace in acc
            for cvec, ctrace in front
        ]
        acc = nxt if len(acc) == 1 or len(front) == 1 else keep(nxt)
    return acc


class _Walk:
    """One take-or-split walk.  The recursion is a method, so a finished
    walk leaves no reference cycle for the collector to find.

    A node is the pair (floor, rank) of its absolute grading floor and the
    rank of its word on [floor, whi], and a cost an integer numerator over
    its component's ``dens`` entry, which every price of the walk divides.
    A ``memo`` keeps a node's numerator under a measure by the coordinate
    ``at`` every node is read at, the right edge, the measure and its
    denominator, then by (floor, rank).  Below a full node every left
    extension of the word lies in Q, and a leaf has nothing below it, so the
    front of either is kept, as a tuple, by (comps, at, floor_d, whi, dens),
    then by (floor, rank).  A partial node's front depends on the
    cells of Q below it and is never kept.
    """

    __slots__ = ("n", "comps", "dens", "keep", "qlo", "floor_d", "whi", "at", "bounded",
                 "count", "fronts", "nums")

    def __init__(self, frame: Frame, comps, memo):
        self.n, self.comps = frame.n, comps
        self.keep = prune if len(comps) > 1 else _cheapest  # picked by the width alone
        self.qlo, self.whi = frame.qlo, frame.whi  # a node with floor <= qlo is full
        floor_d = self.floor_d = frame.floor(-frame.depth)
        at = self.at = frame.floor0 - frame.base_shift  # the coordinate every node is read at
        symbolic._check_coordinate(at)  # as pricing does, before a measure reads it
        dens = self.dens = tuple([mu.denominator(at, self.whi - floor_d + 1) for mu in comps])
        self.bounded = all(mu.nonnegative for mu in comps)  # a signed walk is never bounded
        self.count, self.fronts, self.nums = 0, None, (None,) * len(comps)
        if memo is not None:
            self.fronts = memo.setdefault((tuple(comps), at, floor_d, self.whi, dens), {})
            self.nums = [memo.setdefault((at, self.whi, mu, d), {}) for mu, d in zip(comps, dens)]

    def node(self, rank, cells, floor):
        key = (floor, rank)
        full = floor <= self.qlo
        memo = self.fronts if full or floor == self.floor_d else None
        if memo is not None:
            front = memo.get(key)
            if front is not None:
                return front
        self.count += 1
        if self.count > NODE_CAP:
            raise BudgetExceededError(
                f"refinement tree exceeded the node cap (engine.NODE_CAP = {NODE_CAP})"
            )
        n, at, span = self.n, self.at, self.whi - floor + 1
        cyl, take = None, []
        for mu, d, nums in zip(self.comps, self.dens, self.nums):
            num = None if nums is None else nums.get(key)
            if num is None:
                cyl = cyl or symbolic.WindowSet.ranked_cylinder(n, floor, span, rank)
                price = measures.eval_shifted(mu, floor - at, cyl)
                scale, rest = divmod(d, price.denominator)
                if rest:
                    raise CertificateError(f"{mu!r} prices {price}, finer than its denominator {d}")
                num = price.numerator * scale
                if nums is not None:
                    nums[key] = num
            take.append(num)
        take = tuple(take)
        front = [(take, key)]
        k = floor - self.floor_d  # levels below the node
        stop = not k
        if not stop and self.bounded:
            stop = _take_attains(self.comps if full else (), take, k, at, n, span, rank)
        if not stop:
            place = n ** span  # the weight of a child's new symbol
            if full:
                fronts = [self.node(symbol * place + rank, None, floor - 1) for symbol in range(n)]
            else:
                buckets: dict[int, list] = {}
                for cell in cells:
                    buckets.setdefault(cell // place % n, []).append(cell)
                fronts = [
                    self.node(symbol * place + rank, group, floor - 1)
                    for symbol, group in sorted(buckets.items())
                ]
            front.extend(_combine(fronts, self.keep))
            front = self.keep(front)
        if memo is not None:
            front = memo[key] = tuple(front)
        return front


def _walk(frame: Frame, comps, *, memo=None):
    """Root front of (cost vector, trace) options of the take-or-split tree,
    as a tuple, and the walk's ``dens``.

    A vector has one integer numerator per measure of ``comps``, over that
    component's entry of ``dens``.  A trace is either the pair (floor, rank)
    of a taken node or a tuple of traces, whose taken nodes together make up
    a sum of options.  A frame with no cells has the single option of the
    empty cover, at cost 0 over 1 in every component.  Walks given one
    ``memo`` share each node's numerator under each measure and the fronts
    of full nodes and leaves, each where its key allows (:class:`_Walk`).
    """
    size = frame.n ** (frame.whi - frame.floor0 + 1)
    roots: dict[int, list] = {}
    for cell in frame.cells:
        roots.setdefault(cell % size, []).append(cell)
    if not roots:
        return (((0,) * len(comps), ()),), (1,) * len(comps)
    walk = _Walk(frame, comps, memo)
    front = _combine([walk.node(r, c, frame.floor0) for r, c in sorted(roots.items())], walk.keep)
    return tuple(front), walk.dens


def _take_attains(comps, take, k, at, n, span, rank):
    """Whether taking a node with k levels below it, priced by nonnegative
    components, attains its subtree's optimum in every component.  Any node
    does when it costs 0 in all of them, for 0 bounds its subtree below.  A
    full node, given its ``comps``, also does when each component is 0 at
    the node or answers :meth:`measures.CylinderMeasure.takes` true on its
    word, of ``span`` symbols; a partial node, given none, does not."""
    if not any(take):
        return True
    if not comps:  # a partial node, whose subtree no measure describes
        return False
    word = symbolic.rank_word(n, span, rank)
    return all(mu.takes(at, word, k) for value, mu in zip(take, comps) if value)


class RootFront:
    """The root front of one query's take-or-split walk over ``comps``,
    with the certificate of each option re-checked at most once.

    ``options`` is the tuple of (cost vector, trace) options of the root, a
    vector's components integer numerators over the entries of ``dens``;
    only a certificate's re-price makes rationals.  A certificate carries
    its cost vector exactly when there is more than one component.  Roots
    given one ``memo`` share what their keys allow, with no rule for the
    caller to keep: node numerators and fronts (:class:`_Walk`), and per
    (q, cfg, base_graded) the frame and, by trace, the checked witness and
    its price per measure, which every certificate compares with its own
    vector.
    """

    def __init__(self, q, comps, cfg, base_graded=False, *, memo=None):
        self.q, self.comps, self.cfg, self.base_graded = q, comps, cfg, base_graded
        key = (q, cfg, base_graded)  # its frame and checked witness per trace
        root = None if memo is None else memo.get(key)
        if root is None:
            root = (build_frame(q, cfg, base_graded), {})
            if memo is not None:
                memo[key] = root
        self.frame, self.checked = root
        self.options, self.dens = _walk(self.frame, comps, memo=memo)
        self._certificates: dict[int, ValueCertificate] = {}

    def certificate(self, k: int) -> ValueCertificate:
        """Certificate of option k, re-checked on its first request."""
        cert = self._certificates.get(k)
        if cert is None:
            cert = self._certificates[k] = _certificate(self, self.options[k])
        return cert

    def cheapest(self, bounds=()) -> ValueCertificate:
        """Certificate of the least option whose components 1..k stay
        strictly below ``bounds``; InfeasibleError when there is none.  A
        numerator v over d is below b exactly when v < ceil(b * d)."""
        options = self.options
        limits = [-(-b.numerator * d // b.denominator) for b, d in zip(bounds, self.dens[1:])]
        feasible = [k for k, (vec, _) in enumerate(options) if all(map(lt, vec[1:], limits))]
        if not feasible:
            raise InfeasibleError(f"no cover meets the budgets {bounds} at this truncation")
        return self.certificate(min(feasible, key=lambda k: options[k][0]))

    def least(self, component: int) -> ValueCertificate:
        """Certificate of the first option least in one cost component.

        The front keeps every nondominated vector, and the least of the
        vectors minimal in a component is never dominated, so under
        :func:`prune` that component is the optimum of its measure alone.
        """
        options = self.options
        return self.certificate(min(range(len(options)), key=lambda k: options[k][0][component]))


def _witness(root: RootFront, trace) -> Cover:
    """The cover of a trace's taken nodes, in one pass over the trace."""
    frame = root.frame
    per_floor: dict[int, list] = {}
    stack = [trace] if trace else []
    while stack:
        trace = stack.pop()
        if isinstance(trace[0], int):
            per_floor.setdefault(trace[0], []).append(trace[1])
        else:
            stack.extend(trace)
    entries = []
    for floor in sorted(per_floor, reverse=True):
        window = symbolic._window(floor, frame.whi)
        entry = symbolic.WindowSet.from_ranks(frame.n, window, per_floor[floor]).canonicalize()
        entries.append((floor - frame.floor0, entry))
    if root.base_graded:
        return Cover(tuple(entries), base_shift=0, cost_base=root.cfg.base_shift)
    return Cover(tuple(entries), base_shift=root.cfg.base_shift)


def _certificate(root: RootFront, option) -> ValueCertificate:
    """Certificate of a root option, whose witness is re-validated and
    re-priced on every cost component through the window-set path; a
    trace's witness gets its price table only once it is valid."""
    vec, trace = option
    checked = root.checked.get(trace)
    if checked is None:
        witness = _witness(root, trace)
        if not covers.is_valid_cover(root.q, witness):
            raise CertificateError("the witness is not a graded cover of the query")
        checked = root.checked[trace] = (witness, {})
    witness, prices = checked
    for k, (mu, d) in enumerate(zip(root.comps, root.dens)):
        price = prices.get(mu)
        if price is None:
            price = prices[mu] = covers.cover_cost(witness, mu)
        if price.numerator * d != vec[k] * price.denominator:
            raise CertificateError(
                f"the witness prices cost component {k} at {price}, not {Fraction(vec[k], d)}"
            )
    vec = tuple(prices[mu] for mu in root.comps)
    return ValueCertificate(vec[0], witness, root.cfg, vec if len(vec) > 1 else None)


def _phi_optimum(q, phi, cfg, base_graded, *, memo=None):
    if not phi.nonnegative:
        raise RejectedInputError("cover optimization needs a nonnegative measure")
    return RootFront(q, [phi], cfg, base_graded, memo=memo).certificate(0)


def phi_truncated(
    q: symbolic.WindowSet,
    phi: measures.CylinderMeasure,
    cfg: TruncationConfig,
    *,
    memo=None,
) -> ValueCertificate:
    """Exact minimum cover cost within the truncated class, with witness.

    The value, an upper bound for the untruncated infimum, is nonincreasing
    in depth and width.  Solves given one ``memo`` share work (:class:`RootFront`).
    """
    return _phi_optimum(q, phi, cfg, base_graded=False, memo=memo)


def phi_paren_truncated(
    q: symbolic.WindowSet,
    phi: measures.CylinderMeasure,
    cfg: TruncationConfig,
) -> ValueCertificate:
    """Base-graded variant: entries graded at m but priced at m + i.

    Coincides with :func:`phi_truncated` at i = 0 and is nonincreasing in i.
    """
    return _phi_optimum(q, phi, cfg, base_graded=True)


# -- brute force oracle ------------------------------------------------
#
# The oracles list the query cells densely on the whole working window, on
# their own, so they share no cell code with the lazy walk they check.


def _dense_cells(q: symbolic.WindowSet, frame: Frame) -> list[int]:
    return q.ranks_on(symbolic.Window(frame.wlo, frame.whi))


def _group_by_suffix(frame: Frame, cells, position):
    """Split a dense cell block by its word from a position on, as (suffix
    word, cells) pairs in rank order."""
    length = frame.whi - frame.wlo + 1 - position
    size = frame.n ** length
    buckets: dict[int, list] = {}
    for cell in cells:
        buckets.setdefault(cell % size, []).append(cell)
    return [(symbolic.rank_word(frame.n, length, r), group) for r, group in sorted(buckets.items())]


def _finest_classes(q: symbolic.WindowSet, frame: Frame):
    """Per root word of the tree, its finest classes: the words on
    [floor(-D), whi] of the dense cells under it."""
    position = frame.floor(-frame.depth) - frame.wlo
    return [
        [suffix for suffix, _ in _group_by_suffix(frame, cells, position)]
        for _, cells in _group_by_suffix(frame, _dense_cells(q, frame), frame.floor0 - frame.wlo)
    ]


def _labeling_costs(frame: Frame, comps):
    """Enumerator of the cost vectors of every grade labeling of a list of
    finest classes; each (level, word) cylinder is priced once across its
    calls.  It shares nothing with the walk, so it can check it."""
    depth = frame.depth
    floor_d = frame.floor(-depth)
    cache: dict = {}

    def price(m, word):
        key = (m, word)
        if key not in cache:
            cyl = symbolic.WindowSet.cylinder(frame.n, frame.floor(m), word)
            shift = frame.cost_shift(m)
            cache[key] = tuple(measures.eval_shifted(mu, shift, cyl) for mu in comps)
        return cache[key]

    def costs(leaves):
        if len(leaves) > CLASS_CAP:
            raise TooLargeError(
                f"{len(leaves)} classes exceed the enumeration cap (engine.CLASS_CAP = {CLASS_CAP})"
            )
        if (depth + 1) ** len(leaves) > LABELING_CAP:
            raise TooLargeError(
                f"too many grade labelings to enumerate (engine.LABELING_CAP = {LABELING_CAP})"
            )
        for labeling in product(range(-depth, 1), repeat=len(leaves)):
            total = (ZERO,) * len(comps)
            for m in set(labeling):
                drop = frame.floor(m) - floor_d
                for word in {leaves[k][drop:] for k, g in enumerate(labeling) if g == m}:
                    total = tuple(map(add, total, price(m, word)))
            yield total

    return costs


def brute_force_phi(
    q: symbolic.WindowSet,
    phi: measures.CylinderMeasure,
    cfg: TruncationConfig,
    base_graded: bool = False,
) -> Fraction:
    """Independent exhaustive optimum over grade labelings of the finest
    classes.  Must equal the tree value; small instances only."""
    if not phi.nonnegative:
        raise RejectedInputError("cover optimization needs a nonnegative measure")
    frame = build_frame(q, cfg, base_graded)
    costs = _labeling_costs(frame, [phi])
    total = ZERO
    for leaves in _finest_classes(q, frame):
        # roots are independent, so each is enumerated on its own
        total += min(costs(leaves))[0]
    return total


def brute_force_phi_overlapping(
    q: symbolic.WindowSet,
    phi: measures.CylinderMeasure,
    cfg: TruncationConfig,
) -> Fraction:
    """Exact optimum over possibly overlapping covers drawn from the grade
    cylinders of the working window, by branch-and-bound set cover.

    For nonnegative measures this equals the disjoint-witness optimum.
    """
    if not phi.nonnegative:
        raise RejectedInputError("cover optimization needs a nonnegative measure")
    frame = build_frame(q, cfg, base_graded=False)
    cells = _dense_cells(q, frame)
    index = {cell: k for k, cell in enumerate(cells)}
    pool = []
    for m in range(0, -frame.depth - 1, -1):
        position = frame.floor(m) - frame.wlo
        for suffix, group in _group_by_suffix(frame, cells, position):
            mask = 0
            for cell in group:
                mask |= 1 << index[cell]
            cyl = symbolic.WindowSet.cylinder(frame.n, frame.floor(m), suffix)
            cost = measures.eval_shifted(phi, frame.cost_shift(m), cyl)
            pool.append((cost, mask))
    if len(pool) > POOL_CAP:
        raise TooLargeError(
            f"cylinder pool of {len(pool)} exceeds the cap (engine.POOL_CAP = {POOL_CAP})"
        )
    full = (1 << len(cells)) - 1
    best = [None]

    def search(covered, cost):
        if best[0] is not None and cost >= best[0]:
            return
        if covered == full:
            best[0] = cost
            return
        missing = (~covered & full)
        lowest = (missing & -missing).bit_length() - 1
        for entry_cost, mask in pool:
            if (mask >> lowest) & 1:
                search(covered | mask, cost + entry_cost)

    search(0, ZERO)
    if best[0] is None:
        raise CertificateError("the cylinder pool does not cover the query")
    return best[0]


# -- grids -------------------------------------------------------------


@dataclass(frozen=True)
class GridRow:
    shift: int
    certificate: ValueCertificate


@dataclass(frozen=True)
class GridResult:
    rows: tuple[GridRow, ...]
    nonincreasing_toward_zero: bool  # value at i  <=  value at i-1, all adjacent pairs


def shift_sweep(
    q: symbolic.WindowSet, i_list, depth: int, width: int
) -> list[TruncationConfig]:
    """One pinned truncation per shift of a grid, in the order of ``i_list``.

    Every config grades its deepest level at the shared floor
    min(i_list) - depth and works on the window of the top shift, which
    holds the window of every other shift, so the cover classes nest
    across the sweep.
    """
    if not i_list:
        raise RejectedInputError("the shift list is empty")
    if any(i > 0 for i in i_list) or list(i_list) != sorted(i_list, reverse=True):
        raise RejectedInputError("shifts must be nonpositive and nonincreasing")
    floor_abs = min(i_list) - depth
    top = i_list[0]
    wlo, whi = _window(TruncationConfig(top - floor_abs, width, top), top, *_edges(q, top))
    return [
        TruncationConfig(i - floor_abs, width, i, window_lo=wlo, window_hi=whi)
        for i in i_list
    ]


def nondecreasing(values) -> bool:
    """Whether a sequence never decreases, reading None as plus infinity."""
    return all(
        b is None or (a is not None and a <= b) for a, b in zip(values, values[1:])
    )


def phi_grid(
    q: symbolic.WindowSet,
    phi: measures.CylinderMeasure,
    depth: int,
    width: int,
    i_list: list[int],
) -> GridResult:
    """Truncated values across a grid of base shifts.

    The cells are the configs of :func:`shift_sweep`, so the cover classes
    nest and the value at each shift is at most the value at the next, more
    negative, shift.  Each cell is cross-checked against the shift image of
    the query at base 0, which must agree exactly.
    """
    rows = []
    for cfg in shift_sweep(q, i_list, depth, width):
        i = cfg.base_shift
        cert = phi_truncated(q, phi, cfg)
        cfg0 = TruncationConfig(
            cfg.depth, width, 0, window_lo=cfg.window_lo - i, window_hi=cfg.window_hi - i
        )
        mirrored = phi_truncated(symbolic.shift(q, i), phi, cfg0)
        if mirrored.value != cert.value:
            raise CertificateError(
                f"shift covariance failed at i={i}: {cert.value} vs {mirrored.value}"
            )
        rows.append(GridRow(i, cert))
    values = [row.certificate.value for row in rows]
    return GridResult(tuple(rows), nondecreasing(values))
