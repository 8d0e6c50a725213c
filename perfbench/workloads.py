"""Seeded inputs, operations and result checks of the benchmark workloads.

Every operation is a zero-argument callable that drives the library's
public API and returns its exact result.  Each workload also knows how to
render a result as exact text (for the digest) and how to re-check it
through the slow paths (``covers.is_valid_cover`` and ``covers.cover_cost``).
The library is reached through ``lab``, a namespace of its modules looked up
at call time, so traced runs see the wrappers installed on those modules.
"""

from __future__ import annotations

import random
import signal
import time
from fractions import Fraction as F

N = 2  # binary alphabet throughout: tree size is 2**depth per root
KINDS = ("dirac", "markov", "bernoulli", "cesaro", "convex")
EPS_LIST = (F(1), F(1, 2), F(1, 4), F(1, 8))
I_LIST = (0, -1, -2)
CHAIN_EPS = F(1, 2)
HANDLE_EPS = F(1, 2)
# largest D + W - i + span of a phi-sweep solve
MAX_SIZE = 7


class Op:
    """One certified operation of a workload."""

    __slots__ = ("label", "run", "render", "check")

    def __init__(self, label, run, render, check):
        self.label = label
        self.run = run
        self.render = render
        self.check = check


# -- rendering and re-checking of certificates --------------------------


def render_cover(cover) -> str:
    entries = ";".join(f"{m}:{a.literal()}" for m, a in cover.entries)
    return f"[{cover.base_shift},{cover.cost_base}|{entries}]"


def render_cert(cert) -> str:
    vector = "" if cert.vector is None else ",".join(str(v) for v in cert.vector)
    return f"{cert.value}({vector}){render_cover(cert.witness)}"


def check_cert(lab, q, cert, comps, bounds=()):
    """Re-validate the witness and re-price it on every cost component.

    ``comps`` lists the measures of the value (first) and of the vector;
    ``bounds`` are the strict budgets on the vector's components 1..k.
    Returns None when the certificate holds, else the reason.
    """
    covers = lab.covers
    if not covers.is_valid_cover(q, cert.witness):
        return "witness is not a valid cover"
    prices = [covers.cover_cost(cert.witness, mu) for mu in comps]
    if prices[0] != cert.value:
        return f"witness prices at {prices[0]}, not {cert.value}"
    if cert.vector is not None:
        if tuple(prices) != tuple(cert.vector):
            return f"witness re-prices to {prices}, not {list(cert.vector)}"
        for k, bound in enumerate(bounds):
            if not cert.vector[k + 1] < bound:
                return f"component {k + 1} breaks its budget {bound}"
    return None


# -- phi-sweep -----------------------------------------------------------


def phi_op(lab, label, q, phi, cfg, paren):
    def run():
        solve = lab.engine.phi_paren_truncated if paren else lab.engine.phi_truncated
        return solve(q, phi, cfg)

    def check(cert):
        return check_cert(lab, q, cert, [phi])

    return Op(label, run, render_cert, check)


def phi_sweep(lab, seed, count=380):
    """Shallow certified scalar solves, one per stratum.

    The strata are the combinations of the query's canonical window
    (lo in -2..1, span 1..4), D in 1..3, W in 0..2, i in 0..-2 and the five
    nonnegative measure kinds whose size D + W - i + span is at most
    MAX_SIZE: 1520 strata, in one fixed shuffled order, a quarter of them
    solved with the base-graded variant.  Per-node cost grows with the
    working window, so the latency is heavy-tailed.  Above MAX_SIZE one
    solve takes up to 2.4 s and its cost varies twentyfold with the seed's
    draws, so a run's throughput would depend on which of them it holds;
    that regime is measured by the depth probe instead.  The seed draws the
    measure and the query's bits on the stratum's window, redrawn in the
    rare case that the set does not depend on both end coordinates, so that
    set-up costs about the same for every seed.
    """
    suites, covers, symbolic = lab.suites, lab.covers, lab.symbolic
    strata = [(lo, span, depth, width, shift, kind)
              for lo in range(-2, 2) for span in range(1, 5) for depth in (1, 2, 3)
              for width in (0, 1, 2) for shift in (0, -1, -2) for kind in KINDS
              if depth + width - shift + span <= MAX_SIZE]
    random.Random(0).shuffle(strata)
    rng = random.Random(seed)
    ops = []
    for k, (lo, span, depth, width, shift, kind) in enumerate(strata[:count]):
        window = symbolic.Window(lo, lo + span - 1)
        while True:
            bits = rng.randrange(1, 1 << N ** span)
            q = symbolic.WindowSet(N, window, bits).canonicalize()
            if q.canonical_key()[:2] == (lo, lo + span - 1):
                break
        phi = suites.random_measure(rng, N, kind)
        paren = k % 4 == 3
        cfg = covers.TruncationConfig(depth, width, shift)
        ops.append(phi_op(lab, f"phi D={depth} W={width} i={shift} span={span} {kind}"
                          f"{' paren' if paren else ''}", q, phi, cfg, paren))
    return ops


# -- psi-fronts ------------------------------------------------------------


def grid_op(lab, label, q, psi, phi, cfg):
    def run():
        return lab.budgeted.psi_eps_grid(q, psi, phi, EPS_LIST, I_LIST, cfg)

    def render(grid):
        cells = " ".join(
            f"{eps},{i}:" + ("infeasible" if cert is None else render_cert(cert))
            for (eps, i), cert in sorted(grid.cells.items())
        )
        return (f"{grid.phi_surrogate}|{grid.nondecreasing_as_eps_shrinks}"
                f"|{grid.nondecreasing_as_i_decreases}|{cells}")

    def check(grid):
        if not (grid.nondecreasing_as_eps_shrinks and grid.nondecreasing_as_i_decreases):
            return "grid is not monotone"
        for (eps, _), cert in grid.cells.items():
            if cert is None:
                continue
            reason = check_cert(lab, q, cert, [psi, phi], [grid.phi_surrogate + eps])
            if reason:
                return reason
        return None

    return Op(label, run, render, check)


def chain_op(lab, label, q, phi, psis, scales, cfg):
    """A psi_chain (scales None) or psi_signed chain; an infeasible chain is
    an expected result."""

    def objectives():
        if scales is None:
            return list(psis)
        return [lab.measures.SignedDiffMeasure(psi, c, phi) if c else psi
                for psi, c in zip(psis, scales)]

    def run():
        budgeted = lab.budgeted
        try:
            if scales is None:
                return budgeted.psi_chain(q, phi, psis, CHAIN_EPS, cfg)
            return budgeted.psi_signed(q, phi, psis, scales, CHAIN_EPS, cfg)
        except lab.errors.InfeasibleError:
            return None

    def render(certs):
        if certs is None:
            return "infeasible"
        return " ".join(render_cert(cert) for cert in certs)

    def check(certs):
        if certs is None:
            return None
        surrogate = lab.engine.phi_truncated(q, phi, cfg).value
        comps = [phi]
        bounds = [surrogate + CHAIN_EPS]
        for objective, cert in zip(objectives(), certs):
            reason = check_cert(lab, q, cert, [objective] + comps, bounds)
            if reason:
                return reason
            comps.append(objective)
            bounds.append(cert.value + CHAIN_EPS)
        return None

    return Op(label, run, render, check)


def psi_fronts(lab, seed, count=200):
    """Slack-by-shift grids and 2-3 level chains, in a fixed cycle of four.

    Front size is bounded by the instance shape, not by a cap that would
    fail an operation.  Every problem has depth 1 and width 0.  Grids price
    a single-symbol cylinder at coordinate 0 under two Markov measures, so
    the working window spans 4 coordinates (16 cells) in the deepest cell;
    chains use a cylinder of length 1-2 at coordinate 0.
    """
    suites, covers, symbolic = lab.suites, lab.covers, lab.symbolic
    rng = random.Random(seed)
    cfg = covers.TruncationConfig(1, 0, 0)
    ops = []
    for k in range(count):
        phi = suites.random_measure(rng, N, "markov")
        form = k % 4
        if form == 0:
            q = symbolic.WindowSet.cylinder(N, 0, [rng.randrange(N)])
            psi = suites.random_measure(rng, N, "markov")
            ops.append(grid_op(lab, "psi_eps_grid 4x3", q, psi, phi, cfg))
            continue
        q = suites.random_cylinder(rng, N, lo_range=(0, 0), max_len=2)
        levels = 2 if form == 1 else 3
        psis = [suites.random_measure(rng, N, KINDS[(k + j) % 5]) for j in range(levels)]
        if form == 3:
            scales = [F(rng.randint(0, 2), rng.randint(1, 2)) for _ in range(levels)]
            ops.append(chain_op(lab, f"psi_signed {levels}-level", q, phi, psis, scales, cfg))
        else:
            ops.append(chain_op(lab, f"psi_chain {levels}-level", q, phi, psis, None, cfg))
    return ops


# -- algebra-split ---------------------------------------------------------


def algebra_batch(lab, g, rng):
    """One verification batch as a sequence of short verifier calls, each its
    own operation.  Build a finite algebra of three cylinders (two
    single-symbol ones at coordinates -1 and 0 and a two-symbol one at 0, 64
    members) with a phi handle and a psi handle at the pinned window; check
    splitting closure under the phi handle, which prices every member through
    its cache; price each member under the psi handle, one budgeted solve per
    operation; check splitting closure under the psi handle, now a pure
    cached look-up and bitset pass; then single-set splitting checks under
    the phi handle of the four single-symbol window cylinders and the
    generators' complements.  The handles truncate at depth 0, which keeps
    every call short."""
    symbolic, suites = lab.symbolic, lab.suites
    generators = [symbolic.WindowSet.cylinder(N, -1, [rng.randrange(N)]),
                  symbolic.WindowSet.cylinder(N, 0, [rng.randrange(N)]),
                  symbolic.WindowSet.cylinder(N, 0, [rng.randrange(N), rng.randrange(N)])]
    phi = suites.random_measure(rng, N, KINDS[g % 5])
    psi = suites.random_measure(rng, N, KINDS[(g + 2) % 5])
    tests = [symbolic.WindowSet.cylinder(N, j, [s]) for j in (-1, 0) for s in range(N)]
    tests += [symbolic.complement(a) for a in generators]
    state = {}
    label = f"batch {g} {KINDS[g % 5]}"

    def build():
        verify = lab.verify
        state["cfg"] = cfg = lab.suites.caratheodory_config(0)
        state["algebra"] = verify.FiniteAlgebra(N, generators)
        state["phi"] = verify.phi_handle("phi", phi, cfg)
        state["psi"] = verify.psi_handle("psi", psi, phi, HANDLE_EPS, cfg)
        return state["algebra"]

    def render_algebra(algebra):
        return ",".join(m.literal() for m in algebra.members)

    def check_algebra(algebra):
        return None if len(algebra) == 64 else f"{len(algebra)} members, not 64"

    def closure(handle):
        return lambda: lab.verify.check_splitting_closure(state[handle], state["algebra"])

    def render_report(report):
        return "|".join(f"{c.name}={c.verdict}:{c.detail}" for c in report.checks)

    def check_report(report):
        failed = [c.name for c in report.checks if c.verdict == lab.verify.FAIL]
        return f"FAIL verdicts: {failed}" if failed else None

    def price(k):
        return lambda: state["psi"](state["algebra"].members[k])

    def check_price(k):
        def check(value):
            s, cfg = state["algebra"].members[k], state["cfg"]
            bound = lab.engine.phi_truncated(s, phi, cfg).value + HANDLE_EPS
            problem = lab.budgeted.BudgetedProblem(s, psi, ((phi, bound),), cfg)
            cert = lab.budgeted.psi_budgeted(problem)
            if cert.value != value:
                return f"handle gave {value}, a fresh budgeted solve {cert.value}"
            return check_cert(lab, s, cert, [psi, phi], [bound])
        return check

    def split(a):
        return lambda: lab.verify.caratheodory_measurable(state["phi"], a, state["algebra"])

    def render_split(s):
        witness = "" if s.counterexample is None else s.counterexample.literal()
        return f"{s.ok}:{witness}:{s.left}:{s.right}"

    def check_split(s):
        if not s.ok and (s.counterexample is None or s.left == s.right):
            return "split verdict without a consistent witness"
        return None

    ops = [Op(f"{label} algebra", build, render_algebra, check_algebra),
           Op(f"{label} closure phi", closure("phi"), render_report, check_report)]
    ops += [Op(f"{label} psi member {k}", price(k), str, check_price(k)) for k in range(64)]
    ops += [Op(f"{label} closure psi", closure("psi"), render_report, check_report)]
    ops += [Op(f"{label} split {a.literal()}", split(a), render_split, check_split)
            for a in tests]
    return ops


def algebra_split(lab, seed, count=5):
    rng = random.Random(seed)
    return [op for g in range(count) for op in algebra_batch(lab, g, rng)]


# -- deep-ladder and the depth probe ---------------------------------------


def deep_instance(lab, rng):
    """A short query and one measure of each family: Markov form (a chain)
    and fallback (a convex mix with a point mass, not in Markov form)."""
    suites = lab.suites
    q = lab.symbolic.WindowSet.cylinder(N, 0, [rng.randrange(N)])
    return q, suites.random_measure(rng, N, "markov"), suites.random_measure(rng, N, "convex")


def deep_ladder(lab, seed, count=60):
    """Deep certified solves at D = 6, 7, 8 under both measure families."""
    covers = lab.covers
    rng = random.Random(seed)
    ops = []
    for k in range(count):
        q, markov, fallback = deep_instance(lab, rng)
        depth = 6 + k % 3
        family, phi = ("markov_form", markov) if (k // 3) % 2 == 0 else ("fallback", fallback)
        cfg = covers.TruncationConfig(depth, 1, 0)
        ops.append(phi_op(lab, f"deep D={depth} {family}", q, phi, cfg, False))
    return ops


WORKLOADS = {
    "phi-sweep": phi_sweep,
    "psi-fronts": psi_fronts,
    "algebra-split": algebra_split,
    "deep-ladder": deep_ladder,
}


class RungTimeout(Exception):
    """Raised by the alarm when one ladder rung exceeds its budget."""


def _alarm(signum, frame):
    raise RungTimeout()


class DepthProbe:
    """Reference-depth solves and reach ladder on one seeded short query.

    The per-solve budget is enforced here with an interval timer, so the
    rung that does not finish costs at most ATTEMPTS times the budget.
    BUDGET_S holds at the calibration's reference speed; the caller passes
    the budget for the machine's speed in its run.
    """

    REF_DEPTH = 7
    BUDGET_S = 1.0
    ATTEMPTS = 2
    MAX_DEPTH = 64  # coordinates are capped at 64 in the library

    def __init__(self, lab, seed):
        self.lab = lab
        rng = random.Random(f"probe-{seed}")
        self.q, markov, fallback = deep_instance(lab, rng)
        self.measures = {"markov_form": markov, "fallback": fallback}

    def solve(self, phi, depth):
        cfg = self.lab.covers.TruncationConfig(depth, 1, 0)
        return self.lab.engine.phi_truncated(self.q, phi, cfg)

    def op(self, family, depth):
        phi = self.measures[family]
        return phi_op(self.lab, f"ladder D={depth} {family}", self.q, phi,
                      self.lab.covers.TruncationConfig(depth, 1, 0), False)

    def reference_solve(self, family):
        """One timed solve at the reference depth."""
        start = time.perf_counter()
        cert = self.solve(self.measures[family], self.REF_DEPTH)
        return time.perf_counter() - start, (family, self.REF_DEPTH, cert)

    def timed_solve(self, phi, depth, budget_s):
        """Solve within the budget; a solve cut off by the timer is tried
        once more, so that one slow moment of a shared machine does not end
        the ladder."""
        for attempt in range(self.ATTEMPTS):
            try:
                signal.setitimer(signal.ITIMER_REAL, budget_s)
                try:
                    return self.solve(phi, depth)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except RungTimeout:
                if attempt + 1 == self.ATTEMPTS:
                    raise

    def reach(self, family, budget_s):
        """Deepest depth finished within the budget, the reason the ladder
        stopped, per-rung times and the finished certificates."""
        errors = self.lab.errors
        phi = self.measures[family]
        previous = signal.signal(signal.SIGALRM, _alarm)
        rungs, certs = [], []
        reached, stop = 1, None
        try:
            for depth in range(2, self.MAX_DEPTH + 1):
                start = time.perf_counter()
                try:
                    cert = self.timed_solve(phi, depth, budget_s)
                except RungTimeout:
                    stop = ("budget", depth)
                except errors.BudgetExceededError:
                    stop = ("node_cap", depth)
                except errors.RejectedInputError as exc:
                    stop = ("bitset_cap" if "bitset" in str(exc) else "rejected", depth)
                rungs.append((depth, time.perf_counter() - start))
                if stop:
                    break
                certs.append((family, depth, cert))
                reached = depth
            else:
                stop = ("max_depth", self.MAX_DEPTH)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return reached, stop, rungs, certs
