"""Budget-constrained cover optimization via Pareto fronts.

A budgeted problem minimizes the objective cover cost over truncated covers
whose auxiliary costs stay strictly below given bounds.  It runs the
engine's take-or-split walk with one cost component per measure (objective
first, then one per constraint) and keeps at each node the antichain left by
:func:`engine.prune`, or with no constraint the cheapest option: dominance
prunes exactly, because budget feasibility and the objective are both
monotone in every component.  The root front never depends on the bounds,
so one front answers every slack.  No nonnegativity is assumed, so signed
objectives and signed constraint measures are handled by the same code.

Values computed here are optima over disjoint witnesses (grade labelings of
the refinement tree); for nonnegative measures this coincides with the
optimum over arbitrary overlapping covers of the truncated class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import engine, measures, symbolic
from .covers import TruncationConfig, ValueCertificate
from .engine import prune  # unused here: perfbench's tracer finds engine.prune by this name
from .errors import DimensionCapError, InfeasibleError, RejectedInputError

CHAIN_CAP = 3


@dataclass(frozen=True)
class BudgetedProblem:
    """Objective measure, strict upper bounds on auxiliary cover costs, and
    the truncation under which to optimize."""

    q: symbolic.WindowSet
    objective: measures.CylinderMeasure
    constraints: tuple[tuple[measures.CylinderMeasure, Fraction], ...]
    cfg: TruncationConfig

    def __post_init__(self):
        object.__setattr__(
            self,
            "constraints",
            tuple((m, Fraction(b)) for m, b in self.constraints),
        )


def psi_budgeted(p: BudgetedProblem) -> ValueCertificate:
    """Exact minimum objective cost subject to every strict budget.

    Raises InfeasibleError when no truncated cover meets the budgets, which
    signals the slack is too small for this truncation.
    """
    comps = [p.objective] + [m for m, _ in p.constraints]
    return engine.RootFront(p.q, comps, p.cfg).cheapest([b for _, b in p.constraints])


def brute_force_psi(p: BudgetedProblem) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Independent oracle: enumerate every grade labeling of the finest
    classes jointly, filter by the strict budgets, take the best objective."""
    comps = [p.objective] + [m for m, _ in p.constraints]
    bounds = [b for _, b in p.constraints]
    frame = engine.build_frame(p.q, p.cfg)
    leaves = [leaf for classes in engine._finest_classes(p.q, frame) for leaf in classes]
    costs = engine._labeling_costs(frame, comps)
    best = min(
        (
            vec
            for vec in costs(leaves)
            if all(c < b for c, b in zip(vec[1:], bounds))
        ),
        default=None,
    )
    if best is None:
        raise InfeasibleError("no labeling meets the budgets at this truncation")
    return best[0], best


# -- grids and chains ---------------------------------------------------


@dataclass(frozen=True)
class EpsGridResult:
    eps_list: tuple[Fraction, ...]
    i_list: tuple[int, ...]
    phi_surrogate: Fraction
    cells: dict  # (eps, i) -> ValueCertificate | None (infeasible)
    nondecreasing_as_eps_shrinks: bool
    nondecreasing_as_i_decreases: bool


def psi_eps_grid(
    q: symbolic.WindowSet,
    psi: measures.CylinderMeasure,
    phi: measures.CylinderMeasure,
    eps_list,
    i_list,
    cfg: TruncationConfig,
) -> EpsGridResult:
    """Budgeted values over a slack-by-shift grid, with monotonicity flags.

    The cells at each shift use that shift's config from
    :func:`engine.shift_sweep`, so ``cfg`` carries only the depth and the
    width.  All cells share one budget base: the truncated unconstrained
    optimum over the deepest class plus the cell's slack.  With that
    convention the feasible classes nest along both axes, so exact
    monotonicity holds with infeasible cells read as plus infinity: values
    never decrease as the slack shrinks, and never decrease as the shift
    moves away from zero.  Each shift's front is solved once and filtered
    for every slack, and each option a cell picks is re-checked once.  The
    budget base is the least phi component of the deepest shift's front,
    whose option is re-checked too.  The sweep's trees nest and read every
    node at one coordinate, so the shifts share one memo, which reads back
    an earlier shift's full nodes, leaves and prices (:class:`engine.RootFront`).
    """
    eps_list = tuple(Fraction(e) for e in eps_list)
    i_list = tuple(int(i) for i in i_list)
    if not eps_list:
        raise RejectedInputError("the slack list is empty")
    if any(e <= 0 for e in eps_list) or list(eps_list) != sorted(eps_list, reverse=True):
        raise RejectedInputError("slacks must be positive and decreasing")
    for name, unset in (("base_shift", 0), ("window_lo", None), ("window_hi", None)):
        if getattr(cfg, name) != unset:
            raise RejectedInputError(
                "the grid sets the shifts and the working window itself, so its "
                f"config carries only depth and width, not {name}={getattr(cfg, name)}"
            )
    sweep = engine.shift_sweep(q, i_list, cfg.depth, cfg.width)
    if not phi.nonnegative:
        raise RejectedInputError("cover optimization needs a nonnegative measure")
    memo: dict = {}
    roots = [engine.RootFront(q, [psi, phi], cell_cfg, memo=memo) for cell_cfg in sweep]
    surrogate = roots[-1].least(1).vector[1]
    rows = []  # per slack, the cells in the order of the shifts
    for eps in eps_list:
        bounds, row = [surrogate + eps], []
        for root in roots:
            try:
                row.append(root.cheapest(bounds))
            except InfeasibleError:
                row.append(None)
        rows.append(row)
    values = [[None if cert is None else cert.value for cert in row] for row in rows]
    eps_ok = all(map(engine.nondecreasing, zip(*values)))
    i_ok = all(map(engine.nondecreasing, values))
    cells = {(eps, i): cert for eps, row in zip(eps_list, rows) for i, cert in zip(i_list, row)}
    return EpsGridResult(eps_list, i_list, surrogate, cells, eps_ok, i_ok)


def _chain(q, phi, objectives, eps, cfg):
    """The surrogate and the levels share one query and one truncation, so
    they share one frame, each node's price and each witness check through
    one memo that lives as long as this call (:class:`engine.RootFront`)."""
    eps = Fraction(eps)
    if eps <= 0:
        raise RejectedInputError("slack must be positive")
    if len(objectives) > CHAIN_CAP:
        raise DimensionCapError(
            f"chain of length {len(objectives)} beyond the cap (budgeted.CHAIN_CAP = {CHAIN_CAP})"
        )
    memo: dict = {}
    comps, bounds = [phi], [engine.phi_truncated(q, phi, cfg, memo=memo).value + eps]
    certs = []
    for objective in objectives:
        cert = engine.RootFront(q, [objective] + comps, cfg, memo=memo).cheapest(bounds)
        certs.append(cert)
        comps.append(objective)
        bounds.append(cert.value + eps)
    return certs


def psi_chain(
    q: symbolic.WindowSet,
    phi: measures.CylinderMeasure,
    psi_list,
    eps,
    cfg: TruncationConfig,
) -> list[ValueCertificate]:
    """Inductive chain: each level's optimum plus the slack becomes the next
    level's budget.  Level k is a Pareto problem with k+1 cost components.
    The surrogate and the levels share one frame: a node is priced once per
    measure, and a witness re-checked once, for the whole chain."""
    return _chain(q, phi, list(psi_list), eps, cfg)


def psi_signed(
    q: symbolic.WindowSet,
    phi: measures.CylinderMeasure,
    psi_list,
    c_list,
    eps,
    cfg: TruncationConfig,
) -> list[ValueCertificate]:
    """Signed chain: level k optimizes psi_k - c_k * phi, and each level's
    signed optimum feeds the next level's budget.  With all c_k = 0 this is
    exactly the unsigned chain."""
    psi_list = list(psi_list)
    c_list = [Fraction(c) for c in c_list]
    if len(c_list) != len(psi_list):
        raise RejectedInputError("one scale per chain level is required")
    if any(c < 0 for c in c_list):
        raise RejectedInputError("scales must be nonnegative")
    signed = [
        measures.SignedDiffMeasure(psi, c, phi) if c != 0 else psi
        for psi, c in zip(psi_list, c_list)
    ]
    return _chain(q, phi, signed, eps, cfg)
