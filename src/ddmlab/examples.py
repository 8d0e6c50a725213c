"""Reference instances: the alternating point mass and the two-state chain.

Both come with exact expected values or bounds, reproduced end to end by
the optimizer and reported as pass/fail tables.
"""

from __future__ import annotations

from fractions import Fraction

from . import engine, measures, symbolic
from .covers import TruncationConfig
from .errors import RejectedInputError
from .specfile import format_rational
from .verify import Report

ONE = Fraction(1)


def alternating_point() -> measures.DiracMeasure:
    """Point mass at the 2-periodic sequence that is 0 on even coordinates."""
    return measures.DiracMeasure(2, (0, 1))


def example_one(
    ns=(1, 2, 3, 4), truncations=((1, 0), (2, 1), (3, 2))
) -> Report:
    """Point-mass instance: the raw optimum collapses to zero, while the
    running averages keep full mass for odd lengths and at least n/(n+1)
    for even lengths, at every listed truncation."""
    report = Report("point-mass instance")
    dirac = alternating_point()
    x = symbolic.WindowSet.full_space(2)
    raw = engine.phi_truncated(x, dirac, TruncationConfig(1, 0, 0)).value
    report.add("raw optimum of the full space is 0 at depth 1", raw == 0, f"value {raw}")
    for n in ns:
        avg = measures.cesaro(dirac, n)
        for depth, width in truncations:
            value = engine.phi_truncated(x, avg, TruncationConfig(depth, width, 0)).value
            lower = Fraction(n, n + 1)
            if n % 2 == 1:
                report.add(
                    f"average n={n}: full-space optimum is 1 at D={depth} W={width}",
                    value == 1,
                    f"value {format_rational(value)}",
                )
            else:
                report.add(
                    f"average n={n}: optimum within [{n}/{n + 1}, 1] at D={depth} W={width}",
                    lower <= value <= 1,
                    f"value {format_rational(value)}",
                )
    return report


DEFAULT_CHAIN = (
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(1, 4), Fraction(3, 4)),
)


def example_two(a=DEFAULT_CHAIN, pi0=None, sample_sets=()) -> Report:
    """Two-state chain instance: stationary start versus a re-weighted start
    sandwiches the optima exactly at depth 2 and width 1, and the stationary
    optimum keeps full mass."""
    report = Report("two-state chain instance")
    a = tuple(tuple(Fraction(x) for x in row) for row in a)
    n = len(a)
    pi = measures.stationary_distribution(a)
    # the chain checks the start's size and mass before any ratio is taken
    phi0 = measures.MarkovMeasure([Fraction(1, n)] * n if pi0 is None else pi0, a)
    pi0 = phi0.pi
    if 0 in pi0:
        raise RejectedInputError(f"pi0 must be positive; state {pi0.index(0)} has 0")
    lam0 = min(pi[i] / pi0[i] for i in range(n))
    alpha0 = max(pi[i] / pi0[i] for i in range(n))
    report.add(
        "pointwise sandwich constants",
        all(lam0 * pi0[i] <= pi[i] <= alpha0 * pi0[i] for i in range(n)),
        f"lambda0={format_rational(lam0)} alpha0={format_rational(alpha0)}",
    )
    phi = measures.MarkovMeasure(pi, a)
    cfg = TruncationConfig(2, 1, 0)
    x = symbolic.WindowSet.full_space(n)
    full_value = engine.phi_truncated(x, phi, cfg).value
    report.add("stationary optimum of the full space is 1", full_value == 1)
    full0 = engine.phi_truncated(x, phi0, cfg).value
    report.add(
        "re-weighted optimum of the full space at least 1/alpha0",
        full0 >= 1 / alpha0,
        f"value {format_rational(full0)} bound {format_rational(1 / alpha0)}",
    )
    if pi0 == tuple(Fraction(1, n) for _ in range(n)):
        report.add(
            "uniform re-weighting keeps at least 1/N",
            full0 >= Fraction(1, n),
            f"value {format_rational(full0)}",
        )
    deviation_bound = max(alpha0 - 1, 1 / lam0 - 1)
    outside, deviating = [], []
    for q in sample_sets:
        v = engine.phi_truncated(q, phi, cfg).value
        v0 = engine.phi_truncated(q, phi0, cfg).value
        if not lam0 * v0 <= v <= alpha0 * v0:
            outside.append(q.literal())
        if abs(v0 - v) > deviation_bound:
            deviating.append(q.literal())
    report.expect(f"sandwich holds on {len(list(sample_sets))} sampled sets", outside)
    bound = f"bound {format_rational(deviation_bound)}"
    report.add(
        "deviation bound max(alpha0-1, 1/lambda0-1) holds on samples",
        not deviating,
        f"{bound} exceeded on {deviating[-1]}" if deviating else bound,
    )
    # identical start: the two optima coincide and the sandwich is tight
    same = engine.phi_truncated(x, measures.MarkovMeasure(pi, a), cfg).value
    report.add("identical start collapses the sandwich", same == full_value)
    return report
