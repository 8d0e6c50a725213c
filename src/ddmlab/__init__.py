"""Exact laboratory for cover-optimum set functions on two-sided shift spaces.

The package evaluates finitely additive cylinder measures exactly, optimizes
graded covers at finite truncation with auditable witnesses, solves
budget-constrained and signed variants by Pareto-front dynamic programming,
and mechanically verifies the finitely decidable measure-theoretic
properties of the construction.
"""

from .covers import Cover, TruncationConfig, ValueCertificate, cover_cost, disjointify, is_valid_cover
from .engine import (
    brute_force_phi,
    brute_force_phi_overlapping,
    phi_grid,
    phi_paren_truncated,
    phi_truncated,
)
from .budgeted import (
    BudgetedProblem,
    brute_force_psi,
    psi_budgeted,
    psi_chain,
    psi_eps_grid,
    psi_signed,
)
from .measures import (
    BernoulliMeasure,
    CesaroMeasure,
    ConvexMeasure,
    CylinderMeasure,
    DiracMeasure,
    MarkovMeasure,
    SignedDiffMeasure,
    cesaro,
    eval0,
    eval_shifted,
    stationary_distribution,
    stationary_markov,
)
from .symbolic import (
    Window,
    WindowSet,
    complement,
    difference,
    intersection,
    project_min,
    refine,
    set_algebra,
    shift,
    union,
)

__version__ = "0.1.0"

__all__ = [
    "Cover", "TruncationConfig", "ValueCertificate", "cover_cost", "disjointify",
    "is_valid_cover",
    "brute_force_phi", "brute_force_phi_overlapping", "phi_grid", "phi_paren_truncated",
    "phi_truncated",
    "BudgetedProblem", "brute_force_psi", "psi_budgeted", "psi_chain", "psi_eps_grid",
    "psi_signed",
    "BernoulliMeasure", "CesaroMeasure", "ConvexMeasure", "CylinderMeasure", "DiracMeasure",
    "MarkovMeasure", "SignedDiffMeasure", "cesaro", "eval0", "eval_shifted",
    "stationary_distribution", "stationary_markov",
    "Window", "WindowSet", "complement", "difference", "intersection", "project_min", "refine",
    "set_algebra", "shift", "union",
]
