"""Exact information complexity of the multiparty AND function.

The package computes internal and external information costs of the
buzzers protocol (exponential-clock races) on measures over the k-player
input cube, verifies the local-concavity conditions that certify the
protocol's optimality, cross-checks everything against an independent
discrete-time protocol, and reproduces the set-disjointness constant by
maximizing the two-party cost.
"""

from .buzzers import closed_form_uniform, cost_under, information_cost
from .concavity import (
    CanonicalMeasure,
    outside_window_checks,
    perturb,
    taylor_coefficients,
    verify_grid,
    window_deficits,
)
from .discretize import build, exact_ic
from .errors import IcandError
from .measures import InputDistribution, binary_entropy, canonical_labels
from .optimize import SupportPattern, maximize_external, maximize_internal
from .signals import Signal, sample_terminal_posteriors, simulate_signal

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CanonicalMeasure",
    "IcandError",
    "InputDistribution",
    "Signal",
    "SupportPattern",
    "binary_entropy",
    "build",
    "canonical_labels",
    "closed_form_uniform",
    "cost_under",
    "exact_ic",
    "information_cost",
    "maximize_external",
    "maximize_internal",
    "outside_window_checks",
    "perturb",
    "sample_terminal_posteriors",
    "simulate_signal",
    "taylor_coefficients",
    "verify_grid",
    "window_deficits",
]
