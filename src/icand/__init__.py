"""Exact information complexity of the multiparty AND function.

The package computes internal and external information costs of the
buzzers protocol (exponential-clock races) on measures over the k-player
input cube, verifies the local-concavity conditions that certify the
protocol's optimality, cross-checks everything against an independent
discrete-time protocol, and reproduces the set-disjointness constant by
maximizing the two-party cost.
"""

from .buzzers import (
    BuzzersProtocol,
    closed_form_uniform,
    cost_under,
    information_cost,
    phi,
    start_times,
)
from .concavity import (
    CanonicalMeasure,
    concavity_report,
    deficit_external,
    deficit_internal,
    merge_tail_players,
    outside_window_checks,
    perturb,
    taylor_coefficient,
    verify_grid,
    weakness_budget,
    window_deficits,
)
from .discretize import build, exact_ic
from .errors import IcandError
from .measures import (
    InputDistribution,
    InputLabel,
    binary_entropy,
    canonical_labels,
    divergence,
    entropy,
    mutual_information,
)
from .optimize import SupportPattern, maximize_external, maximize_internal
from .signals import (
    Signal,
    WeakSignal,
    classify,
    posterior,
    sample_terminal_posteriors,
    signal_info_external,
    signal_info_internal,
    simulate_signal,
    split,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BuzzersProtocol",
    "CanonicalMeasure",
    "IcandError",
    "InputDistribution",
    "InputLabel",
    "Signal",
    "SupportPattern",
    "WeakSignal",
    "binary_entropy",
    "build",
    "canonical_labels",
    "classify",
    "closed_form_uniform",
    "concavity_report",
    "cost_under",
    "deficit_external",
    "deficit_internal",
    "divergence",
    "entropy",
    "exact_ic",
    "information_cost",
    "maximize_external",
    "maximize_internal",
    "merge_tail_players",
    "mutual_information",
    "outside_window_checks",
    "perturb",
    "phi",
    "posterior",
    "sample_terminal_posteriors",
    "signal_info_external",
    "signal_info_internal",
    "simulate_signal",
    "split",
    "start_times",
    "taylor_coefficient",
    "verify_grid",
    "weakness_budget",
    "window_deficits",
]
