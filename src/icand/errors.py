"""Exception hierarchy.

Every error carries a CLI exit code so the command-line front end can map
failures onto distinct, machine-checkable statuses:

    2  malformed input (bad JSON, bad flags, invalid probability vectors)
    3  unsupported measure (support outside the basis family, degenerate runs)
    4  numerical failure (tolerance not met, budget exhausted, non-termination)
"""

from __future__ import annotations


class IcandError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class InvalidDistributionError(IcandError):
    """A probability vector has negative mass or does not sum to one."""

    exit_code = 2


class MalformedInputError(IcandError):
    """Unparseable measure file, signal file, or CLI payload."""

    exit_code = 2


class AssumptionViolationError(IcandError):
    """Measure support is outside {all-zeros, all-ones, e_1, ..., e_k} for k >= 3."""

    exit_code = 3


class TrivialInstanceError(IcandError):
    """All basis-vector masses vanish; the protocol has no start times."""

    exit_code = 3


class ZeroEMassError(IcandError):
    """Some basis-vector mass vanishes; start times are undefined until the
    zero-mass players are removed."""

    exit_code = 3

    def __init__(self, players):
        self.players = tuple(players)
        super().__init__(f"zero basis mass for players {self.players}")


class ConditioningError(IcandError):
    """Conditioning on an event of probability zero."""

    exit_code = 2


class NonTerminationError(IcandError):
    """Signal-simulation walk exceeded its iteration cap."""

    exit_code = 4


class QuadratureError(IcandError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    exit_code = 4


class ResolutionError(IcandError):
    """Discrete protocol has more transcript classes than the cap; increase
    the time step."""

    exit_code = 4


class ToleranceError(IcandError):
    """A verification run missed its stated tolerance."""

    exit_code = 4
