"""Folding tail players into the all-zeros mass, for the merge-invariance
check of acceptance criterion 10 and ``TestMergeInvariance``."""

import numpy as np

from icand.errors import AssumptionViolationError, MalformedInputError
from icand.measures import ZERO_MASS, InputDistribution


def merge_tail_players(mu: InputDistribution, keep: int) -> InputDistribution:
    """Fold players ``keep+1 .. k`` into the all-zeros mass.

    When the dropped players' basis masses all exceed the kept sender block
    and the window ends before their start times, the external window
    deficit is unchanged.
    """
    if not 2 <= keep < mu.k:
        raise MalformedInputError(f"keep={keep} outside 2..{mu.k - 1}")
    if mu.mass_ones > ZERO_MASS:
        raise AssumptionViolationError("remove the all-ones mass first")
    e = mu.vector[1 : mu.k + 1]
    zeros = mu.mass_zeros + sum(e[keep:].tolist())
    return InputDistribution._from_vector(keep, np.concatenate([[zeros], e[:keep], [0.0]]))
