"""The signal classifier: an oracle for the checks a walk makes on its steps.

``classify`` rebuilds both posteriors of a signal through the constructor
and reads its weakness, bias and order preservation off them one signal at
a time, independently of the walk's array checks (``checked_steps`` and
the bulk sampler's weakness guard).
"""

from dataclasses import dataclass

import numpy as np

from icand.measures import ZERO_MASS, InputDistribution
from icand.signals import Signal, posterior

_UNBIASED_TOL = 1e-12


@dataclass(frozen=True)
class SignalProfile:
    unbiased: bool
    noncrossing: bool
    weakness: float


def classify(mu: InputDistribution, sig: Signal) -> SignalProfile:
    """Weakness (max conditional bias over the support), unbiasedness, and
    whether both posteriors preserve the measure's support ordering."""
    live = mu.vector > ZERO_MASS
    weakness = np.abs(2.0 * sig._p0_rows(mu)[live] - 1.0).max()
    p0 = sig.prob0(mu)
    unbiased = abs(p0 - 0.5) <= _UNBIASED_TOL

    noncrossing = True
    m = mu.vector[live]
    lighter = m[:, None] < m[None, :] - 1e-15  # [a, b]: x_a lighter than x_b
    for bit, pb in ((0, p0), (1, 1.0 - p0)):
        if pb <= ZERO_MASS:
            continue
        post = posterior(mu, sig, bit).vector[live]
        if np.any(lighter & (post[:, None] > post[None, :] + 1e-12)):
            noncrossing = False
    return SignalProfile(unbiased=unbiased, noncrossing=noncrossing, weakness=float(weakness))
