"""Conventional finite-round protocol approximating the buzzers protocol.

Time is cut into slots of length ``delta`` starting at the earliest start
time; in slot ``r`` every player who has joined and whose bit is 0 sends,
in player order, a bit that is 1 with probability ``1 - exp(-delta)`` (a
player joins at the first slot boundary at or past their start time, an
O(delta) rounding of the continuous schedule).  The first 1 ends the
protocol with output 0.  If nothing fired by the horizon ``T``, all players
reveal their inputs and output the AND exactly, so the protocol is zero
error for every slot size.

Transcripts are tracked as equivalence classes (slot, buzzing player; or
silence followed by the revealed input): any representation inducing the
same posterior walk has the same information cost.  Costs are computed by
exact summation over this finite transcript space, which makes the module
an independent oracle for the quadrature path: as ``delta`` shrinks and the
horizon grows, both converge to the continuous values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .buzzers import ICReport, _class_entropies, _classes, start_times
from .errors import MalformedInputError, ResolutionError
from .measures import LN2, ZERO_MASS, InputDistribution, _prior_entropies

__all__ = ["DiscreteProtocol", "build", "exact_ic"]


@dataclass(frozen=True)
class DiscreteProtocol:
    """The exact finite transcript distribution of the slotted protocol.

    ``leaf_slot[l]``, ``leaf_player[l]`` identify buzz leaf ``l`` and
    ``leaf_prob[l, x]`` is its probability on input ``x`` (the layout's
    rows with mass above ``ZERO_MASS``, in layout order); ``silent_prob[x]``
    is the probability of reaching the reveal stage.
    """

    mu: InputDistribution
    delta: float
    horizon: float
    leaf_slot: np.ndarray
    leaf_player: np.ndarray
    leaf_prob: np.ndarray
    silent_prob: np.ndarray


def build(
    mu: InputDistribution,
    delta: float,
    horizon: float,
    *,
    max_leaves: int = 5_000_000,
) -> DiscreteProtocol:
    """Construct the discrete protocol (exact transcript distribution).

    ``horizon`` must leave at least one time unit past the last start time.
    The construction is exact; nothing is sampled.
    """
    if not 0.0 < delta < math.inf:
        raise MalformedInputError(f"slot length {delta} must be finite and > 0")
    times = np.asarray(start_times(mu))
    if not times.max() + 1.0 <= horizon < math.inf:
        raise MalformedInputError(
            f"horizon {horizon} must be finite and at least {times.max() + 1.0}"
        )
    n_slots = np.ceil(horizon / delta)  # inf if the quotient overflows

    bits = mu.bits[mu.vector > ZERO_MASS]
    zeros = (bits == 0).astype(float)  # (n_x, k)

    # slot r admits players whose start time is at most r * delta; start
    # times lie below the horizon, so these quotients overflow only with it
    join_slot = np.ceil(np.maximum(times, 0.0) / delta - 1e-12) if n_slots < math.inf else 0.0
    # one leaf per (slot, active player); counted in floats, exact below
    # 2**53, before any cast and before anything is built
    n_leaves = float(np.maximum(n_slots - join_slot, 0.0).sum())
    if not n_leaves <= max_leaves:
        raise ResolutionError(
            f"{n_leaves:.15g} transcript classes exceed the cap {max_leaves}; "
            "increase delta or lower the horizon"
        )
    n_slots, join_slot, n_leaves = int(n_slots), join_slot.astype(int), int(n_leaves)

    q = math.exp(-delta)
    log_q = -delta
    p = 1.0 - q

    # phases of constant active set; within one, survivals are geometric
    boundaries = sorted({0, n_slots, *[int(j) for j in join_slot if 0 <= j < n_slots]})
    leaf_slot = np.empty(n_leaves, dtype=np.int64)
    leaf_player = np.empty(n_leaves, dtype=np.int64)
    leaf_prob = np.empty((n_leaves, len(bits)))
    log_surv = np.zeros(len(bits))  # log Pr[silent through slots < r | x]
    pos = 0
    for b0, b1 in zip(boundaries[:-1], boundaries[1:]):
        # the earliest player starts at 0 and joins slot 0: no phase is empty
        active = [i for i in range(mu.k) if join_slot[i] <= b0]
        n_active = zeros[:, active].sum(axis=1)  # zero-players active, per x
        length = b1 - b0
        r_off = np.arange(length)
        # survival entering slot b0 + r_off
        surv = np.exp(log_surv[None, :] + r_off[:, None] * log_q * n_active[None, :])
        prefix = np.zeros(len(bits))
        for m in active:
            fires = (bits[:, m] == 0).astype(float)
            probs = surv * (np.exp(log_q * prefix) * fires * p)[None, :]
            sl = slice(pos, pos + length)
            leaf_slot[sl] = b0 + r_off
            leaf_player[sl] = m + 1
            leaf_prob[sl] = probs
            pos += length
            prefix += fires
        log_surv += length * log_q * n_active
    silent = np.exp(log_surv)

    return DiscreteProtocol(
        mu=mu,
        delta=float(delta),
        horizon=float(horizon),
        leaf_slot=leaf_slot,
        leaf_player=leaf_player,
        leaf_prob=leaf_prob,
        silent_prob=silent,
    )


def exact_ic(proto: DiscreteProtocol) -> ICReport:
    """Exact internal/external information cost by leafwise summation.

    Reveal leaves are point posteriors and contribute nothing to the
    conditional entropies; buzz leaves, which hold only inputs with x_m = 0
    for their player m, are summed exactly by the continuous kernel's gated
    classes.  No quadrature and no sampling, so the error estimate is zero.
    """
    live = proto.mu.vector > ZERO_MASS
    bits, w = proto.mu.bits[live], proto.mu.vector[live]
    leaves, _ = _class_entropies(proto.leaf_prob * w, _classes((bits == 0).astype(float)))
    prior = _prior_entropies(bits, w)
    cost = (prior - leaves.sum(axis=0)) / LN2
    return ICReport.of(prior, cost[0], cost[1:], 0.0)
