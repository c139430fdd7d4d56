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

from .buzzers import _KERNEL_BLOCK, ICReport, _class_entropies, _layout, start_times
from .errors import MalformedInputError, ResolutionError
from .measures import LN2, ZERO_MASS, InputDistribution, _prior_entropies

__all__ = ["DiscreteProtocol", "build", "exact_ic"]

#: Leaves (slot, buzzing player) a discrete protocol may have.  A leaf sum
#: at the cap peaks near its table and entropies, (2 + n_x + k + 1) * 8
#: bytes a leaf, plus one kernel block: about 0.3 GB at k = 2, where one
#: kernel call over every leaf took about 0.9 GB.
_MAX_LEAVES = 5_000_000


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


def _schedule(mu: InputDistribution, delta: float, horizon: float) -> tuple[int, np.ndarray, int]:
    """(slots, each player's join slot, leaves) of the protocol, after
    checking its arguments: ``horizon`` must leave at least one time unit
    past the last start time, and the protocol may have at most
    ``_MAX_LEAVES`` leaves.  Nothing is allocated per leaf."""
    if not 0.0 < delta < math.inf:
        raise MalformedInputError(f"slot length {delta} must be finite and > 0")
    times = start_times(mu)
    if not times.max() + 1.0 <= horizon < math.inf:
        raise MalformedInputError(
            f"horizon {horizon} must be finite and at least {times.max() + 1.0}"
        )
    n_slots = np.ceil(horizon / delta)  # inf if the quotient overflows
    # slot r admits players whose start time is at most r * delta; start
    # times lie below the horizon, so these quotients overflow only with it
    join_slot = np.ceil(np.maximum(times, 0.0) / delta - 1e-12) if n_slots < math.inf else 0.0
    # one leaf per (slot, active player); counted in floats, exact below
    # 2**53, before any cast and before anything is built
    n_leaves = float(np.maximum(n_slots - join_slot, 0.0).sum())
    if not n_leaves <= _MAX_LEAVES:
        raise ResolutionError(
            f"{n_leaves:.15g} transcript classes exceed the cap {_MAX_LEAVES}; "
            "increase delta or lower the horizon"
        )
    return int(n_slots), join_slot.astype(int), int(n_leaves)


def build(mu: InputDistribution, delta: float, horizon: float) -> DiscreteProtocol:
    """Construct the discrete protocol (exact transcript distribution), once
    :func:`_schedule` accepts its arguments.  The construction is exact;
    nothing is sampled.
    """
    n_slots, join_slot, n_leaves = _schedule(mu, delta, horizon)
    bits = mu.bits[mu.vector > ZERO_MASS]
    zeros = (bits == 0).astype(float)  # (n_x, k)

    q = math.exp(-delta)
    log_q = -delta
    p = 1.0 - q

    # phases of constant active set; within one, survivals are geometric
    boundaries = sorted({0, n_slots, *[int(j) for j in join_slot if 0 <= j < n_slots]})
    rows = max(1, _KERNEL_BLOCK // len(bits))  # slots per survival block
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
        # player m's leaves fill rows pos + j * length + (0 .. length - 1),
        # for its index j among the active players; its factor is the chance
        # that the players before it in the slot stay silent and it fires
        factors = []
        prefix = np.zeros(len(bits))
        for j, m in enumerate(active):
            fires = (bits[:, m] == 0).astype(float)
            factors.append(np.exp(log_q * prefix) * fires * p)
            leaf_player[pos + j * length : pos + (j + 1) * length] = m + 1
            prefix += fires
        for r0 in range(0, length, rows):
            r_off = np.arange(r0, min(r0 + rows, length))
            # survival entering slot b0 + r_off, shared by the phase's players
            surv = np.exp(log_surv[None, :] + r_off[:, None] * log_q * n_active[None, :])
            for j, factor in enumerate(factors):
                block = slice(pos + j * length + r0, pos + j * length + r0 + len(r_off))
                leaf_slot[block] = b0 + r_off
                np.multiply(surv, factor, out=leaf_prob[block])
        pos += len(active) * length
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
    classes = _layout((bits == 0).astype(float))[1]
    # the kernel's temporaries stay within one block of about _KERNEL_BLOCK
    # densities; only the entropies of every leaf are kept, for one sum
    rows = max(1, _KERNEL_BLOCK // len(w))
    leaves = np.empty((len(proto.leaf_prob), classes.shape[1]))
    for r0 in range(0, len(leaves), rows):
        leaves[r0 : r0 + rows] = _class_entropies(proto.leaf_prob[r0 : r0 + rows] * w, classes)[0]
    prior = _prior_entropies(bits, w)
    cost = (prior - leaves.sum(axis=0)) / LN2
    return ICReport.of(prior, cost[0], cost[1:], 0.0)
