"""The discrete protocol in one call: an oracle for ``discretize.build`` and
``discretize.exact_ic``.

Each phase's survivals are built whole and the leaf table goes to the
entropy kernel in one call, so nothing depends on how the package splits
its work into blocks.  The arithmetic per element is the package's, so the
two must agree bit for bit.
"""

import math

import numpy as np

from icand.buzzers import ICReport, _class_entropies, _layout
from icand.discretize import DiscreteProtocol, _schedule
from icand.measures import LN2, ZERO_MASS, _prior_entropies


def build(mu, delta, horizon):
    """The exact transcript distribution of the slotted protocol."""
    n_slots, join_slot, n_leaves = _schedule(mu, delta, horizon)
    bits = mu.bits[mu.vector > ZERO_MASS]
    zeros = (bits == 0).astype(float)

    q = math.exp(-delta)
    log_q = -delta
    p = 1.0 - q

    boundaries = sorted({0, n_slots, *[int(j) for j in join_slot if 0 <= j < n_slots]})
    leaf_slot = np.empty(n_leaves, dtype=np.int64)
    leaf_player = np.empty(n_leaves, dtype=np.int64)
    leaf_prob = np.empty((n_leaves, len(bits)))
    log_surv = np.zeros(len(bits))
    pos = 0
    for b0, b1 in zip(boundaries[:-1], boundaries[1:]):
        active = [i for i in range(mu.k) if join_slot[i] <= b0]
        n_active = zeros[:, active].sum(axis=1)
        length = b1 - b0
        r_off = np.arange(length)
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

    return DiscreteProtocol(
        mu=mu,
        delta=float(delta),
        horizon=float(horizon),
        leaf_slot=leaf_slot,
        leaf_player=leaf_player,
        leaf_prob=leaf_prob,
        silent_prob=np.exp(log_surv),
    )


def exact_ic(proto):
    """The leafwise sum, every leaf in one kernel call."""
    live = proto.mu.vector > ZERO_MASS
    bits, w = proto.mu.bits[live], proto.mu.vector[live]
    leaves, _ = _class_entropies(proto.leaf_prob * w, _layout((bits == 0).astype(float))[1])
    prior = _prior_entropies(bits, w)
    cost = (prior - leaves.sum(axis=0)) / LN2
    return ICReport.of(prior, cost[0], cost[1:], 0.0)
