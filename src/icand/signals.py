"""Single-bit signals: posteriors, classification, splitting, and simulation.

A signal is one randomized bit ``B`` sent by player ``s`` whose law depends
on the input only through ``x_s``.  Observing ``B = b`` moves the input
measure ``mu`` to a posterior ``mu_b`` obtained by multiplying ``mu`` by a
function of ``x_s`` alone; the update is driftless,
``mu = Pr[B=0] mu_0 + Pr[B=1] mu_1``.

The simulation walk replaces an arbitrary signal by a sequence of unbiased,
non-crossing, ``eps``-weak steps along the posterior segment
``[mu_0, mu_1]``.  Each step splits the current point ``mu_c`` into
``(1 - lam) mu_c + lam T`` and ``(1 + lam) mu_c - lam T``, each with
probability one half, where ``T`` is the endpoint of the current branch and
``lam`` is the largest value in [0, 1] such that the step stays ``eps``-weak
and order-preserving.  The terminal posterior then carries the same
two-point law as the original signal.

Exact termination has probability zero whenever a target posterior kills a
coordinate (the walk only contracts it geometrically), so a trace snaps to
an endpoint once within ``snap_tol`` total-variation distance; the snap
biases the terminal law by at most ``snap_tol``.  Away from the branch
point, steps toward a coordinate-killing target reduce to a fixed-step
random walk in log coordinates, which the bulk sampler advances in blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConditioningError,
    IcandError,
    MalformedInputError,
    NonTerminationError,
    SplittingError,
)
from .measures import LN2, ZERO_MASS, InputDistribution, _xlogx

__all__ = [
    "Signal",
    "WeakSignal",
    "SignalProfile",
    "TraceStep",
    "SimulationTrace",
    "TerminalSample",
    "posterior",
    "classify",
    "signal_info_internal",
    "signal_info_external",
    "split",
    "simulate_signal",
    "sample_terminal_posteriors",
]

#: Relative tolerance for segment-membership and tie tests in the walk.
SEGMENT_TOL = 1e-9

#: Steps a pure-region trace of the bulk sampler advances per round.
_BLOCK = 64

_UNBIASED_TOL = 1e-12


@dataclass(frozen=True)
class Signal:
    """One player's randomized bit: ``p0_given_b = Pr[B=0 | x_s = b]``."""

    sender: int
    p0_given_0: float
    p0_given_1: float

    def __post_init__(self):
        if self.sender < 1:
            raise MalformedInputError(f"sender {self.sender} must be >= 1")
        for p in (self.p0_given_0, self.p0_given_1):
            if not 0.0 <= p <= 1.0:
                raise MalformedInputError(f"conditional probability {p} outside [0,1]")

    def p0_given(self, bit: int) -> float:
        return self.p0_given_0 if bit == 0 else self.p0_given_1

    def prob0(self, mu: InputDistribution) -> float:
        """Pr[B = 0] under ``mu``."""
        self._check_k(mu)
        return float(
            sum(
                m * self.p0_given(lab.bits[self.sender - 1])
                for lab, m in zip(mu.labels, mu.vector)
            )
        )

    def _check_k(self, mu: InputDistribution) -> None:
        if self.sender > mu.k:
            raise MalformedInputError(
                f"sender {self.sender} outside 1..{mu.k}"
            )

    def to_json_obj(self) -> dict:
        return {
            "sender": self.sender,
            "p0_given_0": self.p0_given_0,
            "p0_given_1": self.p0_given_1,
        }


@dataclass(frozen=True)
class WeakSignal:
    """Weakness-``eps`` unbiased signal: its conditionals tilt by eps times
    the opposite bit's probability, so Pr[B=0] = 1/2 under the reference
    measure for every eps."""

    sender: int
    eps: float

    def __post_init__(self):
        if not 0.0 <= self.eps < 1.0:
            raise MalformedInputError(f"weakness parameter {self.eps} outside [0,1)")

    def to_signal(self, mu: InputDistribution) -> Signal:
        beta = mu.beta(self.sender)
        zeta = 1.0 - beta
        return Signal(
            sender=self.sender,
            p0_given_0=(1.0 + self.eps * beta) / 2.0,
            p0_given_1=(1.0 - self.eps * zeta) / 2.0,
        )


def posterior(mu: InputDistribution, sig: Signal, bit: int) -> InputDistribution:
    """Input measure conditioned on the signal value: a row-multiplied ``mu``.

    Normalized by the sum of the unnormalized branch masses, which keeps the
    result an exact distribution even when the branch probability is tiny.
    """
    sig._check_k(mu)
    mass = {}
    for lab, m in zip(mu.labels, mu.vector):
        if m <= 0.0:
            continue
        p = sig.p0_given(lab.bits[sig.sender - 1])
        mass[lab] = m * (p if bit == 0 else 1.0 - p)
    pb = sum(mass.values())
    if pb <= ZERO_MASS:
        raise ConditioningError(f"branch B={bit} has probability {pb}")
    return InputDistribution(mu.k, {lab: m / pb for lab, m in mass.items()})


@dataclass(frozen=True)
class SignalProfile:
    unbiased: bool
    noncrossing: bool
    weakness: float


def classify(mu: InputDistribution, sig: Signal) -> SignalProfile:
    """Weakness (max conditional bias over the support), unbiasedness, and
    whether both posteriors preserve the measure's support ordering."""
    sig._check_k(mu)
    support = mu.support()
    weakness = max(
        (abs(2.0 * sig.p0_given(lab.bits[sig.sender - 1]) - 1.0) for lab in support),
        default=0.0,
    )
    p0 = sig.prob0(mu)
    unbiased = abs(p0 - 0.5) <= _UNBIASED_TOL

    noncrossing = True
    for bit, pb in ((0, p0), (1, 1.0 - p0)):
        if pb <= ZERO_MASS:
            continue
        post = posterior(mu, sig, bit)
        for xa in support:
            for xb in support:
                if mu.mass(xa) < mu.mass(xb) - 1e-15:
                    if post.mass(xa) > post.mass(xb) + 1e-12:
                        noncrossing = False
    return SignalProfile(unbiased=unbiased, noncrossing=noncrossing, weakness=float(weakness))


def _joint_mi_nats(weights: np.ndarray, p0: np.ndarray) -> float:
    """I(B; X) in nats for unnormalized input weights and per-input
    Pr[B=0]; zero-weight rows drop out."""
    w = weights / weights.sum()
    joint = np.stack([w * p0, w * (1.0 - p0)], axis=1)
    pb = joint.sum(axis=0)
    h_x = -_xlogx(w).sum()
    h_b = -_xlogx(pb).sum()
    h_joint = -_xlogx(joint.ravel()).sum()
    return float(max(h_x + h_b - h_joint, 0.0))


def signal_info_external(mu: InputDistribution, sig: Signal) -> float:
    """I(B; X) in bits, exactly from the finite joint."""
    sig._check_k(mu)
    w = mu.vector
    p0 = np.array([sig.p0_given(lab.bits[sig.sender - 1]) for lab in mu.labels])
    live = w > ZERO_MASS
    if not live.any():
        return 0.0
    return _joint_mi_nats(w[live], p0[live]) / LN2


def signal_info_internal(mu: InputDistribution, sig: Signal) -> float:
    """Sum over players of I(B; X | X_i) in bits, exactly."""
    sig._check_k(mu)
    w = mu.vector
    p0 = np.array([sig.p0_given(lab.bits[sig.sender - 1]) for lab in mu.labels])
    bits = np.array([lab.bits for lab in mu.labels])
    total = 0.0
    for i in range(mu.k):
        for b in (0, 1):
            sel = (bits[:, i] == b) & (w > ZERO_MASS)
            pb = float(w[sel].sum())
            if pb <= ZERO_MASS:
                continue
            total += pb * _joint_mi_nats(w[sel], p0[sel])
    return total / LN2


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def _segment_coordinate(
    base: np.ndarray, direction: np.ndarray, point: np.ndarray
) -> float:
    """Solve point = base + t * direction; SplittingError if off the line."""
    scale = float(np.max(np.abs(direction)))
    if scale <= ZERO_MASS:
        if np.max(np.abs(point - base)) > SEGMENT_TOL:
            raise SplittingError("segment is degenerate but point differs from it")
        return 0.0
    j = int(np.argmax(np.abs(direction)))
    t = float((point[j] - base[j]) / direction[j])
    residual = np.max(np.abs(base + t * direction - point))
    if residual > SEGMENT_TOL * max(1.0, np.max(np.abs(point))):
        raise SplittingError(f"point is off the posterior segment (residual {residual:.2e})")
    return t


def split(
    mu: InputDistribution,
    sig: Signal,
    rho: InputDistribution,
    rho0: InputDistribution,
    rho1: InputDistribution,
) -> Signal:
    """Signal the same sender can emit at ``rho`` with posteriors ``rho0/rho1``.

    All three points must lie on the sender's posterior segment through
    ``mu`` (the convex hull of ``mu | B=0`` and ``mu | B=1``), with ``rho``
    strictly between ``rho0`` and ``rho1``; the open interval is essential,
    an endpoint ``rho`` admits no splitting signal unless the segment is
    degenerate.
    """
    sig._check_k(mu)
    p_top = sig.prob0(mu)
    if p_top <= ZERO_MASS or p_top >= 1.0 - ZERO_MASS:
        mu0_vec = mu1_vec = mu.vector
    else:
        mu0_vec = posterior(mu, sig, 0).vector
        mu1_vec = posterior(mu, sig, 1).vector
    d = mu1_vec - mu0_vec

    for point, name in ((rho0, "rho0"), (rho1, "rho1"), (rho, "rho")):
        if point.k != mu.k:
            raise SplittingError(f"{name} lives on a different cube")
        t = _segment_coordinate(mu0_vec, d, point.vector)
        if not -SEGMENT_TOL <= t <= 1.0 + SEGMENT_TOL:
            raise SplittingError(f"{name} is outside the posterior segment")

    seg = rho1.vector - rho0.vector
    if np.max(np.abs(seg)) <= ZERO_MASS:
        if rho.statistical_distance(rho0) > SEGMENT_TOL:
            raise SplittingError("rho0 = rho1 but rho differs")
        return Signal(sender=sig.sender, p0_given_0=0.5, p0_given_1=0.5)

    a = _segment_coordinate(rho0.vector, seg, rho.vector)  # rho = rho0 + a*(rho1-rho0)
    p = 1.0 - a  # Pr[B'=0]
    if not ZERO_MASS < p < 1.0 - ZERO_MASS:
        raise SplittingError(
            f"rho sits at an endpoint of (rho0, rho1) (Pr[B'=0] = {p:.3e}); "
            "the open interval is required"
        )

    # read the conditionals off the smaller branch, where they are computed
    # to full relative accuracy, and complement for the other one
    sbit = sig.sender - 1
    small_is_zero = p <= 0.5
    weight, target_small = (p, rho0) if small_is_zero else (1.0 - p, rho1)
    conds = []
    for v in (0, 1):
        vals = [
            weight * target_small.mass(lab) / rho.mass(lab)
            for lab in rho.support()
            if lab.bits[sbit] == v and rho.mass(lab) > ZERO_MASS
        ]
        if not vals:
            conds.append(0.5)
            continue
        if max(vals) - min(vals) > SEGMENT_TOL * max(1.0, max(vals)):
            raise SplittingError(
                "the three points are not on one row-multiplier family "
                "of the sender"
            )
        q_small = min(max(float(np.mean(vals)), 0.0), 1.0)
        conds.append(q_small if small_is_zero else 1.0 - q_small)
    out = Signal(sender=sig.sender, p0_given_0=float(conds[0]), p0_given_1=float(conds[1]))

    # round trip, weighted by branch probability: a branch of vanishing
    # probability cannot be represented to absolute precision by float
    # conditionals, and contributes proportionally little
    for bit, target, pb in ((0, rho0, p), (1, rho1, 1.0 - p)):
        if pb <= ZERO_MASS:
            continue
        got = posterior(rho, out, bit)
        if min(pb, 1.0) * got.statistical_distance(target) > 1e-10:
            raise SplittingError("posterior round-trip check failed")
    return out


# ---------------------------------------------------------------------------
# simulation walk
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceStep:
    signal: Signal
    bit: int
    posterior: InputDistribution


@dataclass(frozen=True)
class SimulationTrace:
    mu: InputDistribution
    eps: float
    steps: tuple[TraceStep, ...]
    terminal: InputDistribution

    def to_json_obj(self) -> dict:
        return {
            "mu": self.mu.to_json_obj(),
            "eps": self.eps,
            "steps": [
                {
                    "signal": s.signal.to_json_obj(),
                    "bit": s.bit,
                    "posterior": s.posterior.to_json_obj(),
                }
                for s in self.steps
            ],
            "terminal": self.terminal.to_json_obj(),
        }


@dataclass(frozen=True)
class TerminalSample:
    """Bulk simulation summary: empirical two-point law plus diagnostics."""

    n_traces: int
    count0: int
    count1: int
    prob0_exact: float
    max_weakness: float
    max_steps_observed: int
    mean_steps: float

    def tv_distance(self) -> float:
        """Total variation between the empirical and exact two-point laws."""
        return abs(self.count0 / self.n_traces - self.prob0_exact)


class _SegmentWalk:
    """Precomputed geometry of the walk on [mu_0, mu_1] for one signal.

    The point ``mu_0 + alpha (mu_1 - mu_0)`` is tracked through its scalar
    ``alpha``.  Below the branch point the step targets ``mu_0``, above it
    ``mu_1``; both branches multiply the distance to the current target by
    ``1 -/+ lam``.
    """

    def __init__(self, mu: InputDistribution, sig: Signal, eps: float, snap_tol: float):
        if eps <= 0.0 or eps >= 1.0:
            raise MalformedInputError(f"weakness bound {eps} outside (0, 1)")
        self.mu = mu
        self.sig = sig
        self.eps = eps
        self.snap_tol = snap_tol
        self.p0 = sig.prob0(mu)
        self.degenerate = self.p0 <= ZERO_MASS or self.p0 >= 1.0 - ZERO_MASS
        if self.degenerate:
            return
        mu0 = posterior(mu, sig, 0)
        mu1 = posterior(mu, sig, 1)
        self.mu0, self.mu1 = mu0, mu1
        support = (mu0.vector + mu1.vector) > ZERO_MASS
        self.support_idx = np.flatnonzero(support)
        self.v0 = mu0.vector[support]
        self.v1 = mu1.vector[support]
        self.d = self.v1 - self.v0
        self.tv01 = 0.5 * float(np.abs(self.d).sum())
        self.alpha_mu = 1.0 - self.p0
        self.k = mu.k
        self.labels = [mu.labels[j] for j in self.support_idx]
        sbit = sig.sender - 1
        self.class_idx = {
            v: [j for j, lab in enumerate(self.labels) if lab.bits[sbit] == v]
            for v in (0, 1)
        }
        n = len(self.labels)
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        self.pair_a = np.array([p[0] for p in pairs], dtype=int)
        self.pair_b = np.array([p[1] for p in pairs], dtype=int)
        self.pure0 = self._pure_region(self.v0, self.d, self.alpha_mu)
        self.pure1 = self._pure_region(self.v1, -self.d, 1.0 - self.alpha_mu)

    def _pure_region(self, base, direction, branch_extent):
        """Largest [0, hi) of the distance scalar where lam = eps exactly.

        Needs a coordinate killed by the target (ratio constraint pinned at
        1) and no order constraint or ratio component binding below eps
        anywhere in the region.
        """
        killed = (base <= ZERO_MASS) & (direction > ZERO_MASS)
        if not killed.any():
            return 0.0
        hi = branch_extent
        neg = direction < -ZERO_MASS
        if neg.any():
            # other ratio components stay <= 1 while 2 t |dir| <= base
            hi = min(hi, float(np.min(base[neg] / (2.0 * -direction[neg]))))
        g0 = base[self.pair_b] - base[self.pair_a]
        gd = direction[self.pair_b] - direction[self.pair_a]
        eps = self.eps
        for g0i, gdi in zip(g0, gd):
            if gdi >= -ZERO_MASS:
                if g0i < -ZERO_MASS and gdi > ZERO_MASS:
                    hi = min(hi, float(-g0i / gdi))
            else:
                if g0i > ZERO_MASS:
                    hi = min(hi, float(g0i / ((1.0 + eps) * -gdi)))
        return max(hi, 0.0)

    # -- exact vectorized step ------------------------------------------------

    def step(self, alpha: np.ndarray, bits: np.ndarray):
        """One exact walk step for every entry of ``alpha``.

        Returns (new alpha, lam, ratio).  ``bits = 0`` moves toward the
        current branch target.
        """
        side1 = alpha > self.alpha_mu
        dist = np.where(side1, 1.0 - alpha, alpha)
        base = np.where(side1[:, None], self.v1[None, :], self.v0[None, :])
        direction = np.where(side1[:, None], -self.d[None, :], self.d[None, :])
        mu_c = base + dist[:, None] * direction

        with np.errstate(divide="ignore", invalid="ignore"):
            comp = np.where(
                mu_c > ZERO_MASS,
                dist[:, None] * np.abs(direction) / np.where(mu_c > ZERO_MASS, mu_c, 1.0),
                0.0,
            )
        ratio = comp.max(axis=1)

        gap = mu_c[:, self.pair_b] - mu_c[:, self.pair_a]
        scale = np.maximum(mu_c[:, self.pair_b], mu_c[:, self.pair_a])
        strict = gap > SEGMENT_TOL * np.maximum(scale, ZERO_MASS)
        denom = dist[:, None] * np.abs(
            direction[:, self.pair_b] - direction[:, self.pair_a]
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            lam2 = np.where(strict & (denom > 0), gap / np.where(denom > 0, denom, 1.0), np.inf)
        lam = np.minimum(1.0, lam2.min(axis=1))
        with np.errstate(divide="ignore"):
            lam = np.minimum(lam, np.where(ratio > 0, self.eps / np.where(ratio > 0, ratio, 1.0), 1.0))

        toward = bits == 0
        new_dist = np.where(toward, dist * (1.0 - lam), dist * (1.0 + lam))
        new_alpha = np.where(side1, 1.0 - new_dist, new_dist)
        return new_alpha, lam, ratio

    # -- helpers ---------------------------------------------------------------

    def point(self, alpha: float) -> InputDistribution:
        vec = np.zeros(len(self.mu.labels))
        vec[self.support_idx] = self.v0 + alpha * self.d
        vec = np.maximum(vec, 0.0)
        vec /= vec.sum()
        return InputDistribution(self.mu.k, dict(zip(self.mu.labels, vec)))

    def step_signal(self, alpha: float, lam: float) -> Signal:
        """The splitting signal realized by one step from ``alpha``."""
        side1 = alpha > self.alpha_mu
        dist = (1.0 - alpha) if side1 else alpha
        base = self.v1 if side1 else self.v0
        direction = -self.d if side1 else self.d
        mu_c = base + dist * direction
        target = base
        conds = []
        for v in (0, 1):
            vals = [
                (1.0 - lam) / 2.0 + lam * target[j] / (2.0 * mu_c[j])
                for j in self.class_idx[v]
                if mu_c[j] > ZERO_MASS
            ]
            conds.append(float(np.clip(np.mean(vals), 0.0, 1.0)) if vals else 0.5)
        return Signal(self.sig.sender, conds[0], conds[1])

    def snap_state(self, alpha: float) -> int | None:
        """0/1 when within snapping distance of an endpoint, else None."""
        if alpha * self.tv01 <= self.snap_tol:
            return 0
        if (1.0 - alpha) * self.tv01 <= self.snap_tol:
            return 1
        return None

    def validate_step(self, alpha: float, lam: float) -> None:
        """Check one step against the three signal conditions.

        Weakness and order preservation are checked on the raw support
        vectors with the walk's tie tolerance; bias is checked from the
        realized conditionals.  Violations raise, they never pass silently.
        """
        side1 = alpha > self.alpha_mu
        dist = (1.0 - alpha) if side1 else alpha
        base = self.v1 if side1 else self.v0
        direction = -self.d if side1 else self.d
        mu_c = base + dist * direction
        target = base

        live = mu_c > ZERO_MASS
        weakness = float(
            np.max(lam * np.abs(mu_c[live] - target[live]) / mu_c[live])
        )
        if weakness > self.eps * (1.0 + 1e-12):
            raise IcandError(f"step weakness {weakness} exceeds eps={self.eps}")

        prob0 = 0.5 * float((mu_c + lam * (target - mu_c)).sum() / mu_c.sum())
        if abs(prob0 - 0.5) > _UNBIASED_TOL:
            raise IcandError(f"step bias |Pr[B=0] - 1/2| = {abs(prob0 - 0.5)}")

        gap = mu_c[self.pair_b] - mu_c[self.pair_a]
        scale = np.maximum(mu_c[self.pair_b], mu_c[self.pair_a])
        strict = gap > SEGMENT_TOL * np.maximum(scale, ZERO_MASS)
        for sign in (+1.0, -1.0):
            post = mu_c + sign * lam * (target - mu_c)
            post_gap = post[self.pair_b] - post[self.pair_a]
            if np.any(strict & (post_gap < -1e-12)):
                raise IcandError("step crossed a strict support ordering")


def simulate_signal(
    mu: InputDistribution,
    sig: Signal,
    eps: float,
    rng: np.random.Generator,
    *,
    max_steps: int = 10**6,
    snap_tol: float = 1e-6,
    validate: bool = True,
) -> SimulationTrace:
    """Simulate one signal by a full trace of eps-weak steps.

    The trace materializes every step's splitting signal, realized bit, and
    posterior; use :func:`sample_terminal_posteriors` for bulk statistics.
    Raises :class:`NonTerminationError` past ``max_steps`` (the walk
    terminates with probability one, so the cap is diagnostic).
    """
    walk = _SegmentWalk(mu, sig, eps, snap_tol)
    if walk.degenerate:
        return SimulationTrace(mu=mu, eps=eps, steps=(), terminal=mu)

    steps: list[TraceStep] = []
    alpha = walk.alpha_mu
    for _ in range(max_steps):
        snapped = walk.snap_state(alpha)
        if snapped is not None:
            terminal = walk.mu0 if snapped == 0 else walk.mu1
            return SimulationTrace(mu=mu, eps=eps, steps=tuple(steps), terminal=terminal)
        bit = int(rng.integers(0, 2))
        new_alpha, lam, _ = walk.step(np.array([alpha]), np.array([bit]))
        lam_f = float(lam[0])
        sig_step = walk.step_signal(alpha, lam_f)
        post = walk.point(float(new_alpha[0]))
        if validate:
            walk.validate_step(alpha, lam_f)
        steps.append(TraceStep(signal=sig_step, bit=bit, posterior=post))
        alpha = float(new_alpha[0])
    raise NonTerminationError(f"simulation exceeded {max_steps} steps")


def sample_terminal_posteriors(
    mu: InputDistribution,
    sig: Signal,
    eps: float,
    rng: np.random.Generator,
    n_traces: int,
    *,
    max_steps: int = 10**6,
    snap_tol: float = 1e-6,
) -> TerminalSample:
    """Terminal-posterior law of ``n_traces`` independent simulation walks.

    Dynamics are identical to :func:`simulate_signal`; traces sitting in a
    region where the step size is exactly ``eps`` advance ``_BLOCK`` steps at
    a time through a cumulative-sum random walk in log coordinates, with the
    first barrier crossing recovered exactly.  Every generally-stepped move
    asserts its weakness bound; pure-region moves satisfy it by construction.
    """
    walk = _SegmentWalk(mu, sig, eps, snap_tol)
    if walk.degenerate:
        return TerminalSample(
            n_traces=n_traces,
            count0=n_traces if walk.p0 >= 0.5 else 0,
            count1=0 if walk.p0 >= 0.5 else n_traces,
            prob0_exact=walk.p0,
            max_weakness=0.0,
            max_steps_observed=0,
            mean_steps=0.0,
        )

    c_tow = float(np.log1p(-eps))  # toward-target log step (negative)
    c_away = float(np.log1p(eps))
    snap_d = walk.snap_tol / walk.tv01  # snap distance, the same on both sides
    log_snap = np.log(snap_d)

    alpha = np.full(n_traces, walk.alpha_mu)
    label = np.full(n_traces, -1, dtype=np.int8)
    steps = np.zeros(n_traces, dtype=np.int64)
    max_weakness = 0.0  # pure-region steps have weakness eps by construction

    active = np.flatnonzero(label < 0)
    while active.size:
        a = alpha[active]
        hit0 = a * walk.tv01 <= walk.snap_tol
        hit1 = (1.0 - a) * walk.tv01 <= walk.snap_tol
        if hit0.any() or hit1.any():
            label[active[hit0]] = 0
            label[active[hit1 & ~hit0]] = 1
            keep = ~(hit0 | hit1)
            active = active[keep]
            a = alpha[active]
            if not active.size:
                break

        side1 = a > walk.alpha_mu
        dist = np.where(side1, 1.0 - a, a)
        pure_hi = np.where(side1, walk.pure1, walk.pure0)
        pure = (dist < pure_hi) & (dist > snap_d) & (pure_hi > 0)

        if pure.any():
            idx = active[pure]
            L = np.log(dist[pure])
            hi = np.log(pure_hi[pure])
            draws = rng.integers(0, 2, size=(idx.size, _BLOCK), dtype=np.uint8)
            moves = np.where(draws == 0, c_tow, c_away)
            W = L[:, None] + np.cumsum(moves, axis=1)
            crossed = (W <= log_snap) | (W >= hi[:, None])
            any_cross = crossed.any(axis=1)
            first = np.where(any_cross, crossed.argmax(axis=1), _BLOCK - 1)
            newL = W[np.arange(idx.size), first]
            consumed = first + 1
            steps[idx] += consumed
            new_dist = np.exp(newL)
            snapped = newL <= log_snap
            s1 = side1[pure]
            new_a = np.where(s1, 1.0 - new_dist, new_dist)
            alpha[idx] = new_a
            lab_hit = np.where(s1, 1, 0).astype(np.int8)
            label[idx[snapped]] = lab_hit[snapped]
            max_weakness = max(max_weakness, eps)

        general = ~pure
        if general.any():
            idx = active[general]
            bits = rng.integers(0, 2, size=idx.size, dtype=np.uint8)
            new_a, lam, ratio = walk.step(a[general], bits)
            w = float(np.max(lam * ratio))
            if w > eps * (1.0 + 1e-12):
                raise IcandError("walk step exceeded its weakness bound")
            max_weakness = max(max_weakness, w)
            alpha[idx] = new_a
            steps[idx] += 1

        over = steps[active] > max_steps
        if over.any():
            raise NonTerminationError(
                f"{int(over.sum())} traces exceeded {max_steps} steps"
            )
        active = active[label[active] < 0]

    return TerminalSample(
        n_traces=n_traces,
        count0=int((label == 0).sum()),
        count1=int((label == 1).sum()),
        prob0_exact=walk.p0,
        max_weakness=max_weakness,
        max_steps_observed=int(steps.max(initial=0)),
        mean_steps=float(steps.mean()) if n_traces else 0.0,
    )
