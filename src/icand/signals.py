"""Single-bit signals: posteriors, classification, and the simulation walk.

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
and order-preserving and its step away does not pass the far end of the
segment.  The terminal posterior then carries the same two-point law as the
original signal.

Exact termination has probability zero whenever a target posterior kills a
coordinate (the walk only contracts it geometrically), so a trace snaps to
an endpoint once within ``snap_tol`` total-variation distance; the snap
biases the terminal law by at most ``snap_tol``.  Away from the branch
point, steps toward a coordinate-killing target reduce to a fixed-step
random walk in log coordinates.  The bulk sampler holds every walk as its
log distance to the target, advances it there by exact skips (as many
steps as cannot reach either barrier, binomially many toward the target,
counted as the ones among that many raw random bits of the walk's own),
and reads every other step from a table of lines in 1 / dist.  A trace
draws its bits in blocks that give the bits, and leave the generator, as
one draw per step would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConditioningError,
    IcandError,
    InvalidDistributionError,
    MalformedInputError,
    NonTerminationError,
)
from .measures import SUM_TOL, ZERO_MASS, InputDistribution

__all__ = [
    "Signal",
    "SignalProfile",
    "TraceStep",
    "SimulationTrace",
    "TerminalSample",
    "posterior",
    "classify",
    "simulate_signal",
    "sample_terminal_posteriors",
]

#: Relative tolerance for segment-membership and tie tests in the walk.
SEGMENT_TOL = 1e-9

_UNBIASED_TOL = 1e-12

#: ``_LOW_BITS[m]`` has the lowest m of 64 bits set.
_LOW_BITS = np.array([(1 << m) - 1 for m in range(65)], dtype=np.uint64)
_MAX_SKIP = 512  # steps per pure-region skip: at most eight raw words per walk
_BIT_BLOCK = 1024  # bits a trace draws at a time


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

    def _p0_rows(self, mu: InputDistribution) -> np.ndarray:
        """Pr[B = 0 | x] for every input x of the layout of ``mu``."""
        if self.sender > mu.k:
            raise MalformedInputError(
                f"sender {self.sender} outside 1..{mu.k}"
            )
        return np.where(mu.bits[:, self.sender - 1] == 0, self.p0_given_0, self.p0_given_1)

    def prob0(self, mu: InputDistribution) -> float:
        """Pr[B = 0] under ``mu``, summed left to right."""
        return float(sum(mu.vector * self._p0_rows(mu)))


def posterior(mu: InputDistribution, sig: Signal, bit: int) -> InputDistribution:
    """Input measure conditioned on the signal value: a row-multiplied ``mu``.

    Normalized by the sum of the unnormalized branch masses, which keeps the
    result an exact distribution even when the branch probability is tiny.
    """
    p0 = sig._p0_rows(mu)
    mass = mu.vector * (p0 if bit == 0 else 1.0 - p0)
    pb = sum(mass)
    if pb <= ZERO_MASS:
        raise ConditioningError(f"branch B={bit} has probability {pb}")
    return InputDistribution._from_vector(mu.k, mass / pb)


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


# ---------------------------------------------------------------------------
# simulation walk
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceStep:
    signal: Signal
    bit: int
    posterior: InputDistribution


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """One simulated signal, held as per-step arrays.

    Step ``j`` realized the splitting signal of ``sender`` with conditionals
    ``conditionals[j] = (Pr[B=0 | x_s=0], Pr[B=0 | x_s=1])``, the bit
    ``bits[j]`` and the posterior ``posteriors[j]`` in layout order.  The
    command line writes a trace with ``json.dumps`` and splices in its steps,
    formatted straight from these arrays (see ``cli._dump`` and
    ``cli._write_steps``); no per-step object is built for it.
    """

    mu: InputDistribution
    eps: float
    sender: int
    conditionals: np.ndarray
    bits: np.ndarray
    posteriors: np.ndarray
    terminal: InputDistribution

    @cached_property
    def steps(self) -> tuple[TraceStep, ...]:
        """The steps as signal and measure objects, built on first access."""
        k = self.mu.k
        return tuple(
            TraceStep(
                signal=Signal(self.sender, c0, c1),
                bit=bit,
                posterior=InputDistribution._checked(k, np.array(row)),
            )
            for (c0, c1), bit, row in zip(
                self.conditionals.tolist(), self.bits.tolist(), self.posteriors.tolist()
            )
        )


@dataclass(frozen=True)
class TerminalSample:
    """Bulk simulation summary: empirical two-point law plus diagnostics.

    ``pure_steps`` were taken by pure-region skips, ``general_steps`` one per
    general move; ``rounds`` counts the vectorised rounds that moved a walk.
    A ``degenerate`` signal leaves every walk at mu = mu_0 = mu_1, the exact
    terminal law; its walks are counted on the likelier label.
    """

    n_traces: int
    count0: int
    count1: int
    prob0_exact: float
    max_weakness: float = 0.0
    max_steps_observed: int = 0
    mean_steps: float = 0.0
    pure_steps: int = 0
    general_steps: int = 0
    rounds: int = 0
    degenerate: bool = False

    def tv_distance(self) -> float:
        """Total variation between the empirical and exact terminal laws."""
        return 0.0 if self.degenerate else abs(self.count0 / self.n_traces - self.prob0_exact)


def _check_walk_args(eps: float, snap_tol: float, max_steps: int) -> None:
    """Reject malformed walk parameters before anything is allocated; every
    test is written so that NaN fails it."""
    if not 0.0 < eps < 1.0:
        raise MalformedInputError(f"weakness bound {eps} outside (0, 1)")
    if not 0.0 < snap_tol < math.inf:
        raise MalformedInputError(f"snap tolerance {snap_tol} must be finite and > 0")
    if not max_steps >= 0:
        raise MalformedInputError(f"step cap {max_steps} must be >= 0")


def _first(mask: np.ndarray) -> int | None:
    """Index of the first true entry, None if there is none."""
    hit = np.flatnonzero(mask)
    return int(hit[0]) if hit.size else None


class _SegmentWalk:
    """Precomputed geometry of the walk on [mu_0, mu_1] for one signal.

    The point ``mu_0 + alpha (mu_1 - mu_0)`` is tracked through its scalar
    ``alpha``.  Below the branch point the step targets ``mu_0``, above it
    ``mu_1``; both branches multiply the distance to the current target by
    ``1 -/+ lam``.
    """

    def __init__(self, mu: InputDistribution, sig: Signal, eps: float, snap_tol: float):
        self.mu = mu
        self.eps = eps
        self.snap_tol = snap_tol
        self.p0 = sig.prob0(mu)
        # a signal with one law on the whole support (equal conditionals, or
        # a support inside one class of the sender's bit) leaves both
        # posteriors at mu: there is no segment to walk
        laws = set(sig._p0_rows(mu)[mu.vector > ZERO_MASS].tolist())
        self.degenerate = self.p0 <= ZERO_MASS or self.p0 >= 1.0 - ZERO_MASS or len(laws) == 1
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
        sender_bits = mu.bits[self.support_idx, sig.sender - 1]
        self.class_idx = {v: np.flatnonzero(sender_bits == v) for v in (0, 1)}
        n = self.support_idx.size
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        self.pair_a = np.array([p[0] for p in pairs], dtype=int)
        self.pair_b = np.array([p[1] for p in pairs], dtype=int)
        # what the scalar walk needs per branch (below, above the branch
        # point), as Python floats: the target, the direction, its absolute
        # value, and (a, b, |direction_b - direction_a|) per ordered pair
        self.scalar_branches = tuple(
            (
                base.tolist(),
                direction.tolist(),
                np.abs(direction).tolist(),
                list(zip(
                    self.pair_a.tolist(),
                    self.pair_b.tolist(),
                    np.abs(direction[self.pair_b] - direction[self.pair_a]).tolist(),
                )),
            )
            for base, direction in ((self.v0, self.d), (self.v1, -self.d))
        )

    def _frame(self, alpha: np.ndarray):
        """Per entry of ``alpha``: whether it is above the branch point, its
        distance to the branch target, the target, the direction away from
        it, and the current point, all on the support."""
        side1 = alpha > self.alpha_mu
        dist = np.where(side1, 1.0 - alpha, alpha)
        base = np.where(side1[:, None], self.v1[None, :], self.v0[None, :])
        direction = np.where(side1[:, None], -self.d[None, :], self.d[None, :])
        return side1, dist, base, direction, base + dist[:, None] * direction

    def lam_table(self):
        """Step size and ratio of a step from ``alpha``, as pieces.

        With u = 1/dist a live coordinate bounds lam by eps (base_i u + dir_i)
        / |dir_i|, a strict pair by (g0 u + gd) / |gd|, and the far end of the
        segment, which a step away must not pass, by u - 1; between the floats
        where a step's tests flip, lam is the lower envelope of those lines.
        Returns ``edges``, the first float of every piece but the first; per
        piece (A, B, C, D), with lam = min(1, A u + B) and ratio = eps / (C u
        + D); and per side the distance below which lam = eps and ratio = 1
        (pure region).
        """
        pa, pb, eps, n, tol = self.pair_a, self.pair_b, self.eps, self.v0.size, SEGMENT_TOL
        u_hi, m = self.tv01 / self.snap_tol, self.pair_a.size
        tables, pure_hi = [], []
        for side, base, direction, a_first, a_last in (
            (0, self.v0, self.d, 1.0 / u_hi, self.alpha_mu),
            (1, self.v1, -self.d, np.nextafter(self.alpha_mu, 1.0), 1.0 - 1.0 / u_hi),
        ):
            g0, gd = base[pb] - base[pa], direction[pb] - direction[pa]
            absd, scale = np.abs(np.r_[direction, gd]), np.r_[np.full(n, eps), np.ones(m)]
            flip = lambda x: side + (1.0 - 2.0 * side) * x  # alpha <-> dist on this side
            ia, ib = np.r_[np.arange(n), pa, pa, pa], np.r_[np.arange(n), pb, pb, pb]

            def test(alpha, t):  # test t of a step from alpha, the sign of p_t u + q_t below
                mu_a, mu_b = (base[i] + flip(alpha) * direction[i] for i in (ia[t], ib[t]))
                return np.select([t < n, t < n + m, t < n + 2 * m], [
                    mu_b > ZERO_MASS, mu_b - mu_a > tol * mu_b, mu_b - mu_a > tol * mu_a],
                    mu_b - mu_a > tol * ZERO_MASS)
            p = np.r_[base - ZERO_MASS, g0 - tol * base[pb], g0 - tol * base[pa],
                      g0 - tol * ZERO_MASS]
            q = np.r_[direction, gd - tol * direction[pb], gd - tol * direction[pa], gd]
            with np.errstate(divide="ignore", invalid="ignore"):
                slope = scale * np.r_[np.where(base > ZERO_MASS, base, 0.0), g0] / absd
                icpt = scale * np.sign(np.r_[direction, gd])
                near = flip(1.0 / np.outer(-q / p, [1.0 - 1e-9, 1.0 + 1e-9]))
            near = np.clip(np.sort(near, axis=1), a_first, a_last)
            k = np.flatnonzero(near[:, 0] < near[:, 1])
            flips = _first_float(*near[k].T, lambda x: test(x, k) == test(near[k, 1], k))
            bounds = np.unique(np.r_[a_first, flips])
            on = test(bounds[:, None], np.arange(p.size))
            on = np.c_[on[:, :n], on[:, n:].reshape(-1, 3, m).all(axis=1)]  # strict: all three
            starts, rows = [], []
            for a0, a1, live in zip(bounds, np.r_[bounds[1:], a_last], on & (absd > 0.0)):
                u0, u1 = np.sort(1.0 / flip(np.array([a0, a1])))
                ls, la, lb = _lower_envelope(np.r_[slope[live], 1.0], np.r_[icpt[live], -1.0],
                                             u0, u1)
                rs, ra, rb = _lower_envelope(slope[:n][live[:n]], icpt[:n][live[:n]], u0, u1)
                s = np.union1d(ls, rs)
                li, ri = np.searchsorted(ls, s, "right") - 1, np.searchsorted(rs, s, "right") - 1
                rows.append(np.stack([la[li], lb[li], ra[ri], rb[ri]])[:, :: 2 * side - 1])
                starts += [a0, *np.sort(flip(1.0 / s[1:]))]
            coef, starts = np.concatenate(rows, axis=1), np.array(starts)
            cross = np.flatnonzero(~np.isin(starts, bounds))
            # where two lines cross: the first float on which the new ones are lower
            mid = (starts + np.r_[starts[1:], a_last]) / 2.0
            starts[cross] = _first_float(mid[cross - 1], mid[cross], lambda x: (
                coef[0::2, cross] / flip(x) + coef[1::2, cross]
                <= coef[0::2, cross - 1] / flip(x) + coef[1::2, cross - 1]).all(axis=0))
            tables.append((starts, coef))
            pure = (coef == np.c_[[0.0, eps, 0.0, eps]]).all(axis=0)[:: 1 - 2 * side]
            run = int(np.argmin(np.r_[pure, False]))  # pure pieces at the snap end
            end = np.r_[starts, a_last][:: 1 - 2 * side][run]
            pure_hi.append(float(flip(end)) if run else 0.0)
        (s0, c0), (s1, c1) = tables  # the first piece also covers every alpha below it
        return np.maximum.accumulate(np.r_[s0[1:], s1]), np.c_[c0, c1], np.array(pure_hi)

    # -- one trace, step by step -----------------------------------------------

    def trace(self, rng: np.random.Generator, max_steps: int):
        """One walk from the branch point, with the bits of one
        ``rng.integers(0, 2)`` per step.

        The bits are drawn in blocks: ``rng.integers(0, 2, size=m)`` (int64)
        gives the bits of m single draws and leaves the generator where they
        would.  When the walk ends, the generator is set back to its state
        before the last block and draws again only the bits used, so it ends
        where one draw per step leaves it.  Each step recomputes every bound
        on Python floats.  Returns the alphas before the first step and after
        every step, the step sizes, the bits, and the endpoint snapped to
        (None if not snapped within ``max_steps``).
        """
        alpha_mu, eps, tv01, snap_tol = self.alpha_mu, self.eps, self.tv01, self.snap_tol
        alpha = alpha_mu
        path, lams, bits = [alpha], [], []
        block, used, snapped = [], 0, None
        for _ in range(max_steps):
            if alpha * tv01 <= snap_tol:
                snapped = 0
                break
            if (1.0 - alpha) * tv01 <= snap_tol:
                snapped = 1
                break
            if used == len(block):
                state = rng.bit_generator.state
                block, used = rng.integers(0, 2, size=_BIT_BLOCK).tolist(), 0
            bit = block[used]
            used += 1
            side1 = alpha > alpha_mu
            dist = (1.0 - alpha) if side1 else alpha
            target, direction, abs_dir, pairs = self.scalar_branches[side1]
            mu_c = [t + dist * e for t, e in zip(target, direction)]
            ratio = max(
                [dist * s / m if m > ZERO_MASS else 0.0 for s, m in zip(abs_dir, mu_c)]
            )
            lam = min(1.0, 1.0 / dist - 1.0)  # a step away stays on the segment
            for i, j, diff in pairs:
                gap = mu_c[j] - mu_c[i]
                denom = dist * diff
                if gap > SEGMENT_TOL * max(mu_c[j], mu_c[i], ZERO_MASS) and denom > 0.0:
                    lam = min(lam, gap / denom)
            if ratio > 0.0:
                lam = min(lam, eps / ratio)
            new_dist = dist * (1.0 - lam) if bit == 0 else dist * (1.0 + lam)
            alpha = (1.0 - new_dist) if side1 else new_dist
            path.append(alpha)
            lams.append(lam)
            bits.append(bit)
        if used < len(block):  # rewind to just past the bits used
            rng.bit_generator.state = state
            rng.integers(0, 2, size=used)
        return path, lams, bits, snapped

    # -- whole traces as arrays --------------------------------------------------

    def points(self, alpha: np.ndarray) -> np.ndarray:
        """The measures at ``alpha``, one row each in layout order, with
        the constructor's check that each sums to one (NaN fails it)."""
        vec = np.zeros((alpha.size, len(self.mu.bits)))
        vec[:, self.support_idx] = self.v0 + alpha[:, None] * self.d
        np.maximum(vec, 0.0, out=vec)
        vec /= vec.sum(axis=1, keepdims=True)
        total = vec.sum(axis=1)
        j = _first(~(np.abs(total - 1.0) <= SUM_TOL))
        if j is not None:
            raise InvalidDistributionError(f"posterior of step {j} sums to {total[j]!r}, not 1")
        return vec

    def step_signals(self, alpha: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """Conditionals (Pr[B=0 | x_s=0], Pr[B=0 | x_s=1]) of the splitting
        signal each step from ``alpha`` with size ``lam`` realizes: the mean
        over the sender's bit class of the live coordinates' conditionals,
        1/2 for a class without any."""
        _, _, target, _, mu_c = self._frame(alpha)
        live = mu_c > ZERO_MASS
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = (1.0 - lam)[:, None] / 2.0 + lam[:, None] * target / (2.0 * mu_c)
        conds = np.full((alpha.size, 2), 0.5)
        for v in (0, 1):
            cols = self.class_idx[v]
            count = live[:, cols].sum(axis=1)
            total = np.where(live[:, cols], vals[:, cols], 0.0).sum(axis=1)
            some = count > 0
            conds[some, v] = np.clip(total[some] / count[some], 0.0, 1.0)
        j = _first(~((conds >= 0.0) & (conds <= 1.0)).all(axis=1))
        if j is not None:
            raise MalformedInputError(
                f"conditional probabilities {conds[j]} of step {j} outside [0,1]"
            )
        return conds

    def validate_steps(self, alpha: np.ndarray, lam: np.ndarray) -> None:
        """Check every step against the three signal conditions, and that
        both of its outcomes stay on the segment.

        Weakness and order preservation are checked on the raw support
        vectors with the walk's tie tolerance; bias is checked from the
        realized conditionals; each outcome's alpha must lie in [0, 1] up to
        rounding.  Violations raise, they never pass silently, and a NaN
        fails every check.
        """
        _, dist, target, _, mu_c = self._frame(alpha)
        # the distance to the target after a step toward it and after one away
        reach = dist[:, None] * (1.0 + np.outer(lam, [-1.0, 1.0]))
        j = _first(~((reach >= -1e-12) & (reach <= 1.0 + 1e-12)).all(axis=1))
        if j is not None:
            raise IcandError(f"step {j} leaves the segment [mu_0, mu_1]")

        lam = lam[:, None]
        live = mu_c > ZERO_MASS
        with np.errstate(divide="ignore", invalid="ignore"):
            weakness = np.where(live, lam * np.abs(mu_c - target) / mu_c, 0.0).max(axis=1)
        j = _first(~(weakness <= self.eps * (1.0 + 1e-12)))
        if j is not None:
            raise IcandError(f"step {j} weakness {weakness[j]} exceeds eps={self.eps}")

        prob0 = 0.5 * ((mu_c + lam * (target - mu_c)).sum(axis=1) / mu_c.sum(axis=1))
        j = _first(~(np.abs(prob0 - 0.5) <= _UNBIASED_TOL))
        if j is not None:
            raise IcandError(f"step {j} bias |Pr[B=0] - 1/2| = {abs(prob0[j] - 0.5)}")

        gap = mu_c[:, self.pair_b] - mu_c[:, self.pair_a]
        scale = np.maximum(mu_c[:, self.pair_b], mu_c[:, self.pair_a])
        strict = gap > SEGMENT_TOL * np.maximum(scale, ZERO_MASS)
        for sign in (+1.0, -1.0):
            post = mu_c + sign * lam * (target - mu_c)
            post_gap = post[:, self.pair_b] - post[:, self.pair_a]
            j = _first((strict & ~(post_gap >= -1e-12)).any(axis=1))
            if j is not None:
                raise IcandError(f"step {j} crossed a strict support ordering")


def simulate_signal(
    mu: InputDistribution,
    sig: Signal,
    eps: float,
    rng: np.random.Generator,
    *,
    max_steps: int = 10**6,
    snap_tol: float = 1e-6,
) -> SimulationTrace:
    """Simulate one signal by a full trace of eps-weak steps.

    The walk runs step by step on Python floats, one random bit per step.
    Every step's splitting signal and posterior are then computed as arrays,
    with the checks the signal and measure constructors make; the trace's
    ``steps`` objects are built only when read.  Every step is also checked
    for weakness, bias, order preservation and staying on the segment before
    the function returns.
    Use :func:`sample_terminal_posteriors` for bulk statistics.  Raises
    :class:`NonTerminationError` past ``max_steps`` (the walk terminates
    with probability one, so the cap is diagnostic).
    """
    _check_walk_args(eps, snap_tol, max_steps)
    walk = _SegmentWalk(mu, sig, eps, snap_tol)
    if walk.degenerate:
        return SimulationTrace(
            mu=mu,
            eps=eps,
            sender=sig.sender,
            conditionals=np.empty((0, 2)),
            bits=np.empty(0, dtype=np.int64),
            posteriors=np.empty((0, len(mu.bits))),
            terminal=mu,
        )

    path, lams, bits, snapped = walk.trace(rng, max_steps)
    alpha = np.array(path)
    lam = np.array(lams)
    conditionals = walk.step_signals(alpha[:-1], lam)
    posteriors = walk.points(alpha[1:])
    walk.validate_steps(alpha[:-1], lam)
    if snapped is None:
        raise NonTerminationError(f"simulation exceeded {max_steps} steps")
    return SimulationTrace(
        mu=mu,
        eps=eps,
        sender=sig.sender,
        conditionals=conditionals,
        bits=np.array(bits, dtype=np.int64),
        posteriors=posteriors,
        terminal=walk.mu0 if snapped == 0 else walk.mu1,
    )


def _lower_envelope(A, B, u0, u1):
    """min_j (A_j u + B_j) on [u0, u1]: the starts of its pieces and each
    one's line (A, B), (0, inf) if none; each switch lowers the slope."""
    A, B = np.append(A, 0.0), np.append(B, np.inf)
    j = int(np.lexsort((A, A * u0 + B))[0])
    starts, lines = [u0], [j]
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            cross = np.where(A < A[j], np.maximum((B - B[j]) / (A[j] - A), starts[-1]), np.inf)
            j = int(np.lexsort((A, cross))[0])
            if not cross[j] < u1:
                return np.array(starts), A[lines], B[lines]
            starts, lines = starts + [float(cross[j])], lines + [j]


def _first_float(lo, hi, holds):
    """Per entry, the first float >= 0 in (lo, hi] where ``holds``, true at hi, not at lo."""
    lo, hi = np.asarray(lo, float).view(np.int64), np.asarray(hi, float).view(np.int64)
    for _ in range(64):
        mid = lo + (hi - lo) // 2
        at = holds(mid.view(float))
        lo, hi = np.where(at, lo, mid), np.where(at, mid, hi)
    return hi.view(float)


def _skip_lengths(
    log_dist: np.ndarray, log_lo: float, log_hi: np.ndarray, reach: float
) -> np.ndarray:
    """Steps per pure-region skip: the most, n, with ``n * reach`` below the
    log distance to the nearer barrier, so that neither extreme path (all
    steps toward, all steps away) reaches ``log_lo`` or ``log_hi``; at least
    one.  ``reach`` is the longer of the two log steps."""
    gap = np.minimum(log_dist - log_lo, log_hi - log_dist)
    return np.maximum(np.ceil(gap / reach) - 1.0, 1.0).astype(np.int64)


def _binomial_half(rng: np.random.Generator, n: np.ndarray) -> np.ndarray:
    """Binomial(n, 1/2) per entry of ``n`` >= 1: the ones among the lowest n
    bits of ceil(n / 64) raw 64-bit words of the entry's own.  Every entry
    draws one word for its first 64 bits, then the entries with bits left
    draw for the rest the same way."""
    raw = rng.bit_generator.random_raw(n.size)
    raw &= _LOW_BITS[np.minimum(n, 64)]
    ones = np.bitwise_count(raw).astype(np.int64)
    more = np.flatnonzero(n > 64)
    if more.size:
        ones[more] += _binomial_half(rng, n[more] - 64)
    return ones


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

    Dynamics are those of :func:`simulate_signal`, run for all walks at once
    in rounds.  A walk is held as its side of the branch point and its log
    distance ``L`` to that side's target; it is finished once ``L`` is at or
    below ``ln(snap_tol / tv01)``.  A trace tests ``dist * tv01 <= snap_tol``
    on the distance it forms from alpha instead, so the two can differ in
    the last bit near the barrier.  In the pure region the step size is
    exactly ``eps``, so ``L`` moves by ``ln(1 - eps)`` or ``ln(1 + eps)``; a
    walk there takes ``n`` steps per round (:func:`_skip_lengths`), moving to
    ``L + K ln(1 - eps) + (n - K) ln(1 + eps)`` with ``K ~ Binomial(n, 1/2)``
    counted as the ones among n raw random bits of its own
    (:func:`_binomial_half`).  Those ``n`` steps cannot cross the snap
    barrier or the region's upper end unless ``n = 1``, which is tested as
    one plain step, so the skip is exact in law and keeps the step count.
    The region ends one step away short of the branch point, so no skip
    passes it.  Pure-region steps have weakness ``eps`` by construction.  A
    walk in the general region takes one step per round: its alpha reads
    :meth:`_SegmentWalk.lam_table` among the pieces of the walk's own side
    (rounding can put alpha a few floats across the branch point), the step
    asserts its weakness bound, and the new alpha gives the side and ``L``
    again; a step that lands at or past an endpoint finishes there.  Only
    unfinished walks are held; a walk that snaps has its label and step
    count written back and is dropped.
    """
    _check_walk_args(eps, snap_tol, max_steps)
    if not n_traces >= 1:
        raise MalformedInputError(f"trace count {n_traces} must be >= 1")
    walk = _SegmentWalk(mu, sig, eps, snap_tol)
    if walk.degenerate:
        return TerminalSample(
            n_traces=n_traces,
            count0=n_traces if walk.p0 >= 0.5 else 0,
            count1=0 if walk.p0 >= 0.5 else n_traces,
            prob0_exact=walk.p0,
            degenerate=True,
        )

    c_tow = float(np.log1p(-eps))  # toward-target log step (negative)
    c_away = float(np.log1p(eps))
    reach = max(-c_tow, c_away)
    log_snap = math.log(snap_tol / walk.tv01)  # snap distance, the same on both sides
    edges, coef, pure_hi = walk.lam_table()
    rows = np.ascontiguousarray(coef.T)
    last0 = int(np.searchsorted(edges, walk.alpha_mu, side="right"))  # side 0's last piece
    # the pure region ends one step away short of the branch point, so that
    # only a general step, which reads its side from alpha, can pass it
    branch = np.array([walk.alpha_mu, 1.0 - walk.alpha_mu])
    with np.errstate(divide="ignore"):
        log_hi = np.minimum(np.log(pure_hi), np.log(branch) - c_away)  # read by side

    # the branch point may lie within snap distance of the far end; past it
    # a walk can only snap to the end of its own side
    far = (1.0 - walk.alpha_mu) * walk.tv01 <= snap_tol < walk.alpha_mu * walk.tv01
    label = np.full(n_traces, 1 if far else -1, dtype=np.int8)
    total = np.zeros(n_traces, dtype=np.int64)  # step counts of finished walks
    # unfinished walks: index, side (1 above the branch point), log distance
    # to the side's target, steps
    ids = np.arange(0 if far else n_traces)
    side = np.zeros(ids.size, dtype=np.uint8)
    L = np.full(ids.size, math.log(walk.alpha_mu))
    steps = np.zeros(ids.size, dtype=np.int64)
    max_weakness = 0.0
    pure_steps = general_steps = rounds = 0

    while True:
        done = L <= log_snap
        if done.any():
            label[ids[done]] = side[done]
            total[ids[done]] = steps[done]
            keep = ~done
            ids, side, L, steps = ids[keep], side[keep], L[keep], steps[keep]
        if not ids.size:
            break
        rounds += 1
        hi = np.take(log_hi, side)
        pure = L < hi
        p, g = np.flatnonzero(pure), np.flatnonzero(~pure)

        if p.size:
            Lp = L[p]
            n = _skip_lengths(Lp, log_snap, hi[p], reach)
            n = np.minimum(n, _MAX_SKIP)  # a shorter skip stays inside as well
            toward = _binomial_half(rng, n)
            L[p] = Lp + toward * c_tow + (n - toward) * c_away
            steps[p] += n - 1
            pure_steps += int(n.sum())
            max_weakness = max(max_weakness, eps)

        if g.size:
            bits = rng.integers(0, 2, size=g.size, dtype=np.uint8)
            s = side[g]
            sign = 1.0 - 2.0 * s  # alpha = s + sign * dist on either side, exactly
            d = np.exp(L[g])
            piece = np.searchsorted(edges, s + sign * d, side="right")
            # within rounding of the branch point alpha can fall on the other
            # side; the walk reads the piece of its own side
            piece = np.where(s, np.maximum(piece, last0 + 1), np.minimum(piece, last0))
            A, B, C, D = np.take(rows, piece, axis=0).T
            lam = np.minimum(1.0, A / d + B)
            w = float(np.max(lam * (eps / (C / d + D))))
            if not w <= eps * (1.0 + 1e-12):
                raise IcandError("walk step exceeded its weakness bound")
            max_weakness = max(max_weakness, w)
            alpha = s + sign * (d * (1.0 + lam * (2.0 * bits - 1.0)))  # bit 0 steps toward
            s = alpha > walk.alpha_mu
            side[g] = s
            # a step that lands at or past an endpoint finishes on its side
            with np.errstate(divide="ignore"):
                L[g] = np.log(np.maximum(s + (1.0 - 2.0 * s) * alpha, 0.0))
            general_steps += g.size
        steps += 1

        if steps.max() > max_steps:
            over = int((steps > max_steps).sum())
            raise NonTerminationError(f"{over} traces exceeded {max_steps} steps")

    return TerminalSample(
        n_traces=n_traces,
        count0=int((label == 0).sum()),
        count1=int((label == 1).sum()),
        prob0_exact=walk.p0,
        max_weakness=max_weakness,
        max_steps_observed=int(total.max()),
        mean_steps=float(total.mean()),
        pure_steps=pure_steps,
        general_steps=general_steps,
        rounds=rounds,
    )
