"""Signal algebra: posteriors, classification, simulation."""

import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from icand.errors import (
    ConditioningError,
    IcandError,
    MalformedInputError,
    NonTerminationError,
)
from icand import cli, measures
from icand.measures import ZERO_MASS, InputDistribution, canonical_labels
from icand.signals import (
    SEGMENT_TOL,
    _BIT_BLOCK,
    Signal,
    _SegmentWalk,
    _binomial_half,
    _skip_lengths,
    classify,
    posterior,
    SimulationTrace,
    sample_terminal_posteriors,
    simulate_signal,
)

MU_NO11 = InputDistribution.two_party(1 / 3, 1 / 3, 1 / 3, 0.0)


@dataclass(frozen=True)
class WeakSignal:
    """Weakness-``eps`` unbiased signal: its conditionals tilt by eps times
    the opposite bit's probability, so Pr[B=0] = 1/2 under the reference
    measure for every eps."""

    sender: int
    eps: float

    def to_signal(self, mu: InputDistribution) -> Signal:
        beta = mu.beta(self.sender)
        return Signal(
            sender=self.sender,
            p0_given_0=(1.0 + self.eps * beta) / 2.0,
            p0_given_1=(1.0 - self.eps * (1.0 - beta)) / 2.0,
        )


@st.composite
def two_party_measures(draw):
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
    v = np.array(raw) / np.sum(raw)
    return InputDistribution(2, dict(zip(canonical_labels(2), v)))


@st.composite
def signals(draw):
    return Signal(
        sender=draw(st.integers(1, 2)),
        p0_given_0=draw(st.floats(0.05, 0.95)),
        p0_given_1=draw(st.floats(0.05, 0.95)),
    )


class TestPosterior:
    def test_uninformative_signal_fixes_measure(self):
        sig = WeakSignal(sender=1, eps=0.0).to_signal(MU_NO11)
        for b in (0, 1):
            post = posterior(MU_NO11, sig, b)
            assert post.statistical_distance(MU_NO11) < 1e-14

    def test_full_revelation(self):
        mu = InputDistribution.two_party(0.25, 0.25, 0.25, 0.25)
        sig = Signal(sender=1, p0_given_0=1.0, p0_given_1=0.0)
        post = posterior(mu, sig, 0)
        assert post.mass("00") == pytest.approx(0.5)
        assert post.mass("01") == pytest.approx(0.5)
        assert post.mass("10") == 0.0

    def test_weak_signal_bayes_arithmetic(self):
        # direct Bayes arithmetic for WeakSignal(sender=2, eps=0.3) on the
        # no-11 measure: beta_2 = 1/3
        sig = WeakSignal(sender=2, eps=0.3).to_signal(MU_NO11)
        p00 = (1 + 0.3 * (1 / 3)) / 2
        p01 = (1 - 0.3 * (2 / 3)) / 2
        z = (1 / 3) * p00 + (1 / 3) * p01 + (1 / 3) * p00
        post = posterior(MU_NO11, sig, 0)
        assert post.mass("00") == pytest.approx((1 / 3) * p00 / z, abs=1e-14)
        assert post.mass("01") == pytest.approx((1 / 3) * p01 / z, abs=1e-14)
        assert post.mass("10") == pytest.approx((1 / 3) * p00 / z, abs=1e-14)

    def test_weak_signal_bayes_monte_carlo(self):
        # sample (X, B) and compare the empirical conditional law
        sig = WeakSignal(sender=2, eps=0.3).to_signal(MU_NO11)
        rng = np.random.default_rng(123)
        n = 200_000
        xs = rng.choice(3, size=n, p=[1 / 3, 1 / 3, 1 / 3])  # 00, 01, 10
        x2 = np.array([0, 1, 0])[xs]
        p0 = np.where(x2 == 0, sig.p0_given_0, sig.p0_given_1)
        b = (rng.random(n) >= p0).astype(int)
        post = posterior(MU_NO11, sig, 0)
        sel = xs[b == 0]
        counts = np.bincount(sel, minlength=3) / sel.size
        expected = [post.mass("00"), post.mass("01"), post.mass("10")]
        np.testing.assert_allclose(counts, expected, atol=5e-3)

    def test_zero_probability_branch(self):
        sig = Signal(sender=1, p0_given_0=1.0, p0_given_1=1.0)
        with pytest.raises(ConditioningError):
            posterior(MU_NO11, sig, 1)

    @given(two_party_measures(), signals())
    @settings(max_examples=60, deadline=None)
    def test_martingale(self, mu, sig):
        p0 = sig.prob0(mu)
        if not 1e-9 < p0 < 1 - 1e-9:
            return
        mix = p0 * posterior(mu, sig, 0).vector + (1 - p0) * posterior(mu, sig, 1).vector
        np.testing.assert_allclose(mix, mu.vector, atol=1e-12)


class TestClassify:
    def test_weak_signal_profile(self):
        profile = classify(MU_NO11, WeakSignal(sender=1, eps=0.25).to_signal(MU_NO11))
        assert profile.unbiased
        assert profile.noncrossing
        # weakness = eps * max(beta, zeta) over the support
        assert profile.weakness == pytest.approx(0.25 * (2 / 3), abs=1e-12)

    def test_zero_eps(self):
        profile = classify(MU_NO11, WeakSignal(sender=2, eps=0.0).to_signal(MU_NO11))
        assert profile.unbiased and profile.noncrossing
        assert profile.weakness == 0.0

    def test_deterministic_signal_weakness_one(self):
        mu = InputDistribution.two_party(0.25, 0.25, 0.25, 0.25)
        profile = classify(mu, Signal(sender=1, p0_given_0=1.0, p0_given_1=0.0))
        assert profile.weakness == 1.0

    @given(two_party_measures(), st.integers(1, 2), st.floats(0.0, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_weak_signals_always_unbiased(self, mu, sender, eps):
        profile = classify(mu, WeakSignal(sender=sender, eps=eps).to_signal(mu))
        assert profile.unbiased


REVEALING = Signal(sender=1, p0_given_0=1.0, p0_given_1=0.0)

#: A signal whose posteriors both have full support: only the far-end bound
#: keeps a step away from the branch point on the segment.
MU_FAR = InputDistribution.two_party(0.2, 0.3, 0.2, 0.3)
SIG_FAR = Signal(sender=1, p0_given_0=0.05, p0_given_1=0.1)

MU_K3 = InputDistribution(3, {"000": 0.3, "100": 0.25, "010": 0.2, "001": 0.15, "111": 0.1})
WEAK_K3 = WeakSignal(sender=2, eps=0.6).to_signal(MU_K3)


def reference_step(walk, alpha, bits, far_end=True):
    """One exact walk step for every entry of ``alpha``, every constraint
    recomputed per walk on (N, n) and (N, n(n - 1)) arrays: the reference
    for the sampler's lam table and the traces' scalar step.  Returns (new
    alpha, lam, ratio); ``bits = 0`` moves toward the current branch
    target.  ``far_end=False`` drops the bound that keeps a step away on
    the segment."""
    side1, dist, base, direction, mu_c = walk._frame(alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        comp = np.where(
            mu_c > ZERO_MASS,
            dist[:, None] * np.abs(direction) / np.where(mu_c > ZERO_MASS, mu_c, 1.0),
            0.0,
        )
    ratio = comp.max(axis=1)

    gap = mu_c[:, walk.pair_b] - mu_c[:, walk.pair_a]
    scale = np.maximum(mu_c[:, walk.pair_b], mu_c[:, walk.pair_a])
    strict = gap > SEGMENT_TOL * np.maximum(scale, ZERO_MASS)
    denom = dist[:, None] * np.abs(direction[:, walk.pair_b] - direction[:, walk.pair_a])
    with np.errstate(divide="ignore", invalid="ignore"):
        lam2 = np.where(strict & (denom > 0), gap / np.where(denom > 0, denom, 1.0), np.inf)
    lam = np.minimum(1.0, lam2.min(axis=1))
    if far_end:
        lam = np.minimum(lam, 1.0 / dist - 1.0)  # a step away stays on the segment
    with np.errstate(divide="ignore"):
        lam = np.minimum(
            lam, np.where(ratio > 0, walk.eps / np.where(ratio > 0, ratio, 1.0), 1.0)
        )

    toward = bits == 0
    new_dist = np.where(toward, dist * (1.0 - lam), dist * (1.0 + lam))
    new_alpha = np.where(side1, 1.0 - new_dist, new_dist)
    return new_alpha, lam, ratio


def table_step(walk, alpha):
    """lam and ratio of a step from each ``alpha`` read off
    ``walk.lam_table()`` as the bulk sampler reads them."""
    edges, coef, _ = walk.lam_table()
    dist = np.where(alpha > walk.alpha_mu, 1.0 - alpha, alpha)
    A, B, C, D = coef[:, np.searchsorted(edges, alpha, side="right")]
    return np.minimum(1.0, A / dist + B), walk.eps / (C / dist + D)


def exact_step(walk, alpha):
    """lam and ratio of :func:`reference_step` at each ``alpha``, with its
    float tests (which coordinates are live, which pairs strict) but every
    bound evaluated in exact rational arithmetic on its float inputs."""
    _, dist, base, direction, mu_c = walk._frame(alpha)
    live = mu_c > ZERO_MASS
    scale = np.maximum(mu_c[:, walk.pair_b], mu_c[:, walk.pair_a])
    gap = mu_c[:, walk.pair_b] - mu_c[:, walk.pair_a]
    strict = gap > SEGMENT_TOL * np.maximum(scale, ZERO_MASS)
    eps, lams, ratios = Fraction(walk.eps), [], []
    for r in range(alpha.size):
        t = Fraction(dist[r])
        e = [Fraction(x) for x in direction[r]]
        m = [Fraction(b) + t * x for b, x in zip(base[r], e)]
        ratio = max([t * abs(e[i]) / m[i] for i in np.flatnonzero(live[r])], default=0)
        bounds = [Fraction(1), 1 / t - 1] + ([eps / ratio] if ratio > 0 else [])
        bounds += [
            (m[j] - m[i]) / (t * abs(e[j] - e[i]))
            for i, j in zip(walk.pair_a[strict[r]], walk.pair_b[strict[r]])
            if e[j] != e[i]
        ]
        lams.append(float(min(bounds)))
        ratios.append(float(ratio))
    return np.array(lams), np.array(ratios)


def assert_table_matches_step(walk, alpha):
    """The table gives the reference step's lam to 1e-15 and its ratio to
    1e-14 relative; where the float reference is itself further than that
    from its exact value, the table is held to those bounds against the
    exact value instead.  Where the sampler skips (the pure region) both
    give lam = eps and ratio = 1."""
    stepping = (alpha * walk.tv01 > walk.snap_tol) & ((1.0 - alpha) * walk.tv01 > walk.snap_tol)
    alpha = alpha[stepping]
    lam, ratio = table_step(walk, alpha)
    _, ref_lam, ref_ratio = reference_step(walk, alpha, np.zeros(alpha.size, dtype=int))
    off = ~(np.abs(lam - ref_lam) <= 1e-15) | ~(np.abs(ratio - ref_ratio) <= 1e-14 * ref_ratio)
    exact_lam, exact_ratio = exact_step(walk, alpha[off])
    assert np.all(np.abs(lam[off] - exact_lam) <= 1e-15)
    assert np.all(np.abs(ratio[off] - exact_ratio) <= 1e-14 * exact_ratio)

    side1 = alpha > walk.alpha_mu
    pure0, pure1 = walk.lam_table()[2]
    pure = np.where(side1, 1.0 - alpha, alpha) < np.where(side1, pure1, pure0)
    for got_lam, got_ratio in ((lam, ratio), (ref_lam, ref_ratio)):
        assert np.all(np.abs(got_lam[pure] - walk.eps) <= 1e-15)
        assert np.all(np.abs(got_ratio[pure] - 1.0) <= 1e-14)
    return alpha.size


def table_alphas(walk, n_grid):
    """A uniform alpha grid, every table edge and the floats either side of
    it, and the branch point."""
    edges = walk.lam_table()[0]
    return np.r_[
        np.linspace(0.0, 1.0, n_grid), edges, np.nextafter(edges, 0.0),
        np.nextafter(edges, 1.0), walk.alpha_mu,
    ]


@st.composite
def basis_family_walks(draw):
    """Walks of random signals on random basis-family measures, k <= 5, some
    masses and some conditionals zero or one."""
    k = draw(st.integers(2, 5))
    labels = canonical_labels(k)
    mass = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.05, 1.0)), min_size=len(labels), max_size=len(labels)
    ))
    assume(sum(mass) > 0.0)
    mu = InputDistribution(k, dict(zip(labels, np.array(mass) / sum(mass))))
    cond = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.05, 0.95))
    sig = Signal(draw(st.integers(1, k)), draw(cond), draw(cond))
    walk = _SegmentWalk(mu, sig, draw(st.floats(0.01, 0.9)), draw(st.sampled_from([1e-4, 1e-8])))
    assume(not walk.degenerate and walk.tv01 > 0.0)
    return walk


def reference_trace(mu, sig, eps, rng, *, max_steps=10**6, snap_tol=1e-6):
    """The per-step trace loop the array path replaced: each step goes
    through :func:`reference_step` and builds its own signal
    and measure, and is validated on its own.  Returns the trace's JSON."""
    walk = _SegmentWalk(mu, sig, eps, snap_tol)
    steps = []
    alpha = walk.alpha_mu
    for _ in range(max_steps):
        for snapped, d in ((walk.mu0, alpha), (walk.mu1, 1.0 - alpha)):
            if d * walk.tv01 <= snap_tol:
                return {
                    "mu": mu.to_json_obj(),
                    "eps": eps,
                    "steps": steps,
                    "terminal": snapped.to_json_obj(),
                }
        bit = int(rng.integers(0, 2))
        new_alpha, lam, _ = reference_step(walk, np.array([alpha]), np.array([bit]))
        new_alpha, lam = float(new_alpha[0]), float(lam[0])
        side1 = alpha > walk.alpha_mu
        dist = (1.0 - alpha) if side1 else alpha
        target = walk.v1 if side1 else walk.v0
        mu_c = target + dist * (-walk.d if side1 else walk.d)

        conds = []
        for v in (0, 1):
            vals = [
                (1.0 - lam) / 2.0 + lam * target[j] / (2.0 * mu_c[j])
                for j in walk.class_idx[v]
                if mu_c[j] > ZERO_MASS
            ]
            conds.append(float(np.clip(np.mean(vals), 0.0, 1.0)) if vals else 0.5)
        vec = np.zeros(len(mu.labels))
        vec[walk.support_idx] = walk.v0 + new_alpha * walk.d
        vec = np.maximum(vec, 0.0)
        vec /= vec.sum()
        post = InputDistribution(mu.k, dict(zip(mu.labels, vec)))

        live = mu_c > ZERO_MASS
        weakness = np.max(lam * np.abs(mu_c[live] - target[live]) / mu_c[live])
        assert weakness <= eps * (1.0 + 1e-12)
        prob0 = 0.5 * float((mu_c + lam * (target - mu_c)).sum() / mu_c.sum())
        assert abs(prob0 - 0.5) <= 1e-12
        gap = mu_c[walk.pair_b] - mu_c[walk.pair_a]
        scale = np.maximum(mu_c[walk.pair_b], mu_c[walk.pair_a])
        strict = gap > SEGMENT_TOL * np.maximum(scale, ZERO_MASS)
        for sign in (+1.0, -1.0):
            post_c = mu_c + sign * lam * (target - mu_c)
            assert not np.any(strict & (post_c[walk.pair_b] - post_c[walk.pair_a] < -1e-12))

        steps.append(
            {
                "signal": asdict(Signal(sig.sender, conds[0], conds[1])),
                "bit": bit,
                "posterior": post.to_json_obj(),
            }
        )
        alpha = new_alpha
    raise NonTerminationError(f"simulation exceeded {max_steps} steps")


def object_json(trace):
    """A trace's JSON built one step at a time from its step objects, as
    the signal and measure objects write themselves."""
    return {
        "mu": trace.mu.to_json_obj(),
        "eps": trace.eps,
        "steps": [
            {
                "signal": asdict(st.signal),
                "bit": st.bit,
                "posterior": st.posterior.to_json_obj(),
            }
            for st in trace.steps
        ],
        "terminal": trace.terminal.to_json_obj(),
    }


def array_json(trace):
    """A trace's JSON built one step dict at a time straight from its
    arrays, with the measure's rule for which masses it lists (> 0)."""
    return {
        "mu": trace.mu.to_json_obj(),
        "eps": trace.eps,
        "steps": [
            {
                "signal": {"sender": trace.sender, "p0_given_0": c0, "p0_given_1": c1},
                "bit": bit,
                "posterior": {
                    "k": trace.mu.k,
                    "mass": {name: m for name, m in zip(trace.mu.labels, row) if m > 0.0},
                },
            }
            for (c0, c1), bit, row in zip(
                trace.conditionals.tolist(), trace.bits.tolist(), trace.posteriors.tolist()
            )
        ],
        "terminal": trace.terminal.to_json_obj(),
    }


def reference_sample(mu, sig, eps, rng, n_traces, snap_tol):
    """Step-by-step bulk sampler: every step of every walk goes through
    :func:`reference_step`.  Returns each walk's endpoint and step count."""
    walk = _SegmentWalk(mu, sig, eps, snap_tol)
    alpha = np.full(n_traces, walk.alpha_mu)
    label = np.full(n_traces, -1)
    steps = np.zeros(n_traces, dtype=int)
    active = np.arange(n_traces)
    while active.size:
        a = alpha[active]
        hit0 = a * walk.tv01 <= snap_tol
        hit1 = (1.0 - a) * walk.tv01 <= snap_tol
        label[active[hit0]] = 0
        label[active[hit1 & ~hit0]] = 1
        active = active[~(hit0 | hit1)]
        alpha[active] = reference_step(
            walk, alpha[active], rng.integers(0, 2, size=active.size)
        )[0]
        steps[active] += 1
    return label, steps


def assert_sampler_matches_reference(mu, sig, eps, snap_tol, n):
    """The sampler and :func:`reference_sample`, on n walks each, agree on
    the share of walks ending at mu_0 and on the mean step count within
    4 sigma of the difference of two independent samples.  Returns the
    sample."""
    label, steps = reference_sample(mu, sig, eps, np.random.default_rng(1), n, snap_tol)
    sample = sample_terminal_posteriors(
        mu, sig, eps, np.random.default_rng(2), n, snap_tol=snap_tol
    )
    assert sample.count0 + sample.count1 == n
    scale = math.sqrt(2 / n)
    p0 = np.mean(label == 0)
    assert abs(sample.count0 / n - p0) <= 4 * math.sqrt(p0 * (1 - p0)) * scale
    assert abs(sample.mean_steps - steps.mean()) <= 4 * steps.std() * scale
    return sample


class TestLamTable:
    @pytest.mark.parametrize(
        "mu, sig, eps, snap_tol",
        [
            (MU_NO11, REVEALING, 0.05, 1e-6),
            (MU_NO11, REVEALING, 0.25, 1e-6),
            (MU_K3, WEAK_K3, 0.1, 1e-4),
            (MU_K3, WEAK_K3, 0.05, 1e-6),
            # lines cross where one float of alpha moves u by far more than
            # an ulp: an edge off by one float there misses 1e-15
            (
                InputDistribution(
                    3, {"000": 0.2, "100": 0.3, "010": 0.1, "001": 0.1, "111": 0.3}
                ),
                Signal(sender=3, p0_given_0=0.25, p0_given_1=0.75),
                0.05,
                1e-4,
            ),
        ],
    )
    def test_table_matches_reference_step(self, mu, sig, eps, snap_tol):
        walk = _SegmentWalk(mu, sig, eps, snap_tol)
        assert assert_table_matches_step(walk, table_alphas(walk, 20001)) > 19000

    @pytest.mark.parametrize("eps", [0.05, 0.25])
    def test_pure_region_of_the_revealing_signal(self, eps):
        # below the branch point the order of 00 over 10 binds lam below
        # eps beyond dist 1 / (3 (1 + eps)); above it the ratio of 10
        # exceeds 1 beyond dist 1/2
        walk = _SegmentWalk(MU_NO11, REVEALING, eps, 1e-6)
        assert walk.lam_table()[2] == pytest.approx((1 / (3 * (1 + eps)), 0.5), rel=1e-15)

    @given(basis_family_walks())
    @settings(max_examples=60, deadline=None)
    def test_table_matches_reference_step_on_basis_family(self, walk):
        assert_table_matches_step(walk, table_alphas(walk, 501))

    def test_inflated_entry_trips_the_weakness_guard(self, monkeypatch):
        lam_table = _SegmentWalk.lam_table

        def inflated(walk):
            edges, coef, pure = lam_table(walk)
            coef = coef.copy()
            coef[:2, np.searchsorted(edges, walk.alpha_mu, side="right")] *= 1.5
            return edges, coef, pure

        monkeypatch.setattr(_SegmentWalk, "lam_table", inflated)
        with pytest.raises(IcandError, match="weakness"):
            sample_terminal_posteriors(
                MU_NO11, REVEALING, eps=0.05, rng=np.random.default_rng(0), n_traces=100
            )

    def test_twelve_players(self):
        rng = np.random.default_rng(12)
        labels = canonical_labels(12)
        mass = rng.uniform(0.5, 1.5, len(labels))
        mu = InputDistribution(12, dict(zip(labels, mass / mass.sum())))
        sig = Signal(sender=3, p0_given_0=0.9, p0_given_1=0.2)
        walk = _SegmentWalk(mu, sig, 0.2, 1e-4)
        assert walk.lam_table()[1].shape[1] > 2 * len(labels)
        assert_table_matches_step(walk, table_alphas(walk, 2001))
        n = 200
        sample = sample_terminal_posteriors(
            mu, sig, 0.2, np.random.default_rng(13), n, snap_tol=1e-4
        )
        assert sample.count0 + sample.count1 == n
        assert sample.general_steps > 0
        assert sample.max_weakness <= 0.2 * (1 + 1e-12)
        p0 = sample.prob0_exact
        assert sample.tv_distance() <= 4 * math.sqrt(p0 * (1 - p0) / n) + 1e-4


POPCOUNT_NS = (1, 63, 64, 65, 127, 128, 200, 511, 512)
ALL_LENGTHS = np.arange(1, 513)  # every skip length, in one call


class TestPopcountBinomial:
    @pytest.mark.parametrize("word", [2**64 - 1, 0x5555555555555555, 1, 2**63])
    def test_masks_keep_the_lowest_n_bits(self, word):
        # a generator whose raw words are all ``word``: the count is the ones
        # among the lowest n bits of as many copies of it as n needs, and an
        # entry draws no more words than that
        drawn = []

        def random_raw(size):
            drawn.append(size)
            return np.full(size, word, dtype=np.uint64)

        class Fixed:
            bit_generator = SimpleNamespace(random_raw=random_raw)

        bits = [(word >> j) & 1 for j in range(64)]
        for ns in [np.array([n]) for n in POPCOUNT_NS] + [np.array(POPCOUNT_NS), ALL_LENGTHS]:
            drawn.clear()
            expected = [sum(bits[j % 64] for j in range(n)) for n in ns]
            assert _binomial_half(Fixed(), ns).tolist() == expected
            assert sum(drawn) == sum(-(-int(n) // 64) for n in ns)

    @pytest.mark.parametrize("n", POPCOUNT_NS)
    def test_law_matches_the_binomial_pmf(self, n):
        # alone, and beside every other length, which draw other numbers of
        # words in the same call
        m = 40_000
        among = np.c_[np.full(m // 2, n), np.resize(ALL_LENGTHS, m // 2)].ravel()
        for ns in (np.full(m, n), among):
            draws = _binomial_half(np.random.default_rng(n), ns)[ns == n]
            count = np.bincount(draws, minlength=n + 1)
            pmf = np.array([math.comb(n, j) / 2**n for j in range(n + 1)])
            assert count.size == n + 1  # never more ones than bits
            # every value expected at least ten times, and the rest pooled
            cells = pmf * draws.size >= 10
            freq = np.r_[count[cells], count[~cells].sum()] / draws.size
            prob = np.r_[pmf[cells], pmf[~cells].sum()]
            assert np.all(np.abs(freq - prob) <= 4.0 * np.sqrt(prob * (1.0 - prob) / draws.size))
            assert abs(draws.mean() - n / 2) <= 4.0 * math.sqrt(n / 4 / draws.size)

    def test_every_length_in_one_call(self):
        # 400 calls with n = 1..512 each: per length the standardized mean
        # and variance of the draws are those of Binomial(n, 1/2)
        rng, reps = np.random.default_rng(512), 400
        draws = np.array([_binomial_half(rng, ALL_LENGTHS) for _ in range(reps)])
        assert np.all((draws >= 0) & (draws <= ALL_LENGTHS))
        z = (draws.mean(axis=0) - ALL_LENGTHS / 2) / np.sqrt(ALL_LENGTHS / 4 / reps)
        assert np.all(np.abs(z) <= 5.0)
        assert abs(z.mean()) <= 5.0 / math.sqrt(z.size)
        ratio = draws.var(axis=0, ddof=1) / (ALL_LENGTHS / 4)
        assert abs(ratio.mean() - 1.0) <= 5.0 * math.sqrt(2.0 / (reps - 1) / z.size)


class TestSimulation:
    def test_single_step_when_already_weak(self):
        sig = WeakSignal(sender=1, eps=0.15).to_signal(MU_NO11)
        trace = simulate_signal(MU_NO11, sig, eps=0.2, rng=np.random.default_rng(0))
        assert len(trace.steps) == 1
        step = trace.steps[0]
        assert step.signal.p0_given_0 == pytest.approx(sig.p0_given_0, abs=1e-12)
        assert step.signal.p0_given_1 == pytest.approx(sig.p0_given_1, abs=1e-12)

    def test_steps_classify_and_chain(self):
        rng = np.random.default_rng(42)
        trace = simulate_signal(MU_NO11, REVEALING, eps=0.3, rng=rng, snap_tol=1e-3)
        assert len(trace.steps) >= 2
        mu0 = posterior(MU_NO11, REVEALING, 0)
        mu1 = posterior(MU_NO11, REVEALING, 1)
        current = MU_NO11
        seg = mu1.vector - mu0.vector
        j = int(np.argmax(np.abs(seg)))
        for step in trace.steps:
            profile = classify(current, step.signal)
            assert profile.unbiased
            assert profile.noncrossing
            assert profile.weakness <= 0.3 * (1 + 1e-9)
            # posterior consistent with the realized bit
            expected = posterior(current, step.signal, step.bit)
            assert expected.statistical_distance(step.posterior) < 1e-9
            # stays on the segment [mu0, mu1]
            t = (step.posterior.vector[j] - mu0.vector[j]) / seg[j]
            assert -1e-9 <= t <= 1 + 1e-9
            recon = mu0.vector + t * seg
            np.testing.assert_allclose(recon, step.posterior.vector, atol=1e-9)
            current = step.posterior
        assert trace.terminal in (mu0, mu1)

    def test_terminal_two_point_law(self):
        rng = np.random.default_rng(7)
        sample = sample_terminal_posteriors(
            MU_NO11, REVEALING, eps=0.2, rng=rng, n_traces=4000, snap_tol=1e-6
        )
        assert sample.prob0_exact == pytest.approx(2 / 3, abs=1e-12)
        assert sample.tv_distance() < 0.03
        assert sample.max_weakness <= 0.2 * (1 + 1e-9)

    def test_sampler_matches_trace_dynamics(self):
        # same walk law: the per-step traces and the skip-ahead sampler agree
        # on the terminal label frequency and the mean step count within 4
        # sigma of the difference of two independent samples
        rng = np.random.default_rng(11)
        terminals, lengths = [], []
        for _ in range(1000):
            tr = simulate_signal(MU_NO11, REVEALING, eps=0.25, rng=rng, snap_tol=1e-4)
            terminals.append(tr.terminal.mass("10") > 0.5)
            lengths.append(len(tr.bits))
        frac1 = np.mean(terminals)
        assert abs(frac1 - 1 / 3) < 0.12

        n = 4000
        sample = sample_terminal_posteriors(
            MU_NO11, REVEALING, eps=0.25, rng=np.random.default_rng(12), n_traces=n,
            snap_tol=1e-4,
        )
        scale = math.sqrt(1 / len(lengths) + 1 / n)
        p1 = sample.count1 / n
        assert abs(frac1 - p1) <= 4 * math.sqrt(p1 * (1 - p1)) * scale
        assert abs(np.mean(lengths) - sample.mean_steps) <= 4 * np.std(lengths) * scale

    def test_skip_ahead_matches_step_by_step_reference(self):
        n = 4000
        label, steps = reference_sample(
            MU_NO11, REVEALING, 0.25, np.random.default_rng(1), n, snap_tol=1e-4
        )
        sample = sample_terminal_posteriors(
            MU_NO11, REVEALING, eps=0.25, rng=np.random.default_rng(2), n_traces=n,
            snap_tol=1e-4,
        )
        assert sample.pure_steps > 10 * sample.rounds  # the skips were taken
        scale = math.sqrt(2 / n)
        p0 = np.mean(label == 0)
        assert abs(sample.count0 / n - p0) <= 4 * math.sqrt(p0 * (1 - p0)) * scale
        assert abs(sample.mean_steps - steps.mean()) <= 4 * steps.std() * scale

    def test_step_past_the_far_end_matches_reference(self):
        # both posteriors have full support, so only the far-end bound keeps
        # a step on the segment: from the branch point a step away from mu_0
        # would pass mu_1 (to alpha 1.48) and stops at mu_1 instead, in the
        # sampler as in the reference, and the terminal law is the signal's
        walk = _SegmentWalk(MU_FAR, SIG_FAR, 0.3, 1e-4)
        assert walk.mu1.vector.min() > 0.0
        first = reference_step(walk, np.full(2, walk.alpha_mu), np.array([1, 1]),
                               far_end=False)[0]
        assert first[1] == pytest.approx(1.48, rel=1e-12)
        first = reference_step(walk, np.full(2, walk.alpha_mu), np.array([0, 1]))[0]
        assert first[1] == pytest.approx(1.0, abs=1e-15)
        assert_table_matches_step(walk, table_alphas(walk, 20001))
        sample = assert_sampler_matches_reference(MU_FAR, SIG_FAR, 0.3, 1e-4, 4000)
        p0 = sample.prob0_exact
        assert sample.tv_distance() <= 4 * math.sqrt(p0 * (1 - p0) / 4000)

    def test_a_step_past_the_far_end_is_refused(self, monkeypatch):
        # with the bound, seed 0 walks to an end; without it (the walk
        # below, through the reference step) its first bit, 1, steps away
        # from mu_0 and past mu_1
        simulate_signal(MU_FAR, SIG_FAR, 0.3, np.random.default_rng(0), snap_tol=1e-4)

        def unbounded(walk, rng, max_steps):
            path, lams, bits = [walk.alpha_mu], [], []
            while min(path[-1], 1.0 - path[-1]) * walk.tv01 > walk.snap_tol:
                bit = int(rng.integers(0, 2))
                alpha, lam, _ = reference_step(walk, np.array(path[-1:]), np.array([bit]),
                                               far_end=False)
                path, lams, bits = path + [float(alpha[0])], lams + [float(lam[0])], bits + [bit]
            return path, lams, bits, int(path[-1] > walk.alpha_mu)

        monkeypatch.setattr(_SegmentWalk, "trace", unbounded)
        with pytest.raises(IcandError, match="step 0 leaves the segment"):
            simulate_signal(MU_FAR, SIG_FAR, 0.3, np.random.default_rng(0), snap_tol=1e-4)

    @pytest.mark.parametrize("p0_given_0, far", [(1e-7, True), (1e-4, False)])
    def test_branch_point_near_the_far_end_matches_reference(self, p0_given_0, far):
        # Pr[B=0] = p0_given_0 / 2: within snap distance of mu_1 every walk
        # ends there at once; just outside it the walks start next to mu_1
        mu = InputDistribution.two_party(0.2, 0.3, 0.5, 0.0)
        sig = Signal(sender=1, p0_given_0=p0_given_0, p0_given_1=0.0)
        walk = _SegmentWalk(mu, sig, 0.2, 1e-6)
        assert ((1.0 - walk.alpha_mu) * walk.tv01 <= 1e-6) == far
        sample = assert_sampler_matches_reference(mu, sig, 0.2, 1e-6, 2000)
        assert (sample.count1 == 2000 and sample.rounds == 0) == far

    @pytest.mark.parametrize("eps", [0.2, 0.5])
    def test_pure_step_across_the_branch_point_matches_reference(self, eps):
        # mu_1 has no mass where x_1 = 0 and nothing ties on its side, so
        # its pure region reaches the branch point (eps = 0.2) or ends
        # within one step of it (eps = 0.5): a step away from there lands on
        # the side of mu_0, and the next step is read there at its own distance
        mu = InputDistribution.two_party(0.1, 0.2, 0.3, 0.4)
        sig = Signal(sender=1, p0_given_0=1.0, p0_given_1=0.5)
        walk = _SegmentWalk(mu, sig, eps, 1e-3)
        branch = 1.0 - walk.alpha_mu
        assert branch / (1.0 + eps) < walk.lam_table()[2][1] <= branch
        sample = assert_sampler_matches_reference(mu, sig, eps, 1e-3, 4000)
        assert sample.general_steps > 0
        assert eps <= sample.max_weakness <= eps * (1.0 + 1e-12)

    def test_skips_end_one_step_short_of_the_branch_point(self, monkeypatch):
        # the walk above of eps = 0.2 skips on side 1 only: every skip's
        # upper barrier is one step away below the branch point, so a skip
        # never passes it and only a general step, which reads its side
        # from alpha, can
        mu = InputDistribution.two_party(0.1, 0.2, 0.3, 0.4)
        sig = Signal(sender=1, p0_given_0=1.0, p0_given_1=0.5)
        barriers = []

        def spy(log_dist, log_lo, log_hi, reach):
            barriers.append(log_hi.max())
            return _skip_lengths(log_dist, log_lo, log_hi, reach)

        monkeypatch.setattr("icand.signals._skip_lengths", spy)
        sample_terminal_posteriors(mu, sig, 0.2, np.random.default_rng(0), 200, snap_tol=1e-3)
        walk = _SegmentWalk(mu, sig, 0.2, 1e-3)
        assert barriers
        assert max(barriers) + math.log1p(0.2) <= math.log(1.0 - walk.alpha_mu) + 1e-15

    def test_start_rounded_across_the_branch_point_matches_reference(self):
        # the walks start below the branch point, at log distance
        # ln(alpha_mu), and e to that power rounds to above it, where the
        # step from alpha_mu has another size (0.57 below it, -2.4 read off
        # the first piece above): the sampler reads its own side's piece
        mu = InputDistribution.two_party(0.1, 0.4, 0.2, 0.3)
        sig = Signal(sender=1, p0_given_0=1.0, p0_given_1=0.6)
        walk = _SegmentWalk(mu, sig, 0.2, 1e-4)
        assert math.exp(math.log(walk.alpha_mu)) > walk.alpha_mu
        sample = assert_sampler_matches_reference(mu, sig, 0.2, 1e-4, 4000)
        assert sample.max_weakness <= 0.2 * (1.0 + 1e-12)

    @given(
        st.floats(0.01, 0.9),
        st.floats(1e-12, 1e-2),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_skip_keeps_extreme_paths_inside(self, eps, snap_tol, u):
        walk = _SegmentWalk(MU_NO11, REVEALING, eps, snap_tol)
        c_tow, c_away = math.log1p(-eps), math.log1p(eps)
        reach = max(-c_tow, c_away)
        lo = math.log(snap_tol / walk.tv01)
        for pure_hi in walk.lam_table()[2]:
            hi = math.log(pure_hi)
            assume(hi > lo)
            L = lo + u * (hi - lo)  # a start in the pure region, in log distance
            n = int(_skip_lengths(np.array([L]), lo, np.array([hi]), reach)[0])
            if min(L - lo, hi - L) <= reach:
                assert n == 1  # one plain step, tested for a crossing
                continue
            for toward in (n, 0):
                end = L + toward * c_tow + (n - toward) * c_away
                assert lo < end < hi

    def test_sampler_counters(self):
        n = 500
        sample = sample_terminal_posteriors(
            MU_NO11, REVEALING, eps=0.25, rng=np.random.default_rng(3), n_traces=n,
            snap_tol=1e-4,
        )
        assert sample.pure_steps + sample.general_steps == round(sample.mean_steps * n)
        assert sample.pure_steps > 0 and sample.general_steps > 0
        # every round moves the walk that is still running at the end
        assert 1 <= sample.rounds <= sample.max_steps_observed
        # a finished walk's steps are written back when it leaves the state
        one = sample_terminal_posteriors(
            MU_NO11, REVEALING, eps=0.25, rng=np.random.default_rng(4), n_traces=1,
            snap_tol=1e-4,
        )
        assert one.max_steps_observed == one.mean_steps == one.pure_steps + one.general_steps
        assert one.max_steps_observed > 0
        constant = Signal(sender=1, p0_given_0=1.0, p0_given_1=1.0)
        degenerate = sample_terminal_posteriors(
            MU_NO11, constant, eps=0.25, rng=np.random.default_rng(3), n_traces=n
        )
        assert (degenerate.pure_steps, degenerate.general_steps, degenerate.rounds) == (0, 0, 0)

    @pytest.mark.parametrize(
        "mu, sig, eps, snap_tol, seeds",
        [
            (MU_NO11, REVEALING, 0.05, 1e-3, (0, 1)),
            (MU_NO11, REVEALING, 0.2, 1e-4, (2, 3, 4)),
            (MU_K3, WEAK_K3, 0.1, 1e-4, (0, 1, 2)),
        ],
    )
    def test_trace_bytes_match_per_step_reference(self, mu, sig, eps, snap_tol, seeds):
        for seed in seeds:
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(2):  # consecutive traces of one generator
                trace = simulate_signal(mu, sig, eps, rng, snap_tol=snap_tol)
                ref = reference_trace(mu, sig, eps, ref_rng, snap_tol=snap_tol)
                assert rng.bit_generator.state == ref_rng.bit_generator.state
                assert len(ref["steps"]) > 1
                text = cli._dump(trace)
                assert json.loads(text) == ref
                assert text == json.dumps(ref, sort_keys=True, indent=2)
            # at the indent of the command line's output
            result = {"eps": eps, "traces": [trace, trace]}
            assert cli._dump(result) == json.dumps(
                {"eps": eps, "traces": [ref, ref]}, sort_keys=True, indent=2
            )

    @pytest.mark.parametrize("block", [1, 7, _BIT_BLOCK])
    @pytest.mark.parametrize(
        "mu, sig, eps, snap_tol",
        [(MU_NO11, REVEALING, 0.2, 1e-4), (MU_K3, WEAK_K3, 0.1, 1e-4)],
    )
    def test_bits_in_blocks_of_any_size_match_per_step_reference(
        self, monkeypatch, block, mu, sig, eps, snap_tol
    ):
        monkeypatch.setattr("icand.signals._BIT_BLOCK", block)
        for seed in (0, 1):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            # a trace stopped by the step cap leaves the generator where its
            # steps' single draws would
            with pytest.raises(NonTerminationError):
                simulate_signal(mu, sig, eps, rng, max_steps=9, snap_tol=snap_tol)
            with pytest.raises(NonTerminationError):
                reference_trace(mu, sig, eps, ref_rng, max_steps=9, snap_tol=snap_tol)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            for _ in range(3):
                trace = simulate_signal(mu, sig, eps, rng, snap_tol=snap_tol)
                ref = reference_trace(mu, sig, eps, ref_rng, snap_tol=snap_tol)
                assert trace.bits.tolist() == [step["bit"] for step in ref["steps"]]
                assert json.loads(cli._dump(trace)) == ref
                assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_steps_are_built_from_the_arrays(self):
        trace = simulate_signal(
            MU_K3, WEAK_K3, 0.1, np.random.default_rng(5), snap_tol=1e-4
        )
        steps = trace.steps
        assert type(steps) is tuple and steps is trace.steps
        assert cli._dump(trace) == json.dumps(object_json(trace), sort_keys=True, indent=2)

    @pytest.mark.parametrize(
        "mu, sig, eps", [(MU_K3, WEAK_K3, 0.1), (MU_NO11, REVEALING, 0.3)]
    )
    def test_step_posteriors_equal_the_constructor_path(self, mu, sig, eps):
        trace = simulate_signal(mu, sig, eps, np.random.default_rng(5), snap_tol=1e-4)
        assert len(trace.steps) > 1
        for step, row in zip(trace.steps, trace.posteriors):
            built = InputDistribution(mu.k, dict(zip(mu.labels, row)))
            assert np.array_equal(step.posterior.vector, built.vector)
            assert step.posterior == built

    def test_reading_steps_does_not_validate_again(self, monkeypatch):
        trace = simulate_signal(MU_K3, WEAK_K3, 0.1, np.random.default_rng(5), snap_tol=1e-4)

        def refuse(*args, **kwargs):
            raise AssertionError("a checked posterior was validated again")

        monkeypatch.setattr(measures, "_as_prob_vector", refuse)
        steps = trace.steps
        assert len(steps) == len(trace.bits) > 1
        assert steps[-1].posterior.k == MU_K3.k

    def test_validation_rejects_bad_steps(self):
        walk = _SegmentWalk(MU_NO11, REVEALING, 0.2, 1e-3)
        path, lams, _, snapped = walk.trace(np.random.default_rng(0), 10**6)
        alpha, lam = np.array(path[:-1]), np.array(lams)
        assert snapped is not None
        walk.validate_steps(alpha, lam)
        too_big = lam.copy()
        too_big[len(lam) // 2] *= 1.5
        with pytest.raises(IcandError, match="weakness"):
            walk.validate_steps(alpha, too_big)
        with pytest.raises(IcandError):
            walk.validate_steps(alpha, np.where(np.arange(lam.size) == 3, np.nan, lam))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eps": math.nan},
            {"eps": 0.0},
            {"eps": 1.0},
            {"snap_tol": math.nan},
            {"snap_tol": -1.0},
            {"snap_tol": 0.0},
            {"snap_tol": math.inf},
            {"max_steps": -1},
        ],
    )
    def test_malformed_walk_arguments(self, kwargs):
        args = {"eps": 0.1, "snap_tol": 1e-4, "max_steps": 10}
        args.update(kwargs)
        eps = args.pop("eps")
        for run in (
            lambda: simulate_signal(MU_NO11, REVEALING, eps, np.random.default_rng(0), **args),
            lambda: sample_terminal_posteriors(
                MU_NO11, REVEALING, eps, np.random.default_rng(0), 10, **args
            ),
        ):
            with pytest.raises(MalformedInputError):
                run()

    @pytest.mark.parametrize("n_traces", [0, -3])
    def test_trace_count_must_be_positive(self, n_traces):
        with pytest.raises(MalformedInputError):
            sample_terminal_posteriors(
                MU_NO11, REVEALING, 0.1, np.random.default_rng(0), n_traces, max_steps=10
            )

    def test_non_termination_cap(self):
        with pytest.raises(NonTerminationError):
            simulate_signal(
                MU_NO11,
                REVEALING,
                eps=0.01,
                rng=np.random.default_rng(3),
                max_steps=10,
            )

    def test_sampler_step_cap(self):
        with pytest.raises(NonTerminationError, match="exceeded 10 steps"):
            sample_terminal_posteriors(
                MU_NO11, REVEALING, 0.01, np.random.default_rng(3), 100, max_steps=10
            )
        sample = sample_terminal_posteriors(
            MU_NO11, REVEALING, 0.25, np.random.default_rng(3), 100, snap_tol=1e-4
        )
        capped = sample_terminal_posteriors(
            MU_NO11, REVEALING, 0.25, np.random.default_rng(3), 100, snap_tol=1e-4,
            max_steps=sample.max_steps_observed,
        )
        assert capped == sample

    @pytest.mark.parametrize("p0_given_0, label", [(1e-8, 1), (1.0 - 1e-8, 0)])
    def test_branch_point_within_snap_distance(self, p0_given_0, label):
        # Pr[B=0] within snap_tol / tv01 of 0 or 1: every walk ends where it starts
        sig = Signal(sender=1, p0_given_0=p0_given_0, p0_given_1=0.0 if label else 1.0)
        sample = sample_terminal_posteriors(MU_NO11, sig, 0.1, np.random.default_rng(0), 50)
        assert (sample.count0, sample.count1)[label] == 50
        assert (sample.max_steps_observed, sample.rounds) == (0, 0)

    @pytest.mark.parametrize("p0_given", [0.3, 1.0])
    def test_degenerate_sample_has_the_exact_law(self, p0_given):
        # one law on the whole support: every walk ends at mu = mu_0 = mu_1
        sig = Signal(sender=1, p0_given_0=p0_given, p0_given_1=p0_given)
        sample = sample_terminal_posteriors(MU_NO11, sig, 0.1, np.random.default_rng(0), 10)
        assert sample.count0 + sample.count1 == 10
        assert sample.prob0_exact == pytest.approx(p0_given)
        assert sample.tv_distance() == 0.0

    def test_degenerate_signal(self):
        sig = Signal(sender=1, p0_given_0=1.0, p0_given_1=1.0)
        trace = simulate_signal(MU_NO11, sig, eps=0.1, rng=np.random.default_rng(0))
        assert trace.steps == ()
        assert trace.terminal == MU_NO11
        text = cli._dump({"traces": [trace]})
        assert text == json.dumps({"traces": [array_json(trace)]}, sort_keys=True, indent=2)
        assert json.loads(text)["traces"][0]["steps"] == []

    def test_trace_json(self):
        trace = simulate_signal(
            MU_NO11, REVEALING, eps=0.4, rng=np.random.default_rng(5), snap_tol=1e-2
        )
        text = cli._dump(trace)
        obj = json.loads(text)
        assert obj["eps"] == 0.4
        assert len(obj["steps"]) == len(trace.steps)
        assert text == json.dumps(object_json(trace), sort_keys=True, indent=2)

    def test_traces_in_a_list_nested_and_bare(self):
        first = simulate_signal(MU_K3, WEAK_K3, 0.1, np.random.default_rng(5), snap_tol=1e-4)
        second = simulate_signal(MU_NO11, REVEALING, 0.3, np.random.default_rng(6))
        a, b = object_json(first), object_json(second)
        assert a["steps"] and b["steps"] and a != b
        for value, expected in [
            ([first, second], [a, b]),
            ({"n": 2, "outer": {"inner": [second, first]}}, {"n": 2, "outer": {"inner": [b, a]}}),
            (second, b),
        ]:
            assert cli._dump(value) == json.dumps(expected, sort_keys=True, indent=2)

    def test_a_printed_step_marker_is_refused(self):
        trace = simulate_signal(MU_NO11, REVEALING, 0.3, np.random.default_rng(6))
        with pytest.raises(ValueError, match="2 step markers for 1 traces"):
            cli._dump({"note": cli._STEPS, "trace": trace})


class TestTraceExport:
    """The command line's trace text against ``json.dumps`` of the step
    dicts, on traces no walk writes."""

    @staticmethod
    def hand_built(conditionals, posteriors):
        return SimulationTrace(
            mu=MU_K3,
            eps=0.25,
            sender=2,
            conditionals=np.array(conditionals),
            bits=np.arange(len(conditionals), dtype=np.int64) % 2,
            posteriors=np.array(posteriors),
            terminal=MU_K3,
        )

    def test_live_coordinates_that_change_from_row_to_row(self):
        # layout (000, 100, 010, 001, 111); -0.0 and 0.0 masses are not listed
        trace = self.hand_built(
            [[0.5, -0.0], [0.0, 1.0], [0.25, 0.75], [1 / 3, 2 / 3], [-0.0, 0.0], [0.1, 0.2]],
            [
                [0.5, 0.5, 0.0, 0.0, 0.0],
                [0.25, -0.0, 0.25, 0.5, 0.0],
                [0.0, 0.0, 0.0, 0.0, 1.0],
                [-0.0, 0.0, 0.0, -0.0, 1.0],
                [0.1, 0.2, 0.3, 0.4, 0.0],
                [0.5, 0.5, 0.0, 0.0, 0.0],
            ],
        )
        expected = array_json(trace)
        assert expected == object_json(trace)
        assert [len(st["posterior"]["mass"]) for st in expected["steps"]] == [2, 3, 1, 1, 4, 2]
        assert cli._dump(trace) == json.dumps(expected, sort_keys=True, indent=2)
        result = {"n_traces": 1, "traces": [trace, self.hand_built([], np.empty((0, 5)))]}
        assert cli._dump(result) == json.dumps(
            {"n_traces": 1, "traces": [expected, array_json(result["traces"][1])]},
            sort_keys=True,
            indent=2,
        )

    def test_non_finite_numbers_are_written_as_json_writes_them(self):
        trace = self.hand_built(
            [[math.nan, 0.5], [math.inf, -math.inf]],
            [[0.5, 0.5, 0.0, 0.0, 0.0], [math.nan, math.inf, 0.25, 0.0, 0.0]],
        )
        text = cli._dump({"traces": [trace]})
        assert text == json.dumps({"traces": [array_json(trace)]}, sort_keys=True, indent=2)
        assert '"p0_given_0": NaN' in text and '"100": Infinity' in text
