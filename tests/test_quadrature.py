"""Adaptive Gauss-Kronrod quadrature: the rule's constants, per-component
errors, empty sums, agreement of the breadth-first pass with a depth-first
per-panel oracle, and with the 15-point Gauss-Legendre rule it replaced."""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from icand import buzzers, quadrature
from icand.buzzers import information_cost
from icand.concavity import verify_grid
from icand.errors import QuadratureError
from icand.measures import InputDistribution, canonical_labels
from icand.quadrature import _CALL_PANELS, _NODES, _W_GAUSS, _W_KRONROD, integrate, integrate_segments
from kernel_oracle import zero_bounds

EPS = np.finfo(float).eps


def integrate_one(f, a, b, **tol):
    """``integrate`` over the one interval [a, b]: the row of each result."""
    vals, err = integrate(f, np.array([a]), np.array([b]), **tol)
    return vals[0], err[0]


def test_error_bound_per_component():
    # panels are accepted on the worst component, but each component keeps
    # its own bound: a component a million times smaller gets a far smaller
    # bound instead of sharing the larger one
    f = zero_bounds(lambda t: np.stack([np.sqrt(t), 1e-6 * np.sqrt(t)], axis=1))
    vals, err = integrate(f, np.array([0.0]), np.array([1.0]), rtol=1e-10, atol=1e-13)
    # one row per interval, also for one interval
    assert vals.shape == err.shape == (1, 2)
    np.testing.assert_allclose(vals[0], [2 / 3, 2e-6 / 3], rtol=1e-14)
    assert 0.0 < err[0, 1] <= 1e-5 * err[0, 0]


def test_segments_sorted_and_summed():
    f = zero_bounds(lambda t: np.stack([np.ones_like(t), t], axis=1))
    ((vals, err),) = integrate_segments(f, [[2.0, 0.0, 1.0]])
    np.testing.assert_allclose(vals, [2.0, 2.0], atol=1e-15)
    assert err.shape == (2,)


def test_segment_groups_from_one_pass():
    # every segment of every group in one integrand call; each group sums its
    # own segments in order, and a group without a segment sums to 0.0
    f = Counted(zero_bounds(lambda t: np.stack([np.ones_like(t), t], axis=1)))
    groups = [[0.0, 1.0, 2.0], [0.5], [3.0, -1.0], [1.0, 1.0 + 1e-16]]
    got = integrate_segments(f, groups)
    assert f.calls == 1 and len(got) == 4
    assert got[1] == got[3] == (0.0, 0.0)
    for (vals, err), bps in zip([got[0], got[2]], [groups[0], groups[2]]):
        pts = sorted(bps)
        want, want_err = 0.0, 0.0
        for lo, hi in zip(pts[:-1], pts[1:]):
            v, e = integrate_one(zero_bounds(lambda t: np.stack([np.ones_like(t), t], axis=1)), lo, hi)
            want, want_err = want + v, want_err + e
        assert vals.tobytes() == want.tobytes() and err.tobytes() == want_err.tobytes()


@pytest.mark.parametrize("breakpoints", [[0.5], [1.0, 1.0 + 1e-16]])
def test_no_segment_calls_nothing(breakpoints):
    # a single start time has no finite segment; no shape probe is made
    def f(t):
        raise AssertionError("integrand called")

    assert integrate_segments(f, [breakpoints, []]) == [(0.0, 0.0), (0.0, 0.0)]


def test_empty_interval_is_rejected():
    # the package integrates only stretches of positive width
    with pytest.raises(QuadratureError):
        integrate_one(lambda t: np.ones((len(t), 2)), 1.0, 1.0)


# ---------------------------------------------------------------------------
# the rule's constants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nodes, weights, degree", [
    (_NODES, _W_KRONROD, 31),
    (_NODES[1::2], _W_GAUSS, 19),
])
def test_rule_is_exact_to_its_degree(nodes, weights, degree):
    # K21 integrates polynomials of degree 3 * 10 + 1 exactly, G10 of 2 * 10 - 1
    for j in range(degree + 2):
        exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
        gap = abs(float(weights @ nodes**j) - exact)
        if j <= degree:
            assert gap <= 4e-16, j
        else:
            assert gap > 1e-13  # even degree + 1 is not integrated exactly


def test_gauss_points_are_every_other_kronrod_node():
    x, _ = np.polynomial.legendre.leggauss(10)
    np.testing.assert_array_max_ulp(_NODES[1::2], x, maxulp=2)
    assert np.all(np.diff(_NODES) > 0.0) and np.all(_NODES == -_NODES[::-1])


def test_gauss_weights_to_full_precision():
    # against 40-digit weights 2 / ((1 - x^2) P_10'(x)^2); numpy's leggauss(10)
    # has weights up to 7 ulps off, so it cannot be the reference here
    want = []
    with mp.workdps(40):
        for x in _NODES[1::2]:
            root = mp.findroot(lambda t: mp.legendre(10, t), mp.mpf(float(x)))
            want.append(float(2 / ((1 - root**2) * mp.diff(lambda t: mp.legendre(10, t), root) ** 2)))
    np.testing.assert_array_max_ulp(_W_GAUSS, np.array(want), maxulp=2)
    assert math.isclose(float(_W_KRONROD.sum()), 2.0, rel_tol=0.0, abs_tol=4e-16)


# ---------------------------------------------------------------------------
# a depth-first per-panel loop as oracle: one integrand call per rule
# application
# ---------------------------------------------------------------------------


def _values(f, lo, hi, nodes):
    """Half the panel's width and ``f`` at the nodes mapped onto [lo, hi]."""
    half = 0.5 * (hi - lo)
    return half, np.atleast_2d(np.asarray(f(0.5 * (lo + hi) + half * nodes), dtype=float))


def kronrod_panel(f, lo, hi):
    """(K21 sum, G10 sum) of one panel, from one call at the 21 Kronrod nodes."""
    half, vals = _values(f, lo, hi, _NODES)
    return (half * (_W_KRONROD[:, None] * vals).sum(axis=0),
            half * (_W_GAUSS[:, None] * vals[1::2]).sum(axis=0))


def gauss_legendre_panel(f, lo, hi):
    """(sum over both halves, whole-panel sum) of the 15-point Gauss-Legendre
    rule the package used before the Kronrod pair."""
    x, w = np.polynomial.legendre.leggauss(15)

    def rule(lo, hi):
        half, vals = _values(f, lo, hi, x)
        return half * (w[:, None] * vals).sum(axis=0)

    mid = 0.5 * (lo + hi)
    return rule(lo, mid) + rule(mid, hi), rule(lo, hi)


#: (panel, round-off floor from the rule sums of the bounds) of the package's
#: rule and of the old one.
KRONROD = (kronrod_panel, lambda k21, g10: EPS * (12.5 * k21 + 7.0 * g10))
OLD_GAUSS_LEGENDRE = (gauss_legendre_panel, lambda fine, coarse: 10.0 * EPS * (coarse + fine))


def per_panel_integrate(f, a, b, *, rule=KRONROD, rtol=1e-10, atol=1e-13, max_panels=4096):
    """The adaptive driver as a depth-first stack, one panel per step, as
    the package ran it before its breadth-first pass; ``f`` returns
    components, then their round-off bounds in eps, as for ``integrate``.
    Popping the right half first accepts the panels in descending ``lo``.
    Returns (integrals, error bounds, number of splits, panels on each level
    of the bisection tree)."""
    panel, roundoff = rule
    width = b - a
    stack = [(a, b, 0)]
    total = err = 0.0
    panels = splits = 0
    per_level = []
    while stack:
        lo, hi, level = stack.pop()
        per_level += [0] * (level + 1 - len(per_level))
        per_level[level] += 1
        panels += 1
        if panels > max_panels:
            raise QuadratureError(
                f"exceeded {max_panels} panels on [{a}, {b}]; "
                f"residual interval [{lo}, {hi}]"
            )
        got, other = panel(f, lo, hi)
        n = len(got) // 2
        disagree = np.abs(got[:n] - other[:n])
        budget = max(atol * (hi - lo) / width, rtol * float(np.max(np.abs(got[:n]))))
        floor = roundoff(got[n:], other[n:])
        if float(np.max(disagree)) <= budget or (hi - lo) < 1e-14 * width or np.all(disagree <= floor):
            total = total + got[:n]
            err = err + (disagree + floor)
        else:
            splits += 1
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid, level + 1))
            stack.append((mid, hi, level + 1))
    return total, err, splits, per_level


def calls_for(per_level):
    """Integrand calls of the breadth-first pass: each level's panels in
    calls of at most ``_CALL_PANELS``."""
    return sum(-(-n // _CALL_PANELS) for n in per_level)


def smooth(t):
    return np.stack([np.exp(-t), np.sin(3.0 * t), 1.0 / (1.0 + t * t)], axis=1)


def kinked(t):
    # kinks at an irrational point, so no bisection midpoint ever lands on them
    d = np.abs(t - 1.0 / math.pi)
    return np.stack([np.sqrt(d), d * np.log(d + 1e-300), 1e-6 * d], axis=1)


def floored_kink(t):
    """A small kink with a round-off bound of 1: near the kink the panels
    split until their disagreement drops within the round-off floor, far
    above the tolerances used with it."""
    d = np.abs(t - 1.0 / math.pi)
    return np.stack([1e-8 * np.sqrt(d), np.ones_like(t)], axis=1)


def deterministic_noise(t):
    """Exactly 0 up to 4 ulps of ``r(t) = 1 + t``, with r as its bound; the
    noise is a function of t, so any order of calls sees the same values."""
    r = 1.0 + t
    return np.stack([4.0 * EPS * r * np.sin(1e5 * t), r], axis=1)


class Counted:
    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, t):
        assert len(t), "integrand called without abscissas"
        self.calls += 1
        return self.f(t)


@pytest.mark.parametrize(
    "f, a, b, tol",
    [
        (smooth, 0.0, 5.0, {}),
        (smooth, -1.0, 40.0, {"rtol": 1e-13, "atol": 1e-16}),
        (kinked, 0.0, 1.0, {}),
        (kinked, 0.0, 1.0, {"rtol": 1e-11, "atol": 1e-14}),
    ],
)
def test_bit_identical_to_per_panel_loop(f, a, b, tol):
    # zero round-off bounds accept no panel the tolerances would not
    counted = Counted(zero_bounds(f))
    vals, err = integrate_one(counted, a, b, **tol)
    ref_vals, ref_err, _, per_level = per_panel_integrate(zero_bounds(f), a, b, **tol)
    assert vals.tobytes() == ref_vals.tobytes()
    assert err.tobytes() == ref_err.tobytes()
    # one call per level of the bisection tree, or per 48 panels of a level
    assert counted.calls == calls_for(per_level)


#: (integrand, intervals, tolerances): smooth, kinked (deep splitting), zero
#: round-off bounds and round-off floors, each batch mixing intervals that
#: split with intervals that do not.
MIXED = [
    (zero_bounds(smooth), [(0.0, 5.0), (-1.0, 40.0), (2.0, 2.5), (-3.0, -2.999)],
     {"rtol": 1e-13, "atol": 1e-16}),
    (zero_bounds(kinked), [(0.0, 1.0), (0.5, 1.0), (0.3, 0.32), (-2.0, 3.0), (0.0, 1.0)], {}),
    (zero_bounds(kinked), [(0.25, 0.5), (0.0, 1.0)], {"rtol": 1e-11, "atol": 1e-14}),
    (floored_kink, [(0.0, 1.0), (0.5, 2.0), (0.3, 0.4)], {"rtol": 1e-14, "atol": 1e-30}),
    (deterministic_noise, [(0.0, 5.0), (-0.5, 0.5), (1.0, 1.0 + 1e-9)], {"rtol": 1e-13, "atol": 1e-30}),
]


@pytest.mark.parametrize("f, intervals, tol", MIXED)
def test_batched_intervals_bit_identical_to_per_panel_loop(f, intervals, tol):
    a, b = (np.array(v) for v in zip(*intervals))
    counted = Counted(f)
    vals, err = integrate(counted, a, b, **tol)
    assert vals.shape == err.shape == (len(intervals), f(np.zeros(1)).shape[1] // 2)
    pending = []  # panels of all intervals per level
    for row, (lo, hi) in enumerate(intervals):
        ref_vals, ref_err, _, per_level = per_panel_integrate(f, lo, hi, **tol)
        assert vals[row].tobytes() == ref_vals.tobytes(), row
        assert err[row].tobytes() == ref_err.tobytes(), row
        pending = [sum(n) for n in itertools.zip_longest(pending, per_level, fillvalue=0)]
    # one call per level of the deepest interval's bisection tree, or per 48
    # panels of a level
    assert counted.calls == calls_for(pending)


def test_calls_take_at_most_48_panels():
    # 100 intervals of one panel each in calls of 48, 48 and 4 panels, with
    # the values of one interval at a time
    sizes = []

    def f(t):
        sizes.append(len(t))
        return zero_bounds(smooth)(t)

    a = np.linspace(0.0, 5.0, 101)
    vals, err = integrate(f, a[:-1], a[1:])
    assert _CALL_PANELS == 48 and sizes == [21 * 48, 21 * 48, 21 * 4]
    for row in (0, 47, 48, 99):
        ref_vals, ref_err, _, _ = per_panel_integrate(zero_bounds(smooth), a[row], a[row + 1])
        assert vals[row].tobytes() == ref_vals.tobytes() and err[row].tobytes() == ref_err.tobytes()


def test_mixed_batches_reach_the_round_off_floor():
    # panels that the round-off floor accepts where the tolerances would not,
    # after splitting and at once (test_kinked_integrand_splits_deeply covers
    # the deep bisection)
    _, _, _, per_level = per_panel_integrate(floored_kink, 0.0, 1.0, rtol=1e-14, atol=1e-30)
    assert 10 <= len(per_level) < 40
    with pytest.raises(QuadratureError):  # without the floor
        per_panel_integrate(zero_bounds(lambda t: floored_kink(t)[:, :1]), 0.0, 1.0,
                            rtol=1e-14, atol=1e-30)
    assert per_panel_integrate(deterministic_noise, 0.0, 5.0, rtol=1e-13, atol=1e-30)[2] == 0
    with pytest.raises(QuadratureError):
        per_panel_integrate(zero_bounds(lambda t: deterministic_noise(t)[:, :1]), 0.0, 5.0,
                            rtol=1e-13, atol=1e-30, max_panels=200)


def test_kinked_integrand_splits_deeply():
    # the oracle comparison above must cover a deep bisection, not a few splits
    _, _, splits, _ = per_panel_integrate(zero_bounds(kinked), 0.0, 1.0)
    assert splits >= 30


def test_abscissas_per_call():
    # 21 for the interval as one panel, then 42 for both halves of each panel
    # split in the round before, 48 panels per call at most
    sizes = []

    def f(t):
        sizes.append(len(t))
        return zero_bounds(kinked)(t)

    integrate_one(f, 0.0, 1.0)
    _, _, splits, per_level = per_panel_integrate(zero_bounds(kinked), 0.0, 1.0)
    assert sizes[0] == 21 and all(n % 2 == 0 for n in per_level[1:])
    assert sizes == [21 * min(_CALL_PANELS, n - i) for n in per_level for i in range(0, n, _CALL_PANELS)]
    assert sum(sizes) == 21 * (1 + 2 * splits)


def test_smooth_integrand_needs_no_split():
    counted = Counted(zero_bounds(smooth))
    integrate_one(counted, 0.0, 1.0)
    assert counted.calls == 1


def test_max_panels_error_matches_per_panel_loop(monkeypatch):
    # both count the panels they examine and name the interval in the same
    # words; the breadth-first pass stops in the round that passes the limit
    # (1 + 2 + 2 + 2 + 2 = 9 panels before the sixth, of 4) and reports that
    # round's panel at index 9 - 13 = -4, its first: [1/4, 9/32]
    _, _, _, per_level = per_panel_integrate(zero_bounds(kinked), 0.0, 1.0)
    assert per_level[:6] == [1, 2, 2, 2, 2, 4]
    with pytest.raises(QuadratureError) as ref:
        per_panel_integrate(zero_bounds(kinked), 0.0, 1.0, max_panels=9)
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 9)
    with pytest.raises(QuadratureError) as got:
        integrate_one(zero_bounds(kinked), 0.0, 1.0)
    assert str(ref.value) == "exceeded 9 panels on [0.0, 1.0]; residual interval [0.328125, 0.34375]"
    assert str(got.value) == "exceeded 9 panels on [0.0, 1.0]; residual interval [0.25, 0.28125]"


def test_max_panels_is_per_interval(monkeypatch):
    _, _, splits, _ = per_panel_integrate(zero_bounds(kinked), 0.0, 1.0)
    panels = 1 + 2 * splits
    a, b = np.array([0.0, 0.0, 0.5]), np.array([1.0, 1.0, 1.0])
    # three intervals examine over twice the limit between them, each within it
    monkeypatch.setattr(quadrature, "_MAX_PANELS", panels)
    vals, _ = integrate(zero_bounds(kinked), a, b)
    assert vals.shape == (3, 3)
    monkeypatch.setattr(quadrature, "_MAX_PANELS", panels - 1)
    with pytest.raises(QuadratureError, match=f"exceeded {panels - 1} panels on \\[0.0, 1.0\\]"):
        integrate(zero_bounds(kinked), a, b)
    # the interval that needs few panels passes alone at that limit
    integrate_one(zero_bounds(kinked), 0.5, 1.0)


@pytest.mark.parametrize("a, b", [
    ([0.0, 2.0, 1.0], [1.0, 3.0, 0.5]),  # inverted
    ([0.0, 1.0], [1.0, 1.0]),  # empty
    ([0.0, math.nan], [1.0, 2.0]),  # NaN endpoint
    ([0.0, 1.0], [math.nan, 2.0]),
    ([0.0, 1.0], [1.0, 2.0, 3.0]),  # unequal lengths
    ([], []),
    (0.0, 1.0),  # numbers, not arrays
    ([[0.0]], [[1.0]]),
])
def test_every_interval_is_checked_before_the_first_call(a, b):
    def f(t):
        raise AssertionError("integrand called")

    with pytest.raises(QuadratureError):
        integrate(f, np.array(a), np.array(b))


def test_the_first_bad_interval_is_named():
    def f(t):
        raise AssertionError("integrand called")

    a, b = np.array([0.0, 2.0, 1.0, 5.0, 3.0]), np.array([1.0, 3.0, 0.5, 4.0, math.nan])
    with pytest.raises(QuadratureError, match=r"^empty or inverted interval \[1\.0, 0\.5\]$"):
        integrate(f, a, b)
    with pytest.raises(QuadratureError, match=r"^empty or inverted interval \[3\.0, nan\]$"):
        integrate(f, a[4:], b[4:])


# ---------------------------------------------------------------------------
# against the 15-point Gauss-Legendre rule the package used before
# ---------------------------------------------------------------------------


@pytest.fixture
def against_old_rule(monkeypatch):
    """Runs every integral the package takes also through the old rule's
    per-panel driver, interval by interval; records (package integrals,
    their bounds, old integrals) per interval."""
    seen = []

    def both(f, a, b, **tol):
        vals, err = integrate(f, a, b, **tol)
        for lo, hi, v, e in zip(a, b, vals, err):
            old, _, _, _ = per_panel_integrate(f, float(lo), float(hi), rule=OLD_GAUSS_LEGENDRE, **tol)
            seen.append((v, e, old))
        return vals, err

    monkeypatch.setattr(quadrature, "integrate", both)  # integrate_segments
    monkeypatch.setattr(buzzers, "integrate", both)
    return seen


def within_bounds(seen):
    """The largest |new - old| per component over its new error bound."""
    return max(float(np.max(np.abs(vals - old) / err)) for vals, err, old in seen)


def test_bench_grid_within_bounds_of_the_old_rule(against_old_rule):
    rows = verify_grid([2, 3, 4, 5, 6, 8], [0.01, 0.02, 0.05, 0.1],
                       [1e-2, 5e-3, 2.5e-3, 1.25e-3], with_outside=True)
    assert sum(r.feasible for r in rows) == 448
    # the two window segments and the right stretch of every cell
    assert len(against_old_rule) >= 3 * 448
    assert within_bounds(against_old_rule) <= 1.0


@pytest.mark.parametrize("seed", range(4))
def test_k24_costs_within_bounds_of_the_old_rule(against_old_rule, seed):
    rng = np.random.default_rng(seed)
    mass = rng.uniform(0.5, 1.5, 25)
    information_cost(InputDistribution(24, dict(zip(canonical_labels(24), mass / mass.sum()))))
    # every finite stretch between the 24 distinct start times
    assert len(against_old_rule) == 23
    assert within_bounds(against_old_rule) <= 1.0


# ---------------------------------------------------------------------------
# the round-off floor
# ---------------------------------------------------------------------------


def noisy_zero(ulps, seed=0):
    """An integrand that is exactly 0 up to round-off: noise of up to
    ``ulps`` ulps of terms of size ``r(t) = 1 + t``, with r as its bound."""
    rng = np.random.default_rng(seed)

    def f(t):
        r = 1.0 + t
        noise = ulps * EPS * r * rng.uniform(-1.0, 1.0, len(t))
        return np.stack([noise, 0.5 * noise, r, r], axis=1)

    return f


def test_roundoff_floor_accepts_noise_at_once():
    # a panel rule sum of |noise| <= 4 eps r stays within the floor; tolerances
    # far below the noise do not send the panel into bisection
    f = Counted(noisy_zero(4))
    vals, err = integrate_one(f, 0.0, 5.0, rtol=1e-13, atol=1e-30)
    assert f.calls == 1
    assert vals.shape == err.shape == (2,)
    assert np.all(np.abs(vals) <= err)
    # the floor of the whole panel enters the bound: eps (12.5 R_K + 7 R_G)
    assert err[0] >= 19.5 * EPS * 17.5


def test_noise_without_the_floor_exhausts_the_panels():
    f = noisy_zero(4)
    with pytest.raises(QuadratureError):
        integrate_one(zero_bounds(lambda t: f(t)[:, :2]), 0.0, 5.0, rtol=1e-13, atol=1e-30)

