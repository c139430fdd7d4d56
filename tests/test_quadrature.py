"""Adaptive Gauss-Legendre quadrature: per-component errors, empty sums, and
agreement with a per-panel oracle."""

import math

import numpy as np
import pytest

from icand.errors import QuadratureError
from icand.quadrature import integrate, integrate_segments
from kernel_oracle import zero_bounds


def test_error_bound_per_component():
    # panels are accepted on the worst component, but each component keeps
    # its own bound: a component a million times smaller gets a far smaller
    # bound instead of sharing the larger one
    f = zero_bounds(lambda t: np.stack([np.sqrt(t), 1e-6 * np.sqrt(t)], axis=1))
    vals, err = integrate(f, 0.0, 1.0, rtol=1e-10, atol=1e-13)
    np.testing.assert_allclose(vals, [2 / 3, 2e-6 / 3], rtol=1e-14)
    assert err.shape == (2,)
    assert 0.0 < err[1] <= 1e-5 * err[0]


def test_segments_sorted_and_summed():
    f = zero_bounds(lambda t: np.stack([np.ones_like(t), t], axis=1))
    vals, err = integrate_segments(f, [2.0, 0.0, 1.0])
    np.testing.assert_allclose(vals, [2.0, 2.0], atol=1e-15)
    assert err.shape == (2,)


@pytest.mark.parametrize("breakpoints", [[0.5], [1.0, 1.0 + 1e-16]])
def test_no_segment_calls_nothing(breakpoints):
    # a single start time has no finite segment; no shape probe is made
    def f(t):
        raise AssertionError("integrand called")

    assert integrate_segments(f, breakpoints) == (0.0, 0.0)


def test_empty_interval_is_rejected():
    # the package integrates only stretches of positive width
    with pytest.raises(QuadratureError):
        integrate(lambda t: np.ones((len(t), 2)), 1.0, 1.0)


# ---------------------------------------------------------------------------
# the per-panel loop as an oracle: one integrand call per 15-abscissa panel
# ---------------------------------------------------------------------------


def _oracle_panel(f, a, b, n):
    x, w = np.polynomial.legendre.leggauss(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = np.atleast_2d(np.asarray(f(mid + half * x), dtype=float))
    return half * (w[:, None] * vals).sum(axis=0)


def per_panel_integrate(f, a, b, *, rtol=1e-10, atol=1e-13, order=15, max_panels=4096):
    """Adaptive Gauss-Legendre with one integrand call per panel; returns
    (integrals, error bounds, number of splits)."""
    width = b - a
    coarse = _oracle_panel(f, a, b, order)
    stack = [(a, b, coarse)]
    total = np.zeros_like(coarse)
    err = np.zeros_like(coarse)
    panels = splits = 0
    while stack:
        lo, hi, rough = stack.pop()
        panels += 1
        if panels > max_panels:
            raise QuadratureError(
                f"exceeded {max_panels} panels on [{a}, {b}]; "
                f"residual interval [{lo}, {hi}]"
            )
        mid = 0.5 * (lo + hi)
        left = _oracle_panel(f, lo, mid, order)
        right = _oracle_panel(f, mid, hi, order)
        fine = left + right
        disagree = np.abs(fine - rough)
        budget = max(atol * (hi - lo) / width, rtol * float(np.max(np.abs(fine))))
        if float(np.max(disagree)) <= budget or (hi - lo) < 1e-14 * width:
            total += fine
            err += disagree
        else:
            splits += 1
            stack.append((lo, mid, left))
            stack.append((mid, hi, right))
    return total, err, splits


def smooth(t):
    return np.stack([np.exp(-t), np.sin(3.0 * t), 1.0 / (1.0 + t * t)], axis=1)


def kinked(t):
    # kinks at an irrational point, so no bisection midpoint ever lands on them
    d = np.abs(t - 1.0 / math.pi)
    return np.stack([np.sqrt(d), d * np.log(d + 1e-300), 1e-6 * d], axis=1)


class Counted:
    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, t):
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
    vals, err = integrate(counted, a, b, **tol)
    ref_vals, ref_err, splits = per_panel_integrate(f, a, b, **tol)
    assert vals.tobytes() == ref_vals.tobytes()
    assert err.tobytes() == ref_err.tobytes()
    # one call for the interval and its halves, then one per split
    assert counted.calls == 1 + splits


def test_kinked_integrand_splits_deeply():
    # the oracle comparison above must cover a deep bisection, not a few splits
    _, _, splits = per_panel_integrate(kinked, 0.0, 1.0)
    assert splits >= 30


def test_smooth_integrand_needs_no_split():
    counted = Counted(zero_bounds(smooth))
    integrate(counted, 0.0, 1.0)
    assert counted.calls == 1


def test_max_panels_error_matches_per_panel_loop():
    with pytest.raises(QuadratureError) as ref:
        per_panel_integrate(kinked, 0.0, 1.0, max_panels=9)
    with pytest.raises(QuadratureError) as got:
        integrate(zero_bounds(kinked), 0.0, 1.0, max_panels=9)
    assert str(got.value) == str(ref.value)
    assert "residual interval" in str(got.value)


# ---------------------------------------------------------------------------
# the round-off floor
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


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
    vals, err = integrate(f, 0.0, 5.0, rtol=1e-13, atol=1e-30)
    assert f.calls == 1
    assert vals.shape == err.shape == (2,)
    assert np.all(np.abs(vals) <= err)
    # the floor of the whole panel enters the bound: 10 eps (R_coarse + R_fine)
    assert err[0] >= 10 * EPS * 2 * 17.5


def test_noise_without_the_floor_exhausts_the_panels():
    f = noisy_zero(4)
    with pytest.raises(QuadratureError):
        integrate(zero_bounds(lambda t: f(t)[:, :2]), 0.0, 5.0, rtol=1e-13, atol=1e-30)

