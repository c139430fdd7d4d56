"""Adaptive Gauss-Legendre quadrature: per-component errors, empty sums."""

import numpy as np
import pytest

from icand.errors import QuadratureError
from icand.quadrature import integrate, integrate_segments


def test_error_bound_per_component():
    # panels are accepted on the worst component, but each component keeps
    # its own bound: a component a million times smaller gets a far smaller
    # bound instead of sharing the larger one
    f = lambda t: np.stack([np.sqrt(t), 1e-6 * np.sqrt(t)], axis=1)  # noqa: E731
    vals, err = integrate(f, 0.0, 1.0, rtol=1e-10, atol=1e-13)
    np.testing.assert_allclose(vals, [2 / 3, 2e-6 / 3], rtol=1e-14)
    assert err.shape == (2,)
    assert 0.0 < err[1] <= 1e-5 * err[0]


def test_segments_sorted_and_summed():
    f = lambda t: np.stack([np.ones_like(t), t], axis=1)  # noqa: E731
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
        integrate(lambda t: np.ones((len(t), 1)), 1.0, 1.0)
