"""Adaptive Gauss-Legendre quadrature for vector-valued smooth integrands.

The integrands in this package are piecewise-analytic (sums of exponentials
and their logarithms), so a fixed-order panel rule converges spectrally; the
adaptive driver bisects a panel whenever one rule application disagrees with
the sum over its halves.  All integrand evaluations are batched: ``f`` takes
an array of abscissas and returns an array of shape ``(len(t), n_components)``.
A panel is accepted on its worst component; the error bound is kept per
component.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import QuadratureError


@lru_cache(maxsize=None)
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _panel(f, a: float, b: float, n: int) -> np.ndarray:
    x, w = _gl_rule(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = np.atleast_2d(np.asarray(f(mid + half * x), dtype=float))
    if vals.shape[0] != n:
        raise QuadratureError("integrand must return one row per abscissa")
    return half * (w[:, None] * vals).sum(axis=0)


def integrate(
    f,
    a: float,
    b: float,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-13,
    order: int = 15,
    max_panels: int = 4096,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate ``f`` over [a, b]; returns (component integrals, error bounds).

    ``f(t_array) -> (n_t, n_components)`` must accept vector input.  The
    error bound of a component is the sum over accepted panels of its
    coarse/fine disagreement, which overestimates the true quadrature error
    for smooth integrands.
    """
    if not a < b:
        raise QuadratureError(f"empty or inverted interval [{a}, {b}]")

    width = b - a
    coarse = _panel(f, a, b, order)
    stack = [(a, b, coarse)]
    total = np.zeros_like(coarse)
    err = np.zeros_like(coarse)
    panels = 0
    while stack:
        lo, hi, rough = stack.pop()
        panels += 1
        if panels > max_panels:
            raise QuadratureError(
                f"exceeded {max_panels} panels on [{a}, {b}]; "
                f"residual interval [{lo}, {hi}]"
            )
        mid = 0.5 * (lo + hi)
        left = _panel(f, lo, mid, order)
        right = _panel(f, mid, hi, order)
        fine = left + right
        disagree = np.abs(fine - rough)
        budget = max(atol * (hi - lo) / width, rtol * float(np.max(np.abs(fine))))
        if float(np.max(disagree)) <= budget or (hi - lo) < 1e-14 * width:
            total += fine
            err += disagree
        else:
            stack.append((lo, mid, left))
            stack.append((mid, hi, right))
    return total, err


def integrate_segments(
    f,
    breakpoints,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-13,
) -> tuple[np.ndarray | float, np.ndarray | float]:
    """Integrate over consecutive [b_j, b_{j+1}] segments and sum the pieces.

    Segments no wider than 1e-14 (relative) are skipped.  With no segment
    left the sums are empty: both come back as the scalar 0.0, which
    broadcasts against any component vector, and ``f`` is never called.
    """
    pts = np.asarray(sorted(breakpoints), dtype=float)
    total, err = 0.0, 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        if hi - lo <= 1e-14 * max(1.0, abs(lo), abs(hi)):
            continue
        vals, e = integrate(f, float(lo), float(hi), rtol=rtol, atol=atol)
        total = total + vals
        err = err + e
    return total, err
