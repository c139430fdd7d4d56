"""Adaptive Gauss-Legendre quadrature for vector-valued smooth integrands.

The integrands in this package are piecewise-analytic (sums of exponentials
and their logarithms), so a fixed-order panel rule converges spectrally; the
adaptive driver bisects a panel whenever one rule application disagrees with
the sum over its halves.  All integrand evaluations are batched: ``f`` takes
an array of abscissas and returns an array of shape ``(len(t), 2 n)``: n
components, then a bound on the round-off of each in units of eps.  One
call covers a whole bisection: the first evaluates the interval and both
its halves, and each split evaluates the four quarter panels at once, so an
integral makes 1 + (number of splits) calls.  A panel is accepted on its
worst component, or on the round-off floor of every component; the error
bound is kept per component.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import QuadratureError


#: Points of the Gauss-Legendre rule on each panel.
_ORDER = 15

#: A panel's round-off floor in eps times its rule sums of the integrand's
#: round-off bounds (``integrate``).
_C_ROUNDOFF, _EPS = 10.0, float(np.finfo(float).eps)


@lru_cache(maxsize=None)
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _panel_sums(f, bounds, n: int) -> list[np.ndarray]:
    """Rule sums over the panels ``[lo, hi]`` in ``bounds``, from one call of ``f``."""
    x, w = _gl_rule(n)
    ts = np.concatenate([0.5 * (lo + hi) + 0.5 * (hi - lo) * x for lo, hi in bounds])
    vals = np.atleast_2d(np.asarray(f(ts), dtype=float))
    if vals.shape[0] != len(ts):
        raise QuadratureError("integrand must return one row per abscissa")
    return [
        0.5 * (hi - lo) * (w[:, None] * vals[j * n : (j + 1) * n]).sum(axis=0)
        for j, (lo, hi) in enumerate(bounds)
    ]


def integrate(
    f,
    a: float,
    b: float,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-13,
    max_panels: int = 4096,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate ``f`` over [a, b]; returns (component integrals, error bounds).

    ``f(t_array) -> (n_t, 2 n)`` must accept vector input: n components,
    then a bound r(t) on the round-off of each in units of eps (zeros for
    an integrand exact to rounding); the n are integrated.  The error bound
    of a component is the sum over accepted panels of its coarse/fine
    disagreement plus its round-off floor (below); the disagreement
    overestimates the true quadrature error for smooth integrands.

    To first order a rule sum carries eps R (R the rule sum of r) from the
    integrand and 17 roundings of its own (15 products, their sum, the
    half-width): 9.5 eps R_coarse for a panel, 10 eps R_fine for its
    halves.  A disagreement within ``10 eps (R_coarse + R_fine)`` (c = 10) is
    thus round-off: the panel is accepted whatever the tolerances.  Every
    accepted panel adds that floor to its disagreement in the error bound,
    since the fine sum it returns carries that round-off however it was
    accepted.  Zero bounds accept no panel the tolerances would not and add
    nothing.
    """
    if not a < b:
        raise QuadratureError(f"empty or inverted interval [{a}, {b}]")

    width = b - a
    mid = 0.5 * (a + b)
    coarse, left, right = _panel_sums(f, [(a, b), (a, mid), (mid, b)], _ORDER)
    n = len(coarse) // 2
    stack = [(a, b, coarse, left, right)]
    total, err = np.zeros(n), np.zeros(n)
    panels = 0
    while stack:
        lo, hi, rough, left, right = stack.pop()
        panels += 1
        if panels > max_panels:
            raise QuadratureError(
                f"exceeded {max_panels} panels on [{a}, {b}]; "
                f"residual interval [{lo}, {hi}]"
            )
        fine = left + right
        disagree = np.abs(fine[:n] - rough[:n])
        budget = max(atol * (hi - lo) / width, rtol * float(np.max(np.abs(fine[:n]))))
        floor = _C_ROUNDOFF * _EPS * (rough[n:] + fine[n:])
        within = float(np.max(disagree)) <= budget
        if within or (hi - lo) < 1e-14 * width or np.all(disagree <= floor):
            total += fine[:n]
            err += disagree + floor
        else:
            mid = 0.5 * (lo + hi)
            q1, q3 = 0.5 * (lo + mid), 0.5 * (mid + hi)
            quarters = _panel_sums(f, [(lo, q1), (q1, mid), (mid, q3), (q3, hi)], _ORDER)
            stack.append((lo, mid, left, *quarters[:2]))
            stack.append((mid, hi, right, *quarters[2:]))
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
