"""Adaptive Gauss-Kronrod quadrature for vector-valued smooth integrands.

The integrands in this package are piecewise-analytic (sums of exponentials
and their logarithms), so a fixed-order panel rule converges spectrally.
Each panel is one application of QUADPACK's embedded pair (Piessens et al.,
*QUADPACK*, 1983): the 21-point Kronrod rule K21, and the 10-point Gauss
rule G10 on the Gauss points among its nodes.  The adaptive driver bisects
a panel whenever the two sums disagree.  All integrand evaluations are
batched: ``f`` takes an array of abscissas and returns an array of shape
``(len(t), 2 n)``: n components, then a bound on the round-off of each in
units of eps.  The first call evaluates the interval as one panel (21
abscissas) and each split evaluates both halves at once (42), so an
integral makes 1 + (number of splits) calls.  A panel is accepted on its
worst component, or on the round-off floor of every component; the error
bound is kept per component.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError


# The K21 nodes in [0, 1) and their weights, from QUADPACK's qk21; the
# Gauss nodes are every other one, 0.9739... down to 0.1488....
_X = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
      0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
      0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
      0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
      0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
      0.0)
_WK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
       0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
       0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
       0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
       0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
       0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)

#: The 21 Kronrod nodes on [-1, 1] in ascending order, their weights, and
#: the weights of the 10 Gauss nodes ``_NODES[1::2]``.
_NODES = np.concatenate([-np.array(_X[:-1]), _X[::-1]])
_W_KRONROD = np.concatenate([_WK[:-1], _WK[::-1]])
_W_GAUSS = np.concatenate([_WG, _WG[::-1]])

#: Round-off of a panel's K21 and G10 sums, in eps times their sums of the
#: integrand's round-off bounds (``integrate``).
_C_KRONROD, _C_GAUSS, _EPS = 12.5, 7.0, float(np.finfo(float).eps)


def _panel_sums(f, bounds) -> list[tuple[np.ndarray, np.ndarray]]:
    """(K21, G10) sums over the panels ``[lo, hi]`` in ``bounds``, from one call of ``f``."""
    n = len(_NODES)
    ts = np.concatenate([0.5 * (lo + hi) + 0.5 * (hi - lo) * _NODES for lo, hi in bounds])
    vals = np.atleast_2d(np.asarray(f(ts), dtype=float))
    if vals.shape[0] != len(ts):
        raise QuadratureError("integrand must return one row per abscissa")
    sums = []
    for j, (lo, hi) in enumerate(bounds):
        panel, half = vals[j * n : (j + 1) * n], 0.5 * (hi - lo)
        sums.append((half * (_W_KRONROD[:, None] * panel).sum(axis=0),
                     half * (_W_GAUSS[:, None] * panel[1::2]).sum(axis=0)))
    return sums


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
    an integrand exact to rounding); the n are integrated.  Each accepted
    panel returns its K21 sum.  The error bound of a component is the sum
    over accepted panels of its disagreement |K21 - G10| plus its round-off
    floor (below).  The disagreement measures the error of the G10 sum, so
    for smooth integrands it overestimates the error of the K21 sum
    returned: K21 is exact for polynomials of degree 31, G10 for degree 19.

    To first order a rule sum carries eps R (R the rule sum of r) from the
    integrand and m + 2 roundings of its own for m points (the products,
    m - 1 additions, the half-width and the product with it): 12.5 eps R_K
    for K21 (23 roundings of eps / 2) and 7 eps R_G for G10 (12).  A
    disagreement within that floor, ``eps (12.5 R_K + 7 R_G)``, is thus
    round-off: the panel is accepted whatever the tolerances.  Every
    accepted panel adds that floor to its disagreement in the error bound,
    since the K21 sum it returns carries that round-off however it was
    accepted.  Zero bounds accept no panel the tolerances would not and add
    nothing.
    """
    if not a < b:
        raise QuadratureError(f"empty or inverted interval [{a}, {b}]")

    width = b - a
    ((kronrod, gauss),) = _panel_sums(f, [(a, b)])
    n = len(kronrod) // 2
    stack = [(a, b, kronrod, gauss)]
    total, err = np.zeros(n), np.zeros(n)
    panels = 0
    while stack:
        lo, hi, kronrod, gauss = stack.pop()
        panels += 1
        if panels > max_panels:
            raise QuadratureError(
                f"exceeded {max_panels} panels on [{a}, {b}]; "
                f"residual interval [{lo}, {hi}]"
            )
        disagree = np.abs(kronrod[:n] - gauss[:n])
        budget = max(atol * (hi - lo) / width, rtol * float(np.max(np.abs(kronrod[:n]))))
        floor = _EPS * (_C_KRONROD * kronrod[n:] + _C_GAUSS * gauss[n:])
        within = float(np.max(disagree)) <= budget
        if within or (hi - lo) < 1e-14 * width or np.all(disagree <= floor):
            total += kronrod[:n]
            err += disagree + floor
        else:
            mid = 0.5 * (lo + hi)
            left, right = _panel_sums(f, [(lo, mid), (mid, hi)])
            stack.append((lo, mid, *left))
            stack.append((mid, hi, *right))
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
