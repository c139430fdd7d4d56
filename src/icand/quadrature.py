"""Adaptive Gauss-Kronrod quadrature for vector-valued smooth integrands.

The integrands in this package are piecewise-analytic (sums of exponentials
and their logarithms), so a fixed-order panel rule converges spectrally.
Each panel is one application of QUADPACK's embedded pair (Piessens et al.,
*QUADPACK*, 1983): the 21-point Kronrod rule K21, and the 10-point Gauss
rule G10 on the Gauss points among its nodes.  The adaptive driver bisects
a panel whenever the two sums disagree.  It runs breadth-first over any
number of intervals: ``f`` takes an array of abscissas and returns an
array of shape ``(len(t), 2 n)`` (n components, then a bound on the
round-off of each in units of eps), and each round calls ``f`` at the 21
nodes of every pending panel of every interval, 48 panels per call at most
so that a call's memory does not grow with the number of intervals.  A
pass of up to 48 panels per level makes 1 + (deepest bisection level)
calls.  A panel is accepted on its worst component, or on the round-off
floor of every component; the error bound is kept per component.
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

#: Panels per call of the integrand: a call holds at most 1,008 rows of
#: 2 n values, however many panels a round has pending.
_CALL_PANELS = 48

#: Panels examined on one interval before ``integrate`` gives up.
_MAX_PANELS = 4096


def integrate(f, a: np.ndarray, b: np.ndarray, *, rtol: float = 1e-10,
              atol: float = 1e-13) -> tuple[np.ndarray, np.ndarray]:
    """Integrate ``f`` over the intervals [a[j], b[j]]; returns (component
    integrals, error bounds), row j of both for interval j.

    ``a`` and ``b`` are equal-length 1-d arrays of endpoints.  Every interval
    is checked before ``f`` is first called, which takes the nodes of at most
    ``_CALL_PANELS`` panels at a time.  ``f(t_array) -> (n_t, 2 n)``
    returns n components, then a bound r(t) on the round-off of each in
    units of eps (zeros for an integrand exact to rounding).

    A panel of [a, b] is accepted when its worst disagreement |K21 - G10|
    is within ``max(atol (hi - lo) / (b - a), rtol max |K21|)``, when it is
    narrower than 1e-14 (b - a), or when every disagreement is within its
    round-off floor (below); otherwise it is bisected.  More than
    ``_MAX_PANELS`` panels examined on one interval is an error.  An
    interval's integral sums the K21 sums of its accepted panels in
    descending ``lo`` (the order of a depth-first stack that pops the right
    half first), and its error bound their disagreements plus floors.  The
    disagreement measures the error of the G10 sum, so for smooth
    integrands it overestimates the error of the K21 sum returned: K21 is
    exact for polynomials of degree 31, G10 for degree 19.

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
    a_arr, b_arr = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a_arr.ndim != 1 or a_arr.shape != b_arr.shape or not len(a_arr):
        raise QuadratureError(f"endpoints must be equal-length 1-d arrays, "
                              f"got shapes {np.shape(a)} and {np.shape(b)}")
    ok = a_arr < b_arr
    if not ok.all():
        j = int(np.argmin(ok))
        raise QuadratureError(f"empty or inverted interval [{a_arr[j]}, {b_arr[j]}]")

    m, width = len(a_arr), b_arr - a_arr
    # the pending panels: their interval, then their endpoints
    owner, lo, hi = np.arange(m), a_arr, b_arr
    examined = np.zeros(m, dtype=int)
    done = []  # per round: (interval, lo, K21, error bound) of its accepted panels
    while True:
        sums = [_panel_sums(f, lo[i : i + _CALL_PANELS], hi[i : i + _CALL_PANELS])
                for i in range(0, len(lo), _CALL_PANELS)]
        kronrod, gauss = (np.concatenate(parts) for parts in zip(*sums))
        examined += np.bincount(owner, minlength=m)
        if examined.max() > _MAX_PANELS:
            j = int(np.argmax(examined > _MAX_PANELS))
            p = np.flatnonzero(owner == j)[_MAX_PANELS - examined[j]]  # < 0: from the round's end
            raise QuadratureError(f"exceeded {_MAX_PANELS} panels on [{a_arr[j]}, {b_arr[j]}]; "
                                  f"residual interval [{lo[p]}, {hi[p]}]")
        n = kronrod.shape[1] // 2
        vals = kronrod[:, :n]
        disagree = abs(vals - gauss[:, :n])
        floor = _EPS * (_C_KRONROD * kronrod[:, n:] + _C_GAUSS * gauss[:, n:])
        span, scale = hi - lo, width[owner]
        accept = disagree.max(axis=1) <= np.maximum(atol * span / scale, rtol * abs(vals).max(axis=1))
        accept |= span < 1e-14 * scale
        accept |= (disagree <= floor).all(axis=1)
        done.append((owner[accept], lo[accept], vals[accept], (disagree + floor)[accept]))
        if accept.all():
            break
        owner, lo, hi = owner[~accept], lo[~accept], hi[~accept]
        mid = 0.5 * (lo + hi)
        owner, lo, hi = np.concatenate([owner, owner]), np.concatenate([lo, mid]), np.concatenate([mid, hi])

    owner, lo, vals, errs = (np.concatenate(parts) for parts in zip(*done))
    order = np.lexsort((-lo, owner))
    total, err = np.zeros((m, n)), np.zeros((m, n))
    np.add.at(total, owner[order], vals[order])
    np.add.at(err, owner[order], errs[order])
    return total, err


def _panel_sums(f, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """K21 and G10 sums of the panels [lo[j], hi[j]], one row each, from one
    call of ``f``."""
    half = (0.5 * (hi - lo))[:, None]
    ts = ((0.5 * (lo + hi))[:, None] + half * _NODES).ravel()
    rows = np.asarray(f(ts), dtype=float)
    if rows.ndim != 2 or rows.shape[0] != len(ts):
        raise QuadratureError("integrand must return one row per abscissa")
    rows = rows.reshape(len(lo), len(_NODES), -1)
    return (half * (_W_KRONROD[:, None] * rows).sum(axis=1),
            half * (_W_GAUSS[:, None] * rows[:, 1::2]).sum(axis=1))


def integrate_segments(f, groups, *, rtol: float = 1e-10, atol: float = 1e-13
                       ) -> list[tuple[np.ndarray | float, np.ndarray | float]]:
    """One (integrals, error bounds) per list of breakpoints in ``groups``,
    summed in order over its consecutive segments, from one ``integrate``
    pass.  Segments no wider than 1e-14 (relative) are skipped; a group
    with none left gets the scalar 0.0 for both, which broadcasts against
    any component vector.  Without any segment ``f`` is never called.
    """
    spans = []  # (group, lo, hi)
    for g, breakpoints in enumerate(groups):
        pts = sorted(float(t) for t in breakpoints)
        for lo, hi in zip(pts[:-1], pts[1:]):
            if not hi - lo <= 1e-14 * max(1.0, abs(lo), abs(hi)):
                spans.append((g, lo, hi))
    out = [(0.0, 0.0)] * len(groups)
    if spans:
        owner, lo, hi = zip(*spans)
        vals, err = integrate(f, np.array(lo), np.array(hi), rtol=rtol, atol=atol)
        for g, v, e in zip(owner, vals, err):
            out[g] = (out[g][0] + v, out[g][1] + e)
    return out
