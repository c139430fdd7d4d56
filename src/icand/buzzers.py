"""The continuous-time buzzers protocol for multiparty AND and its exact cost.

Player ``i`` with private bit 0 arms an exponential-clock buzzer at start
time ``t_i = ln(m_i / m_min)``, where ``m_i`` is the measure of the basis
input ``e_i`` and ``m_min`` the smallest such mass.  The first buzz ends the
protocol with output 0; eternal silence means every bit was 1.  A transcript
is therefore either ``(t, m)`` (player ``m`` buzzed first at time ``t``) or
the silent outcome, which has probability one exactly on the all-ones input.

Transcript densities factor per input as ``f_x(t, m) = exp(-Phi_x(t))`` for
``t >= t_m`` and ``x_m = 0`` (zero otherwise), with ``Phi_x`` the total time
already spent by active players.  A cost is a prior entropy minus the
conditional entropy of the input given the transcript, integrated stretch
by stretch between start times: each finite stretch by Gauss-Kronrod
quadrature of the gated-class kernel ``_entropy_densities`` (shared with the
window integrals and the discrete leaf sums), the last one in closed form
(``_tail``).  That rests on ``int_0^1 u^(k-2) (g + a u) ln(g + a u) du``,
also the whole cost on the player-symmetric line (``_symmetric_line``); one
power series evaluates it for both (``_line_series``).

``information_cost`` conditions all-ones mass away and scales the cost by
its complement: start times depend only on ratios of basis masses, so the
conditioned measure runs the same protocol.  ``cost_under`` costs given
start times on the measure as it is, silent atom included.  A zero basis
mass leaves its player's start time undefined; the limit of vanishing mass
(the player starts first, holds 0 and buzzes at once, revealing nothing)
costs zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import MalformedInputError, TrivialInstanceError, ZeroEMassError
from .measures import LN2, ZERO_MASS, InputDistribution, _prior_entropies
from .quadrature import integrate

__all__ = [
    "ICReport",
    "start_times",
    "cost_under",
    "information_cost",
    "closed_form_uniform",
]

#: Start times closer than this (relative) collapse into one breakpoint.
_TIME_DEDUPE = 1e-14

#: Smallest normal double; transcript densities below it count as zero.
_TINY = np.finfo(float).tiny

_EPS = np.finfo(float).eps

#: Round-off of a cost, in units of eps times the prior entropies it is
#: taken from (see ``_cost_arrays``).  Against closed forms (uniform k up to
#: 200) and 30-digit references (k <= 4) the error reached 11.5 such units;
#: 32 keeps a factor near three above that.
_ROUNDOFF = 32.0

#: Default quadrature tolerances of a cost.
_RTOL, _ATOL = 1e-10, 1e-12


def start_times(mu: InputDistribution) -> np.ndarray:
    """The protocol on ``mu``: player i's start time ``ln(m_i / m_min)`` at
    index i - 1, for a measure with positive basis masses."""
    e = mu.vector[1 : mu.k + 1]
    if np.all(e <= ZERO_MASS):
        raise TrivialInstanceError("all basis masses vanish; no start times")
    if np.any(e <= ZERO_MASS):
        raise ZeroEMassError([i + 1 for i in np.flatnonzero(e <= ZERO_MASS)])
    return np.log(e / e.min())


# ---------------------------------------------------------------------------
# transcript densities and their entropies (arrays; inputs as rows of a bit
# matrix)
# ---------------------------------------------------------------------------


def _dedupe_sorted(values: np.ndarray) -> np.ndarray:
    out = [float(values[0])]
    for v in values[1:]:
        if v - out[-1] > _TIME_DEDUPE * max(1.0, abs(v)):
            out.append(float(v))
    return np.array(out)


def _xlogx(v: np.ndarray) -> np.ndarray:
    """x ln x counting every positive value; 0 ln 0 = 0."""
    return v * np.log(np.maximum(v, _TINY))


def _class_entropies(U: np.ndarray, classes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h, M) per row of ``U``, the densities (at most 1) of the inputs that
    can produce one buzz, and column of ``classes``: with ``S = U @ classes``
    and ``X = xlogx(U) @ classes``, the entropy density ``h = xlogx(S) - X``
    in nats and ``M = S + |xlogx(S)| + |X|``, the size of its terms.  The sums
    add nonnegative terms, so none cancels; a one-input class gives exactly
    0.  Subnormals count as zero: they carry no countable mass and would slow
    the matrix products a hundredfold.
    """
    U = np.where(U < _TINY, 0.0, U)
    S = U @ classes
    A, X = _xlogx(S), _xlogx(U) @ classes
    return A - X, S - A - X


#: Transcript densities per kernel block, which a block can pass by less than
#: one abscissa's ``zeros.size``: a call of n abscissas is split into
#: ceil(n zeros.size / _KERNEL_BLOCK) blocks of ceil(n / blocks) abscissas,
#: the last one shorter, and one abscissa is never split (the k = 24 cost's
#: call of 483 abscissas runs as 28 blocks of 17, 10,200 densities each, and
#: one of 7).  Past about this many its cost per abscissa rose with the block
#: (k = 16, 24, 32), and at large k its memory grew with the batch.
_KERNEL_BLOCK = 10_000


def _layout(zeros: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``zeros[x, i]`` (x_i == 0); the classes a buzz splits the inputs
    into, all and then x_i == 0 per i; the buzzer gate ``zeros.T``."""
    return zeros, np.hstack([np.ones((len(zeros), 1)), zeros]), np.ascontiguousarray(zeros.T)


def _entropy_densities(times, layout, log_w, ts: np.ndarray) -> np.ndarray:
    """Densities [H(X|T), H(X|T, X_1), ..., H(X|T, X_k)] in nats at ``ts``,
    then a bound on the round-off of each in units of eps.

    ``times`` (start times) and ``log_w`` (log input masses, -inf for none)
    come once or in one row per abscissa; ``layout`` is ``_layout(zeros)``,
    ``zeros[x, i]`` marking x_i == 0.  At
    buzzer m only inputs with x_m = 0 buzz, with density ``w_x e^{-Phi_x(t)}``
    once t >= t_m, so the posterior splits into the gated classes
    {x_m = 0, x_i = 0} (i = m: the external class, also player m's) and
    {x_m = 0, x_i = 1}, on the layout {e_i} or empty, adding exactly 0.  Each
    block of nearly equal length gates the densities into one row per
    (abscissa, m), so one abscissa holds ``zeros.size`` densities, and each
    entropy sums ``_class_entropies`` of the rows over the started m.  With
    u = eps / 2, a class sum of n <= n_x terms rounds by (n - 1) u relative,
    each x ln x by 2 u more, the difference by u and the sum over m by
    (k - 1) u: a density is within (n_x + k + 1) u M of the entropy of the
    computed v, M summed over the started m (an error of v moves a class's
    h by at most its relative size times h).  The bound
    ``(n_x + k + 3) / 2 * M`` spares one eps for the window integrand's sum.
    """
    zeros, classes, gate = layout
    n_x, k = zeros.shape
    blocks = min(len(ts), -(-len(ts) * zeros.size // _KERNEL_BLOCK))
    step = -(-len(ts) // blocks)
    out = np.empty((len(ts), 2 * (k + 1)))
    for j in range(0, len(ts), step):
        t = ts[j : j + step]
        t_m = times[j : j + step] if times.ndim == 2 else times
        v = np.exp((log_w[j : j + step] if log_w.ndim == 2 else log_w)
                   - np.maximum(t[:, None] - t_m, 0.0) @ zeros.T)
        h, M = _class_entropies((v[:, None, :] * gate).reshape(-1, n_x), classes)
        started = (t[:, None] >= t_m).astype(float)
        out[j : j + step, : k + 1] = np.einsum("tm,tmc->tc", started, h.reshape(len(t), k, -1))
        out[j : j + step, k + 1 :] = np.einsum("tm,tmc->tc", started, M.reshape(len(t), k, -1))
    out[:, k + 1 :] *= 0.5 * (n_x + k + 3)
    return out


# ---------------------------------------------------------------------------
# information cost
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ICReport:
    """Internal/external information cost in bits with per-player breakdown."""

    external_bits: float
    internal_bits: float
    per_player_bits: tuple[float, ...]
    concealed_internal_bits: float
    concealed_external_bits: float
    quadrature_error_estimate: float

    @classmethod
    def of(cls, prior, external: float, per_player, error: float) -> "ICReport":
        """Report costs in bits, with concealed information against the prior
        entropies ``[H(X), H(X|X_1), ..., H(X|X_k)]`` in nats."""
        prior = np.asarray(prior) / LN2
        internal = float(np.sum(per_player))
        return cls(
            external_bits=float(external),
            internal_bits=internal,
            per_player_bits=tuple(float(v) for v in per_player),
            concealed_internal_bits=float(prior[1:].sum() - internal),
            concealed_external_bits=float(prior[0] - external),
            quadrature_error_estimate=float(error),
        )


def _tail(times: np.ndarray, bits: np.ndarray, log_w: np.ndarray, t_last: float) -> np.ndarray:
    """The stretch ``t >= t_last`` of [H(X|T), H(X|T, X_1), ..., H(X|T, X_k)]
    in nats, in closed form (row 0), and a round-off bound of each (row 1).

    With ``u = exp(-(t - t_last))`` all-zeros buzzes with density ``a u^k``,
    ``e_j`` with ``c_j u^(k-1)``.  A class of the e_j in S (and all-zeros, or
    a = 0) sums to ``u^(k-1) (g + a u)``, ``g = sum_S c_j``, and integrates to

        T = L(g, a) + a/k^2 - sum_S c_j ln c_j / (k-1) - a ln a / k,
        L = int_0^1 u^(k-2) (g + a u) ln(g + a u) du
          = ln(g + a) (g/(k-1) + a/k) + (g + a) ell(a / (g + a)),

    or to exactly 0 with one input.  Class (m, i) lacks e_m and e_i: at
    buzzer m it is player i's class beside the single e_i, and (m, m) is the
    external class, player m's too.  So H(X|T) sums the diagonal and
    H(X|T, X_i) row i.  Where removing the largest weight(s) from the total
    would cancel, the class is summed directly.
    """
    k, eps = bits.shape[1], float(_EPS)
    c = np.exp(log_w - (bits == 0) @ np.maximum(t_last - times, 0.0))
    ones = bits.sum(axis=1)
    a, e = float(c[ones == 0].sum()), np.zeros(k)
    e[np.argmax(bits[ones == 1], axis=1)] = c[ones == 1]
    xl, xl_a = _xlogx(e), float(_xlogx(np.array(a)))
    top, second = np.argsort(-e, kind="stable")[:2]
    rest = e.sum() - e
    rest[top] = np.delete(e, top).sum()
    g = np.where(e[:, None] >= e, rest[:, None] - e, rest - e[:, None])
    g[top, second] = g[second, top] = np.delete(e, [top, second]).sum()
    x = xl.sum() - xl[:, None] - xl
    size = (a > 0.0) + np.count_nonzero(e) - (e > 0.0)[:, None] - (e > 0.0)
    diag = np.diag_indices(k)  # without e_m alone: external, and player m's
    g[diag], x[diag], size[diag] = rest, xl.sum() - xl, size[diag] + (e > 0.0)
    live = size >= 2
    g, x = np.maximum(g[live], 0.0), x[live]
    sigma = g + a
    # one series per distinct s; under a measure's own protocol every c_j is
    # the same, so information_cost sums a handful of them at any k
    uniq, inv = np.unique(a / sigma, return_inverse=True)
    ell, ell_err = np.array([_line_series(k, float(v))[:2] for v in uniq]).reshape(-1, 2).T[:, inv]
    head = np.log(sigma) * (g / (k - 1) + a / k)
    out = np.zeros((2, k, k))  # T and its bound for class (m, i)
    out[0, live] = head + sigma * ell + a / k**2 - x / (k - 1) - xl_a / k
    out[1, live] = sigma * ell_err + eps * (16.0 + math.log2(k)) * (
        np.abs(head) + sigma * np.abs(ell) + (sigma + 3.0 * np.abs(xl).sum() + abs(xl_a)) / (k - 1))
    # class (m, i) is symmetric in m and i: sum each row pairwise
    return np.hstack([out.trace(axis1=1, axis2=2)[:, None], out.sum(axis=2)])


def _cost_arrays(times: np.ndarray, bits: np.ndarray, masses: np.ndarray, *,
                 rtol: float, atol: float) -> tuple[np.ndarray, float, np.ndarray, float]:
    """(prior entropies in nats, external, per-player internal terms, error
    estimate), the last three in bits.

    The conditional entropies of the input given a buzz integrate stretch by
    stretch, in one quadrature pass between start times and then by
    ``_tail``; the silent atom is a point posterior and adds nothing.  The
    estimate sums their error bounds over all k + 1 components and adds
    ``_ROUNDOFF * eps * (H(X) + sum_i H(X|X_i))`` for the cancellation
    between the priors and the integrals, so it bounds the error of the
    external cost, of the internal cost (a sum of k differences) and of each
    per-player term.
    """
    keep = masses > ZERO_MASS
    live, log_w = bits[keep], np.log(masses[keep])
    bp = _dedupe_sorted(np.sort(times))
    cond, err = _tail(times, live, log_w, float(bp[-1]))
    if len(bp) > 1:
        segment = partial(_entropy_densities, times, _layout((live == 0).astype(float)), log_w)
        for vals, e in zip(*integrate(segment, bp[:-1], bp[1:], rtol=rtol, atol=atol)):
            cond, err = cond + vals, err + e
    prior = _prior_entropies(bits, masses)
    cost = (prior - cond) / LN2
    bound = err.sum() + _ROUNDOFF * _EPS * prior.sum()
    return prior, float(cost[0]), cost[1:], float(bound / LN2)


def cost_under(times: np.ndarray, mu: InputDistribution) -> ICReport:
    """Exact cost of running the protocol with start times ``times`` (one
    per player) on inputs drawn from ``mu``, at ``information_cost``'s
    default tolerances.

    No reductions are applied: the silent atom (all-ones inputs) is costed
    exactly, and zero masses anywhere are fine because the protocol is given.
    This is the primitive behind the measure-continuity checks.
    """
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise MalformedInputError("start times must be finite")
    if times.shape != (mu.k,):
        raise MalformedInputError("protocol and measure disagree on k")
    return ICReport.of(*_cost_arrays(times, mu.bits, mu.vector, rtol=_RTOL, atol=_ATOL))


def information_cost(
    mu: InputDistribution, *, rtol: float = _RTOL, atol: float = _ATOL
) -> ICReport:
    """Internal and external information cost of the buzzers protocol on ``mu``.

    Mass ``c`` on the all-ones input is conditioned away first: with c > 0
    the costs are (1 - c) times those of the conditioned measure ``mu'``,
    which induces the same protocol.  That is not the protocol's own cost
    on ``mu``, ``cost_under(start_times(mu), mu)``: the silence that reveals
    the all-ones input is information too, and the two differ by
    ``P(mu) - (1 - c) P(mu')``, with P the prior entropy H(X) for the
    external cost and sum_i H(X|X_i) for the internal one.  A vanishing
    basis mass gives the continuous limit, zero cost.  Concealed
    information is reported against the original measure's entropies.
    """
    if not (0.0 <= rtol < math.inf and 0.0 <= atol < math.inf):
        raise MalformedInputError(f"tolerances rtol={rtol}, atol={atol} must be finite and >= 0")
    mu_r, c_ones = mu.without_all_ones()
    v = mu_r.vector
    if np.any(v[1 : mu.k + 1] <= ZERO_MASS):
        return ICReport.of(_prior_entropies(mu.bits, mu.vector), 0.0, np.zeros(mu.k), 0.0)
    live = v > ZERO_MASS
    w = v[live]
    prior, ext, per, err = _cost_arrays(
        start_times(mu_r), mu.bits[live], w / w.sum(), rtol=rtol, atol=atol
    )
    if c_ones > 0.0:
        prior = _prior_entropies(mu.bits, mu.vector)
    scale = 1.0 - c_ones
    return ICReport.of(prior, ext * scale, per * scale, err * scale)


def closed_form_uniform(k: int) -> tuple[float, float]:
    """(external, internal) cost in bits for the uniform basis measure:
    ``log2(k / (k-1))`` and ``(k-2) log2((k-1) / (k-2))``, 0 at k = 2, both
    by ``log1p`` so that no digits cancel at large k."""
    if k < 2:
        raise MalformedInputError(f"need at least two players, got k={k}")
    ext = math.log1p(1.0 / (k - 1)) / LN2
    return ext, (k - 2) * math.log1p(1.0 / (k - 2)) / LN2 if k > 2 else 0.0


#: Terms kept of the power series in ``_line_series``: all that matter
#: unless s is within about 1e-3 of 1; the tail past them enters the error.
_SERIES_TERMS = 2**17


def _line_series(k: int, s: float) -> tuple[float, float, np.ndarray, np.ndarray]:
    """(ell, round-off bound, j, P) for s in [0, 1] and k >= 2, with

        ell(s) = int_0^1 u^(k-2) (1 - s + s u) ln(1 - s + s u) du
               = -P_1 + sum_{j>=2} P_j / (j (j-1)),   P_j = s^j B(j+1, k-1).

    P_j has ratio ``s j / (j + k - 1)`` and is kept until ``s^j`` drops below
    eps, for at most ``_SERIES_TERMS`` terms.  A term carries at most 9 j + 16
    roundings (s, good to 6 eps, enters as s^j; three per factor).  The terms
    dropped after the n-th are at most it times ``min(s / (1-s), (n+k) / k)``:
    their ratio is at most s and at most ``1 - (k+1) / (j+k)``.  At k = 2 and
    s > 0.9 the series would need over 342 terms; the elementary
    ``((1-s)^2 (1/4 - ln(1-s)/2) - 1/4) / s`` gives ell there instead.  j
    and P are returned for the slope series of ``_symmetric_line``.
    """
    eps = float(_EPS)
    n = 1 if s == 0.0 else min(_SERIES_TERMS, max(2, math.ceil(math.log(eps) / math.log(min(s, 1.0 - eps)))))
    j = np.arange(1.0, n + 1.0)
    P = np.cumprod(s * j / (j + (k - 1))) / (k - 1)
    if k == 2 and s > 0.9:
        r = 1.0 - s
        r_ln_r = r * math.log(r) if r > 0.0 else 0.0
        f = r * (0.25 * r - 0.5 * r_ln_r)
        return (f - 0.25) / s, eps * (16.0 * (f + 0.25) + 6.0 * (abs(r_ln_r) + 0.25)) / s, j, P
    t = np.concatenate([-P[:1], P[1:] / (j[1:] * (j[1:] - 1.0))])
    dropped = abs(t[-1]) * min(s / (1.0 - s) if s < 1.0 else math.inf, (n + k) / k)
    return math.fsum(t.tolist()), eps * float(np.dot(9.0 * j + 16.0, np.abs(t))) + dropped, j, P


def _symmetric_line(k: int, a: float) -> tuple[tuple[float, float], tuple[float, float], float]:
    """((external, internal), their a-derivatives, error) in bits for mass
    ``a`` on all-zeros and ``(1 - a) / k`` on each ``e_i``, k >= 2.

    Every start time is 0, so the transcript is one stretch.  With
    ``L(g) = int_0^1 u^(k-2) (g + a u) ln(g + a u) du``, ``c = (k-1)(1-a)/k``
    and ``c' = (k-2)(1-a)/k``, in nats

        external = -a/k - k L(c)
        internal = k ((a + c) ln(a + c) - a/k - L(c) - (k-1) L(c')).

    For ``g = (k-q)(1-a)/k``, q = 1 or 2, and ``s = a / (g + a)``,
    ``L = ln(g + a) (g/(k-1) + a/k) + (g + a) ell(s)`` (``_line_series``) and

        dL/da = int u^(k-2) (u - (k-q)/k)(1 + ln(g + a u)) du
              = (q-1)(1 + ln(g + a)) / (k (k-1))
                + sum_{j>=1} P_j ((k-q) j - (q-1) k) / (j k (j + k)).

    With g = 0 (k = q = 2, or a = 1) both are elementary; at a = 1 both
    costs are zero to round-off.  ``error`` bounds the round-off of both
    costs: 16 roundings per elementary summand, and ``ell``'s own bound.
    """
    eps = float(_EPS)
    L, dL, err = [], [], []
    for q in (1, 2):
        if q == k or a == 1.0:  # g = 0
            la, xl = (math.log(a), a * math.log(a)) if a > 0.0 else (-math.inf, 0.0)
            L.append(xl / k - a / k**2)
            dL.append((q - 1) * (1.0 + la) / (k * (k - 1)) - 1.0 / k**2
                      + (k - q) / (k * (k - 1) ** 2))
            err.append(16.0 * eps * (abs(xl) / k + a / k**2))
            continue
        x = q * (1.0 - a) / k  # 1 - (g + a)
        ell, s = math.log1p(-x), a / (1.0 - x)
        w = (1.0 - a) * (k - q) / k / (k - 1) + a / k
        series, bound, j, P = _line_series(k, s)
        d = P * ((k - q) * j - (q - 1) * k) / (j * k * (j + k))
        L.append(ell * w + (1.0 - x) * series)
        dL.append((q - 1) * (1.0 + ell) / (k * (k - 1)) + math.fsum(d.tolist()))
        err.append(16.0 * eps * abs(ell * w) + (1.0 - x) * bound)
    x = (1.0 - a) / k
    ell, spent = math.log1p(-x), a / k
    ext = -spent - k * L[0]
    internal = k * ((1.0 - x) * ell - spent - L[0] - (k - 1) * L[1])
    d_ext = -1.0 / k - k * dL[0]
    d_int = ell - k * dL[0] - k * (k - 1) * dL[1]
    err_ext = 4.0 * eps * (spent + k * abs(L[0])) + k * err[0]
    err_int = k * (err[0] + (k - 1) * err[1] + 8.0 * eps * (
        2.0 * abs((1.0 - x) * ell) + spent + abs(L[0]) + (k - 1) * abs(L[1])))
    values, slopes = (ext / LN2, internal / LN2), (d_ext / LN2, d_int / LN2)
    error = max(err_ext, err_int) / LN2 + 2.0 * eps * max(map(abs, values))
    return values, slopes, error
