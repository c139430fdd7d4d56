"""The continuous-time buzzers protocol for multiparty AND and its exact cost.

Player ``i`` with private bit 0 arms an exponential-clock buzzer at start
time ``t_i = ln(m_i / m_min)``, where ``m_i`` is the measure of the basis
input ``e_i`` and ``m_min`` the smallest such mass.  The first buzz ends the
protocol with output 0; eternal silence means every bit was 1.  A transcript
is therefore either ``(t, m)`` (player ``m`` buzzed first at time ``t``) or
the silent outcome, which has probability one exactly on the all-ones input.

Transcript densities factor per input as ``f_x(t, m) = exp(-Phi_x(t))`` for
``t >= t_m`` and ``x_m = 0`` (zero otherwise), with ``Phi_x`` the total time
already spent by active players.  Internal and external information costs
are computed by piecewise quadrature of the conditional-entropy integrands
against these densities.  The unbounded tail is mapped onto (0, 1] by
``u = exp(-(t - t_last)) = v^g``.  Past ``t_last`` an input with ``z`` zero
bits has density proportional to ``u^z``, so where inputs with different
zero counts share a buzz (all-zeros beside the ``e_j``) the integrand in
``u`` carries a ``u^{z1-1} ln u`` term, ``z1`` being the second-smallest
positive zero count among inputs with mass (``u ln u`` at k = 2).  Grading
turns it into ``g^2 v^{g z1 - 1} ln v`` with ``g = ceil(8 / z1)``, smooth
enough for a few Gauss-Legendre panels instead of a cascade of bisections
toward v = 0; g = 4, 3, 2 at k = 2, 3, 4 and 1 from k = 8 on.  With a
single positive count (the uniform basis) the logarithms cancel and g = 1.

A cost's error estimate sums the quadrature error bounds of all k + 1
conditional entropies and adds a round-off term of 32 eps times
``H(X) + sum_i H(X|X_i)``, the entropies the integrals are subtracted from;
it bounds the error of the external, the internal and every per-player cost.

Measures with mass on the all-ones input are costed by conditioning that
point away and scaling by its complement, matching the protocol-equivalence
convention used throughout this package (the start times only depend on
ratios of basis masses, so the conditioned measure runs the same protocol).
A zero basis mass forces that player's bit to zero almost surely.  Start
times are undefined there, so such a measure is costed as the limit of
vanishing mass: the player starts first, holds 0 and buzzes at once, and
the transcript reveals nothing, so both costs are zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MalformedInputError, TrivialInstanceError, ZeroEMassError
from .measures import LN2, ZERO_MASS, InputDistribution, _prior_entropies
from .quadrature import integrate, integrate_segments

__all__ = [
    "StartTimes",
    "BuzzersProtocol",
    "ICReport",
    "start_times",
    "buzz_densities",
    "player_classes",
    "conditional_entropies",
    "cost_under",
    "information_cost",
    "closed_form_uniform",
]

#: Start times closer than this (relative) collapse into one breakpoint.
_TIME_DEDUPE = 1e-14

#: Smallest normal double; transcript densities below it count as zero.
_TINY = np.finfo(float).tiny

#: The graded tail ``u = v^g`` turns the integrand's leading singular term
#: ``u^{z1-1} ln u`` into ``g^2 v^{g z1 - 1} ln v``; g is the least integer
#: with ``g z1`` at least this, so the term has six continuous derivatives
#: at v = 0 and a few 15-point Gauss-Legendre panels resolve it.
_TAIL_SMOOTHNESS = 8

_EPS = np.finfo(float).eps

#: Round-off of a cost, in units of eps times the prior entropies it is
#: taken from (see ``_cost_arrays``).  Against closed forms (uniform k up to
#: 200) and 30-digit references (k <= 4) the error reached 11.5 such units;
#: 32 keeps a factor near three above that.
_ROUNDOFF = 32.0


@dataclass(frozen=True)
class StartTimes:
    """Sorted buzzer start times with the player permutation that sorts them.

    ``sorted_times[0] == 0`` and ``order[r]`` is the 1-based player whose
    start time is ``sorted_times[r]``.  ``per_player[i-1]`` is player i's
    start time.
    """

    sorted_times: tuple[float, ...]
    order: tuple[int, ...]
    per_player: tuple[float, ...]


def start_times(mu: InputDistribution) -> StartTimes:
    """Start times ``ln(m_i / m_min)`` for a measure with positive basis masses."""
    e = np.array([mu.e_mass(i) for i in range(1, mu.k + 1)])
    if np.all(e <= ZERO_MASS):
        raise TrivialInstanceError("all basis masses vanish; no start times")
    if np.any(e <= ZERO_MASS):
        raise ZeroEMassError([i + 1 for i in np.flatnonzero(e <= ZERO_MASS)])
    order = np.argsort(e, kind="stable")
    times = np.log(e / e[order[0]])
    return StartTimes(
        sorted_times=tuple(float(times[j]) for j in order),
        order=tuple(int(j) + 1 for j in order),
        per_player=tuple(float(t) for t in times),
    )


@dataclass(frozen=True)
class BuzzersProtocol:
    """A buzzers protocol is fully described by one start time per player."""

    player_times: tuple[float, ...]

    def __post_init__(self):
        if len(self.player_times) < 1 or not all(
            np.isfinite(t) for t in self.player_times
        ):
            raise MalformedInputError("start times must be finite")

    @property
    def k(self) -> int:
        return len(self.player_times)

    @classmethod
    def from_measure(cls, mu: InputDistribution) -> "BuzzersProtocol":
        return cls(start_times(mu).per_player)

    def shifted(self, offset: float) -> "BuzzersProtocol":
        """Same protocol with every start time moved by ``offset``; the
        exponential clocks are memoryless, so costs are invariant."""
        return BuzzersProtocol(tuple(t + offset for t in self.player_times))


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


def buzz_densities(
    times: np.ndarray, zeros: np.ndarray, log_w: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """V[t, m, x] = w_x e^{-Phi_x(t)} [x_m = 0] [t >= t_m].

    ``times[m]`` is player m's start time, ``zeros[x, i]`` marks x_i == 0
    and ``log_w`` holds the log input masses (-inf for a zero mass), or one
    row of them per abscissa.  Within a stretch of constant active set the
    density of a buzz does not depend on which player ``m`` buzzes; ``m``
    only gates it.
    """
    active = np.maximum(t[:, None] - times[None, :], 0.0)
    v = np.exp(log_w - active @ zeros.T)
    started = t[:, None] >= times[None, :]
    return v[:, None, :] * (started[:, :, None] * zeros.T[None, :, :])


def player_classes(bits: np.ndarray) -> np.ndarray:
    """(n_x, 2k) indicator; column ``2 i + b`` marks the inputs with x_i == b."""
    return np.stack([bits == 0, bits == 1], axis=2).reshape(len(bits), -1).astype(float)


def _xlogx(v: np.ndarray) -> np.ndarray:
    """x ln x counting every positive value; 0 ln 0 = 0."""
    return v * np.log(np.maximum(v, _TINY))


def conditional_entropies(V: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Densities [H(X|T), H(X|T, X_1), ..., H(X|T, X_k)] in nats per abscissa.

    ``V[t, m, x]`` is the joint density of input ``x`` and transcript
    ``(t, m)``; each entropy is ``sum xlogx(class sums) - sum xlogx(V)``,
    summed over ``m``.  The difference is taken class by class, so a class
    holding one input contributes exactly zero.  Every positive density
    counts, however small, except subnormals: they carry no countable mass
    and would slow the matrix products a hundredfold, so they become zero.
    """
    V = np.where(V < _TINY, 0.0, V)
    own = _xlogx(V)
    ext = (_xlogx(V.sum(axis=2)) - own.sum(axis=2)).sum(axis=1)
    rows = (-1, V.shape[2])  # one matrix product over every (t, m)
    per_class = _xlogx(V.reshape(rows) @ classes) - own.reshape(rows) @ classes
    per = per_class.reshape(*V.shape[:2], -1, 2).sum(axis=(1, 3))
    return np.concatenate([ext[:, None], per], axis=1)


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

    def to_json_obj(self) -> dict:
        return {
            "external_bits": self.external_bits,
            "internal_bits": self.internal_bits,
            "per_player_bits": list(self.per_player_bits),
            "concealed_internal_bits": self.concealed_internal_bits,
            "concealed_external_bits": self.concealed_external_bits,
            "quadrature_error_estimate": self.quadrature_error_estimate,
        }


def _tail_grading(zeros: np.ndarray) -> int:
    """The exponent g of the tail substitution ``u = v^g``.

    ``zeros[x]`` marks the zero bits of each input with mass; ``z1`` is the
    second-smallest positive count of them.  With a single positive count
    every posterior on the tail is constant and the integrand is a power of
    ``u``, so no grading is needed.
    """
    counts = np.unique(zeros.sum(axis=1))
    counts = counts[counts > 0]
    if len(counts) < 2:
        return 1
    return -(-_TAIL_SMOOTHNESS // int(counts[1]))


def _cond_entropy_profile(
    times: np.ndarray,
    bits: np.ndarray,
    w: np.ndarray,
    *,
    rtol: float,
    atol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """[H(X|T), H(X|T, X_1), ..., H(X|T, X_k)] in nats for transcript T,
    with the quadrature error bound of each component.

    Only the buzz part of the transcript integrates; the silent atom is a
    point posterior (all-ones) and contributes nothing.
    """
    zeros = (bits == 0).astype(float)
    classes = player_classes(bits)
    log_w = np.log(w)
    bp = _dedupe_sorted(np.sort(times))
    t_last = float(bp[-1])
    g = _tail_grading(zeros)

    def segment(ts: np.ndarray) -> np.ndarray:
        return conditional_entropies(buzz_densities(times, zeros, log_w, ts), classes)

    def tail(vs: np.ndarray) -> np.ndarray:
        # u = e^{-(t - t_last)} = v^g: t = t_last - g ln v and dt = g dv / v,
        # the Jacobian folded into the weights
        ln_v = np.log(vs)
        log_wv = log_w + np.log(g) - ln_v[:, None]
        V = buzz_densities(times, zeros, log_wv, t_last - g * ln_v)
        return conditional_entropies(V, classes)

    total, err = integrate_segments(segment, bp, rtol=rtol, atol=atol)
    vals, e = integrate(tail, 0.0, 1.0, rtol=rtol, atol=atol)
    return total + vals, err + e


def _cost_arrays(
    times: np.ndarray,
    bits: np.ndarray,
    masses: np.ndarray,
    *,
    rtol: float,
    atol: float,
) -> tuple[np.ndarray, float, np.ndarray, float]:
    """(prior entropies in nats, external, per-player internal terms, error
    estimate), the last three in bits.

    The estimate sums the quadrature error bounds of all k + 1 components and
    adds ``_ROUNDOFF * eps * (H(X) + sum_i H(X|X_i))`` for the cancellation
    between the priors and the integrals, so it bounds the error of the
    external cost, of the internal cost (a sum of k differences) and of each
    per-player term.
    """
    keep = masses > ZERO_MASS
    cond, err = _cond_entropy_profile(
        times, bits[keep], masses[keep], rtol=rtol, atol=atol
    )
    prior = _prior_entropies(bits, masses)
    cost = (prior - cond) / LN2
    bound = err.sum() + _ROUNDOFF * _EPS * prior.sum()
    return prior, float(cost[0]), cost[1:], float(bound / LN2)


def cost_under(
    protocol: BuzzersProtocol,
    mu: InputDistribution,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> ICReport:
    """Exact cost of running a fixed protocol on inputs drawn from ``mu``.

    No reductions are applied: the silent atom (all-ones inputs) is costed
    exactly, and zero masses anywhere are fine because the protocol is given.
    This is the primitive behind the measure-continuity checks.
    """
    if protocol.k != mu.k:
        raise MalformedInputError("protocol and measure disagree on k")
    bits = np.array([lab.bits for lab in mu.labels])
    times = np.asarray(protocol.player_times, dtype=float)
    return ICReport.of(*_cost_arrays(times, bits, mu.vector, rtol=rtol, atol=atol))


def information_cost(
    mu: InputDistribution, *, rtol: float = 1e-10, atol: float = 1e-12
) -> ICReport:
    """Internal and external information cost of the buzzers protocol on ``mu``.

    Mass on the all-ones input is conditioned away first and the cost scaled
    by the remaining probability (the conditioned measure induces the same
    protocol).  A vanishing basis mass gives the continuous limit, zero cost.
    Concealed information is reported against the original measure's
    entropies.
    """
    if not (0.0 <= rtol < math.inf and 0.0 <= atol < math.inf):
        raise MalformedInputError(f"tolerances rtol={rtol}, atol={atol} must be finite and >= 0")
    mu_r, c_ones = mu.without_all_ones()
    e = np.array([mu_r.e_mass(i) for i in range(1, mu.k + 1)])
    bits = np.array([lab.bits for lab in mu.labels])
    if np.any(e <= ZERO_MASS):
        return ICReport.of(_prior_entropies(bits, mu.vector), 0.0, np.zeros(mu.k), 0.0)
    live = mu_r.vector > ZERO_MASS
    w = mu_r.vector[live]
    prior, ext, per, err = _cost_arrays(
        np.log(e / e.min()), bits[live], w / w.sum(), rtol=rtol, atol=atol
    )
    if c_ones > 0.0:
        prior = _prior_entropies(bits, mu.vector)
    scale = 1.0 - c_ones
    return ICReport.of(prior, ext * scale, per * scale, err * scale)


def closed_form_uniform(k: int) -> tuple[float, float]:
    """(external, internal) cost in bits for the uniform basis measure.

    External is ``log2(k) - log2(k-1)``; internal is
    ``(k-2) (log2(k-1) - log2(k-2))``, which vanishes at k = 2.
    """
    if k < 2:
        raise MalformedInputError(f"need at least two players, got k={k}")
    ext = float(np.log2(k) - np.log2(k - 1))
    if k == 2:
        return ext, 0.0
    return ext, float((k - 2) * (np.log2(k - 1) - np.log2(k - 2)))


#: Terms kept of the power series in ``_symmetric_line``: all that matter
#: unless a is within about 1e-3 of 1; the tail past them enters the error.
_SERIES_TERMS = 2**17


def _symmetric_line(k: int, a: float) -> tuple[tuple[float, float], tuple[float, float], float]:
    """((external, internal), their a-derivatives, error) in bits for mass
    ``a`` on all-zeros and ``(1 - a) / k`` on each ``e_i``, k >= 2.

    Every start time is 0, so the transcript is one stretch.  With
    ``L(g) = int_0^1 u^(k-2) (g + a u) ln(g + a u) du``, ``c = (k-1)(1-a)/k``
    and ``c' = (k-2)(1-a)/k``, in nats

        external = -a/k - k L(c)
        internal = k ((a + c) ln(a + c) - a/k - L(c) - (k-1) L(c')).

    For ``g = (k-q)(1-a)/k``, q = 1 or 2, put ``s = a / (g + a)`` and
    ``P_j = s^j B(j+1, k-1)``, positive with ratio ``s j / (j + k - 1)``.
    Then ``g + a u = (g + a)(1 - s (1 - u))`` and

        L = ln(g + a) (g/(k-1) + a/k) + (g + a) (-P_1 + sum_{j>=2} P_j / (j (j-1)))
        dL/da = (q-1)(1 + ln(g + a)) / (k (k-1))
                + sum_{j>=1} P_j ((k-q) j - (q-1) k) / (j k (j + k)),

    the second being ``int u^(k-2) (u - (k-q)/k)(1 + ln(g + a u)) du``.  The
    value's series has no cancellation.  With g = 0 (k = q = 2, or a = 1)
    both are elementary; at a = 1 both costs are zero to round-off.
    ``error`` bounds the round-off of both costs: every elementary summand
    carries at most 16 roundings, series term j at most 9 j + 16 (s is good
    to 6 eps and enters as s^j; three per factor of the product), and the
    series' tail is at most its last term times s / (1 - s).
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
        n = 1 if s == 0.0 else min(_SERIES_TERMS, max(2, math.ceil(math.log(eps) / math.log(s))))
        j = np.arange(1.0, n + 1.0)
        P = np.cumprod(s * j / (j + (k - 1))) / (k - 1)
        t = np.concatenate([-P[:1], P[1:] / (j[1:] * (j[1:] - 1.0))])
        d = P * ((k - q) * j - (q - 1) * k) / (j * k * (j + k))
        L.append(ell * w + (1.0 - x) * math.fsum(t.tolist()))
        dL.append((q - 1) * (1.0 + ell) / (k * (k - 1)) + math.fsum(d.tolist()))
        terms = 16.0 * abs(ell * w) + (1.0 - x) * float(np.dot(9.0 * j + 16.0, np.abs(t)))
        err.append(eps * terms + (1.0 - x) * abs(t[-1]) * s / (1.0 - s))  # + the tail
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
