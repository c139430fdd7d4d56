"""Local-concavity verification for the buzzers protocol.

Optimality of the protocol reduces to showing that sending one weak signal
can never lower the total (signal information + expected optimal cost).  In
concealed-information form this becomes the nonnegativity of a window
integral: tilt the measure by an unbiased signal of weakness ``eps`` from
sender ``s``, which shifts the sender's start time by ``-gamma0`` or
``+gamma1``, and integrate the concavity defect of ``phi(x) = x ln x``
applied to the transcript densities of the base and tilted protocols.
Outside the window ``[-gamma0, gamma1]`` (sender's start time at 0) the
defect integrates to a nonnegative left part and an exactly-zero right
tail, so the window carries all the content.

The check works cell by cell.  A cell is one measure, one sender and one
weakness; :func:`perturb` builds it as a :class:`Perturbation` (the tilted
pair, the shifted start times and the window) and is the one place that
refuses a measure with all-ones mass.  :func:`window_deficits`,
:func:`check_same_average` and :func:`outside_window_checks` take only the
cell; :meth:`Perturbation.integrals` takes the window integrals, and the
outside ones when they are checked, in one quadrature pass, one integrand
call per bisection level.

The canonical family reduces the general verification to three parameters:
``k`` players, sender ``s``, and a base mass ``beta``.  Its sender-block
masses satisfy ``mass(e_s) = exp(gamma0) * beta`` with ``gamma0`` itself
depending on that mass; ``y = exp(gamma0)`` is the positive root of a
quadratic, taken here in closed form, and a cell is built from the measure
alone, its earlier block starting ``ln(y)`` before the sender.  The window
deficits of the family obey cubic laws in ``eps`` whose coefficients are
evaluated by :func:`taylor_coefficients`; the deficits themselves are always
computed from exact densities and the cubic laws serve only as predictions
to compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .buzzers import _entropy_densities, _layout, start_times
from .errors import (
    AssumptionViolationError,
    InvalidDistributionError,
    MalformedInputError,
    ToleranceError,
)
from .measures import LN2, ZERO_MASS, InputDistribution
from .quadrature import integrate_segments

__all__ = [
    "CanonicalMeasure",
    "Perturbation",
    "ConcavityReport",
    "OutsideWindowChecks",
    "WindowDeficits",
    "window_of",
    "perturb",
    "window_deficits",
    "taylor_coefficients",
    "outside_window_checks",
    "concavity_report",
    "verify_grid",
    "GridRow",
]

#: Largest window-mass residual ``check_same_average`` accepts.
_SAME_AVERAGE_TOL = 1e-11

#: Quadrature tolerances of every window integral.
_RTOL, _ATOL = 1e-9, 1e-15

#: Length of the stretch past the window that the right-tail check integrates.
_RIGHT_WIDTH = 5.0


def window_of(beta_s: float, eps: float) -> tuple[float, float]:
    """The window ``(-gamma0, gamma1)`` for ``b = Pr[X_s = 1]``:
    gamma0 = ln((1 + eps b) / (1 - eps (1-b))), gamma1 = ln((1 + eps (1-b)) / (1 - eps b))."""
    lo, hi = 1.0 - eps * (1.0 - beta_s), 1.0 - eps * beta_s
    if not 0.0 <= eps < 1.0 or lo <= 0.0 or hi <= 0.0:
        raise MalformedInputError(f"eps={eps} out of range for beta_s={beta_s}")
    return -math.log((1.0 + eps * beta_s) / lo), math.log((1.0 + eps * (1.0 - beta_s)) / hi)


@dataclass(frozen=True)
class CanonicalMeasure:
    """Three-parameter reduced family: first ``s-1`` basis masses ``beta``,
    remaining ones ``beta_s(eps)``, rest of the mass on all-zeros.  The
    sender's mass is ``exp(gamma0) * beta`` with ``gamma0`` its own left
    window edge, so the family is implicitly parameterized by the signal
    weakness ``eps``."""

    k: int
    s: int
    beta: float

    def __post_init__(self):
        if self.k < 2:
            raise MalformedInputError(f"k={self.k} < 2")
        if not 1 <= self.s <= self.k:
            # a sender above k is a grid cell without a measure, not a bad input
            error = InvalidDistributionError if self.s > self.k else MalformedInputError
            raise error(f"sender {self.s} outside 1..{self.k}")
        if not ZERO_MASS < self.beta < 1.0 / self.k:
            raise InvalidDistributionError(
                f"beta={self.beta} outside ({ZERO_MASS:g}, 1/k) for k={self.k}"
            )

    def beta_s(self, eps: float) -> float:
        """The sender-block mass ``y beta``, where ``y = exp(gamma0)`` solves
        ``gamma0 = -window_of(y beta, eps)[0]``: the positive root of
        ``eps beta y^2 + c y - 1 = 0`` with ``c = 1 - eps - eps beta``, as
        ``2 / (c + sqrt(c^2 + 4 eps beta))``, which cancels nothing."""
        if not 0.0 <= eps < 1.0:
            raise MalformedInputError(f"eps={eps} outside [0, 1)")
        # 1 - eps (1 + beta) would lose the digits of beta as eps nears 1
        c = (1.0 - eps) - eps * self.beta
        return 2.0 * self.beta / (c + math.sqrt(c * c + 4.0 * eps * self.beta))

    def measure(self, eps: float) -> InputDistribution:
        bs = self.beta_s(eps)
        mass_zeros = 1.0 - (self.s - 1) * self.beta - (self.k - self.s + 1) * bs
        if mass_zeros < -ZERO_MASS:
            raise InvalidDistributionError(
                f"canonical family infeasible: mass(all-zeros) = {mass_zeros:.3e} "
                f"for k={self.k}, s={self.s}, beta={self.beta}, eps={eps}"
            )
        # layout order: all-zeros, e_1, ..., e_k, all-ones
        vec = [max(mass_zeros, 0.0)] + [self.beta] * (self.s - 1) + [bs] * (self.k - self.s + 1)
        return InputDistribution._from_vector(self.k, np.array(vec + [0.0]))


@dataclass(frozen=True)
class Perturbation:
    """One concavity cell: a sender's unbiased weak signal of weakness
    ``eps`` as a pair of tilted measures.

    Conditioning on the signal multiplies masses by ``1 +/- eps beta_s`` /
    ``1 -/+ eps (1 - beta_s)`` (zeros/ones rows of the sender), with
    ``beta_s = Pr[X_s = 1]``, which moves the sender's start time, zero
    under the base protocol, to ``-gamma0`` or ``+gamma1`` while every other
    start time stays put.  ``window`` is ``(-gamma0, gamma1)``.  ``times``
    holds the start times of the three protocols, read-only, one row each:
    the base protocol, tilt 0 and tilt 1, which agree except in column
    ``sender - 1``, holding 0, ``-gamma0`` and ``gamma1``.
    """

    sender: int
    eps: float
    window: tuple[float, float]
    mu: InputDistribution
    mu0: InputDistribution
    mu1: InputDistribution
    # derived from the fields above, and left out of == and hash, which an array breaks
    times: np.ndarray = field(compare=False)
    _integrals: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def gap(self) -> tuple[float, int, float] | str:
        """(previous start time, players starting before the sender, gap
        length) when the quadratic left-gap bound applies: some player
        starts earlier and ``gamma0`` is at most half the gap.  Otherwise
        the reason it does not apply."""
        earlier = self.times[0][self.times[0] < -ZERO_MASS]
        if self.sender < 2 or not earlier.size:
            return "no earlier start time (s = 1 or no gap)"
        previous, gamma0 = float(earlier.max()), -self.window[0]
        if gamma0 > -previous / 2.0:
            return f"gamma0 = {gamma0:.3e} exceeds half the gap {-previous:.3e}"
        return previous, earlier.size, -previous

    def integrals(self, outside: bool = True) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """The cell's integrals in bits and their per-component error bounds,
        from one quadrature pass, split at every start time: ``"window"``;
        with ``outside``, also ``"right"``, the ``_RIGHT_WIDTH`` past it;
        ``"left"``, from the earliest start time (below it everything is
        zero) to the window, when that opens later; ``"gap"``, from the
        previous start time to the window, when :attr:`gap` applies.  The
        left part then integrates only up to the gap and adds its sums, so
        each segment is integrated once; a part sums its segments in order
        either way.  A part with no segment wider than the quadrature's
        1e-14 cut integrates to zeros.  The pass is kept; one with the
        outside parts serves both."""
        if "right" in self._integrals or (not outside and self._integrals):
            return self._integrals
        lo, hi = self.window
        parts = {"window": (lo, hi)}
        if outside:
            parts["right"] = (hi, hi + _RIGHT_WIDTH)
            t_min = float(self.times[0].min())
            if not isinstance(self.gap, str):  # the left part adds the gap's sums below
                parts["left"] = (t_min, self.gap[0])
                parts["gap"] = (self.gap[0], lo)
            elif lo > t_min:
                parts["left"] = (t_min, lo)
        starts = set(self.times.ravel().tolist())
        groups = [[a, b, *(t for t in starts if a < t < b)] for a, b in parts.values()]
        sums = dict(zip(parts, integrate_segments(_concavity_integrand(self), groups,
                                                  rtol=_RTOL, atol=_ATOL)))
        if "gap" in sums:
            sums["left"] = tuple(a + b for a, b in zip(sums["left"], sums["gap"]))
        zero = np.zeros(self.mu.k + 1)
        for name, (vals, err) in sums.items():
            self._integrals[name] = (zero + vals / LN2, zero + err / LN2)
        return self._integrals


def perturb(mu: InputDistribution, s: int, eps: float) -> Perturbation:
    """Tilt ``mu`` by the weakness-``eps`` unbiased signal of player ``s``,
    under the measure's own buzzers protocol shifted so that player ``s``
    starts at time zero.

    ``mu`` must put no mass on the all-ones input (remove it first; the
    protocol does not change).
    """
    if mu.mass_ones > ZERO_MASS:
        raise AssumptionViolationError(
            "a concavity cell is defined for measures with no all-ones mass; "
            "condition it away first"
        )
    if not 1 <= s <= mu.k:
        raise MalformedInputError(f"sender {s} outside 1..{mu.k}")
    beta_s = mu.beta(s)
    zeta_s = 1.0 - beta_s
    window = window_of(beta_s, eps)

    # the sender's zeros rows gain eps beta_s in mu0 and lose it in mu1, its
    # ones rows the reverse with eps zeta_s
    shift = np.where(mu.bits[:, s - 1] == 0, eps * beta_s, -eps * zeta_s)
    mu0, mu1 = (
        InputDistribution._from_vector(mu.k, row)
        for row in mu.vector * np.stack([1.0 + shift, 1.0 - shift])
    )

    base = start_times(mu)
    times = np.tile(base - base[s - 1], (3, 1))
    times[1:, s - 1] = window
    times.flags.writeable = False
    return Perturbation(
        sender=s,
        eps=eps,
        window=window,
        mu=mu,
        mu0=mu0,
        mu1=mu1,
        times=times,
    )


# ---------------------------------------------------------------------------
# window integrands
# ---------------------------------------------------------------------------


def _concavity_integrand(pert: Perturbation):
    """Vector integrand [external defect, per-player internal defects]:
    the conditional-entropy densities of the base protocol minus the average
    over the two tilted ones, then their round-off bounds, added with the
    same weights.  One kernel call takes the three protocols' abscissas
    stacked.  Values are in nats; integrals are divided by ln 2 at the
    reporting boundary.
    """
    live = pert.mu.vector > ZERO_MASS  # the inputs information_cost keeps
    layout = _layout((pert.mu.bits[live] == 0).astype(float))
    log_w = np.log(np.array([m.vector[live] for m in (pert.mu, pert.mu0, pert.mu1)]))
    sign = np.repeat([-1.0, 1.0], pert.mu.k + 1)  # the defects, then their bounds

    def f(ts: np.ndarray) -> np.ndarray:
        rows = np.repeat(np.arange(3), len(ts))
        out = _entropy_densities(pert.times[rows], layout, log_w[rows], np.tile(ts, 3))
        return out[: len(ts)] + sign * 0.5 * (out[len(ts) : 2 * len(ts)] + out[2 * len(ts) :])

    return f


def check_same_average(pert: Perturbation) -> float:
    """Per-input window mass equals the average of the tilted window masses.

    This identity is what cancels every linear phi-term in the window
    integrals; it is asserted to within ``_SAME_AVERAGE_TOL``, not assumed.
    Returns the worst residual.
    An input's window mass is its mass times the drop of its survival
    ``exp(-sum_{i: x_i = 0} (t - t_i)^+)`` across the window.
    """
    edges = np.array(pert.window)
    zeros = (pert.mu.bits == 0).astype(float)
    # survival[p, e, x] of input x under protocol p at window edge e
    survival = np.exp(-(np.maximum(edges[:, None] - pert.times[:, None, :], 0.0) @ zeros.T))
    masses = np.array([pert.mu.vector, pert.mu0.vector, pert.mu1.vector])
    window = masses * (survival[:, 0] - survival[:, 1])
    worst = float(np.max(np.abs(window[0] - 0.5 * (window[1] + window[2]))))
    if worst > _SAME_AVERAGE_TOL:
        raise ToleranceError(
            f"window-mass average identity violated by {worst:.3e} (tol {_SAME_AVERAGE_TOL})"
        )
    return worst


@dataclass(frozen=True)
class WindowDeficits:
    """Window integrals of the concavity defect, in bits.

    ``quadrature_error`` sums the per-component error bounds, so it bounds
    the error of the external, the internal and every per-player deficit.
    """

    external: float
    internal: float
    per_player: tuple[float, ...]
    same_average_residual: float
    quadrature_error: float


def window_deficits(pert: Perturbation) -> WindowDeficits:
    """Integrate the cell's external and internal concavity defects over its
    window, after checking the window-mass identity.  The window integrals
    come from whatever pass the cell already holds
    (:meth:`Perturbation.integrals`), or from a window-only one."""
    residual = check_same_average(pert)
    vals, err = pert.integrals(outside=False)["window"]
    return WindowDeficits(
        external=float(vals[0]),
        internal=float(vals[1:].sum()),
        per_player=tuple(float(v) for v in vals[1:]),
        same_average_residual=residual,
        quadrature_error=float(err.sum()),
    )


def taylor_coefficients(k: int, s: int, beta: float) -> tuple[float, float]:
    """Leading cubic-law coefficients (external, internal): deficit ~ c * eps^3.

    External: (k+5s-6)(1-2 beta) beta / (12 (1-beta) ln 2).  Internal for
    k = 2 equals the external value; for k >= 3 it is
    (k+5s-6)((3k-2) beta^2 - 4(k-1) beta + k-1) beta /
    (12 (1-beta)(1-2 beta) ln 2).
    """
    if k < 2 or not 1 <= s <= k:
        raise MalformedInputError(f"bad (k, s) = ({k}, {s})")
    if not 0.0 < beta < 1.0 / k:
        raise InvalidDistributionError(f"beta={beta} outside (0, 1/k)")
    ext = (k + 5 * s - 6) * (1 - 2 * beta) * beta / (12 * (1 - beta) * LN2)
    if k == 2:
        return ext, ext
    poly = (3 * k - 2) * beta**2 - 4 * (k - 1) * beta + (k - 1)
    return ext, (k + 5 * s - 6) * poly * beta / (12 * (1 - beta) * (1 - 2 * beta) * LN2)


# ---------------------------------------------------------------------------
# outside-window checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OutsideWindowChecks:
    left_value: float
    left_ok: bool
    right_value: float
    right_ok: bool
    eps2_bound: float | None
    eps2_gap_value: float | None
    eps2_ok: bool | None
    eps2_skip_reason: str | None


def outside_window_checks(pert: Perturbation) -> OutsideWindowChecks:
    """Sign checks outside the cell's window, plus the quadratic left-gap
    bound.

    The left part integrates the external defect from the earliest start
    time to the window's left edge (below the earliest start everything is
    zero) and must be nonnegative.  The right tail beyond the window
    vanishes identically.  When the sender has a positive start-time gap
    ``L`` to the previous player and ``gamma0 <= L/2``, the defect on that
    gap is at least ``(1 - e^{-(s-1)L/2}) m(0) m(e_s) eps^2 / (2(s-1))``.
    """
    integrals = pert.integrals()
    left = float(integrals["left"][0][0]) if "left" in integrals else 0.0
    right = float(integrals["right"][0][0])

    eps2_bound = eps2_gap = eps2_ok = skip = None
    if isinstance(pert.gap, str):
        skip = pert.gap
    else:
        (_, n_before, gap_len), mu = pert.gap, pert.mu
        eps2_bound = ((1.0 - math.exp(-n_before * gap_len / 2.0)) * mu.mass_zeros
                      * mu.e_mass(pert.sender) / (2.0 * n_before) * pert.eps**2)
        eps2_gap = float(integrals["gap"][0][0])
        eps2_ok = eps2_gap >= eps2_bound - 1e-10

    return OutsideWindowChecks(
        left_value=left,
        left_ok=left >= -1e-12,
        right_value=right,
        right_ok=abs(right) <= 1e-12,
        eps2_bound=eps2_bound,
        eps2_gap_value=eps2_gap,
        eps2_ok=eps2_ok,
        eps2_skip_reason=skip,
    )


# ---------------------------------------------------------------------------
# reports and grid runs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcavityReport:
    ext_deficit: float
    int_deficit: float
    taylor_ext: float
    taylor_int: float
    residual_ext: float
    residual_int: float
    outside: OutsideWindowChecks | None


def concavity_report(
    canonical: CanonicalMeasure, eps: float, *, with_outside: bool = True
) -> ConcavityReport:
    pert = perturb(canonical.measure(eps), canonical.s, eps)
    # the outside checks' pass holds the window too: one integrand per cell
    outside = outside_window_checks(pert) if with_outside else None
    deficits = window_deficits(pert)
    te, ti = (c * eps**3 for c in taylor_coefficients(canonical.k, canonical.s, canonical.beta))
    return ConcavityReport(
        ext_deficit=deficits.external,
        int_deficit=deficits.internal,
        taylor_ext=te,
        taylor_int=ti,
        residual_ext=deficits.external - te,
        residual_int=deficits.internal - ti,
        outside=outside,
    )


@dataclass(frozen=True)
class GridRow:
    k: int
    s: int
    beta: float
    eps: float
    skip_reason: str | None
    report: ConcavityReport | None

    @property
    def feasible(self) -> bool:
        return self.report is not None


def verify_grid(
    k_values,
    beta_values,
    eps_values,
    *,
    senders=None,
    with_outside: bool = False,
) -> list[GridRow]:
    """Evaluate the concavity reports over a parameter grid.

    Infeasible combinations (a sender above k, beta outside (1e-15, 1/k), or
    negative all-zeros mass at the requested weakness) are reported as
    skipped rows rather than silently dropped.
    """
    rows = []
    for k in k_values:
        for s in senders if senders is not None else range(1, k + 1):
            for beta in beta_values:
                for eps in eps_values:
                    try:
                        canonical = CanonicalMeasure(k=k, s=s, beta=beta)
                        report = concavity_report(canonical, eps, with_outside=with_outside)
                    except InvalidDistributionError as exc:
                        rows.append(GridRow(k, s, beta, eps, str(exc), None))
                        continue
                    rows.append(GridRow(k, s, beta, eps, None, report))
    return rows
