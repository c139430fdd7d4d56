"""Maximize buzzers-protocol information cost over a simplex face of measures.

The feasible set is the set of measures supported on a declared subset of
the basis-family labels (e.g. the two-party face with no mass on 11, whose
internal-cost maximum is the set-disjointness constant).  The cost is
invariant under the player permutations that fix the face, which permute
its free basis inputs ``e_i`` in any order, so the search runs on the
symmetric line: mass ``a`` on all-zeros and ``(1 - a) / |F|`` on each free
``e_i`` (``a = 0`` when all-zeros is zeroed, ``a = 1`` when no ``e_i`` is
free), with no all-ones mass: ``information_cost`` conditions that mass
away and scales the cost of the rest by its complement.  That is not the
protocol's own cost on such a measure, ``cost_under(start_times(mu), mu)``,
which also counts what its silence reveals (see ``information_cost``).

On that line every start time is 0, and the cost and its derivative in
``a`` have a closed form (``buzzers._symmetric_line``).  A lattice scan at
``grid_step`` finds the best point; its slope names the bracket beside it
that holds the maximum, or, at an end where it points outward, makes that
end the maximum exactly.  Bisection of the slope's sign narrows the bracket
to ``coord_tol`` or to adjacent floats, so the evaluation count is fixed by
the face and the arguments.  The value is the closed form at the better
bracket end; the cost being concave there, its error is the closed form's
round-off bound plus |slope| times the final width.  One tight
``information_cost`` at the argmax, which sums the same one-stretch
integral class by class, cross-checks the closed form (``ToleranceError``
beyond both estimates).  By symmetry the gradient vanishes on every asymmetric
direction and the Hessian is a multiple of the identity there, so one more
at ``mu + h (e_1 - e_2)`` certifies a local maximum of the face (status
``local_max``) when the cost drops by more than the two error estimates,
and gives ``not_local_max`` otherwise.  ``converged`` means that no
asymmetric direction exists, ``budget_exhausted`` that the budget ran out
before the bracket reached ``coord_tol`` and the checks were made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .buzzers import _symmetric_line, information_cost
from .errors import ConditioningError, MalformedInputError, ToleranceError
from .measures import InputDistribution, _row, canonical_labels

__all__ = ["SupportPattern", "OptResult", "maximize_internal", "maximize_external"]

#: The asymmetric step ``h`` as a fraction of each free basis mass.
_ASYM_STEP = 1.0 / 16.0

#: Quadrature tolerances of the cross-check and the asymmetric check.
_TIGHT = {"rtol": 1e-11, "atol": 1e-13}


@dataclass(frozen=True)
class SupportPattern:
    """Which canonical labels (bit strings) are frozen to zero mass."""

    k: int
    zero_labels: frozenset

    def __post_init__(self):
        allowed = set(canonical_labels(self.k))
        for lab in sorted(self.zero_labels):
            if lab not in allowed:
                raise MalformedInputError(
                    f"label {lab} is not on the k={self.k} support family"
                )
        if len(self.free_labels) < 1:
            raise MalformedInputError("support pattern leaves no free labels")

    @classmethod
    def parse(cls, k: int, zero_spec: str = "") -> "SupportPattern":
        """Build from a comma-separated list of zeroed bit strings."""
        zeros = [s.strip() for s in zero_spec.split(",") if s.strip()]
        for lab in zeros:
            _row(lab, k)  # raises on a label that is not a bit string
        return cls(k=k, zero_labels=frozenset(zeros))

    @property
    def free_labels(self) -> tuple[str, ...]:
        return tuple(
            lab for lab in canonical_labels(self.k) if lab not in self.zero_labels
        )


@dataclass(frozen=True)
class OptResult:
    objective: str
    argmax: InputDistribution
    value_bits: float
    value_error_bits: float  # closed-form round-off + |slope| * final bracket width
    evaluations: int
    status: str
    trace: tuple[tuple[int, float], ...]  # (evaluation count, best so far)


def _maximize(pattern: SupportPattern, objective: str, budget: int, grid_step: float,
              coord_tol: float) -> OptResult:
    # a subnormal step would overflow the lattice size 1 / grid_step
    if not grid_step >= np.finfo(float).tiny:
        raise MalformedInputError(f"grid step {grid_step} must be a positive normal float")
    if not 0.0 < coord_tol < math.inf:
        raise MalformedInputError(f"coordinate tolerance {coord_tol} must be finite and > 0")
    if not budget >= 3:
        raise MalformedInputError(f"budget {budget} must cover a scan point and two checks")
    k, free = pattern.k, pattern.free_labels
    zeros, *_, ones = canonical_labels(k)
    basis = [lab for lab in free if lab not in (zeros, ones)]
    lo, hi = (0.0 if basis else 1.0), (1.0 if zeros in free else 0.0)
    if lo > hi:
        raise ConditioningError("measure is a point mass on all-ones")

    def mu_at(a: float, h: float = 0.0) -> InputDistribution:
        mass = {zeros: a} | {lab: (1.0 - a) / len(basis) for lab in basis}
        for lab, step in zip(basis, (h, -h)):
            mass[lab] += step
        return InputDistribution(k, mass)

    evals, pick = 0, ("external", "internal").index(objective)
    trace: list[tuple[int, float]] = []
    flat = len(basis) < k  # a vanishing basis mass: zero cost everywhere

    def line(a: float) -> tuple[float, float, float, float]:
        """(a, value, slope, error) in bits, by the closed form."""
        nonlocal evals
        evals += 1
        values, slopes, err = ((0.0, 0.0), (0.0, 0.0), 0.0) if flat else _symmetric_line(k, a)
        if not trace or values[pick] > trace[-1][1]:
            trace.append((evals, values[pick]))
        return a, values[pick], slopes[pick], err

    def cost(mu: InputDistribution) -> tuple[float, float]:
        """(value, error estimate) in bits, by a tight ``information_cost``."""
        nonlocal evals
        evals += 1
        report = information_cost(mu, **_TIGHT)
        return (report.external_bits, report.internal_bits)[pick], report.quadrature_error_estimate

    # lattice scan; the best point's slope names the bracket beside it that
    # holds the maximum of the concave cost, or makes that point the maximum
    m = max(int(round(1.0 / grid_step)), 1)
    size = max(min(m + 1, budget - 2), 2) if lo < hi else 1  # both ends of a segment
    grid = [line(float(a)) for a in np.linspace(lo, hi, size)]
    j = int(np.argmax([p[1] for p in grid]))
    left = grid[j - 1] if grid[j][2] < 0.0 and j > 0 else grid[j]
    right = grid[j + 1] if grid[j][2] > 0.0 and j + 1 < len(grid) else grid[j]
    width = right[0] - left[0]
    need = math.ceil(math.log2(width / coord_tol)) if width > coord_tol else 0
    n = min(need, budget - 2 - evals)
    for _ in range(n):
        if (half := 0.5 * (left[0] + right[0])) in (left[0], right[0]):
            need = 0  # adjacent floats: no narrower bracket exists
            break
        mid = line(half)
        left, right = (mid, right) if mid[2] > 0.0 else (left, mid)
    a, value, slope, err = max(left, right, key=lambda p: p[1])
    width = right[0] - left[0]

    argmax = mu_at(a)
    top, top_err = cost(argmax)
    if abs(top - value) > top_err + err:
        raise ToleranceError(f"information_cost {top!r} at a = {a!r} misses the closed form "
                             f"{value!r} by more than {top_err:.2e} + {err:.2e}")
    status = "budget_exhausted" if n < need else "converged"
    if status == "converged" and len(basis) >= 2:
        other, other_err = cost(mu_at(a, _ASYM_STEP * (1.0 - a) / len(basis)))
        status = "local_max" if top - other > top_err + other_err else "not_local_max"
    return OptResult(
        objective=objective,
        argmax=argmax,
        value_bits=value,
        value_error_bits=err + abs(slope) * width if width > 0.0 else err,
        evaluations=evals,
        status=status,
        trace=tuple(trace),
    )


def maximize_internal(
    pattern: SupportPattern,
    budget: int = 4000,
    *,
    grid_step: float = 0.02,
    coord_tol: float = 1e-6,
) -> OptResult:
    """Maximize internal cost over the face; the protocol is cost-optimal on
    the family, so this is the information complexity of AND there."""
    return _maximize(pattern, "internal", budget, grid_step, coord_tol)


def maximize_external(
    pattern: SupportPattern,
    budget: int = 4000,
    *,
    grid_step: float = 0.02,
    coord_tol: float = 1e-6,
) -> OptResult:
    """Maximize external cost over the face (no published reference value;
    results are regression-locked once computed)."""
    return _maximize(pattern, "external", budget, grid_step, coord_tol)
