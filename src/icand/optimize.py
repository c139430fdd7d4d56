"""Maximize buzzers-protocol information cost over a simplex face of measures.

The feasible set is the set of measures supported on a declared subset of
the basis-family labels (e.g. the two-party face with no mass on 11, whose
internal-cost maximum is the set-disjointness constant).  The cost is
invariant under the player permutations that fix the face, which permute
its free basis inputs ``e_i`` in any order, so the search runs on the
symmetric line: mass ``a`` on all-zeros and ``(1 - a) / |F|`` on each free
``e_i`` (``a = 0`` when all-zeros is zeroed, ``a = 1`` when no ``e_i`` is
free), with no all-ones mass, which only scales the cost by its complement.

A lattice scan of ``a`` and a comparison-only golden-section refinement of
its best bracket spend a number of evaluations fixed by the face and the
arguments, never by the cost's last bits.  The best point is re-evaluated at
tighter tolerances.  By symmetry the gradient vanishes on every asymmetric
direction and the Hessian is a multiple of the identity there, so one
evaluation at ``mu + h (e_1 - e_2)`` certifies a local maximum of the face
(status ``local_max``) when the cost drops by more than the two error
estimates, and gives ``not_local_max`` otherwise.  ``converged`` means that
no asymmetric direction exists, ``budget_exhausted`` that the bracket never
reached ``coord_tol``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .buzzers import information_cost
from .errors import ConditioningError, MalformedInputError
from .measures import InputDistribution, InputLabel, canonical_labels

__all__ = ["SupportPattern", "OptResult", "maximize_internal", "maximize_external"]

#: Each golden-section evaluation shrinks the bracket by this factor.
_PHI = (1.0 + math.sqrt(5.0)) / 2.0

#: The asymmetric step ``h`` as a fraction of each free basis mass.
_ASYM_STEP = 1.0 / 16.0

#: Quadrature tolerances of the reported value and the asymmetric check.
_TIGHT = {"rtol": 1e-11, "atol": 1e-13}


@dataclass(frozen=True)
class SupportPattern:
    """Which canonical labels are frozen to zero mass."""

    k: int
    zero_labels: frozenset

    def __post_init__(self):
        allowed = set(canonical_labels(self.k))
        for lab in self.zero_labels:
            if lab not in allowed:
                raise MalformedInputError(
                    f"label {lab} is not on the k={self.k} support family"
                )
        if len(self.free_labels) < 1:
            raise MalformedInputError("support pattern leaves no free labels")

    @classmethod
    def parse(cls, k: int, zero_spec: str = "") -> "SupportPattern":
        """Build from a comma-separated list of zeroed bit strings."""
        zeros = frozenset(
            InputLabel.from_string(s.strip())
            for s in zero_spec.split(",")
            if s.strip()
        )
        return cls(k=k, zero_labels=zeros)

    @property
    def free_labels(self) -> tuple[InputLabel, ...]:
        return tuple(
            lab for lab in canonical_labels(self.k) if lab not in self.zero_labels
        )


@dataclass(frozen=True)
class OptResult:
    objective: str
    argmax: InputDistribution
    value_bits: float
    value_error_bits: float  # tight error estimate + final bracket's value spread
    evaluations: int
    status: str
    trace: tuple[tuple[int, float], ...]  # (evaluation count, best so far)

    def to_json_obj(self) -> dict:
        return {
            "objective": self.objective,
            "argmax": self.argmax.to_json_obj(),
            "value_bits": self.value_bits,
            "value_error_bits": self.value_error_bits,
            "evaluations": self.evaluations,
            "status": self.status,
            "trace": [[n, v] for n, v in self.trace],
        }


def _maximize(
    pattern: SupportPattern,
    objective: str,
    budget: int,
    grid_step: float,
    coord_tol: float,
) -> OptResult:
    # a subnormal step would overflow the lattice size 1 / grid_step
    if not grid_step >= np.finfo(float).tiny:
        raise MalformedInputError(f"grid step {grid_step} must be a positive normal float")
    if not 0.0 < coord_tol < math.inf:
        raise MalformedInputError(f"coordinate tolerance {coord_tol} must be finite and > 0")
    if not budget >= 3:
        raise MalformedInputError(f"budget {budget} must cover a scan point and two checks")
    k, free = pattern.k, pattern.free_labels
    zeros = InputLabel.zeros(k)
    basis = [lab for lab in free if lab not in (zeros, InputLabel.ones(k))]
    lo, hi = (0.0 if basis else 1.0), (1.0 if zeros in free else 0.0)
    if lo > hi:
        raise ConditioningError("measure is a point mass on all-ones")

    def mu_at(a: float, h: float = 0.0) -> InputDistribution:
        mass = {zeros: a} | {lab: (1.0 - a) / len(basis) for lab in basis}
        for lab, step in zip(basis, (h, -h)):
            mass[lab] += step
        return InputDistribution(k, mass)

    evals, best = 0, lo
    seen: dict[float, float] = {}
    trace: list[tuple[int, float]] = []

    def cost(mu: InputDistribution, **tols) -> tuple[float, float]:
        nonlocal evals
        evals += 1
        report = information_cost(mu, **tols)
        value = report.internal_bits if objective == "internal" else report.external_bits
        return value, report.quadrature_error_estimate

    def value(a: float) -> float:
        nonlocal best
        seen[a] = v = cost(mu_at(a))[0]
        if not trace or v > trace[-1][1]:
            best = a
            trace.append((evals, v))
        return v

    # lattice scan, then golden-section refinement of the best scan bracket
    m = max(int(round(1.0 / grid_step)), 1)
    grid = [float(a) for a in np.linspace(lo, hi, min(m + 1, budget - 2) if lo < hi else 1)]
    j = int(np.argmax([value(a) for a in grid]))
    lo, hi = grid[max(j - 1, 0)], grid[min(j + 1, len(grid) - 1)]
    need = math.ceil(math.log((hi - lo) / coord_tol, _PHI)) + 1 if hi - lo > coord_tol else 0
    n = min(need, budget - 2 - evals)
    if n >= 2:
        x1, x2 = hi - (hi - lo) / _PHI, lo + (hi - lo) / _PHI
        f1, f2 = value(x1), value(x2)
        for _ in range(n - 2):
            if f1 > f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - (hi - lo) / _PHI
                f1 = value(x1)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + (hi - lo) / _PHI
                f2 = value(x2)
    spread = float(np.ptp([v for a, v in seen.items() if lo <= a <= hi]))

    argmax = mu_at(best)
    top, err = cost(argmax, **_TIGHT)
    status = "budget_exhausted" if n < need else "converged"
    if status == "converged" and len(basis) >= 2:
        other, other_err = cost(mu_at(best, _ASYM_STEP * (1.0 - best) / len(basis)), **_TIGHT)
        status = "local_max" if top - other > err + other_err else "not_local_max"
    return OptResult(
        objective=objective,
        argmax=argmax,
        value_bits=float(top),
        value_error_bits=err + spread,
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
