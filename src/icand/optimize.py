"""Maximize buzzers-protocol information cost over a simplex face of measures.

The feasible set is the set of measures supported on a declared subset of
the basis-family labels (e.g. the two-party face with no mass on 11, whose
internal-cost maximum is the set-disjointness constant).  The objective is
evaluated by exact quadrature, so no gradients are available; the search is
a coarse lattice scan over the face followed by a reflect/contract simplex
refinement seeded at the best lattice point.  Everything is deterministic
for a fixed budget.

Coordinates are clipped away from zero during refinement; the cost is
continuous there (a vanishing basis mass costs its limit, zero), but the
protocol's start times degenerate.  The best point is re-evaluated at
tighter quadrature tolerances before reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .buzzers import information_cost
from .errors import MalformedInputError
from .measures import InputDistribution, InputLabel, canonical_labels

__all__ = ["SupportPattern", "OptResult", "maximize_internal", "maximize_external"]

_CLIP = 1e-9


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
    evaluations: int
    status: str
    trace: tuple[tuple[int, float], ...]  # (evaluation count, best so far)

    def to_json_obj(self) -> dict:
        return {
            "objective": self.objective,
            "argmax": self.argmax.to_json_obj(),
            "value_bits": self.value_bits,
            "evaluations": self.evaluations,
            "status": self.status,
            "trace": [[n, v] for n, v in self.trace],
        }


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


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
    free = pattern.free_labels
    n = len(free)

    evals = 0
    best_trace: list[tuple[int, float]] = []

    def cost_of(q: np.ndarray, *, tight: bool = False) -> float:
        nonlocal evals
        evals += 1
        mu = InputDistribution(pattern.k, dict(zip(free, q)))
        kw = {"rtol": 1e-11, "atol": 1e-13} if tight else {}
        report = information_cost(mu, **kw)
        return report.internal_bits if objective == "internal" else report.external_bits

    if n == 1:
        mu = InputDistribution(pattern.k, {free[0]: 1.0})
        value = cost_of(np.array([1.0]))
        return OptResult(
            objective=objective,
            argmax=mu,
            value_bits=value,
            evaluations=evals,
            status="converged",
            trace=((evals, value),),
        )

    # lattice scan; coarsen if the declared step floods the budget
    m = max(int(round(1.0 / grid_step)), 1)
    grid_cap = max(budget - 500, 200)
    while math.comb(m + n - 1, n - 1) > grid_cap and m > 1:
        m //= 2
    best_q = None
    best_val = -math.inf
    for comp in _compositions(m, n):
        q = np.array(comp, dtype=float) / m
        val = cost_of(q)
        if val > best_val:
            best_val = val
            best_q = q
            best_trace.append((evals, val))

    # reflect/contract simplex refinement on the first n-1 coordinates
    def neg_objective(x: np.ndarray) -> float:
        nonlocal best_val, best_q
        q = np.empty(n)
        q[:-1] = x
        q[-1] = 1.0 - x.sum()
        if np.any(q < -0.25) or q[-1] < -0.25:
            return 1.0
        q = np.clip(q, _CLIP, None)
        q = q / q.sum()
        val = cost_of(q)
        if val > best_val:
            best_val = val
            best_q = q
            best_trace.append((evals, val))
        return -val

    remaining = max(budget - evals, 50)
    x0 = np.asarray(best_q[:-1], dtype=float)
    step = max(1.0 / m / 2.0, 4.0 * coord_tol)
    initial_simplex = [x0]
    for j in range(n - 1):
        v = x0.copy()
        v[j] = v[j] + step if v[j] + step + x0.sum() - x0[j] <= 1.0 else v[j] - step
        initial_simplex.append(v)
    from scipy.optimize import minimize  # here: no other subcommand pays for scipy

    res = minimize(
        neg_objective,
        x0,
        method="Nelder-Mead",
        options={
            "xatol": coord_tol,
            "fatol": 1e-12,
            "maxfev": remaining,
            "initial_simplex": np.array(initial_simplex),
        },
    )
    status = "converged" if res.success else "budget_exhausted"

    value = cost_of(np.asarray(best_q), tight=True)
    argmax = InputDistribution(pattern.k, dict(zip(free, np.asarray(best_q))))
    return OptResult(
        objective=objective,
        argmax=argmax,
        value_bits=float(value),
        evaluations=evals,
        status=status,
        trace=tuple(best_trace),
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
