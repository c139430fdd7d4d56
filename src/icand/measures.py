"""Probability measures on the k-player input cube and exact information functionals.

Inputs are bit vectors ``x in {0,1}^k`` with player ``i`` holding bit ``x_i``
(player 1 is the leftmost bit of a label string).  For three or more players
only measures supported on the basis family

    {all-zeros, all-ones, e_1, ..., e_k}

are accepted; for ``k = 2`` that family is the whole cube, so every two-party
distribution is valid.  Masses are stored densely over the family, which has
at most ``k + 2`` points.

All information quantities are computed with natural logarithms internally
and converted to bits only when returned.  Probabilities below ``ZERO_MASS``
are treated as exact zeros inside logarithms, which keeps ``0 log 0 = 0``
without poisoning sums with infinities.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    AssumptionViolationError,
    ConditioningError,
    InvalidDistributionError,
    MalformedInputError,
)

LN2 = float(np.log(2.0))

#: Probabilities below this are exact zeros in log computations.
ZERO_MASS = 1e-15

#: Normalization slack accepted when validating distributions.
SUM_TOL = 1e-12

#: Largest player count: the canonical labels are k + 2 dense k-tuples, so a
#: larger k is rejected before any of them is built.
MAX_K = 1000


@dataclass(frozen=True, order=True)
class InputLabel:
    """One point of the input cube: the tuple of all players' private bits."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) < 1 or any(b not in (0, 1) for b in self.bits):
            raise MalformedInputError(f"not a bit vector: {self.bits!r}")

    @classmethod
    def from_string(cls, text: str) -> "InputLabel":
        if not text or any(c not in "01" for c in text):
            raise MalformedInputError(f"not a bit string: {text!r}")
        return cls(tuple(int(c) for c in text))

    @classmethod
    def zeros(cls, k: int) -> "InputLabel":
        return cls((0,) * k)

    @classmethod
    def ones(cls, k: int) -> "InputLabel":
        return cls((1,) * k)

    @classmethod
    def basis(cls, k: int, i: int) -> "InputLabel":
        """e_i: player i (1-based) holds 1, everyone else 0."""
        if not 1 <= i <= k:
            raise MalformedInputError(f"player index {i} out of range 1..{k}")
        return cls(tuple(1 if j == i - 1 else 0 for j in range(k)))

    @property
    def k(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


@lru_cache(maxsize=32, typed=True)
def canonical_labels(k: int) -> tuple[InputLabel, ...]:
    """Allowed support, in the fixed order (all-zeros, e_1, ..., e_k, all-ones).

    For ``k = 2`` this is the whole cube; for ``k = 1`` the two labels
    coincide with (0,) and (1,).  Cached: every measure with ``k`` players
    shares the one tuple.
    """
    if k > MAX_K:
        raise MalformedInputError(f"player count {k} exceeds the limit {MAX_K}")
    labels = [InputLabel.zeros(k)]
    labels += [InputLabel.basis(k, i) for i in range(1, k + 1)]
    ones = InputLabel.ones(k)
    if ones not in labels:
        labels.append(ones)
    return tuple(labels)


@lru_cache(maxsize=32, typed=True)
def _label_index(k: int) -> dict[InputLabel, int]:
    """Position of each canonical label; shared by every measure with ``k``
    players, which only read it."""
    return {lab: i for i, lab in enumerate(canonical_labels(k))}


def _as_prob_vector(p: Iterable[float], what: str = "distribution") -> np.ndarray:
    v = np.asarray(list(p) if not isinstance(p, np.ndarray) else p, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise InvalidDistributionError(f"{what} must be a nonempty 1-D vector")
    if np.any(v < -ZERO_MASS):
        raise InvalidDistributionError(f"{what} has negative mass: {v.min()}")
    v = np.maximum(v, 0.0)
    s = v.sum()
    if not abs(s - 1.0) <= SUM_TOL:  # a NaN or infinite mass fails here too
        raise InvalidDistributionError(f"{what} sums to {s!r}, not 1")
    return v


def _xlogx(v: np.ndarray) -> np.ndarray:
    """x ln x with the 0 log 0 = 0 convention, elementwise."""
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    big = v > ZERO_MASS
    out[big] = v[big] * np.log(v[big])
    return out


def _prior_entropies(bits: np.ndarray, w: np.ndarray) -> np.ndarray:
    """[H(X), H(X | X_1), ..., H(X | X_k)] in nats for masses ``w`` on the
    inputs whose bits are the rows of ``bits``."""
    out = [float(-_xlogx(w).sum())]
    for col in bits.T:
        h = 0.0
        for b in (0, 1):
            pb = float(w[col == b].sum())
            if pb > ZERO_MASS:
                h += pb * float(-_xlogx(w[col == b] / pb).sum())
        out.append(h)
    return np.array(out)


def entropy(p: Iterable[float]) -> float:
    """Shannon entropy of a discrete distribution, in bits."""
    v = _as_prob_vector(p)
    return float(-_xlogx(v).sum() / LN2)


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2(1-x) for x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise InvalidDistributionError(f"binary entropy argument {x} outside [0, 1]")
    return entropy((x, 1.0 - x))


class InputDistribution:
    """Measure on the k-player input cube, supported on the basis family.

    Masses are stored densely over :func:`canonical_labels`; anything off
    that family is rejected for ``k >= 3`` (for ``k = 2`` the family is the
    whole cube).  Instances are immutable and safe to share.
    """

    __slots__ = ("k", "_labels", "_vec", "_index")

    def __init__(self, k: int, mass: Mapping[InputLabel | str, float]):
        if k < 2:
            raise InvalidDistributionError(f"player count {k} < 2")
        labels = canonical_labels(k)
        index = _label_index(k)
        vec = np.zeros(len(labels))
        for key, m in mass.items():
            lab = InputLabel.from_string(key) if isinstance(key, str) else key
            if lab.k != k:
                raise InvalidDistributionError(
                    f"label {lab} has {lab.k} bits, expected {k}"
                )
            if lab not in index:
                raise AssumptionViolationError(
                    f"label {lab} outside the allowed support family for k={k}"
                )
            vec[index[lab]] += float(m)
        vec = _as_prob_vector(vec, "measure")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_vec", vec)
        object.__setattr__(self, "_index", index)

    @classmethod
    def _checked(cls, k: int, vec: np.ndarray) -> "InputDistribution":
        """The measure with masses ``vec`` over ``canonical_labels(k)`` as is:
        ``vec`` must be clamped and sum to one, as the constructor leaves it."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, (k, canonical_labels(k), vec, _label_index(k))):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("InputDistribution is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def two_party(cls, m00: float, m01: float, m10: float, m11: float) -> "InputDistribution":
        """Two-party measure given as (mass(00), mass(01), mass(10), mass(11))."""
        return cls(2, {"00": m00, "01": m01, "10": m10, "11": m11})

    @classmethod
    def uniform_basis(cls, k: int) -> "InputDistribution":
        """Uniform measure on {e_1, ..., e_k}."""
        return cls(k, {lab: 1.0 / k for lab in canonical_labels(k)[1 : k + 1]})

    @classmethod
    def from_json(cls, text_or_obj) -> "InputDistribution":
        if isinstance(text_or_obj, (str, bytes)):
            try:
                obj = json.loads(text_or_obj)
            except json.JSONDecodeError as exc:
                raise MalformedInputError(f"bad measure JSON: {exc}") from exc
        else:
            obj = text_or_obj
        if not isinstance(obj, dict) or "k" not in obj or "mass" not in obj:
            raise MalformedInputError('measure JSON needs fields "k" and "mass"')
        if not isinstance(obj["mass"], dict):
            raise MalformedInputError('"mass" must map bit strings to numbers')
        k = obj["k"]
        if not isinstance(k, int) or isinstance(k, bool):
            raise MalformedInputError(f'"k" must be an integer, got {k!r}')
        try:
            mass = {str(key): float(val) for key, val in obj["mass"].items()}
        except (TypeError, ValueError) as exc:
            raise MalformedInputError(f"bad measure JSON: {exc}") from exc
        # the canonical labels are k-tuples: reject a mismatched k before
        # they are built
        if not mass or any(len(key) != k for key in mass):
            raise MalformedInputError(f"measure labels must be {k} bits long")
        return cls(k, mass)

    # -- accessors -----------------------------------------------------------

    @property
    def labels(self) -> tuple[InputLabel, ...]:
        return self._labels

    @property
    def vector(self) -> np.ndarray:
        """Masses in canonical label order (copy)."""
        return self._vec.copy()

    def mass(self, label: InputLabel | str) -> float:
        lab = InputLabel.from_string(label) if isinstance(label, str) else label
        idx = self._index.get(lab)
        return float(self._vec[idx]) if idx is not None else 0.0

    @property
    def mass_zeros(self) -> float:
        return float(self._vec[0])

    @property
    def mass_ones(self) -> float:
        return self.mass(InputLabel.ones(self.k))

    def e_mass(self, i: int) -> float:
        """Mass of the basis vector e_i (player i, 1-based)."""
        return self.mass(InputLabel.basis(self.k, i))

    def beta(self, i: int) -> float:
        """Pr[X_i = 1]."""
        return float(sum(m for lab, m in zip(self._labels, self._vec) if lab.bits[i - 1] == 1))

    def support(self) -> tuple[InputLabel, ...]:
        return tuple(lab for lab, m in zip(self._labels, self._vec) if m > ZERO_MASS)

    # -- information functionals ---------------------------------------------

    def statistical_distance(self, other: "InputDistribution") -> float:
        """Half L1 distance to another measure on the same cube."""
        if self.k != other.k:
            raise InvalidDistributionError(
                f"player counts differ: {self.k} vs {other.k}"
            )
        return float(0.5 * np.abs(self._vec - other._vec).sum())

    # -- transforms -----------------------------------------------------------

    def without_all_ones(self) -> tuple["InputDistribution", float]:
        """Measure conditioned on X != all-ones, plus the removed mass."""
        c = self.mass_ones
        if c <= ZERO_MASS:
            return self, 0.0
        if c >= 1.0 - ZERO_MASS:
            raise ConditioningError("measure is a point mass on all-ones")
        vec = self._vec.copy()
        vec[self._index[InputLabel.ones(self.k)]] = 0.0
        vec /= vec.sum()
        return InputDistribution(self.k, dict(zip(self._labels, vec))), c

    # -- serialization ---------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "k": self.k,
            "mass": {
                str(lab): float(m)
                for lab, m in zip(self._labels, self._vec)
                if m > 0.0
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    def __repr__(self) -> str:
        body = ", ".join(f"{lab}: {m:.6g}" for lab, m in zip(self._labels, self._vec) if m > 0)
        return f"InputDistribution(k={self.k}, {{{body}}})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, InputDistribution)
            and self.k == other.k
            and np.array_equal(self._vec, other._vec)
        )

    def __hash__(self) -> int:
        return hash((self.k, self._vec.tobytes()))
