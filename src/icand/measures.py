"""Probability measures on the k-player input cube and exact information functionals.

Inputs are bit vectors ``x in {0,1}^k`` with player ``i`` holding bit ``x_i``
(player 1 is the leftmost bit of a label string).  For three or more players
only measures supported on the basis family

    {all-zeros, all-ones, e_1, ..., e_k}

are accepted; for ``k = 2`` that family is the whole cube, so every two-party
distribution is valid.

The layout is fixed: a measure is the vector of its ``k + 2`` masses on
``(0^k, e_1, ..., e_k, 1^k)``, in that order, so ``e_i`` is entry ``i`` and
all-ones the last.  ``InputDistribution.bits`` is the read-only
``(k + 2, k)`` bit matrix of those inputs, built once per ``k``.  Every
module reads masses by position and bits from that matrix.  An input is
named only where a user or a file names it (JSON, support patterns,
outputs), by its bit string, player 1 leftmost: ``canonical_labels(k)``
spells the layout's rows that way.

All information quantities are computed with natural logarithms internally
and converted to bits only when returned.  Probabilities below ``ZERO_MASS``
are treated as exact zeros inside logarithms, which keeps ``0 log 0 = 0``
without poisoning sums with infinities.
"""

from __future__ import annotations

import json
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

#: Largest player count: the layout is k + 2 dense rows of k bits, so a
#: larger k is rejected before it is built.
MAX_K = 1000


@lru_cache(maxsize=32, typed=True)
def _layout(k: int) -> np.ndarray:
    """The read-only (k + 2, k) bit matrix of (0^k, e_1, ..., e_k, 1^k)."""
    if k < 2:
        raise InvalidDistributionError(f"player count {k} < 2")
    if k > MAX_K:
        raise MalformedInputError(f"player count {k} exceeds the limit {MAX_K}")
    bits = np.vstack([np.zeros(k, dtype=int), np.eye(k, dtype=int), np.ones(k, dtype=int)])
    bits.flags.writeable = False
    return bits


@lru_cache(maxsize=32, typed=True)
def canonical_labels(k: int) -> tuple[str, ...]:
    """The layout's rows as bit strings: (all-zeros, e_1, ..., e_k,
    all-ones), for ``k = 2`` the whole cube.  Cached, so measures with ``k``
    players share the one tuple."""
    text = (_layout(k) + ord("0")).astype(np.uint8).tobytes().decode("ascii")
    return tuple(text[j : j + k] for j in range(0, len(text), k))


def _row(label: str, k: int) -> int | None:
    """Row of the input named ``label`` in the layout; None for a label of
    another length or off the basis family."""
    ones = label.count("1")
    if not label or ones + label.count("0") != len(label):
        raise MalformedInputError(f"not a bit string: {label!r}")
    if len(label) != k:
        return None
    if ones == 0:
        return 0
    if ones == k:
        return k + 1
    return label.index("1") + 1 if ones == 1 else None


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

    Masses are stored densely in the layout order (see the module
    docstring); anything off the family is rejected for ``k >= 3`` (for
    ``k = 2`` the family is the whole cube).  Instances are immutable and
    safe to share.
    """

    __slots__ = ("k", "_vec")

    def __init__(self, k: int, mass: Mapping[str, float]):
        vec = np.zeros(len(_layout(k)))  # _layout rejects a k out of range
        for lab, m in mass.items():
            pos = _row(lab, k)
            if pos is None and len(lab) != k:
                raise InvalidDistributionError(f"label {lab} has {len(lab)} bits, expected {k}")
            if pos is None:
                raise AssumptionViolationError(
                    f"label {lab} outside the allowed support family for k={k}"
                )
            vec[pos] += float(m)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "_vec", _as_prob_vector(vec, "measure"))

    @classmethod
    def _checked(cls, k: int, vec: np.ndarray) -> "InputDistribution":
        """The measure with masses ``vec`` over the layout as is: ``vec``
        must be clamped and sum to one, as the constructor leaves it."""
        self = object.__new__(cls)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "_vec", vec)
        return self

    @classmethod
    def _from_vector(cls, k: int, vec: np.ndarray) -> "InputDistribution":
        """The measure with masses ``vec`` over the layout, validated and
        clamped as the constructor does it, ``k`` included."""
        _layout(k)  # rejects a k out of range
        return cls._checked(k, _as_prob_vector(vec, "measure"))

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
    def from_json(cls, text: str) -> "InputDistribution":
        try:
            obj = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an integer too long to read
            raise MalformedInputError(f"bad measure JSON: {exc}") from exc
        if not isinstance(obj, dict) or "k" not in obj or "mass" not in obj:
            raise MalformedInputError('measure JSON needs fields "k" and "mass"')
        if not isinstance(obj["mass"], dict):
            raise MalformedInputError('"mass" must map bit strings to numbers')
        k = obj["k"]
        if not isinstance(k, int) or isinstance(k, bool):
            raise MalformedInputError(f'"k" must be an integer, got {k!r}')
        mass = {}
        for key, val in obj["mass"].items():
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise MalformedInputError(f"mass of {key} must be a number, got {val!r}")
            try:
                mass[str(key)] = float(val)
            except OverflowError as exc:
                raise MalformedInputError(f"mass of {key} is beyond the float range") from exc
        # each label is k bits long: reject a mismatched k before any is read
        if not mass or any(len(key) != k for key in mass):
            raise MalformedInputError(f"measure labels must be {k} bits long")
        return cls(k, mass)

    # -- accessors -----------------------------------------------------------

    @property
    def labels(self) -> tuple[str, ...]:
        return canonical_labels(self.k)

    @property
    def bits(self) -> np.ndarray:
        """The layout's read-only (k + 2, k) bit matrix, one row per input."""
        return _layout(self.k)

    @property
    def vector(self) -> np.ndarray:
        """Masses in layout order (copy)."""
        return self._vec.copy()

    def mass(self, label: str) -> float:
        pos = _row(label, self.k)
        return 0.0 if pos is None else float(self._vec[pos])

    @property
    def mass_zeros(self) -> float:
        return float(self._vec[0])

    @property
    def mass_ones(self) -> float:
        return float(self._vec[-1])

    def e_mass(self, i: int) -> float:
        """Mass of the basis vector e_i (player i, 1-based)."""
        if not 1 <= i <= self.k:
            raise MalformedInputError(f"player index {i} out of range 1..{self.k}")
        return float(self._vec[i])

    def beta(self, i: int) -> float:
        """Pr[X_i = 1]: the masses of e_i and all-ones."""
        return self.e_mass(i) + self.mass_ones

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
        vec[-1] = 0.0
        vec /= vec.sum()
        return InputDistribution._from_vector(self.k, vec), c

    # -- serialization ---------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "k": self.k,
            "mass": {lab: float(m) for lab, m in zip(self.labels, self._vec) if m > 0.0},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    def __repr__(self) -> str:
        body = ", ".join(f"{lab}: {m:.6g}" for lab, m in zip(self.labels, self._vec) if m > 0)
        return f"InputDistribution(k={self.k}, {{{body}}})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, InputDistribution)
            and self.k == other.k
            and np.array_equal(self._vec, other._vec)
        )

    def __hash__(self) -> int:
        return hash((self.k, self._vec.tobytes()))
