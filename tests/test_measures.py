"""Exact information functionals and the input-measure type."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icand import measures
from icand.buzzers import ICReport
from icand.errors import (
    AssumptionViolationError,
    InvalidDistributionError,
    MalformedInputError,
)
from icand.measures import (
    InputDistribution,
    binary_entropy,
    canonical_labels,
    entropy,
)


def direct_entropy_bits(p):
    """Independent oracle: -sum p log2 p."""
    return -sum(x * math.log2(x) for x in p if x > 0)


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy((0.5, 0.5)) == pytest.approx(1.0, abs=1e-15)

    def test_point_mass(self):
        assert entropy((1.0, 0.0)) == 0.0

    def test_uniform_ternary(self):
        expected = direct_entropy_bits([1 / 3] * 3)  # = 1.584962500721156
        assert entropy((1 / 3, 1 / 3, 1 / 3)) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.584962500721156, abs=1e-12)

    def test_rejects_negative_mass(self):
        with pytest.raises(InvalidDistributionError):
            entropy((1.2, -0.2))

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidDistributionError):
            entropy((0.5, 0.4))

    def test_binary_entropy_symmetric(self):
        assert binary_entropy(0.2) == pytest.approx(binary_entropy(0.8), abs=1e-15)
        assert binary_entropy(0.0) == 0.0


@st.composite
def small_joints(draw):
    rows = draw(st.integers(2, 4))
    cols = draw(st.integers(2, 4))
    raw = draw(
        st.lists(
            st.floats(0.01, 1.0), min_size=rows * cols, max_size=rows * cols
        )
    )
    j = np.array(raw).reshape(rows, cols)
    return j / j.sum()


class TestInvariants:
    @given(small_joints())
    @settings(max_examples=60, deadline=None)
    def test_entropy_chain_rule(self, joint):
        h_joint = entropy(joint.ravel())
        marg = joint.sum(axis=1)
        h_cond = sum(
            m * entropy(row / m) for m, row in zip(marg, joint) if m > 0
        )
        assert h_joint == pytest.approx(entropy(marg) + h_cond, abs=1e-10)

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
        st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
        st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_statistical_distance_triangle(self, a, b, c):
        labels = canonical_labels(2)
        dists = [
            InputDistribution(2, dict(zip(labels, np.array(v) / np.sum(v))))
            for v in (a, b, c)
        ]
        d_ab = dists[0].statistical_distance(dists[1])
        d_bc = dists[1].statistical_distance(dists[2])
        d_ac = dists[0].statistical_distance(dists[2])
        assert d_ac <= d_ab + d_bc + 1e-12


class TestStatisticalDistance:
    def test_equal(self):
        mu = InputDistribution.two_party(0.25, 0.25, 0.25, 0.25)
        assert mu.statistical_distance(mu) == 0.0

    def test_disjoint_points(self):
        a = InputDistribution(2, {"00": 1.0})
        b = InputDistribution(2, {"11": 1.0})
        assert a.statistical_distance(b) == 1.0

    def test_example(self):
        a = InputDistribution.two_party(1 / 3, 1 / 3, 1 / 3, 0.0)
        b = InputDistribution.two_party(0.3, 0.3, 0.3, 0.1)
        assert a.statistical_distance(b) == pytest.approx(0.1, abs=1e-12)

    def test_mismatched_k(self):
        a = InputDistribution.two_party(0.5, 0.5, 0, 0)
        b = InputDistribution.uniform_basis(3)
        with pytest.raises(InvalidDistributionError):
            a.statistical_distance(b)


class TestInputDistribution:
    def test_support_family_enforced(self):
        with pytest.raises(AssumptionViolationError):
            InputDistribution(3, {"110": 0.5, "000": 0.5})

    def test_two_party_full_cube_allowed(self):
        mu = InputDistribution.two_party(0.1, 0.2, 0.3, 0.4)
        assert mu.mass("11") == pytest.approx(0.4)

    def test_sum_validation(self):
        with pytest.raises(InvalidDistributionError):
            InputDistribution(2, {"00": 0.5, "01": 0.6})

    def test_beta(self):
        mu = InputDistribution(3, {"000": 0.4, "100": 0.2, "010": 0.1, "001": 0.3})
        assert mu.beta(1) == pytest.approx(0.2)
        assert mu.e_mass(3) == pytest.approx(0.3)

    def test_without_all_ones(self):
        mu = InputDistribution.two_party(0.2, 0.3, 0.1, 0.4)
        reduced, c = mu.without_all_ones()
        assert c == pytest.approx(0.4)
        assert reduced.mass_ones == 0.0
        assert reduced.mass("00") == pytest.approx(0.2 / 0.6)

    def test_json_round_trip(self):
        mu = InputDistribution(3, {"000": 0.4, "100": 0.2, "010": 0.2, "001": 0.2})
        again = InputDistribution.from_json(mu.to_json())
        assert again == mu

    def test_json_rejects_garbage(self):
        with pytest.raises(MalformedInputError):
            InputDistribution.from_json("{not json")
        with pytest.raises(MalformedInputError):
            InputDistribution.from_json('{"k": 2}')

    @pytest.mark.parametrize("k", ["true", "2.9", '"2"', "null"])
    def test_json_k_must_be_an_integer(self, k):
        with pytest.raises(MalformedInputError):
            InputDistribution.from_json(f'{{"k": {k}, "mass": {{"01": 0.5, "10": 0.5}}}}')

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_mass_rejected(self, bad):
        with pytest.raises(InvalidDistributionError):
            InputDistribution(2, {"00": bad, "01": 0.5, "10": 0.5})

    @pytest.mark.parametrize("mass", ['{"01": 0.5, "10": 0.5}', "{}"])
    def test_label_lengths_checked_before_labels_allocated(self, monkeypatch, mass):
        def allocate(*args):
            raise AssertionError(f"label code called with {args!r} before validation")

        monkeypatch.setattr(measures, "canonical_labels", allocate)
        monkeypatch.setattr(measures, "_row", allocate)
        with pytest.raises(MalformedInputError):
            InputDistribution.from_json(f'{{"k": 100000, "mass": {mass}}}')

    @staticmethod
    def _given_player(mu, i):
        """H(X | X_i) in bits, from the prior entropies the costs use."""
        bits = np.array([[int(c) for c in lab] for lab in mu.labels])
        return measures._prior_entropies(bits, mu.vector)[i] / measures.LN2

    def test_entropy_given_player(self):
        mu = InputDistribution.two_party(0.25, 0.25, 0.25, 0.25)
        # independent fair bits: H(X | X_i) = 1
        assert self._given_player(mu, 1) == pytest.approx(1.0, abs=1e-12)
        # (00, 01, 10) = (0.2, 0.5, 0.3): X_1 = 0 leaves {00, 01}
        mu = InputDistribution.two_party(0.2, 0.5, 0.3, 0.0)
        expected = 0.7 * binary_entropy(0.2 / 0.7)
        assert self._given_player(mu, 1) == pytest.approx(expected, abs=1e-15)

    def test_entropy_given_player_is_a_python_float(self):
        # the conditional entropies reach the reports (and so the JSON and
        # CSV output) as Python floats, not numpy scalars
        mu = InputDistribution.two_party(0.2, 0.5, 0.3, 0.0)
        bits = np.array([[int(c) for c in lab] for lab in mu.labels])
        report = ICReport.of(measures._prior_entropies(bits, mu.vector), 0.0, np.zeros(2), 0.0)
        h = report.concealed_internal_bits
        assert type(h) is float
        # X_1 = 0 leaves {00, 01}; X_2 = 0 leaves {00, 10}
        expected = 0.7 * binary_entropy(0.2 / 0.7) + 0.5 * binary_entropy(0.4)
        assert h == pytest.approx(expected, abs=1e-15)
        assert type(report.concealed_external_bits) is float

    def test_measures_share_the_cached_labels(self):
        a = InputDistribution.two_party(0.25, 0.25, 0.25, 0.25)
        b = InputDistribution(2, {"01": 0.5, "10": 0.5})
        assert a.labels is b.labels is canonical_labels(2)
        with pytest.raises(TypeError):  # the cache does not serve k=2.0 as k=2
            canonical_labels(2.0)
        assert b.mass("10") == 0.5 and b.mass("11") == 0.0

    @pytest.mark.parametrize("k", [2, 3, 6, 1000])
    def test_layout_is_the_labels_bits(self, k):
        # label i spells row i of the layout, player 1 leftmost
        mu = InputDistribution.uniform_basis(k)
        labels = canonical_labels(k)
        assert all(type(lab) is str and len(lab) == k for lab in labels)
        assert np.array_equal(mu.bits, np.array([[int(c) for c in lab] for lab in labels]))
        assert labels[0] == "0" * k and labels[-1] == "1" * k
        assert mu.bits is InputDistribution(k, {labels[0]: 1.0}).bits  # cached per k
        with pytest.raises(ValueError):
            mu.bits[0, 0] = 1
        rng = np.random.default_rng(k)
        for _ in range(3):
            mu = InputDistribution(k, dict(zip(labels, rng.dirichlet(np.ones(k + 2)))))
            by_label = {lab: m for lab, m in zip(labels, mu.vector)}
            assert mu.mass_ones == by_label["1" * k] == mu.mass("1" * k)
            for i in (1, 2, k):
                e_i = "0" * (i - 1) + "1" + "0" * (k - i)
                assert labels[i] == e_i
                assert mu.e_mass(i) == by_label[e_i] == mu.mass(e_i)
                assert mu.beta(i) == sum(m for lab, m in by_label.items() if lab[i - 1] == "1")
        with pytest.raises(MalformedInputError):
            mu.e_mass(k + 1)

    def test_label_parsing(self):
        mu = InputDistribution(3, {"010": 1.0})
        assert mu.mass("010") == 1.0 and mu.vector[2] == 1.0  # e_2, row 2 of the layout
        assert mu.mass("110") == mu.mass("01") == 0.0  # off the family, or another k
        for bad in ("01x", "", "0 1"):
            with pytest.raises(MalformedInputError, match="not a bit string"):
                mu.mass(bad)
        with pytest.raises(MalformedInputError, match=r"^not a bit string: '1x'$"):
            InputDistribution(2, {"1x": 1.0})
        with pytest.raises(InvalidDistributionError, match="^label 0 has 1 bits, expected 2$"):
            InputDistribution(2, {"0": 1.0})
        with pytest.raises(
            AssumptionViolationError,
            match="^label 110 outside the allowed support family for k=3$",
        ):
            InputDistribution(3, {"110": 1.0})
