"""Finite-round discrete oracle: exactness, zero error, convergence."""

import math

import numpy as np
import pytest

from icand.buzzers import information_cost
from icand.discretize import build, exact_ic
from icand.errors import MalformedInputError, ResolutionError
from icand.measures import InputDistribution

MU_NO11 = InputDistribution.two_party(1 / 3, 1 / 3, 1 / 3, 0.0)
MU_E2 = InputDistribution.uniform_basis(2)


def walk_tree(node):
    yield node
    for _, child in node.children:
        yield from walk_tree(child)


class TestBuild:
    def test_slot_schedule_respects_start_times(self):
        mu = InputDistribution(3, {"000": 0.4, "100": 0.1, "010": 0.1, "001": 0.4})
        proto = build(mu, 0.125, 25.0)
        # player 3 starts at ln 4 ~ 1.386, joining at slot ceil(1.386/0.125) = 12
        assert proto.slots[11] == (1, 2)
        assert proto.slots[12] == (1, 2, 3)

    def test_rejects_small_horizon(self):
        mu = InputDistribution(3, {"000": 0.4, "100": 0.1, "010": 0.1, "001": 0.4})
        with pytest.raises(MalformedInputError):
            build(mu, 0.1, 2.0)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(MalformedInputError):
            build(MU_E2, 0.0, 25.0)

    def test_leaf_cap(self):
        with pytest.raises(ResolutionError):
            build(MU_E2, 1e-4, 25.0, max_leaves=1000)

    def test_leaf_count(self):
        # 200 slots; players 1 and 2 join at slot 0, player 3 at slot 12
        mu = InputDistribution(3, {"000": 0.4, "100": 0.1, "010": 0.1, "001": 0.4})
        assert len(build(mu, 0.125, 25.0).leaf_slot) == 200 + 200 + 188
        with pytest.raises(ResolutionError, match="588 transcript classes"):
            build(mu, 0.125, 25.0, max_leaves=587)

    def test_leaf_cap_checked_before_slots_are_built(self, monkeypatch):
        # 2.5e10 slots for two players: the cap must trip on the count alone
        def enumerate_slots(*_):
            raise AssertionError("slots enumerated before the leaf cap was checked")

        monkeypatch.setattr(np, "flatnonzero", enumerate_slots)
        with pytest.raises(ResolutionError, match="50000000000 transcript classes"):
            build(MU_NO11, 1e-9, 25.0)

    def test_transcript_probabilities_normalize(self):
        proto = build(MU_NO11, 0.05, 25.0)
        for j in range(len(proto.support)):
            total = proto.leaf_prob[:, j].sum() + proto.silent_prob[j]
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_buzz_time_law_converges_to_exponential(self):
        # input e_2 = 01: only player 1 is active, so the finish time is
        # exponential; compare the protocol's CDF on a few horizons
        proto = build(MU_E2, 2.0**-8, 25.0)
        j = proto.support.index(
            next(lab for lab in proto.support if str(lab) == "01")
        )
        for tau in (0.5, 1.0, 2.0):
            mask = (proto.leaf_slot + 1) * proto.delta <= tau
            cdf = proto.leaf_prob[mask, j].sum()
            assert cdf == pytest.approx(1 - math.exp(-tau), abs=5e-3)


class TestTree:
    def test_all_ones_reaches_reveal_with_output_one(self):
        mu = InputDistribution.two_party(0.3, 0.3, 0.3, 0.1)
        root = build(mu, 0.25, 3.0).root()
        ones_leaves = [
            n for n in walk_tree(root) if n.terminal and n.output == 1
        ]
        assert ones_leaves
        for leaf in ones_leaves:
            assert leaf.posterior.mass("11") == pytest.approx(1.0)

    def test_zero_error_everywhere(self):
        mu = InputDistribution.two_party(0.3, 0.3, 0.3, 0.1)
        proto = build(mu, 0.25, 3.0)
        for node in walk_tree(proto.root()):
            if not node.terminal:
                continue
            for lab in proto.support:
                if node.posterior.mass(lab) > 1e-12:
                    assert node.output == (1 if lab.weight == lab.k else 0)

    def test_martingale_at_every_node(self):
        proto = build(MU_NO11, 0.5, 4.0)
        for node in walk_tree(proto.root()):
            if not node.children:
                continue
            probs = [p for p, _ in node.children]
            assert sum(probs) == pytest.approx(1.0, abs=1e-12)
            mix = sum(
                p * np.array([c.posterior.mass(lab) for lab in proto.support])
                for p, c in node.children
            )
            cur = np.array([node.posterior.mass(lab) for lab in proto.support])
            np.testing.assert_allclose(mix, cur, atol=1e-12)

    def test_tree_cap(self):
        proto = build(MU_NO11, 0.01, 25.0)
        with pytest.raises(ResolutionError):
            proto.root(max_nodes=100)


class TestExactIC:
    def test_reveal_only_protocol(self):
        # nobody is ever active before the horizon on the all-silent path
        # of the uniform basis measure; external cost is the full entropy
        report = exact_ic(build(MU_E2, 30.0, 25.0))
        assert report.external_bits == pytest.approx(1.0, abs=1e-12)
        assert report.internal_bits == pytest.approx(0.0, abs=1e-12)

    def test_uniform_basis_exact_at_any_delta(self):
        # transcripts reveal the input exactly on this support, so the
        # discrete cost equals the continuous one for every slot size
        for j in (4, 7, 10):
            report = exact_ic(build(MU_E2, 2.0**-j, 25.0))
            assert report.external_bits == pytest.approx(1.0, abs=1e-12)
            assert report.internal_bits == pytest.approx(0.0, abs=1e-12)

    def test_convergence_to_continuous(self):
        reference = information_cost(MU_NO11)
        gaps = []
        for j in (4, 6, 8):
            report = exact_ic(build(MU_NO11, 2.0**-j, 25.0))
            gaps.append(abs(report.internal_bits - reference.internal_bits))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-5

    def test_truncation_insensitive(self):
        a = exact_ic(build(MU_NO11, 2.0**-6, 25.0))
        b = exact_ic(build(MU_NO11, 2.0**-6, 30.0))
        assert abs(a.internal_bits - b.internal_bits) <= 1e-8
        assert abs(a.external_bits - b.external_bits) <= 1e-8

    def test_three_party_agreement(self):
        mu = InputDistribution(3, {"000": 0.4, "100": 0.1, "010": 0.1, "001": 0.4})
        report = exact_ic(build(mu, 2.0**-9, 25.0))
        reference = information_cost(mu)
        assert report.internal_bits == pytest.approx(
            reference.internal_bits, abs=5e-5
        )
        assert report.external_bits == pytest.approx(
            reference.external_bits, abs=5e-5
        )
