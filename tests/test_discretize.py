"""Finite-round discrete oracle: exactness, zero error, convergence."""

import math
import tracemalloc

import discretize_oracle
import numpy as np
import pytest

from icand import discretize
from icand.buzzers import information_cost, start_times
from icand.discretize import _schedule, build, exact_ic
from icand.errors import MalformedInputError, ResolutionError
from icand.measures import ZERO_MASS, InputDistribution

MU_NO11 = InputDistribution.two_party(1 / 3, 1 / 3, 1 / 3, 0.0)
MU_E2 = InputDistribution.uniform_basis(2)
MU_WITH11 = InputDistribution.two_party(0.3, 0.3, 0.3, 0.1)
MU_K3 = InputDistribution(3, {"000": 0.4, "100": 0.1, "010": 0.1, "001": 0.4})
MU_K4 = InputDistribution(
    4, {"0000": 0.1, "1000": 0.3, "0100": 0.15, "0010": 0.2, "0001": 0.05, "1111": 0.2}
)


def support(mu):
    """The labels of the inputs a protocol's leaf columns stand for, in order."""
    return [lab for lab, m in zip(mu.labels, mu.vector) if m > ZERO_MASS]


def slot_by_slot(mu, delta, horizon):
    """The protocol's semantics, one slot at a time.

    In slot r the players with r * delta >= t_m take turns in player order.
    On an input where player m holds 0, m fires with probability
    reach * (1 - e^-delta) and reach shrinks by e^-delta; where m holds 1,
    nothing changes.  Returns the buzz leaves as {(slot, player): per-input
    probabilities} and the per-input probability of reaching the reveal stage.
    """
    times = start_times(mu)
    bits = np.array([[int(c) for c in lab] for lab in support(mu)])
    reach = np.ones(len(bits))
    leaves = {}
    for r in range(math.ceil(horizon / delta)):
        for m in range(mu.k):
            if r * delta >= times[m] - 1e-12 * delta:
                zero = bits[:, m] == 0
                leaves[r, m + 1] = reach * zero * (1.0 - math.exp(-delta))
                reach = np.where(zero, reach * math.exp(-delta), reach)
    return leaves, reach


class TestBuild:
    def test_slot_schedule_respects_start_times(self):
        proto = build(MU_K3, 0.125, 25.0)
        # player 3 starts at ln 4 ~ 1.386, joining at slot ceil(1.386/0.125) = 12
        first = {m: proto.leaf_slot[proto.leaf_player == m].min() for m in (1, 2, 3)}
        assert first == {1: 0, 2: 0, 3: 12}

    def test_rejects_small_horizon(self):
        with pytest.raises(MalformedInputError):
            build(MU_K3, 0.1, 2.0)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(MalformedInputError):
            build(MU_E2, 0.0, 25.0)

    def test_leaf_cap(self, monkeypatch):
        monkeypatch.setattr(discretize, "_MAX_LEAVES", 1000)
        with pytest.raises(ResolutionError):
            build(MU_E2, 1e-4, 25.0)

    def test_leaf_count(self, monkeypatch):
        # 200 slots; players 1 and 2 join at slot 0, player 3 at slot 12
        monkeypatch.setattr(discretize, "_MAX_LEAVES", 588)
        assert len(build(MU_K3, 0.125, 25.0).leaf_slot) == 200 + 200 + 188
        monkeypatch.setattr(discretize, "_MAX_LEAVES", 587)
        with pytest.raises(ResolutionError, match="588 transcript classes exceed the cap 587"):
            build(MU_K3, 0.125, 25.0)

    def test_leaf_cap_checked_before_slots_are_built(self, monkeypatch):
        # 2.5e10 slots for two players: the cap must trip on the count alone
        def allocate(*_, **__):
            raise AssertionError("leaf arrays allocated before the leaf cap was checked")

        monkeypatch.setattr(np, "empty", allocate)
        with pytest.raises(ResolutionError, match="50000000000 transcript classes"):
            build(MU_NO11, 1e-9, 25.0)

    def test_transcript_probabilities_normalize(self):
        proto = build(MU_NO11, 0.05, 25.0)
        for j in range(len(support(proto.mu))):
            total = proto.leaf_prob[:, j].sum() + proto.silent_prob[j]
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_buzz_time_law_converges_to_exponential(self):
        # input e_2 = 01: only player 1 is active, so the finish time is
        # exponential; compare the protocol's CDF on a few horizons
        proto = build(MU_E2, 2.0**-8, 25.0)
        j = support(proto.mu).index("01")
        for tau in (0.5, 1.0, 2.0):
            mask = (proto.leaf_slot + 1) * proto.delta <= tau
            cdf = proto.leaf_prob[mask, j].sum()
            assert cdf == pytest.approx(1 - math.exp(-tau), abs=5e-3)


class TestTree:
    """The protocol tree's leaves, checked on the arrays that exact_ic sums."""

    @pytest.mark.parametrize(
        "mu, delta",
        [(MU_NO11, 0.05), (MU_WITH11, 0.125), (MU_K3, 0.0625), (MU_K4, 0.03125)],
    )
    def test_matches_slot_by_slot_reference(self, mu, delta):
        proto = build(mu, delta, 25.0)
        leaves, silent = slot_by_slot(mu, delta, 25.0)
        keys = list(zip(proto.leaf_slot.tolist(), proto.leaf_player.tolist()))
        assert sorted(keys) == sorted(leaves)
        expected = np.array([leaves[key] for key in keys])
        np.testing.assert_allclose(proto.leaf_prob, expected, rtol=0, atol=1e-15)
        np.testing.assert_allclose(proto.silent_prob, silent, rtol=0, atol=1e-15)

    def test_all_ones_reaches_reveal_with_output_one(self):
        proto = build(MU_WITH11, 0.25, 3.0)
        ones = [lab == "11" for lab in support(proto.mu)]
        assert proto.silent_prob[ones] == 1.0

    def test_zero_error_everywhere(self):
        # a buzz outputs 0, so no buzz leaf may carry the all-ones input; the
        # reveal stage outputs the AND of the revealed input
        for mu in (MU_WITH11, MU_K4):
            proto = build(mu, 0.25, 5.0)
            ones = ["0" not in lab for lab in support(proto.mu)]
            assert not proto.leaf_prob[:, ones].any()

    def test_martingale_at_every_node(self):
        # both players start at 0, so the node "silent before slot r" has mass
        # e^(-delta r z) on an input with z zeros; its subtree, the buzz leaves
        # of slots >= r and the reveal stage, must carry exactly that mass
        proto = build(MU_NO11, 0.5, 4.0)
        n_slots = 8
        zeros = np.array([lab.count("0") for lab in support(proto.mu)])
        per_slot = np.zeros((n_slots, len(zeros)))
        np.add.at(per_slot, proto.leaf_slot, proto.leaf_prob)
        subtree = np.cumsum(per_slot[::-1], axis=0)[::-1] + proto.silent_prob
        node = np.exp(-0.5 * np.arange(n_slots)[:, None] * zeros[None, :])
        np.testing.assert_allclose(subtree, node, rtol=0, atol=1e-15)


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
        report = exact_ic(build(MU_K3, 2.0**-9, 25.0))
        reference = information_cost(MU_K3)
        assert report.internal_bits == pytest.approx(
            reference.internal_bits, abs=5e-5
        )
        assert report.external_bits == pytest.approx(
            reference.external_bits, abs=5e-5
        )


def block_rows(mu):
    """Leaf rows per kernel block, and slots per survival block, on ``mu``."""
    return max(1, discretize._KERNEL_BLOCK // len(support(mu)))


def exact_multiple(mu, delta):
    """The shortest horizon at which ``mu``'s protocol has a positive whole
    number of kernel blocks of leaves, with its slot count a multiple of
    ``delta`` so that the horizon is exact."""
    rows = block_rows(mu)
    n = math.ceil((start_times(mu).max() + 1.0) / delta)
    while _schedule(mu, delta, n * delta)[2] % rows:
        n += 1
    return n * delta


def assert_matches_oracle(mu, delta, horizon):
    proto = build(mu, delta, horizon)
    oracle = discretize_oracle.build(mu, delta, horizon)
    for field in ("leaf_slot", "leaf_player", "leaf_prob", "silent_prob"):
        got, want = getattr(proto, field), getattr(oracle, field)
        assert got.dtype == want.dtype and got.shape == want.shape, field
        assert np.array_equal(got, want), field
    assert exact_ic(proto) == discretize_oracle.exact_ic(oracle)
    return len(proto.leaf_slot)


class TestBlocks:
    """Blocked ``build`` and ``exact_ic`` against the one-call oracle, bit
    for bit: the arithmetic per element and the final sum are the same."""

    MEASURES = [MU_NO11, MU_K3, MU_WITH11, MU_E2]
    IDS = ["no11", "k3", "with11", "e2"]

    @pytest.mark.parametrize("mu", MEASURES, ids=IDS)
    def test_fewer_leaves_than_one_block(self, mu):
        assert assert_matches_oracle(mu, 0.05, 25.0) < block_rows(mu)

    @pytest.mark.parametrize("mu", MEASURES, ids=IDS)
    def test_exact_multiple_of_a_block(self, mu):
        n_leaves = assert_matches_oracle(mu, 2.0**-7, exact_multiple(mu, 2.0**-7))
        assert n_leaves >= block_rows(mu) and n_leaves % block_rows(mu) == 0

    @pytest.mark.parametrize("mu", MEASURES, ids=IDS)
    def test_several_blocks_and_a_remainder(self, mu):
        n_leaves = assert_matches_oracle(mu, 2.0**-9, 25.0)
        assert n_leaves > 2 * block_rows(mu) and n_leaves % block_rows(mu)

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("mu", MEASURES, ids=IDS)
    def test_tiny_blocks(self, monkeypatch, mu, block):
        monkeypatch.setattr(discretize, "_KERNEL_BLOCK", block)
        for delta in (0.125, 0.05):
            assert_matches_oracle(mu, delta, 25.0)
        assert_matches_oracle(mu, 0.125, exact_multiple(mu, 0.125))

    def test_working_set_is_the_table_and_one_block(self):
        # 204,800 leaves: a 4 + 2 + n_x * 8-byte table row and (k + 1) * 8
        # bytes of entropies each; the blocks' temporaries stay under 2 MiB
        slack = 2 * 2**20
        tracemalloc.start()
        try:
            proto = build(MU_NO11, 2.0**-12, 25.0)
            build_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            exact_ic(proto)
            exact_ic_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_leaves = len(proto.leaf_prob)
        table = proto.leaf_slot.nbytes + proto.leaf_player.nbytes + proto.leaf_prob.nbytes
        entropies = n_leaves * (MU_NO11.k + 1) * 8
        assert build_peak <= table + slack
        assert exact_ic_peak <= table + entropies + slack
