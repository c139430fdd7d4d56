"""Buzzers protocol: start times, densities, exact information cost."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import icand.buzzers as buzzers
import icand.concavity as concavity
from icand.buzzers import (
    closed_form_uniform,
    cost_under,
    information_cost,
    start_times,
)
from icand.errors import MalformedInputError, TrivialInstanceError, ZeroEMassError
from icand.measures import (
    LN2,
    InputDistribution,
    _prior_entropies,
    binary_entropy,
    canonical_labels,
    entropy,
)
from icand.quadrature import integrate, integrate_segments
from kernel_oracle import (
    buzz_densities,
    conditional_entropies,
    entropy_densities,
    player_classes,
    zero_bounds,
)


@st.composite
def basis_measures(draw, k_min=2, k_max=4, with_ones=False):
    k = draw(st.integers(k_min, k_max))
    n = k + 2
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    v = np.array(raw)
    if not with_ones:
        v[-1] = 0.0
    v /= v.sum()
    return InputDistribution(k, dict(zip(canonical_labels(k), v)))


class TestStartTimes:
    def test_equal_masses(self):
        # a protocol is its array of start times, one per player
        times = start_times(InputDistribution.uniform_basis(3))
        assert isinstance(times, np.ndarray) and times.dtype == float
        assert times.tolist() == [0.0, 0.0, 0.0]

    def test_two_party_ratio(self):
        mu = InputDistribution.two_party(0.7, 0.2, 0.1, 0.0)
        # player 1 has the smaller basis mass (0.1 on label 10), so it leads
        assert start_times(mu).tolist() == [0.0, pytest.approx(math.log(2.0), abs=1e-15)]

    def test_three_party(self):
        mu = InputDistribution(
            3, {"000": 0.4, "100": 0.1, "010": 0.1, "001": 0.4}
        )
        assert start_times(mu).tolist() == [0.0, 0.0, pytest.approx(math.log(4.0))]

    def test_all_zero_masses(self):
        with pytest.raises(TrivialInstanceError):
            start_times(InputDistribution.two_party(1.0, 0.0, 0.0, 0.0))

    def test_partial_zero_masses(self):
        with pytest.raises(ZeroEMassError) as err:
            start_times(InputDistribution.two_party(0.5, 0.5, 0.0, 0.0))
        assert err.value.players == (1,)


def per_input_densities(mu, ts, times=None):
    """f_x(t, m) from the oracle's density builder (unit masses), under the
    measure's own protocol or the start times given."""
    bits = np.array([list(map(int, lab)) for lab in mu.labels])
    times = start_times(mu) if times is None else times
    return buzz_densities(times, (bits == 0).astype(float), np.zeros(len(bits)), ts)


def buzz_mass_per_input(mu):
    """sum_m int f_x(t, m) dt for every input, by quadrature up to 60 time
    units past the last start (the remaining tail is below e^-60)."""
    times = start_times(mu)
    ((vals, _),) = integrate_segments(
        zero_bounds(lambda ts: per_input_densities(mu, ts).sum(axis=1)),
        [[*times, max(times) + 60.0]],
        rtol=1e-12,
        atol=1e-13,
    )
    return vals


class TestDensity:
    def test_all_ones_atom(self):
        # all-ones never buzzes: its whole mass sits on the silent outcome
        mu = InputDistribution.two_party(0.25, 0.25, 0.25, 0.25)
        ones = mu.labels.index("11")
        dens = per_input_densities(mu, np.linspace(0, 5, 7))
        assert np.all(dens[:, :, ones] == 0.0)
        assert buzz_mass_per_input(mu)[ones] == 0.0

    def test_uniform_basis_pair(self):
        mu = InputDistribution.uniform_basis(2)
        ts = np.linspace(0.0, 10.0, 50)
        dens = per_input_densities(mu, ts)
        e1, e2 = (mu.labels.index(s) for s in ("10", "01"))
        np.testing.assert_allclose(dens[:, 1, e1], np.exp(-ts), atol=1e-14)
        # player 2 never buzzes on e_2 (its own bit is 1)
        assert np.all(dens[:, 1, e2] == 0.0)
        # the log masses enter as weights
        weighted = buzz_densities(
            np.zeros(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.log([0.5, 0.5]), ts
        )
        np.testing.assert_allclose(weighted[:, 1, 0], 0.5 * np.exp(-ts), atol=1e-14)

    def test_gated_before_start(self):
        mu = InputDistribution.two_party(0.25, 0.25, 0.25, 0.25)
        dens = per_input_densities(mu, np.array([0.5, 1.5]), np.array([0.0, 1.0]))
        assert np.all(dens[0, 1] == 0.0)
        zeros = mu.labels.index("00")
        assert dens[1, 1, zeros] == pytest.approx(math.exp(-2.0), abs=1e-15)

    @given(basis_measures(with_ones=True))
    @settings(max_examples=30, deadline=None)
    def test_normalization_per_input(self, mu):
        expected = [0.0 if "0" not in lab else 1.0 for lab in mu.labels]
        np.testing.assert_allclose(buzz_mass_per_input(mu), expected, atol=1e-10)

    def test_normalization_by_quadrature(self):
        mu = InputDistribution(3, {"000": 0.5, "100": 0.1, "010": 0.15, "001": 0.25})
        np.testing.assert_allclose(buzz_mass_per_input(mu)[:-1], 1.0, atol=1e-9)


class TestEntropyKernel:
    def test_matches_direct_sums(self):
        # -sum V ln(V / class sum), one transcript and one class at a time
        rng = np.random.default_rng(3)
        bits = np.array([list(map(int, lab)) for lab in canonical_labels(3)])
        V = rng.uniform(0.0, 1.0, size=(2, 3, len(bits)))
        V[0, 1, 2] = 0.0
        h = conditional_entropies(V, player_classes(bits))
        for t in range(2):
            want = np.zeros(4)
            for m in range(3):
                v = V[t, m]
                live = v > 0
                want[0] -= np.sum(v[live] * np.log(v[live] / v.sum()))
                for i in range(3):
                    for b in (0, 1):
                        sel = live & (bits[:, i] == b)
                        g = v[bits[:, i] == b].sum()
                        want[1 + i] -= np.sum(v[sel] * np.log(v[sel] / g))
            np.testing.assert_allclose(h[t], want, rtol=1e-13)

    def test_singleton_classes_contribute_exactly_zero(self):
        # a point posterior has no entropy, at any scale
        bits = np.array([[0, 1, 0], [1, 0, 0]])
        V = np.zeros((1, 2, 2))
        V[0, 0, 0] = 1e-200
        V[0, 1, 1] = 0.7
        h = conditional_entropies(V, player_classes(bits))
        assert np.all(h == 0.0)

    def test_tiny_densities_counted(self):
        # no 1e-15 cut: two equal tiny densities still carry ln 2 per unit mass
        bits = np.array([[0, 1], [1, 0]])
        V = np.full((1, 1, 2), 1e-17)
        h = conditional_entropies(V, player_classes(bits))[0]
        assert h[0] == pytest.approx(2e-17 * math.log(2), rel=1e-12)
        assert h[1] == 0.0 and h[2] == 0.0


    @pytest.mark.parametrize("k, rows", [(3, [60]), (24, [15] * 4), (100, [1] * 60)])
    def test_blocks_match_one_batch(self, monkeypatch, k, rows):
        # 60 abscissas, a quadrature split's batch, in equal blocks of at most
        # _KERNEL_BLOCK densities (k (k + 1) per abscissa) or of one abscissa;
        # the rows agree with one kernel call to rounding (the matrix
        # products may sum in another order)
        rng = np.random.default_rng(k)
        bits = np.array([list(map(int, lab)) for lab in canonical_labels(k)[: k + 1]])
        zeros = (bits == 0).astype(float)
        log_w = np.log(rng.dirichlet(np.ones(k + 1)))
        times = np.sort(rng.uniform(0.0, 2.0, k))
        ts = np.linspace(0.3, 2.5, 60)
        monkeypatch.setattr(buzzers, "_KERNEL_BLOCK", 10**9)
        whole = buzzers._entropy_densities(times, buzzers._layout(zeros), log_w, ts)
        monkeypatch.setattr(buzzers, "_KERNEL_BLOCK", 10_000)
        held = []
        plain = buzzers._class_entropies

        def counted(U, classes):
            held.append(len(U) // k)  # a row of U is one (abscissa, buzzer)
            return plain(U, classes)

        monkeypatch.setattr(buzzers, "_class_entropies", counted)
        blocked = buzzers._entropy_densities(times, buzzers._layout(zeros), log_w, ts)
        assert held == rows
        np.testing.assert_allclose(blocked, whole, rtol=1e-12, atol=0.0)

    def test_cost_takes_quadrature_batches_in_blocks(self, monkeypatch):
        # at k = 24 (600 densities per abscissa) the 21 abscissas of each of
        # the 23 finite stretches come in one call of 483, as 29 blocks: 28 of
        # 17 and the rest
        held = []
        plain = buzzers._class_entropies

        def counted(U, classes):
            held.append((len(U) // 24, U.shape[1]))
            return plain(U, classes)

        monkeypatch.setattr(buzzers, "_class_entropies", counted)
        rng = np.random.default_rng(24)
        mass = rng.dirichlet(np.ones(25))
        information_cost(InputDistribution(24, dict(zip(canonical_labels(24), mass))))
        assert held == [(17, 25)] * 28 + [(7, 25)]


def protocol_rows(mu, times=None):
    """(times, bits, log masses) of the live inputs of ``mu`` under its own
    protocol, or under the start times given."""
    live = mu.vector > 0.0
    bits = mu.bits[live]
    times = start_times(mu) if times is None else times
    return times, bits, np.log(mu.vector[live])


def kernel_gap(times, bits, log_w, ts):
    """Largest gap between the package kernel's densities and the oracle's,
    relative to the oracle's largest; also checks the round-off bounds."""
    got = buzzers._entropy_densities(times, buzzers._layout((bits == 0).astype(float)), log_w, ts)
    want = entropy_densities(times, bits, log_w, ts)
    n = want.shape[1]
    assert got.shape == (len(ts), 2 * n)
    assert np.all(got[:, n:] >= np.abs(got[:, :n]))
    assert np.all(np.abs(got[:, :n] - want) <= np.finfo(float).eps * got[:, n:])
    return float(np.max(np.abs(got[:, :n] - want)) / np.max(np.abs(want)))


class TestGatedKernel:
    """The package kernel, which gates the densities per block, against the
    V-tensor oracle in ``kernel_oracle``."""

    @pytest.mark.parametrize("k", [2, 3, 8, 24])
    def test_matches_oracle_on_protocol_densities(self, k):
        # a random basis measure's own protocol, with all-zeros mass, before,
        # across and after its start times
        rng = np.random.default_rng(100 + k)
        mu = InputDistribution(k, dict(zip(canonical_labels(k), rng.dirichlet(np.ones(k + 1)))))
        times, bits, log_w = protocol_rows(mu)
        ts = np.linspace(-0.5, times.max() + 3.0, 45)
        assert kernel_gap(times, bits, log_w, ts) <= 1e-13

    def test_matches_oracle_at_k100_one_abscissa_per_block(self, monkeypatch):
        rng = np.random.default_rng(7)
        mu = InputDistribution(100, dict(zip(canonical_labels(100), rng.dirichlet(np.ones(101)))))
        times, bits, log_w = protocol_rows(mu)
        held = []
        plain = buzzers._class_entropies

        def counted(U, classes):
            held.append(len(U) // 100)
            return plain(U, classes)

        monkeypatch.setattr(buzzers, "_class_entropies", counted)
        ts = np.linspace(0.0, times.max() + 1.0, 15)
        assert kernel_gap(times, bits, log_w, ts) <= 1e-13
        assert held == [1] * 15

    def test_zero_basis_mass_all_ones_row_and_subnormals(self):
        # cost_under keeps the all-ones row (it never buzzes) and a protocol
        # may be run on a measure with a zero basis mass; from t = 240 on the
        # densities run from normal through subnormal to zero
        mu = InputDistribution(3, {"000": 0.3, "010": 0.3, "001": 0.2, "111": 0.2})
        times, bits, log_w = protocol_rows(mu, times=np.array([0.0, 0.5, 1.25]))
        assert bits.tolist()[-1] == [1, 1, 1]
        ts = np.array([0.2, 0.9, 2.0, 240.0, 245.0, 360.0, 370.0, 800.0])
        assert kernel_gap(times, bits, log_w, ts) <= 1e-13
        v = np.exp(log_w - np.maximum(ts[:, None] - times, 0.0) @ (bits == 0).T)
        assert np.any((v > 0.0) & (v < np.finfo(float).tiny))

    def test_single_input_classes_give_exactly_zero(self):
        # every class of a buzz that one input can produce is a point
        # posterior, at any scale
        # columns: every input, x_1 == 0, x_2 == 0, for the inputs 01 and 10
        classes = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        U = np.array([[1e-200, 0.0], [0.0, 0.7]])
        h, M = buzzers._class_entropies(U, classes)
        assert np.all(h == 0.0)
        assert np.array_equal(M > 0.0, U @ classes > 0.0)

    def test_tiny_densities_counted(self):
        # no 1e-15 cut: two equal tiny densities still carry ln 2 per unit mass
        classes = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])  # inputs 10 and 01
        h, _ = buzzers._class_entropies(np.full((1, 2), 1e-17), classes)
        assert h[0, 0] == pytest.approx(2e-17 * math.log(2), rel=1e-12)
        assert h[0, 1] == 0.0 and h[0, 2] == 0.0

    def test_three_protocols_stacked_in_one_call(self):
        # the window integrand's call: one row of start times and log masses
        # per abscissa, each row as if costed alone
        c = concavity.CanonicalMeasure(k=5, s=3, beta=0.05)
        eps = 0.05
        mu = c.measure(eps)
        pert = concavity.perturb(mu, 3, eps)
        ts = np.linspace(pert.window[0] - 0.1, pert.window[1] + 2.0, 30)
        runs = [protocol_rows(m, t) for t, m in zip(pert.times, (mu, pert.mu0, pert.mu1))]
        rows = np.repeat(np.arange(3), len(ts))
        times = np.array([r[0] for r in runs])[rows]
        log_w = np.array([r[2] for r in runs])[rows]
        zeros = (runs[0][1] == 0).astype(float)
        got = buzzers._entropy_densities(times, buzzers._layout(zeros), log_w, np.tile(ts, 3))
        want = np.vstack([entropy_densities(t, b, w, ts) for t, b, w in runs])
        n = want.shape[1]
        assert float(np.max(np.abs(got[:, :n] - want))) <= 1e-13 * float(np.max(np.abs(want)))
        # the integrand is the same difference of the oracle's densities
        f = concavity._concavity_integrand(pert)(ts)
        base, h0, h1 = want.reshape(3, len(ts), n)
        np.testing.assert_allclose(f[:, :n], base - 0.5 * (h0 + h1), rtol=0.0,
                                   atol=1e-13 * float(np.max(np.abs(want))))


class TestClosedFormUniform:
    def test_values(self):
        assert closed_form_uniform(2) == (1.0, 0.0)
        ext3, int3 = closed_form_uniform(3)
        assert ext3 == pytest.approx(0.5849625007211562, abs=1e-15)
        assert int3 == pytest.approx(1.0, abs=1e-15)
        ext5, int5 = closed_form_uniform(5)
        assert ext5 == pytest.approx(0.3219280948873623, abs=1e-15)
        assert int5 == pytest.approx(3 * (2 - math.log2(3)), abs=1e-14)

    def test_rejects_small_k(self):
        with pytest.raises(MalformedInputError):
            closed_form_uniform(1)


class TestInformationCost:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
    def test_uniform_matches_closed_form(self, k):
        report = information_cost(InputDistribution.uniform_basis(k))
        ext, internal = closed_form_uniform(k)
        assert report.external_bits == pytest.approx(ext, abs=1e-6)
        assert report.internal_bits == pytest.approx(internal, abs=1e-6)
        assert report.quadrature_error_estimate < 1e-8

    def test_uniform_closed_form_at_k200(self):
        report = information_cost(InputDistribution.uniform_basis(200))
        ext, internal = closed_form_uniform(200)
        assert report.external_bits == pytest.approx(ext, abs=1e-11)
        assert report.internal_bits == pytest.approx(internal, abs=1e-11)
        gap = max(abs(report.external_bits - ext), abs(report.internal_bits - internal))
        assert report.quadrature_error_estimate >= gap

    def test_no11_regression(self):
        # frozen from this implementation; cross-checked against the
        # discrete-protocol oracle in the acceptance suite
        report = information_cost(InputDistribution.two_party(1 / 3, 1 / 3, 1 / 3, 0))
        assert report.internal_bits == pytest.approx(0.4808983469629877, abs=1e-9)
        assert report.external_bits == pytest.approx(0.7325275143508104, abs=1e-9)

    def test_point_mass_zero(self):
        report = information_cost(InputDistribution(3, {"000": 1.0}))
        assert report.external_bits == 0.0
        assert report.internal_bits == 0.0

    @given(basis_measures(with_ones=True))
    @settings(max_examples=20, deadline=None)
    def test_all_ones_scaling(self, mu):
        report = information_cost(mu)
        reduced, c = mu.without_all_ones()
        base = information_cost(reduced)
        assert report.external_bits == pytest.approx(
            (1 - c) * base.external_bits, abs=1e-8
        )
        assert report.internal_bits == pytest.approx(
            (1 - c) * base.internal_bits, abs=1e-8
        )

    def test_report_invariants(self):
        mu = InputDistribution(3, {"000": 0.3, "100": 0.2, "010": 0.2, "001": 0.3})
        report = information_cost(mu)
        assert report.external_bits >= -1e-9
        assert report.internal_bits >= -1e-9
        assert report.internal_bits == pytest.approx(
            sum(report.per_player_bits), abs=1e-12
        )
        assert report.concealed_external_bits == pytest.approx(
            entropy(mu.vector) - report.external_bits, abs=1e-12
        )
        # X_i is a function of X, so H(X | X_i) = H(X) - H(X_i)
        hxi = sum(entropy(mu.vector) - binary_entropy(mu.beta(i)) for i in (1, 2, 3))
        assert report.concealed_internal_bits == pytest.approx(
            hxi - report.internal_bits, abs=1e-12
        )

    def test_zero_mass_player_is_continuous_limit(self):
        # player 1's basis mass vanishes: it holds 0, starts first and buzzes
        # at once, so the cost tends to zero and zero mass reports that limit
        def measures(e):
            return (
                InputDistribution(3, {"000": 0.5, "100": e, "010": 0.2, "001": 0.3 - e}),
                InputDistribution.two_party(0.5, e, 0.5 - e, 0.0),
            )

        for mu, near in zip(measures(0.0), measures(1e-9)):
            at, by = information_cost(mu), information_cost(near)
            assert at.per_player_bits == (0.0,) * mu.k
            assert at.external_bits == 0.0
            assert at.concealed_external_bits == entropy(mu.vector)
            assert by.external_bits == pytest.approx(at.external_bits, abs=1e-6)
            assert by.internal_bits == pytest.approx(at.internal_bits, abs=1e-6)

    def test_interior_cost_continuous_toward_degenerate_boundary(self):
        values = []
        for eps in (1e-2, 1e-4, 1e-6):
            mu = InputDistribution.two_party((1 - eps) / 2, (1 - eps) / 2, eps, 0)
            values.append(information_cost(mu).internal_bits)
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-4


class TestCostUnder:
    def test_matches_information_cost_without_reductions(self):
        mu = InputDistribution(3, {"000": 0.25, "100": 0.25, "010": 0.25, "001": 0.25})
        a = cost_under(start_times(mu), mu)
        b = information_cost(mu)
        assert a.external_bits == pytest.approx(b.external_bits, abs=1e-11)
        assert a.internal_bits == pytest.approx(b.internal_bits, abs=1e-11)

    def test_shift_invariance(self):
        mu = InputDistribution.two_party(0.4, 0.3, 0.3, 0.0)
        times = start_times(mu)
        base = cost_under(times, mu)
        for offset in (-2.5, 1.0, 7.25):
            shifted = cost_under(times + offset, mu)
            assert shifted.external_bits == pytest.approx(
                base.external_bits, abs=1e-9
            )
            assert shifted.internal_bits == pytest.approx(
                base.internal_bits, abs=1e-9
            )

    def test_point_mass_under_any_protocol(self):
        mu = InputDistribution(2, {"01": 1.0})
        report = cost_under(np.array([0.0, 0.5]), mu)
        assert report.external_bits == pytest.approx(0.0, abs=1e-12)
        assert report.internal_bits == pytest.approx(0.0, abs=1e-12)

    def test_all_ones_atom_handled(self):
        mu = InputDistribution.two_party(0.5, 0.0, 0.0, 0.5)
        report = cost_under(np.zeros(2), mu)
        # the transcript (buzz vs eternal silence) reveals the input exactly
        assert report.external_bits == pytest.approx(1.0, abs=1e-10)

    def test_rejects_a_protocol_that_does_not_fit(self):
        mu = InputDistribution.uniform_basis(3)
        with pytest.raises(MalformedInputError, match="protocol and measure disagree on k"):
            cost_under(np.zeros(2), mu)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(MalformedInputError, match="start times must be finite"):
                cost_under(np.array([0.0, bad, 0.0]), mu)

    def test_own_protocol_with_all_ones_mass(self):
        # information_cost is (1 - c) times the cost of mu' = mu without
        # all-ones; the protocol's own cost on mu also counts what its silence
        # reveals: cost_under(start_times(mu), mu)
        #   = P(mu) - (1 - c) P(mu') + information_cost(mu),
        # P the prior entropy H(X) (external) or sum_i H(X|X_i) (internal)
        rng = np.random.default_rng(9)
        for j in range(30):
            k = (2, 3, 4, 6)[j % 4]
            mu = InputDistribution._from_vector(k, rng.dirichlet(np.ones(k + 2)))
            reduced, c = mu.without_all_ones()
            assert c > 0.0
            own, scaled = cost_under(start_times(mu), mu), information_cost(mu)
            prior = _prior_entropies(mu.bits, mu.vector) / LN2
            prior_r = _prior_entropies(reduced.bits, reduced.vector) / LN2
            ext = prior[0] - (1.0 - c) * prior_r[0] + scaled.external_bits
            internal = prior[1:].sum() - (1.0 - c) * prior_r[1:].sum() + scaled.internal_bits
            bound = own.quadrature_error_estimate + scaled.quadrature_error_estimate
            assert abs(own.external_bits - ext) <= bound, j
            assert abs(own.internal_bits - internal) <= bound, j

    def test_measure_continuity_bound(self):
        # fixed protocol, nearby measures: cost moves at most
        # 2 log2(cube) delta + 2 H(2 delta)
        rng = np.random.default_rng(5)
        for _ in range(20):
            k = int(rng.integers(2, 4))
            labels = canonical_labels(k)
            w = rng.dirichlet(np.ones(len(labels)))
            mu = InputDistribution(k, dict(zip(labels, w)))
            other = rng.dirichlet(np.ones(len(labels)))
            mix = 0.1 * rng.uniform()
            nu = InputDistribution(k, dict(zip(labels, (1 - mix) * w + mix * other)))
            delta = mu.statistical_distance(nu)
            times = start_times(mu)
            gap = abs(
                cost_under(times, mu).internal_bits
                - cost_under(times, nu).internal_bits
            )
            bound = 2 * k * delta + 2 * binary_entropy(min(2 * delta, 1.0))
            assert gap <= bound


# ---------------------------------------------------------------------------
# the last stretch in closed form: 30-digit references computed from the
# transcript densities, and the graded quadrature it replaced
# ---------------------------------------------------------------------------

REFERENCE_MEASURES = [
    (2, {"00": 1 / 3, "01": 1 / 3, "10": 1 / 3}),
    (2, {"00": 0.2, "01": 0.5, "10": 0.3}),
    (2, {"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25}),
    (3, {"000": 0.25, "100": 0.2, "010": 0.25, "001": 0.3}),
    (4, {"0000": 0.2, "1000": 0.2, "0100": 0.2, "0010": 0.15, "0001": 0.25}),
    # staggered start times and all-ones mass
    (3, {"000": 0.2, "100": 0.1, "010": 0.25, "001": 0.15, "111": 0.3}),
    # e-masses far below the all-zeros mass: s = 1 - 1e-6 on the tail, and
    # a start time 13.8 after the first
    (2, {"00": 1 - 2e-6, "01": 1e-6, "10": 1e-6}),
    (2, {"00": 1 - 1e-6 - 1e-12, "01": 1e-6, "10": 1e-12}),
    # k = 3, where the series itself sums s near 1 (1 - 1e-7 and 1 - 2e-7)
    (3, {"000": 1 - 3.5e-7, "100": 1e-7, "010": 2e-7, "001": 5e-8}),
]


def mp_costs(mu, times):
    """(external, internal) bits of the buzzers protocol with start times
    ``times`` on ``mu``, by ``mpmath.quad`` at 30 digits.

    The joint density of input x and buzz (t, m) is
    ``m_x exp(-sum_{i: x_i = 0} max(t - t_i, 0))`` for ``x_m = 0, t >= t_m``;
    the silent outcome is a point posterior and contributes nothing.  Each
    cost is a prior entropy minus the integral of a conditional-entropy
    density, taken class by class.
    """
    with mp.workdps(30):
        inputs = [
            (tuple(map(int, lab)), mp.mpf(m)) for lab, m in zip(mu.labels, mu.vector) if m > 0
        ]
        ts = [mp.mpf(t) for t in times]
        k = len(ts)
        external = [lambda x: 0]
        internal = [lambda x, i=i: x[i] for i in range(k)]

        def phi(x, t):
            return sum(max(t - ti, 0) for ti, b in zip(ts, x) if b == 0)

        def split(masses, keys):
            # sum over class functions of sum_classes [xlogx(sum) - sum xlogx]
            total = mp.mpf(0)
            for key in keys:
                classes = {}
                for x, v in masses:
                    classes.setdefault(key(x), []).append(v)
                for vs in classes.values():
                    total += sum(vs) * mp.log(sum(vs)) - sum(v * mp.log(v) for v in vs)
            return total

        def conditional(keys):
            def density(t):
                total = mp.mpf(0)
                for m in range(k):
                    if t < ts[m]:
                        continue
                    masses = [(x, w * mp.exp(-phi(x, t))) for x, w in inputs if x[m] == 0]
                    total += split(masses, keys)
                return total

            return mp.quad(density, sorted(set(ts)) + [mp.inf])

        costs = [split(inputs, keys) - conditional(keys) for keys in (external, internal)]
        return tuple(float(c / mp.log(2)) for c in costs)


def mp_information_cost(mu):
    """The reference for ``information_cost``: all-ones conditioned away and
    the cost scaled by the remaining mass."""
    reduced, c = mu.without_all_ones()
    times = start_times(reduced)
    return tuple((1 - c) * v for v in mp_costs(reduced, times))


class TestGradedTail:
    @pytest.mark.parametrize("k, mass", REFERENCE_MEASURES)
    def test_matches_mpmath(self, k, mass):
        mu = InputDistribution(k, mass)
        report = information_cost(mu)
        ext, internal = mp_information_cost(mu)
        gap = max(abs(report.external_bits - ext), abs(report.internal_bits - internal))
        assert gap <= 1e-14
        assert report.quadrature_error_estimate >= gap

    def test_estimate_carries_every_panels_roundoff(self):
        # the finite stretch's entropy densities are tiny parts of their
        # terms, so the kernel's round-off dominates panels that the
        # tolerances accept; their coarse/fine disagreement alone read
        # 3.0e-17 bits against a gap of 2.7e-17
        mu = InputDistribution(2, {"00": 1 - 1e-6 - 1e-12, "01": 1e-6, "10": 1e-12})
        report = information_cost(mu)
        ext, internal = mp_information_cost(mu)
        gap = max(abs(report.external_bits - ext), abs(report.internal_bits - internal))
        assert gap > 0.0
        assert report.quadrature_error_estimate >= 2.0 * gap

    def test_silent_atom_matches_mpmath(self):
        # cost_under keeps the all-ones input, whose silence reveals it
        mu = InputDistribution.two_party(0.25, 0.25, 0.25, 0.25)
        times = np.zeros(2)
        report = cost_under(times, mu)
        ext, internal = mp_costs(mu, times)
        gap = max(abs(report.external_bits - ext), abs(report.internal_bits - internal))
        assert gap <= 1e-14
        assert report.quadrature_error_estimate >= gap

    def test_zero_e_mass_under_a_given_protocol_matches_mpmath(self):
        # e_1 has no mass, so player 1 buzzes on every input that buzzes
        for mass, times in (
            ({"00": 0.5, "01": 0.5}, (0.0, 0.7)),
            ({"000": 0.3, "010": 0.3, "001": 0.4}, (0.0, 0.5, 1.25)),
        ):
            mu = InputDistribution(len(times), mass)
            report = cost_under(np.array(times), mu)
            ext, internal = mp_costs(mu, times)
            gap = max(abs(report.external_bits - ext), abs(report.internal_bits - internal))
            assert gap <= 1e-14
            assert report.quadrature_error_estimate >= gap

    def test_abscissa_count(self, monkeypatch):
        # the no-11 measure's start times coincide: one stretch, costed in
        # closed form without abscissas; only finite stretches integrate
        count = [0]

        def counting(f, *args, **kwargs):
            def counted(ts):
                count[0] += len(ts)
                return f(ts)

            return integrate(counted, *args, **kwargs)

        monkeypatch.setattr(buzzers, "integrate", counting)
        information_cost(InputDistribution.two_party(1 / 3, 1 / 3, 1 / 3, 0.0))
        assert count[0] == 0
        information_cost(InputDistribution.two_party(0.2, 0.5, 0.3, 0.0))
        assert count[0] > 0

    def test_finite_stretches_share_integrand_calls(self, monkeypatch):
        # every finite stretch in one quadrature pass: each round of the pass
        # is one integrand call for all stretches
        calls = []
        plain = buzzers._entropy_densities

        def counted(*args):
            calls.append(len(args[-1]))
            return plain(*args)

        monkeypatch.setattr(buzzers, "_entropy_densities", counted)
        rng = np.random.default_rng(24)
        mu = InputDistribution(24, dict(zip(canonical_labels(24), rng.dirichlet(np.ones(25)))))
        information_cost(mu)
        stretches = len(set(start_times(mu))) - 1
        assert stretches == 23
        assert 0 < len(calls) < stretches
        assert calls[0] == 21 * stretches

    @pytest.mark.parametrize("k", [2, 3, 32])
    def test_uniform_makes_no_integrand_call(self, monkeypatch, k):
        def forbidden(*args):
            raise AssertionError("integrand called")

        monkeypatch.setattr(buzzers, "_entropy_densities", forbidden)
        monkeypatch.setattr(buzzers, "integrate", forbidden)
        information_cost(InputDistribution.uniform_basis(k))

    @pytest.mark.parametrize("k", [8, 16, 32, 64, 96, 100, 400, 1000])
    def test_error_estimate_bounds_uniform_gap(self, k):
        # k = 200 is checked in test_uniform_closed_form_at_k200
        report = information_cost(InputDistribution.uniform_basis(k))
        ext, internal = closed_form_uniform(k)
        gap = max(abs(report.external_bits - ext), abs(report.internal_bits - internal))
        assert report.quadrature_error_estimate >= gap

    @pytest.mark.parametrize("k", [8, 16, 24])
    def test_matches_the_graded_quadrature(self, k):
        rng = np.random.default_rng(k)
        mu = InputDistribution(k, dict(zip(canonical_labels(k), rng.dirichlet(np.ones(k + 1)))))
        report = information_cost(mu)
        ext, internal, error = graded_tail_cost(mu)
        gap = max(abs(report.external_bits - ext), abs(report.internal_bits - internal))
        assert gap <= report.quadrature_error_estimate + error


def graded_tail_cost(mu, rtol=1e-10, atol=1e-12):
    """(external, internal, error estimate) in bits of the buzzers protocol
    on ``mu`` (no all-ones mass), with the last stretch integrated by graded
    Gauss-Legendre quadrature: a path to the cost independent of the closed
    form in ``buzzers._tail``.

    ``u = exp(-(t - t_last)) = v^g`` maps it onto (0, 1].  Past ``t_last`` an
    input with z zero bits has density proportional to ``u^z``, so where
    inputs with different zero counts share a buzz the integrand carries a
    ``u^(z1-1) ln u`` term, z1 the second-smallest positive zero count.
    ``g = ceil(8 / z1)`` makes it ``g^2 v^(g z1 - 1) ln v``, smooth enough for
    Gauss-Legendre panels; with one positive count the logarithms cancel and
    g = 1.
    """
    times = start_times(mu)
    live = mu.vector > 0
    bits = np.array([list(map(int, lab)) for lab in mu.labels])[live]
    zeros, classes, log_w = (bits == 0).astype(float), player_classes(bits), np.log(mu.vector[live])
    counts = np.unique(zeros.sum(axis=1))
    counts = counts[counts > 0]
    g = 1 if len(counts) < 2 else -(-8 // int(counts[1]))

    def segment(ts):
        return conditional_entropies(buzz_densities(times, zeros, log_w, ts), classes)

    def tail(vs):
        # t = t_last - g ln v and dt = g dv / v, the Jacobian in the weights
        ln_v = np.log(vs)
        log_wv = log_w + np.log(g) - ln_v[:, None]
        return conditional_entropies(buzz_densities(times, zeros, log_wv, times.max() - g * ln_v), classes)

    ((total, err),) = integrate_segments(zero_bounds(segment), [times], rtol=rtol, atol=atol)
    (vals,), (e,) = integrate(zero_bounds(tail), np.array([0.0]), np.array([1.0]), rtol=rtol, atol=atol)
    prior = _prior_entropies(bits, mu.vector[live])
    cost = (prior - total - vals) / LN2
    roundoff = 32.0 * np.finfo(float).eps * prior.sum()
    return cost[0], cost[1:].sum(), ((err + e).sum() + roundoff) / LN2


def mp_symmetric_line(k, a):
    """((external, internal), (their a-derivatives)) in bits for mass ``a``
    on all-zeros and ``(1 - a) / k`` on each e_i, by ``mpmath.quad`` at 30
    digits of the one-stretch integral
    ``L(g) = int_0^1 u^(k-2) (g + a u) ln(g + a u) du`` and its derivative
    ``int_0^1 u^(k-2) (u - kappa)(1 + ln(g + a u)) du``, g = kappa (1 - a)."""
    with mp.workdps(30):
        a = mp.mpf(a)

        def line(kappa):
            g = kappa * (1 - a)
            value = mp.quad(lambda u: u ** (k - 2) * (g + a * u) * mp.log(g + a * u), [0, 1])
            slope = mp.quad(lambda u: u ** (k - 2) * (u - kappa) * (1 + mp.log(g + a * u)), [0, 1])
            return value, slope

        (Lc, dLc), (Ld, dLd) = line(mp.mpf(k - 1) / k), line(mp.mpf(k - 2) / k)
        top = a + (k - 1) * (1 - a) / k
        ext = -a / k - k * Lc
        internal = k * (top * mp.log(top) - a / k - Lc - (k - 1) * Ld)
        d_ext = -mp.mpf(1) / k - k * dLc
        d_int = mp.log(top) - k * dLc - k * (k - 1) * dLd
        bits = [float(v / mp.log(2)) for v in (ext, internal, d_ext, d_int)]
        return tuple(bits[:2]), tuple(bits[2:])


def symmetric_measure(k, a):
    return InputDistribution(k, dict(zip(canonical_labels(k), [a] + [(1 - a) / k] * k)))


class TestSymmetricLine:
    @pytest.mark.parametrize("k", [2, 3, 4, 10, 50, 128, 1000])
    def test_matches_mpmath(self, k):
        for a in (1e-9, 0.2, 0.3653, 0.5, 0.999):
            values, slopes, error = buzzers._symmetric_line(k, a)
            ref_values, ref_slopes = mp_symmetric_line(k, a)
            gap = max(abs(v - r) for v, r in zip(values, ref_values))
            assert gap <= 1e-14, (k, a)
            assert gap <= error, (k, a)
            assert slopes == pytest.approx(ref_slopes, rel=1e-10), (k, a)

    @pytest.mark.parametrize("k", [2, 3, 5, 8, 10, 16, 32, 128])
    def test_matches_quadrature_within_both_estimates(self, k):
        # information_cost sums the same integral class by class
        for a in (0.0, 0.15, 0.3653, 0.7, 0.98):
            report = information_cost(symmetric_measure(k, a))
            values, _, error = buzzers._symmetric_line(k, a)
            quadrature = (report.external_bits, report.internal_bits)
            gap = max(abs(v - q) for v, q in zip(values, quadrature))
            assert gap <= error + report.quadrature_error_estimate, (k, a)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_uniform_end_is_the_closed_form(self, k):
        values, _, error = buzzers._symmetric_line(k, 0.0)
        gap = max(abs(v - c) for v, c in zip(values, closed_form_uniform(k)))
        assert gap <= error

    def test_two_party_internal_slope_is_infinite_at_the_uniform_end(self):
        (_, internal), (_, slope), _ = buzzers._symmetric_line(2, 0.0)
        assert internal == 0.0
        assert slope == math.inf

    def test_costs_vanish_at_the_all_zeros_end(self):
        for k in (2, 3, 10, 1000):
            values, _, error = buzzers._symmetric_line(k, 1.0)
            assert max(map(abs, values)) <= error


def mp_ell(k, s):
    """``int_0^1 u^(k-2) (1 - s + s u) ln(1 - s + s u) du`` by ``mpmath.quad``
    at 30 digits, split where ``u^(k-2)`` rises at large k."""
    with mp.workdps(30):
        s = mp.mpf(s)
        points = [0, 1 - mp.mpf(10) / k, 1 - mp.mpf(1) / k, 1] if k > 10 else [0, 1]
        return mp.quad(lambda u: u ** (k - 2) * (1 - s + s * u) * mp.log(1 - s + s * u), points)


class TestLineSeries:
    @pytest.mark.parametrize("k", [2, 3, 4, 12, 1000])
    def test_matches_mpmath(self, k):
        # s near 1 takes the k = 2 closed form, and 2^17 terms at k >= 3
        for s in (0.0, 1e-9, 0.3, 0.9, 0.95, 1 - 1e-6, 1 - 1e-12, 1.0):
            ell, error, _, _ = buzzers._line_series(k, s)
            gap = abs(float(ell - mp_ell(k, s)))
            assert gap <= 1e-15, (k, s)
            assert gap <= error, (k, s)
