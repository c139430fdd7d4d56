"""Window deficits, cubic laws, and the outside-window structure."""

import itertools
import math
from dataclasses import dataclass, replace

import mpmath
import numpy as np
import pytest

from icand import buzzers, concavity
from icand.buzzers import information_cost
from icand.concavity import (
    CanonicalMeasure,
    check_same_average,
    concavity_report,
    outside_window_checks,
    perturb,
    taylor_coefficients,
    verify_grid,
    window_deficits,
    window_of,
)
from icand.errors import (
    AssumptionViolationError,
    InvalidDistributionError,
    MalformedInputError,
    ToleranceError,
)
from icand.measures import InputDistribution, binary_entropy, canonical_labels, entropy
from icand.quadrature import integrate, integrate_segments
from kernel_oracle import buzz_densities, entropy_densities
from merge_oracle import merge_tail_players

LN2 = math.log(2.0)


def canonical_gamma_pair(k, s, beta, eps):
    """In-test oracle for the implicit window edges: solves the fixed point
    for either sign of eps (the family extends smoothly through zero)."""
    g = 0.0
    for _ in range(300):
        bs = math.exp(g) * beta
        g_new = math.log((1 + eps * bs) / (1 - eps * (1 - bs)))
        if abs(g_new - g) < 1e-16:
            g = g_new
            break
        g = g_new
    bs = math.exp(g) * beta
    g1 = math.log((1 + eps * (1 - bs)) / (1 - eps * bs))
    return g, g1


@dataclass(frozen=True)
class WindowDensityForms:
    """Literal piecewise-exponential mixture densities on the window.

    These are the explicit case tables for the canonical family (base and
    both tilted protocols), an in-test oracle for the package's density
    builder, which must agree pointwise to 1e-12.
    """

    k: int
    s: int
    beta: float
    eps: float
    gamma0: float
    gamma1: float

    def _common(self):
        ebeta = math.exp(self.gamma0) * self.beta
        zeta = 1.0 - ebeta
        return ebeta, zeta

    def base(self, m: int, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        k, s, beta = self.k, self.s, self.beta
        ebeta, _ = self._common()
        out = np.zeros_like(t)
        neg = (t >= -self.gamma0) & (t < 0.0)
        pos = (t >= 0.0) & (t <= self.gamma1)
        if m <= s - 1:
            a = (s - 1) * (t[neg] + self.gamma0)
            out[neg] = (1 - (s - 1) * beta + (s - 2) * ebeta * np.exp(t[neg])) * np.exp(-a)
        b = k * t[pos] + (s - 1) * self.gamma0
        out[pos] = (
            1 - (s - 1) * beta - (k - s + 1) * ebeta + (k - 1) * ebeta * np.exp(t[pos])
        ) * np.exp(-b)
        return out

    def tilted0(self, m: int, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        k, s, beta = self.k, self.s, self.beta
        ebeta, zeta = self._common()
        out = np.zeros_like(t)
        neg = (t >= -self.gamma0) & (t < 0.0)
        pos = (t >= 0.0) & (t <= self.gamma1)
        if m <= s:
            a = (s - 1) * (t[neg] + self.gamma0)
            out[neg] = (
                (1 - self.eps * zeta)
                * ((1 - ebeta - (s - 1) * beta) * np.exp(-t[neg]) + (s - 1) * ebeta)
                * np.exp(-a)
            )
        out[pos] = (1 - self.eps * zeta) * self.base(m, t[pos])
        return out

    def tilted1(self, m: int, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        k, s, beta = self.k, self.s, self.beta
        ebeta, zeta = self._common()
        out = np.zeros_like(t)
        if m == self.s:
            return out
        neg = (t >= -self.gamma0) & (t < 0.0)
        pos = (t >= 0.0) & (t <= self.gamma1)
        damp = 1 - self.eps * ebeta
        if m <= s - 1:
            a = (s - 1) * (t[neg] + self.gamma0)
            out[neg] = (
                1
                + ebeta * damp * ((s - 2) * np.exp(t[neg]) - (s - 1) * math.exp(-self.gamma0))
            ) * np.exp(-a)
        b = k * t[pos] + (s - 1) * self.gamma0
        out[pos] = (
            1
            + ebeta
            * damp
            * ((k - 2) * np.exp(t[pos]) - (s - 1) * math.exp(-self.gamma0) - k + s)
        ) * np.exp(t[pos]) * np.exp(-b)
        return out


def canonical_window_forms(canonical: CanonicalMeasure, eps: float) -> WindowDensityForms:
    return WindowDensityForms(
        k=canonical.k,
        s=canonical.s,
        beta=canonical.beta,
        eps=eps,
        gamma0=-window_of(canonical.beta_s(eps), eps)[0],
        gamma1=window_of(canonical.beta_s(eps), eps)[1],
    )


def random_measures(seed, count=6, k_max=6):
    """Seeded Dirichlet measures on all-zeros and the e_i, k = 2..k_max."""
    rng = np.random.default_rng(seed)
    for k in range(2, k_max + 1):
        labels = canonical_labels(k)[: k + 1]
        for _ in range(count):
            yield InputDistribution(k, dict(zip(labels, rng.dirichlet(np.ones(k + 1)))))


def per_label_tilts(mu, s, eps):
    """The tilted measures (mu0, mu1), built label by label."""
    beta_s = mu.beta(s)
    zeta_s = 1.0 - beta_s
    out = []
    for plus_on_zero in (True, False):
        mass = {}
        for lab, m in zip(mu.labels, mu.vector):
            if m <= 0.0:
                continue
            if lab[s - 1] == "0":
                factor = 1.0 + eps * beta_s if plus_on_zero else 1.0 - eps * beta_s
            else:
                factor = 1.0 - eps * zeta_s if plus_on_zero else 1.0 + eps * zeta_s
            mass[lab] = m * factor
        out.append(InputDistribution(mu.k, mass))
    return out


def per_label_same_average(pert):
    """Worst residual of the window-mass identity, one input at a time."""

    def window_probability(times, label, lo, hi):
        zeros = np.array([c == "0" for c in label], dtype=float)
        tt = np.asarray(times)

        def survival(t):
            return float(np.exp(-np.maximum(t - tt, 0.0) @ zeros))

        return survival(lo) - survival(hi)

    lo, hi = pert.window
    worst = 0.0
    for lab, m, m0, m1 in zip(
        pert.mu.labels, pert.mu.vector, pert.mu0.vector, pert.mu1.vector
    ):
        lhs = m * window_probability(pert.times[0], lab, lo, hi)
        rhs = 0.5 * (
            m0 * window_probability(pert.times[1], lab, lo, hi)
            + m1 * window_probability(pert.times[2], lab, lo, hi)
        )
        worst = max(worst, abs(lhs - rhs))
    return worst


def with_scaled_mu0(pert, factor):
    """The perturbation with mu0's masses scaled, unnormalised, by ``factor``."""
    scaled = InputDistribution._checked(pert.mu.k, pert.mu0.vector * factor)
    return replace(pert, mu0=scaled)


class TestGammas:
    def test_direct_formula(self):
        # ln(1.025 / 0.925) for beta_s = 0.25, eps = 0.1
        assert -window_of(0.25, 0.1)[0] == pytest.approx(
            math.log(1.025 / 0.925), abs=1e-15
        )
        assert -window_of(0.25, 0.1)[0] == pytest.approx(0.10265415406008316, abs=1e-14)

    def test_zero_eps(self):
        assert -window_of(0.3, 0.0)[0] == 0.0
        assert window_of(0.3, 0.0)[1] == 0.0

    def test_out_of_range(self):
        with pytest.raises(MalformedInputError):
            window_of(0.25, 1.5)

    def test_fixed_point_consistency(self):
        c = CanonicalMeasure(k=3, s=2, beta=0.1)
        eps = 0.05
        g0 = math.log(c.beta_s(eps) / c.beta)
        mu = c.measure(eps)
        assert mu.e_mass(2) / mu.e_mass(1) == pytest.approx(math.exp(g0), rel=1e-12)
        assert g0 == pytest.approx(-window_of(mu.beta(2), eps)[0], abs=1e-14)

    @pytest.mark.parametrize("k, beta, eps", [(2, 0.318, 2.5e-3), (2, 0.2, 0.2), (3, 0.1, 0.9)])
    def test_fixed_point_that_cycles_between_floats(self, k, beta, eps):
        # inputs where iterating g -> -window_of(exp(g) beta, eps)[0] alternates
        # between two floats; the root is the fixed point to round-off.
        # gamma0 is a log of a ratio near one, so its round-off is a few
        # ulps of one (times max(1, g)) however small g is
        beta_s = CanonicalMeasure(k=k, s=1, beta=beta).beta_s(eps)
        g = -window_of(beta_s, eps)[0]
        gap = abs(math.log(beta_s / beta) - g)
        assert gap <= 4.0 * np.finfo(float).eps * max(1.0, g)

    @pytest.mark.parametrize("beta", [0.1, 0.25])
    def test_derivatives_by_central_differences(self, beta):
        # the implicit family's derivatives at eps = 0:
        # g0'(0) = 1, g0''(0) = 1 - 2 beta, g1''(0) = 2 beta - 1
        h = 1e-3
        g0 = {}
        g1 = {}
        for n in (-2, -1, 0, 1, 2):
            g0[n], g1[n] = canonical_gamma_pair(2, 1, beta, n * h)
        d1 = (g0[1] - g0[-1]) / (2 * h)
        d2 = (g0[1] - 2 * g0[0] + g0[-1]) / h**2
        d2_1 = (g1[1] - 2 * g1[0] + g1[-1]) / h**2
        assert d1 == pytest.approx(1.0, abs=1e-4)
        assert d2 == pytest.approx(1.0 - 2 * beta, abs=1e-4)
        assert d2_1 == pytest.approx(2 * beta - 1.0, abs=1e-4)

    def test_root_within_ulps_of_40_digit_root(self):
        # seeded beta log-uniform on [1e-14, 0.4999], eps uniform on [0, 1)
        # or within 10^-U(0, 12) of 1, plus the edges.  The denominator
        # c + sqrt(c^2 + 4 eps beta) carries about two roundings, which the
        # division passes on scaled by the mantissa of the result (up to 2)
        # and adds half an ulp; the worst seen is 2.45 ulps over 30,000
        # points, 2.33 on these
        rng = np.random.default_rng(0)
        n = 4000
        betas = [1e-14, 0.4999, *np.exp(rng.uniform(math.log(1e-14), math.log(0.4999), n)).tolist()]
        near_one = 1.0 - 10.0 ** rng.uniform(-12.0, 0.0, n)
        epss = [0.0, 1.0 - 1e-12, *np.where(rng.uniform(size=n) < 0.5, rng.uniform(size=n), near_one).tolist()]
        worst = 0.0
        with mpmath.workdps(40):
            for beta, eps in [*itertools.product(betas[:2], epss[:2]), *zip(betas, epss)]:
                got = CanonicalMeasure(k=2, s=1, beta=beta).beta_s(eps)
                b, e = mpmath.mpf(beta), mpmath.mpf(eps)
                c = (1 - e) - e * b
                exact = 2 * b / (c + mpmath.sqrt(c * c + 4 * e * b))
                worst = max(worst, float(abs(got - exact)) / math.ulp(float(exact)))
        assert worst <= 3.0

    def test_library_gamma_matches_oracle(self):
        c = CanonicalMeasure(k=4, s=3, beta=0.05)
        for eps in (1e-2, 5e-3):
            g0o, g1o = canonical_gamma_pair(4, 3, 0.05, eps)
            assert math.log(c.beta_s(eps) / 0.05) == pytest.approx(g0o, abs=1e-15)
            assert window_of(c.beta_s(eps), eps)[1] == pytest.approx(g1o, abs=1e-15)


class TestCanonicalMeasure:
    def test_rejects_beta_at_boundary(self):
        with pytest.raises(InvalidDistributionError):
            CanonicalMeasure(k=5, s=1, beta=0.2)
        with pytest.raises(InvalidDistributionError):
            CanonicalMeasure(k=2, s=1, beta=0.5)

    def test_measure_shape(self):
        c = CanonicalMeasure(k=4, s=3, beta=0.07)
        mu = c.measure(0.01)
        assert mu.e_mass(1) == pytest.approx(0.07)
        assert mu.e_mass(2) == pytest.approx(0.07)
        assert mu.e_mass(3) == mu.e_mass(4)
        assert mu.e_mass(3) > 0.07
        assert mu.mass_ones == 0.0


class TestPerturbation:
    def test_zero_eps_is_identity(self):
        mu = InputDistribution.two_party(0.4, 0.3, 0.3, 0.0)
        pert = perturb(mu, 1, 0.0)
        assert pert.mu0.statistical_distance(mu) < 1e-14
        assert pert.mu1.statistical_distance(mu) < 1e-14
        assert pert.window == (0.0, 0.0)

    def test_average_recovers_measure(self):
        mu = InputDistribution(3, {"000": 0.4, "100": 0.15, "010": 0.15, "001": 0.3})
        pert = perturb(mu, 2, 0.07)
        avg = 0.5 * (pert.mu0.vector + pert.mu1.vector)
        np.testing.assert_allclose(avg, mu.vector, atol=1e-12)

    def test_shifted_start_times(self):
        # one read-only (3, k) array: the base protocol and the two tilts,
        # which differ only in the sender's column, 0, -gamma0 and gamma1
        measures = [CanonicalMeasure(k=3, s=2, beta=0.1).measure(0.02), staggered_instance(),
                    *random_measures(seed=5, count=3)]
        for mu in measures:
            for s in range(1, mu.k + 1):
                pert = perturb(mu, s, 0.02)
                times = pert.times
                assert times.shape == (3, mu.k) and not times.flags.writeable
                with pytest.raises(ValueError):
                    times[0, 0] = 1.0
                others = np.arange(mu.k) != s - 1
                assert np.array_equal(times[1:, others], times[[0, 0]][:, others])
                window = window_of(mu.beta(s), 0.02)
                assert times[:, s - 1].tolist() == [0.0, *window]
                assert pert.window == window
                assert pert == perturb(mu, s, 0.02) and hash(pert) == hash(perturb(mu, s, 0.02))

    def test_all_ones_mass_is_refused(self):
        # the one check a cell makes for window deficits and outside checks
        mu = InputDistribution(3, {"000": 0.4, "100": 0.15, "010": 0.15, "001": 0.2, "111": 0.1})
        with pytest.raises(AssumptionViolationError, match="no all-ones mass"):
            perturb(mu, 2, 0.05)

    def test_eps_out_of_range(self):
        mu = InputDistribution.two_party(0.4, 0.3, 0.3, 0.0)
        with pytest.raises(MalformedInputError):
            perturb(mu, 1, 1.2)

    @pytest.mark.parametrize("eps", [0.2, 0.01])
    def test_tilts_match_per_label_loop(self, eps):
        for mu in random_measures(seed=11, count=3):
            for s in range(1, mu.k + 1):
                pert = perturb(mu, s, eps)
                mu0, mu1 = per_label_tilts(mu, s, eps)
                assert pert.mu0.vector.tobytes() == mu0.vector.tobytes()
                assert pert.mu1.vector.tobytes() == mu1.vector.tobytes()


def mixtures(times, mu, ts):
    """f(t, m) = sum_x V[t, m, x] from the oracle's density builder, under
    the start times ``times``."""
    bits = np.array([[int(c) for c in lab] for lab in mu.labels])
    with np.errstate(divide="ignore"):
        log_w = np.log(mu.vector)
    return buzz_densities(times, (bits == 0).astype(float), log_w, ts).sum(axis=2)


class TestPerturbedDensities:
    @pytest.mark.parametrize("k,s,beta", [(3, 2, 0.1), (4, 2, 0.08), (5, 5, 0.05)])
    def test_case_tables_match_generic(self, k, s, beta):
        eps = 0.01
        c = CanonicalMeasure(k=k, s=s, beta=beta)
        mu = c.measure(eps)
        pert = perturb(mu, s, eps)
        forms = canonical_window_forms(c, eps)
        ts = np.linspace(pert.window[0] + 1e-9, pert.window[1] - 1e-9, 1000)
        base = mixtures(pert.times[0], mu, ts)
        f0 = mixtures(pert.times[1], pert.mu0, ts)
        f1 = mixtures(pert.times[2], pert.mu1, ts)
        for m in range(1, k + 1):
            np.testing.assert_allclose(f0[:, m - 1], forms.tilted0(m, ts), atol=1e-12)
            np.testing.assert_allclose(f1[:, m - 1], forms.tilted1(m, ts), atol=1e-12)
            np.testing.assert_allclose(base[:, m - 1], forms.base(m, ts), atol=1e-12)

    def test_sender_silent_under_opposite_tilt(self):
        # the tilted-up sender never buzzes inside the window
        c = CanonicalMeasure(k=3, s=2, beta=0.1)
        eps = 0.02
        forms = canonical_window_forms(c, eps)
        ts = np.linspace(-forms.gamma0 + 1e-9, forms.gamma1 - 1e-9, 100)
        assert np.all(forms.tilted1(2, ts) == 0.0)
        pert = perturb(c.measure(eps), 2, eps)
        assert np.all(mixtures(pert.times[2], pert.mu1, ts)[:, 1] == 0.0)

    def test_zero_eps_all_equal(self):
        c = CanonicalMeasure(k=3, s=1, beta=0.12)
        mu = c.measure(0.0)
        pert = perturb(mu, 1, 0.0)
        ts = np.linspace(0.0, 3.0, 50)
        base = mixtures(pert.times[0], mu, ts)
        np.testing.assert_allclose(mixtures(pert.times[1], pert.mu0, ts), base, atol=1e-14)
        np.testing.assert_allclose(mixtures(pert.times[2], pert.mu1, ts), base, atol=1e-14)


class TestDeficits:
    def test_zero_eps_zero_deficit(self):
        c = CanonicalMeasure(k=3, s=2, beta=0.1)
        report = concavity_report(c, 0.0, with_outside=False)
        assert report.ext_deficit == 0.0
        assert report.int_deficit == 0.0

    def test_cubic_law_external(self):
        # ratio within 5% of (k+5s-6)(1-2b)b / (12(1-b) ln 2)
        c = CanonicalMeasure(k=2, s=1, beta=0.25)
        coeff = taylor_coefficients(2, 1, 0.25)[0]
        assert coeff == pytest.approx(0.0200365, abs=1e-6)
        eps = 1e-2
        deficit = concavity_report(c, eps, with_outside=False).ext_deficit
        assert deficit / eps**3 == pytest.approx(coeff, rel=0.05)

    def test_cubic_law_internal_k3(self):
        c = CanonicalMeasure(k=3, s=2, beta=0.1)
        coeff = taylor_coefficients(3, 2, 0.1)[1]
        eps = 5e-3
        deficit = concavity_report(c, eps, with_outside=False).int_deficit
        assert deficit / eps**3 == pytest.approx(coeff, rel=0.05)

    def test_internal_equals_external_for_two_players(self):
        c = CanonicalMeasure(k=2, s=2, beta=0.2)
        eps = 5e-3
        report = concavity_report(c, eps, with_outside=False)
        assert report.int_deficit == pytest.approx(report.ext_deficit, rel=1e-9)

    def test_same_average_checked(self):
        c = CanonicalMeasure(k=4, s=2, beta=0.05)
        eps = 0.01
        pert = perturb(c.measure(eps), 2, eps)
        assert check_same_average(pert) <= 1e-11

    @pytest.mark.parametrize("eps", [0.2, 0.05, 0.01])
    def test_same_average_matches_per_label_loop(self, eps, monkeypatch):
        for mu in random_measures(seed=5):
            for s in range(1, mu.k + 1):
                pert = perturb(mu, s, eps)
                assert check_same_average(pert) == pytest.approx(
                    per_label_same_average(pert), abs=1e-16
                )
                # a violated identity: both give the same, much larger residual
                broken = with_scaled_mu0(pert, 1.0 + 1e-6)
                with monkeypatch.context() as m:
                    m.setattr(concavity, "_SAME_AVERAGE_TOL", 1.0)
                    assert check_same_average(broken) == pytest.approx(
                        per_label_same_average(broken), rel=1e-6
                    )

    def test_scaled_tilt_is_caught(self):
        # mu0 scaled by 1 + 1e-9 breaks the identity by about 1e-9 times the
        # largest tilted window mass, far above the 1e-11 tolerance
        mu = InputDistribution(3, {"000": 0.4, "100": 0.15, "010": 0.15, "001": 0.3})
        pert = perturb(mu, 2, 0.2)
        assert check_same_average(pert) <= 1e-15
        with pytest.raises(ToleranceError, match="window-mass average identity"):
            check_same_average(with_scaled_mu0(pert, 1.0 + 1e-9))

    def test_richardson_residual_order(self):
        # residual of deficit/eps^3 should roughly halve per eps halving
        c = CanonicalMeasure(k=3, s=1, beta=0.1)
        coeff = taylor_coefficients(3, 1, 0.1)[0]
        residuals = [
            abs(concavity_report(c, eps, with_outside=False).ext_deficit / eps**3 - coeff)
            for eps in (1e-2, 5e-3, 2.5e-3, 1.25e-3)
        ]
        for a, b in zip(residuals, residuals[1:]):
            assert 0.3 <= b / a <= 0.7

    def test_deficits_nonnegative_on_small_grid(self):
        for row in verify_grid([2, 3], [0.05, 0.1], [5e-3]):
            assert row.feasible
            assert row.report.ext_deficit >= -1e-12
            assert row.report.int_deficit >= -1e-12

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_deficits_nonnegative_near_flat_measures(self, k):
        # the large-beta edge of the family (complements the acceptance
        # grid, which stops at beta = 0.2)
        beta = min(0.3, 0.9 / k)
        for row in verify_grid([k], [beta], [1e-2, 5e-3, 2.5e-3]):
            assert row.feasible
            assert row.report.ext_deficit >= -1e-12
            assert row.report.int_deficit >= -1e-12


class TestTaylorCoefficient:
    def test_values(self):
        # (3+5-6)(0.6)(0.2) / (12 * 0.8 * ln 2)
        assert taylor_coefficients(3, 1, 0.2)[0] == pytest.approx(
            2 * 0.6 * 0.2 / (12 * 0.8 * LN2), rel=1e-12
        )
        assert taylor_coefficients(3, 1, 0.2)[0] == pytest.approx(0.0360674, abs=1e-6)

    def test_vanishes_with_beta(self):
        assert taylor_coefficients(4, 2, 1e-9)[0] < 1e-8

    def test_one_minus_two_beta_factor(self):
        assert taylor_coefficients(2, 1, 0.499999)[0] == pytest.approx(
            0.0, abs=1e-4
        )

    def test_internal_case_split(self):
        assert taylor_coefficients(2, 2, 0.2)[1] == taylor_coefficients(2, 2, 0.2)[0]
        k, s, b = 4, 2, 0.1
        poly = (3 * k - 2) * b**2 - 4 * (k - 1) * b + (k - 1)
        expected = (k + 5 * s - 6) * poly * b / (12 * (1 - b) * (1 - 2 * b) * LN2)
        assert taylor_coefficients(k, s, b)[1] == pytest.approx(expected, rel=1e-12)

    def test_rejects_bad_beta(self):
        with pytest.raises(InvalidDistributionError):
            taylor_coefficients(3, 1, 0.4)


def staggered_instance(gap=1.0, m=0.18):
    """k=3 with the two sender-block masses above one laggard: L = gap."""
    lag = m * math.exp(-gap)
    return InputDistribution(
        3, {"000": 1 - lag - 2 * m, "100": lag, "010": m, "001": m}
    )


class TestOutsideWindow:
    def test_right_tail_vanishes(self):
        mu = staggered_instance()
        checks = outside_window_checks(perturb(mu, 2, 0.05))
        assert abs(checks.right_value) <= 1e-12
        assert checks.right_ok

    def test_left_and_quadratic_bound(self):
        mu = staggered_instance(gap=1.0)
        eps = 0.05
        checks = outside_window_checks(perturb(mu, 2, eps))
        assert checks.left_ok
        assert checks.eps2_skip_reason is None
        expected_bound = (
            (1 - math.exp(-0.5)) * mu.mass_zeros * mu.e_mass(2) / 2.0 * eps**2
        )
        assert checks.eps2_bound == pytest.approx(expected_bound, rel=1e-12)
        assert checks.eps2_gap_value >= checks.eps2_bound - 1e-10
        assert checks.eps2_ok

    def test_shifted_integrand_fails_both_sign_checks(self, monkeypatch):
        mu = staggered_instance(gap=1.0)
        pert = perturb(mu, 2, 0.05)
        base = outside_window_checks(pert)
        assert base.left_ok and base.right_ok
        # the left check integrates from the earliest start to the window
        shift = 2.0 * base.left_value / (pert.window[0] - pert.times[0].min())
        plain = concavity._concavity_integrand

        def shifted(pert):
            f = plain(pert)
            return lambda ts: f(ts) - shift

        monkeypatch.setattr(concavity, "_concavity_integrand", shifted)
        checks = outside_window_checks(perturb(mu, 2, 0.05))
        assert not checks.left_ok
        assert not checks.right_ok

    def test_skipped_for_first_sender(self):
        c = CanonicalMeasure(k=3, s=1, beta=0.1)
        eps = 0.01
        checks = outside_window_checks(
            perturb(c.measure(eps), 1, eps)
        )
        assert checks.eps2_ok is None
        assert "no earlier start" in checks.eps2_skip_reason

    def test_skipped_when_window_spans_gap(self):
        mu = staggered_instance(gap=0.02)
        checks = outside_window_checks(perturb(mu, 2, 0.05))
        assert checks.eps2_ok is None
        assert "exceeds half the gap" in checks.eps2_skip_reason


def counted_integrands(monkeypatch):
    """Abscissas per call of every cell integrand built from now on."""
    calls = []
    plain = concavity._concavity_integrand

    def counted(pert):
        f = plain(pert)

        def g(ts):
            calls.append(len(ts))
            return f(ts)

        return g

    monkeypatch.setattr(concavity, "_concavity_integrand", counted)
    return calls


class TestOnePassPerCell:
    def test_canonical_cell_makes_one_integrand_call(self, monkeypatch):
        # the two window segments and the right stretch, one panel each
        calls = counted_integrands(monkeypatch)
        c = CanonicalMeasure(k=8, s=3, beta=0.05)
        pert = perturb(c.measure(0.005), 3, 0.005)
        outside_window_checks(pert)
        window_deficits(pert)
        assert calls == [63]
        assert list(pert.integrals()) == ["window", "right"]

    def test_window_alone_without_outside(self, monkeypatch):
        # the two window segments only; a later outside check takes its own
        # pass, with window values equal to the first pass's
        calls = counted_integrands(monkeypatch)
        c = CanonicalMeasure(k=8, s=3, beta=0.05)
        pert = perturb(c.measure(0.005), 3, 0.005)
        deficits = window_deficits(pert)
        assert calls == [42] and list(pert.integrals(outside=False)) == ["window"]
        vals, err = pert.integrals(outside=False)["window"]
        outside_window_checks(pert)
        assert calls == [42, 63] and list(pert.integrals()) == ["window", "right"]
        assert pert.integrals()["window"][0].tobytes() == vals.tobytes()
        assert pert.integrals()["window"][1].tobytes() == err.tobytes()
        assert window_deficits(pert) == deficits and calls == [42, 63]

    def test_grid_without_outside_integrates_windows_only(self, monkeypatch):
        calls = counted_integrands(monkeypatch)
        rows = verify_grid([2, 3], [0.05], [1e-2], with_outside=False)
        assert len(calls) == sum(r.feasible for r in rows) == 5
        assert set(calls) == {42}

    def test_grid_with_outside_integrates_each_cell_once(self, monkeypatch):
        # the outside checks run first; the window deficits read their pass
        calls = counted_integrands(monkeypatch)
        rows = verify_grid([2, 3], [0.05], [1e-2], with_outside=True)
        assert len(calls) == sum(r.feasible for r in rows) == 5
        assert set(calls) == {63}

    def test_left_part_and_gap_join_the_pass(self, monkeypatch):
        calls = counted_integrands(monkeypatch)
        pert = perturb(staggered_instance(gap=1.0), 2, 0.05)
        checks = outside_window_checks(pert)
        window_deficits(pert)
        assert calls == [84]
        parts = pert.integrals()
        assert list(parts) == ["window", "right", "left", "gap"]
        assert checks.left_value == float(parts["left"][0][0])
        assert checks.eps2_gap_value == float(parts["gap"][0][0])
        # the left part stops at the gap and adds its sums: bit for bit the
        # left part integrated to the window, with the gap segment again
        (lo, hi), (start, _, _) = pert.window, pert.gap
        starts = set(pert.times.ravel().tolist())
        spans = [(lo, hi), (hi, hi + concavity._RIGHT_WIDTH), (pert.times[0].min(), lo), (start, lo)]
        groups = [[a, b, *(t for t in starts if a < t < b)] for a, b in spans]
        sums = integrate_segments(concavity._concavity_integrand(pert), groups,
                                  rtol=concavity._RTOL, atol=concavity._ATOL)
        assert calls == [84, 105]
        for name, (vals, err) in zip(parts, sums):
            assert parts[name][0].tobytes() == (0.0 + vals / LN2).tobytes(), name
            assert parts[name][1].tobytes() == (0.0 + err / LN2).tobytes(), name

    def test_window_mass_identity_is_checked_before_any_integral(self, monkeypatch):
        calls = counted_integrands(monkeypatch)
        pert = perturb(staggered_instance(gap=1.0), 2, 0.05)
        monkeypatch.setattr(concavity, "_SAME_AVERAGE_TOL", -1.0)
        with pytest.raises(ToleranceError):
            check_same_average(pert)
        with pytest.raises(ToleranceError):
            window_deficits(pert)
        assert calls == []


def concealed_bits(mu):
    """Concealed information in bits, prior entropy minus the buzzers cost,
    as [external, player 1, ..., player k], and the cost's error estimate."""
    ic = information_cost(mu)
    h = entropy(mu.vector)
    prior = np.array([h] + [h - binary_entropy(mu.beta(i)) for i in range(1, mu.k + 1)])
    return prior - np.array([ic.external_bits, *ic.per_player_bits]), ic.quadrature_error_estimate


def three_cost_gaps(pert):
    """Per component ([external, internal, player 1, ..., player k]) the gap
    between the cell's window + left + right integrals and
    Conc(mu) - (Conc(mu0) + Conc(mu1)) / 2 from three costs, and the error
    allowed: the window's quadrature error plus the cost estimates, weighted
    1/2 on each tilt."""
    parts = pert.integrals()
    whole = sum(parts[name][0] for name in ("window", "left", "right") if name in parts)
    (c, e), (c0, e0), (c1, e1) = (concealed_bits(m) for m in (pert.mu, pert.mu0, pert.mu1))
    three = c - 0.5 * (c0 + c1)
    gaps = np.abs(np.insert(whole - three, 1, whole[1:].sum() - three[1:].sum()))
    return gaps, window_deficits(pert).quadrature_error + e + 0.5 * (e0 + e1)


def identity_cells(group):
    """The cells of one group: the bench grid's corners, the two eps = 0.999
    cells, every sender of 49 seeded measures with k <= 8, or one seeded
    measure each at k = 16 and 32."""
    rng = np.random.default_rng(24)
    if group == "corners":
        for k in (2, 8):
            for s, beta, eps in itertools.product((1, k), (0.01, 0.1), (1e-2, 1.25e-3)):
                yield perturb(CanonicalMeasure(k=k, s=s, beta=beta).measure(eps), s, eps)
    elif group == "eps 0.999":
        for s in (1, 2):
            yield perturb(CanonicalMeasure(k=2, s=s, beta=0.01).measure(0.999), s, 0.999)
    elif group == "random":
        for mu in random_measures(seed=24, count=7, k_max=8):
            eps = float(rng.choice([0.2, 0.05, 0.01]))
            for s in range(1, mu.k + 1):
                yield perturb(mu, s, eps)
    else:
        for k in (16, 32):
            labels = canonical_labels(k)[: k + 1]
            mu = InputDistribution(k, dict(zip(labels, rng.dirichlet(np.ones(k + 1)))))
            yield perturb(mu, k // 2, 0.05)


class TestThreeCostIdentity:
    """A cell's window, left and right integrals sum to its whole deficit,
    the concealed information of the measure minus the average of its
    tilts', which three ``information_cost`` calls give independently."""

    @pytest.mark.parametrize("group", ["corners", "eps 0.999", "random", "wide"])
    def test_window_left_right_equal_three_costs(self, group):
        cells = 0
        for pert in identity_cells(group):
            gaps, tol = three_cost_gaps(pert)
            assert np.all(gaps <= tol), (pert.mu, pert.sender, pert.eps, gaps.max(), tol)
            cells += 1
        assert cells == {"corners": 16, "eps 0.999": 2, "random": 245, "wide": 2}[group]

    def test_window_integrand_keeps_the_inputs_a_cost_keeps(self, monkeypatch):
        # an all-zeros mass of 5e-16 is at most ZERO_MASS: the costs drop
        # that input, and so must the window integrand
        mu = InputDistribution(3, {"000": 5e-16, "100": 0.2, "010": 0.3, "001": 0.5 - 5e-16})
        rows = {}
        for module in (buzzers, concavity):
            def recorded(times, layout, log_w, ts, plain=module._entropy_densities, name=module):
                rows.setdefault(name, layout[0].tolist())
                return plain(times, layout, log_w, ts)

            monkeypatch.setattr(module, "_entropy_densities", recorded)
        information_cost(mu)
        window_deficits(perturb(mu, 2, 0.05))
        assert rows[concavity] == rows[buzzers] == [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]


class TestMergeInvariance:
    def test_external_window_deficit_unchanged(self):
        mu = InputDistribution(
            4, {"0000": 0.4, "1000": 0.05, "0100": 0.1, "0010": 0.1, "0001": 0.35}
        )
        eps = 4e-3
        merged = merge_tail_players(mu, 3)
        a = window_deficits(perturb(mu, 2, eps))
        b = window_deficits(perturb(merged, 2, eps))
        assert abs(a.external - b.external) <= 1e-11

    def test_merged_measure_shape(self):
        mu = InputDistribution(
            4, {"0000": 0.4, "1000": 0.05, "0100": 0.1, "0010": 0.1, "0001": 0.35}
        )
        merged = merge_tail_players(mu, 3)
        assert merged.k == 3
        assert merged.mass_zeros == pytest.approx(0.75)
        assert merged.e_mass(2) == pytest.approx(0.1)


class TestGridRunner:
    def test_infeasible_combinations_reported(self):
        rows = verify_grid([5], [0.2], [1e-2], senders=[1, 2])
        assert all(not r.feasible for r in rows)
        assert all("beta" in r.skip_reason or "infeasible" in r.skip_reason for r in rows)

    def test_report_fields(self):
        c = CanonicalMeasure(k=2, s=1, beta=0.1)
        report = concavity_report(c, 1e-2)
        pert = perturb(c.measure(1e-2), 1, 1e-2)
        assert pert.window[0] < 0 < pert.window[1]
        assert report.residual_ext == pytest.approx(
            report.ext_deficit - report.taylor_ext, abs=1e-15
        )
        assert report.outside.right_ok

    def test_grid_perturbs_once_per_cell(self, monkeypatch):
        # the window deficits and the outside checks share the cell's
        # perturbation and its one integrand; each is called once per cell
        calls = dict.fromkeys(
            ["perturb", "_concavity_integrand", "window_deficits", "outside_window_checks"], 0
        )
        for name in calls:
            plain = getattr(concavity, name)

            def counted(*args, plain=plain, name=name, **kwargs):
                calls[name] += 1
                return plain(*args, **kwargs)

            monkeypatch.setattr(concavity, name, counted)
        rows = verify_grid([2, 3], [0.05, 0.4], [1e-2, 0.2], with_outside=True)
        feasible = sum(r.feasible for r in rows)
        assert 0 < feasible < len(rows)
        assert calls == dict.fromkeys(calls, feasible)


class TestRoundoffFloor:
    """The right tail of k=8, s=3, beta=0.05, eps=0.005 vanishes up to
    round-off: its first panel's K21 and G10 sums differ by round-off (about
    1e-16, near the 1e-15 budget), which only the round-off floor can accept
    for certain."""

    @staticmethod
    def cell():
        c = CanonicalMeasure(k=8, s=3, beta=0.05)
        eps = 0.005
        pert = perturb(c.measure(eps), 3, eps)
        lo = pert.window[1]
        return pert, concavity._concavity_integrand(pert), lo, lo + concavity._RIGHT_WIDTH

    @staticmethod
    def oracle_integrand(pert, f):
        # the V-tensor kernel's defect, with the package's round-off bounds
        live = pert.mu.vector > 0.0
        bits = pert.mu.bits[live]
        runs = [(t, np.log(m.vector[live])) for t, m in zip(pert.times, (pert.mu, pert.mu0, pert.mu1))]

        def g(ts):
            base, h0, h1 = (entropy_densities(t, bits, w, ts) for t, w in runs)
            return np.hstack([base - 0.5 * (h0 + h1), f(ts)[:, base.shape[1]:]])

        return g

    @pytest.mark.parametrize("kernel", ["package", "oracle"])
    def test_right_tail_accepted_without_splitting(self, kernel):
        pert, f, lo, hi = self.cell()
        g = f if kernel == "package" else self.oracle_integrand(pert, f)
        calls = []

        def counted(ts):
            calls.append(len(ts))
            return g(ts)

        vals, err = integrate(counted, np.array([lo]), np.array([hi]),
                              rtol=concavity._RTOL, atol=concavity._ATOL)
        assert calls == [21]
        assert abs(vals[0, 0]) / LN2 <= 1e-12

    def test_cell_passes_its_outside_checks(self):
        c = CanonicalMeasure(k=8, s=3, beta=0.05)
        report = concavity_report(c, 0.005)
        assert report.outside.right_ok and report.outside.left_ok
        assert abs(report.outside.right_value) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_noise_of_a_few_ulps_on_the_right_tail(self, monkeypatch, seed):
        # 4 ulps of the terms the defect is a difference of, at every abscissa;
        # the terms are the round-off bounds over the kernel's factor
        # (n_x + k + 3) / 2 = 10 at k = 8 (9 live inputs)
        rng = np.random.default_rng(seed)
        plain = concavity._concavity_integrand
        eps = np.finfo(float).eps

        def noisy(pert):
            f = plain(pert)

            def g(ts):
                out = f(ts)
                n = out.shape[1] // 2
                terms = out[:, n:] / 10.0
                out[:, :n] += 4.0 * eps * terms * rng.uniform(-1.0, 1.0, terms.shape)
                return out

            return g

        monkeypatch.setattr(concavity, "_concavity_integrand", noisy)
        c = CanonicalMeasure(k=8, s=3, beta=0.05)
        checks = outside_window_checks(
            perturb(c.measure(0.005), 3, 0.005)
        )
        assert abs(checks.right_value) <= 1e-12 and checks.right_ok
