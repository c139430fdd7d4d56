"""Cost maximization over support faces."""

import dataclasses
import json

import numpy as np
import pytest
from test_buzzers import mp_symmetric_line

from icand import cli, optimize
from icand.buzzers import _symmetric_line, closed_form_uniform, information_cost
from icand.errors import MalformedInputError, ToleranceError
from icand.measures import InputDistribution, canonical_labels
from icand.optimize import SupportPattern, maximize_external, maximize_internal


class TestSupportPattern:
    def test_parse(self):
        pattern = SupportPattern.parse(2, "11")
        assert len(pattern.free_labels) == 3
        assert pattern.free_labels == ("00", "10", "01")

    def test_rejects_foreign_label(self):
        with pytest.raises(MalformedInputError):
            SupportPattern.parse(3, "110")

    def test_rejects_empty_face(self):
        with pytest.raises(MalformedInputError):
            SupportPattern.parse(2, "00,01,10,11")


class TestMaximize:
    def test_single_point_support(self):
        pattern = SupportPattern.parse(2, "01,10,11")
        result = maximize_internal(pattern, budget=50)
        assert result.value_bits == pytest.approx(0.0, abs=1e-12)
        assert result.status == "converged"

    def test_two_party_basis_face_is_flat_zero(self):
        # on {e_1, e_2} either bit determines the input: internal cost 0
        pattern = SupportPattern.parse(2, "00,11")
        result = maximize_internal(pattern, budget=300, grid_step=0.1)
        assert result.value_bits == pytest.approx(0.0, abs=1e-9)

    def test_basis_face_three_party_max_at_uniform(self):
        pattern = SupportPattern.parse(3, "000,111")
        result = maximize_internal(pattern, budget=1200, grid_step=0.1)
        _, internal_uniform = closed_form_uniform(3)
        assert result.value_bits == pytest.approx(internal_uniform, abs=1e-5)
        for i in (1, 2, 3):
            assert result.argmax.e_mass(i) == pytest.approx(1 / 3, abs=1e-3)

    def test_quick_disjointness_run(self):
        pattern = SupportPattern.parse(2, "11")
        result = maximize_internal(pattern, budget=900, grid_step=0.05)
        assert result.value_bits == pytest.approx(0.4827, abs=5e-4)
        assert result.argmax.mass("01") == pytest.approx(
            result.argmax.mass("10"), abs=1e-3
        )

    def test_deterministic(self):
        pattern = SupportPattern.parse(2, "11")
        a = maximize_internal(pattern, budget=400, grid_step=0.1)
        b = maximize_internal(pattern, budget=400, grid_step=0.1)
        assert a.value_bits == b.value_bits
        assert a.argmax == b.argmax
        assert a.trace == b.trace

    def test_value_stable_under_tighter_quadrature(self):
        pattern = SupportPattern.parse(2, "11")
        result = maximize_internal(pattern, budget=400, grid_step=0.1)
        tight = information_cost(result.argmax, rtol=1e-12, atol=1e-14)
        assert abs(tight.internal_bits - result.value_bits) < 1e-7

    def test_external_on_basis_face_at_least_closed_form(self):
        pattern = SupportPattern.parse(3, "000,111")
        result = maximize_external(pattern, budget=900, grid_step=0.1)
        ext_uniform, _ = closed_form_uniform(3)
        assert result.value_bits >= ext_uniform - 1e-9

    def test_external_two_party_regression(self):
        # no published reference; locked at first computation (achieved by
        # the uniform basis measure, where the transcript reveals the input)
        pattern = SupportPattern.parse(2, "11")
        result = maximize_external(pattern, budget=900, grid_step=0.05)
        assert result.value_bits == pytest.approx(1.0, abs=1e-6)

    def test_trace_monotone(self):
        pattern = SupportPattern.parse(2, "11")
        result = maximize_internal(pattern, budget=400, grid_step=0.1)
        values = [v for _, v in result.trace]
        assert all(b >= a for a, b in zip(values, values[1:]))
        counts = [n for n, _ in result.trace]
        assert all(b > a for a, b in zip(counts, counts[1:]))


class TestSymmetricLine:
    def test_disjointness_argmax_is_exactly_symmetric(self):
        result = maximize_internal(SupportPattern.parse(2, "11"))
        assert result.argmax.mass("01") == result.argmax.mass("10")
        assert result.evaluations <= 100
        assert result.status == "local_max"
        assert 0.0 < result.value_error_bits < 1e-9

    @pytest.mark.parametrize("factor", [1.0 + 1e-15, 1.0 - 1e-15])
    def test_last_bits_of_the_cost_do_not_move_the_argmax(self, monkeypatch, factor):
        pattern = SupportPattern.parse(2, "11")
        plain = maximize_internal(pattern)

        def scaled(mu, **tols):
            report = information_cost(mu, **tols)
            return dataclasses.replace(
                report,
                internal_bits=report.internal_bits * factor,
                external_bits=report.external_bits * factor,
            )

        monkeypatch.setattr(optimize, "information_cost", scaled)
        moved = maximize_internal(pattern)
        assert moved.argmax.vector.tobytes() == plain.argmax.vector.tobytes()
        assert moved.evaluations == plain.evaluations
        assert moved.status == plain.status

    def test_asymmetric_bump_fails_the_check(self, monkeypatch):
        def bumped(mu, **tols):
            report = information_cost(mu, **tols)
            bump = 10.0 * (mu.mass("01") - mu.mass("10")) ** 2
            return dataclasses.replace(report, internal_bits=report.internal_bits + bump)

        monkeypatch.setattr(optimize, "information_cost", bumped)
        result = maximize_internal(SupportPattern.parse(2, "11"))
        assert result.status == "not_local_max"

    def test_budget_below_the_checks_is_rejected_before_any_cost(self, monkeypatch):
        def never(mu, **tols):
            raise AssertionError("a cost was evaluated")

        monkeypatch.setattr(optimize, "information_cost", never)
        for budget in (-5, 0, 2):
            with pytest.raises(MalformedInputError):
                maximize_internal(SupportPattern.parse(2, "11"), budget=budget)

    def test_small_budget_reports_exhaustion(self):
        for budget in (3, 4, 12):
            result = maximize_internal(SupportPattern.parse(2, "11"), budget=budget)
            assert result.evaluations <= budget
            assert result.status == "budget_exhausted"
            assert not result.value_error_bits < 1e-9

    def test_single_point_line_with_an_infinite_slope(self):
        # no all-zeros mass: a = 0 alone, where the k=2 internal slope is +inf
        result = maximize_internal(SupportPattern.parse(2, "00,11"))
        assert result.argmax.mass("01") == 0.5
        assert 0.0 <= result.value_error_bits < 1e-12


class TestDerivativeSearch:
    def test_disjointness_value_is_the_line_integral(self, monkeypatch):
        calls = []

        def counted(mu, **tols):
            calls.append(mu)
            return information_cost(mu, **tols)

        monkeypatch.setattr(optimize, "information_cost", counted)
        result = maximize_internal(SupportPattern.parse(2, "11"))
        (_, reference), _ = mp_symmetric_line(2, result.argmax.mass("00"))
        assert abs(result.value_bits - reference) <= 1e-14
        # the maximum, 0.482701848170372017 at a = 0.365319405102450853
        assert abs(result.value_bits - 0.48270184817037) <= result.value_error_bits
        assert result.argmax.mass("01") == result.argmax.mass("10")
        assert result.status == "local_max"
        assert len(calls) <= 2
        # 51 lattice points, 15 halvings of a 0.02 bracket to 1e-6, two checks
        assert result.evaluations == 68

    def test_bisection_stops_at_adjacent_floats(self, capsys):
        def run(tol):
            assert cli.main(["maximize", "--zero", "11", "--tol", tol]) == 0
            return json.loads(capsys.readouterr().out)

        fine, finest = run("1e-15"), run("1e-300")
        # 51 lattice points, two checks, and no more halvings than the 49
        # that bring the 0.02 bracket down to adjacent floats
        assert finest["evaluations"] <= 110
        assert finest["status"] == fine["status"] == "local_max"
        # a few more halvings inside the 1e-15 bracket move the argmax by
        # ulps at most, and the value within its error
        a, b = (r["argmax"]["mass"]["00"] for r in (fine, finest))
        assert abs(a - b) <= 1e-15
        assert abs(fine["value_bits"] - finest["value_bits"]) <= fine["value_error_bits"]
        assert run("1e-6")["evaluations"] == 68

    @pytest.mark.parametrize(
        "k, maximize",
        [(2, maximize_external)]
        + [(k, f) for k in (3, 4, 8, 16, 32, 64, 128) for f in (maximize_internal, maximize_external)],
    )
    def test_end_point_maxima_are_exact(self, k, maximize):
        result = maximize(SupportPattern.parse(k, "1" * k))
        assert result.argmax.mass("0" * k) == 0.0
        assert result.status == "local_max"
        assert result.value_error_bits <= 1e-12
        ext, internal = closed_form_uniform(k)
        expected = internal if maximize is maximize_internal else ext
        assert result.value_bits == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_both_objectives_are_concave_with_the_returned_slopes(self, k):
        grid = np.linspace(0.0, 1.0, 50)
        points = [_symmetric_line(k, float(a)) for a in grid]
        error = max(p[2] for p in points)
        for pick in (0, 1):
            v = np.array([p[0][pick] for p in points])
            slope = np.array([p[1][pick] for p in points])
            secant = np.diff(v) / np.diff(grid)
            assert np.all(v[:-2] + v[2:] - 2.0 * v[1:-1] <= 4.0 * error)
            assert np.all(np.diff(slope) < 0.0)
            # a concave function's secant lies between its end slopes
            assert np.all(slope[1:] <= secant + 1e-9)
            assert np.all(secant <= slope[:-1] + 1e-9)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_random_face_points_do_not_beat_the_symmetric_maximum(self, k):
        face = SupportPattern.parse(k, "1" * k)
        best = [maximize_external(face), maximize_internal(face)]
        labels = canonical_labels(k)[:-1]
        rng = np.random.default_rng(k)
        for _ in range(200):
            mu = InputDistribution(k, dict(zip(labels, rng.dirichlet(np.ones(k + 1)))))
            report = information_cost(mu)
            for cost, top in zip((report.external_bits, report.internal_bits), best):
                assert cost <= top.value_bits + top.value_error_bits + report.quadrature_error_estimate

    def test_quadrature_off_by_twice_its_estimate_fails_the_cross_check(self, monkeypatch, capsys):
        def offset(mu, **tols):
            report = information_cost(mu, **tols)
            shift = 2.0 * report.quadrature_error_estimate
            return dataclasses.replace(
                report,
                internal_bits=report.internal_bits + shift,
                external_bits=report.external_bits + shift,
            )

        monkeypatch.setattr(optimize, "information_cost", offset)
        for k, maximize in ((2, maximize_internal), (3, maximize_external)):
            with pytest.raises(ToleranceError):
                maximize(SupportPattern.parse(k, "1" * k))
        assert cli.main(["maximize", "--zero", "11"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["type"] == "ToleranceError"
