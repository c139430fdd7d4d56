"""Command-line interface: subcommands, formats, exit codes, determinism."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from icand import cli, concavity, measures, optimize, signals
from icand.buzzers import cost_under
from icand.cli import main
from icand.measures import InputDistribution, binary_entropy
from test_buzzers import mp_information_cost


@pytest.fixture
def uniform_pair_file(tmp_path):
    path = tmp_path / "uniform_e.json"
    path.write_text('{"k": 2, "mass": {"01": 0.5, "10": 0.5}}')
    return str(path)


@pytest.fixture
def no11_file(tmp_path):
    path = tmp_path / "no11.json"
    path.write_text(
        json.dumps(
            {"k": 2, "mass": {"00": 1 / 3, "01": 1 / 3, "10": 1 / 3}}
        )
    )
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIC:
    def test_uniform_pair(self, capsys, uniform_pair_file):
        code, out, _ = run(capsys, "ic", "--measure", uniform_pair_file)
        assert code == 0
        report = json.loads(out)
        assert report["external_bits"] == pytest.approx(1.0, abs=1e-9)
        assert report["internal_bits"] == pytest.approx(0.0, abs=1e-9)

    def test_tight_tolerances_stop_at_the_roundoff_floor(self, capsys, tmp_path):
        # at rtol 1e-13 the finite stretch [0, ln 1e6] is round-off limited:
        # without the floor it ran out of panels (exit 4); the floor's
        # panels carry their round-off bound into the estimate
        mass = {"00": 1 - 1e-6 - 1e-12, "01": 1e-6, "10": 1e-12}
        path = tmp_path / "skewed.json"
        path.write_text(json.dumps({"k": 2, "mass": mass}))
        code, out, _ = run(capsys, "ic", "--measure", str(path), "--rtol", "1e-13",
                           "--atol", "1e-30")
        assert code == 0
        report = json.loads(out)
        ext, internal = mp_information_cost(InputDistribution(2, mass))
        gap = max(abs(report["external_bits"] - ext), abs(report["internal_bits"] - internal))
        assert gap <= report["quadrature_error_estimate"] <= 1e-12

    def test_point_mass(self, capsys, tmp_path):
        path = tmp_path / "point.json"
        path.write_text('{"k": 2, "mass": {"00": 1.0}}')
        code, out, _ = run(capsys, "ic", "--measure", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["external_bits"] == 0.0
        assert report["internal_bits"] == 0.0

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, out, err = run(capsys, "ic", "--measure", str(path))
        assert code == 2
        assert json.loads(err)["error"]["type"] == "MalformedInputError"

    @pytest.mark.parametrize(
        "text, error",
        [
            ('{"k": 2, "mass": {"00": NaN, "01": 0.5, "10": 0.5}}', "InvalidDistributionError"),
            ('{"k": true, "mass": {"0": 0.5, "1": 0.5}}', "MalformedInputError"),
            ('{"k": 2.9, "mass": {"01": 0.5, "10": 0.5}}', "MalformedInputError"),
            ('{"k": 2, "mass": {"00": true}}', "MalformedInputError"),
            ('{"k": 2, "mass": {"00": "0.5", "01": "0.5"}}', "MalformedInputError"),
        ],
    )
    def test_invalid_measure_exit_2(self, capsys, tmp_path, text, error):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "ic", "--measure", str(path))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == error

    @pytest.mark.parametrize("zeros", [400, 5000])
    def test_integer_mass_beyond_the_float_range_exit_2(self, capsys, tmp_path, zeros):
        # 1 and 400 zeros overflows float(); 5000 zeros is past the digit
        # limit at which json.loads stops reading an integer
        path = tmp_path / "big.json"
        path.write_text('{"k": 2, "mass": {"00": 1' + "0" * zeros + "}}")
        code, out, err = run(capsys, "ic", "--measure", str(path))
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "MalformedInputError"
        assert error["exit_code"] == 2

    def test_assumption_violation_exit_3(self, capsys, tmp_path):
        path = tmp_path / "viol.json"
        path.write_text('{"k": 3, "mass": {"110": 0.5, "001": 0.5}}')
        code, _, err = run(capsys, "ic", "--measure", str(path))
        assert code == 3
        assert json.loads(err)["error"]["type"] == "AssumptionViolationError"


class TestUniform:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "uniform", "--k", "2,3")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["external_abs_diff"] < 1e-6
        assert rows[1]["internal_abs_diff"] < 1e-6

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "uniform", "--k", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("k,")
        assert len(lines) == 2


class TestVerifyConcavity:
    def test_small_grid_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "verify-concavity",
            "--k", "2",
            "--beta", "0.1",
            "--eps", "1e-2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("k,s,beta,eps,feasible")
        assert len(lines) == 3  # s = 1, 2

    def test_cell_whose_gamma0_iteration_cycles(self, capsys):
        code, out, _ = run(capsys, "verify-concavity", "--k", "2", "--beta", "0.318",
                           "--eps", "2.5e-3")
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_smoke_grid_bytes_are_pinned(self, tmp_path):
        # the bench smoke grid with outside checks, against a CSV written by
        # the per-panel quadrature and the per-label window masses it replaced
        out = tmp_path / "grid.csv"
        code = main(["verify-concavity", "--k", "2,3", "--beta", "0.05",
                     "--eps", "1e-2,5e-3", "--outside", "--output", str(out)])
        assert code == 0
        golden = Path(__file__).parent / "data" / "verify_concavity_smoke.csv"
        assert out.read_bytes() == golden.read_bytes()

    def test_infeasible_rows_flagged(self, capsys):
        code, out, _ = run(
            capsys,
            "verify-concavity",
            "--k", "5",
            "--s", "1",
            "--beta", "0.2",
            "--eps", "1e-2",
            "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["feasible"] == 0
        assert rows[0]["skip_reason"]

    def test_sender_above_k_is_a_skipped_row(self, capsys):
        code, out, _ = run(capsys, "verify-concavity", "--k", "2,3", "--s", "3,5",
                           "--beta", "0.05", "--eps", "0.01,0.02")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert [(r["k"], r["s"], r["eps"], r["feasible"], r["skip_reason"]) for r in rows] == [
            ("2", "3", "0.01", "0", "sender 3 outside 1..2"),
            ("2", "3", "0.02", "0", "sender 3 outside 1..2"),
            ("2", "5", "0.01", "0", "sender 5 outside 1..2"),
            ("2", "5", "0.02", "0", "sender 5 outside 1..2"),
            ("3", "3", "0.01", "1", ""),
            ("3", "3", "0.02", "1", ""),
            ("3", "5", "0.01", "0", "sender 5 outside 1..3"),
            ("3", "5", "0.02", "0", "sender 5 outside 1..3"),
        ]
        assert all(r["ext_deficit"] == "" for r in rows if r["feasible"] == "0")

    @pytest.mark.parametrize("k, s", [("2", "0"), ("1", "5")])
    def test_sender_below_one_or_k_below_two_exit_2(self, capsys, k, s):
        code, out, err = run(capsys, "verify-concavity", "--k", k, "--s", s,
                             "--beta", "0.05", "--eps", "0.01")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == "MalformedInputError"


class TestSimulateSignal:
    def test_summary_and_determinism(self, capsys, no11_file):
        argv = (
            "simulate-signal",
            "--measure", no11_file,
            "--reveal", "1",
            "--eps", "0.2",
            "--traces", "300",
            "--seed", "11",
            "--snap-tol", "1e-4",
        )
        code, out1, _ = run(capsys, *argv)
        assert code == 0
        code, out2, _ = run(capsys, *argv)
        assert out1 == out2  # byte-identical for identical config and seed
        summary = json.loads(out1)
        assert summary["prob0_exact"] == pytest.approx(2 / 3, abs=1e-12)
        assert summary["tv_distance"] < 0.1
        assert summary["max_weakness"] <= 0.2 * (1 + 1e-9)

    def test_export_traces(self, capsys, no11_file):
        code, out, _ = run(
            capsys,
            "simulate-signal",
            "--measure", no11_file,
            "--reveal", "1",
            "--eps", "0.3",
            "--traces", "50",
            "--export-traces", "2",
            "--seed", "3",
        )
        assert code == 0
        summary = json.loads(out)
        assert len(summary["traces"]) == 2
        assert summary["traces"][0]["steps"]

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--eps", "nan"),
            ("--eps", "1"),
            ("--snap-tol", "nan"),
            ("--snap-tol", "-1"),
            ("--snap-tol", "inf"),
            ("--traces", "-3"),
            ("--traces", "0"),
            ("--max-steps", "-1"),
        ],
    )
    def test_malformed_walk_input_exit_2(self, capsys, monkeypatch, no11_file, flag, value):
        def no_walk(*args):
            raise AssertionError("the walk was set up for a malformed input")

        monkeypatch.setattr(signals, "_SegmentWalk", no_walk)
        # --max-steps 10 keeps a walk that does start short
        options = {"--eps": "0.1", "--traces": "10", "--max-steps": "10", flag: value}
        argv = [item for pair in options.items() for item in pair]
        code, out, err = run(
            capsys, "simulate-signal", "--measure", no11_file, "--reveal", "1", *argv
        )
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "MalformedInputError"
        assert error["exit_code"] == 2

    def test_negative_export_count_exit_2(self, capsys, monkeypatch, no11_file):
        def no_walks(*args, **kwargs):
            raise AssertionError("the walks ran for a malformed export count")

        monkeypatch.setattr(cli, "sample_terminal_posteriors", no_walks)
        code, out, err = run(
            capsys, "simulate-signal", "--measure", no11_file, "--reveal", "1",
            "--eps", "0.1", "--traces", "10", "--export-traces", "-3",
        )
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "MalformedInputError"
        assert error["exit_code"] == 2

    @pytest.mark.parametrize(
        "mass, p0_given_1",
        [
            ({"00": 1 / 3, "01": 1 / 3, "10": 1 / 3}, "0.3"),  # equal conditionals
            ({"00": 0.5, "01": 0.5}, "0.7"),  # the sender holds 0 on the whole support
        ],
    )
    def test_signal_that_moves_nothing_exports_empty_traces(
        self, capsys, tmp_path, mass, p0_given_1
    ):
        path = tmp_path / "mu.json"
        path.write_text(json.dumps({"k": 2, "mass": mass}))
        code, out, _ = run(
            capsys, "simulate-signal", "--measure", str(path), "--sender", "1",
            "--p0-given-0", "0.3", "--p0-given-1", p0_given_1, "--eps", "0.1",
            "--traces", "10", "--export-traces", "2",
        )
        assert code == 0
        summary = json.loads(out)
        # every walk ends at mu = mu_0 = mu_1, which is the exact terminal law
        assert summary["count0"] + summary["count1"] == 10
        assert summary["tv_distance"] == 0.0
        traces = summary["traces"]
        assert [t["steps"] for t in traces] == [[], []]
        assert all(t["terminal"] == t["mu"] == {"k": 2, "mass": mass} for t in traces)

    def test_signal_flags_required(self, capsys, no11_file):
        code, _, err = run(
            capsys, "simulate-signal", "--measure", no11_file, "--eps", "0.1"
        )
        assert code == 2
        assert "signal" in json.loads(err)["error"]["message"]


class TestDiscretize:
    def test_csv_table(self, capsys, no11_file):
        code, out, _ = run(
            capsys,
            "discretize",
            "--measure", no11_file,
            "--delta", "0.0625,0.03125",
            "--horizon", "25",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("delta,")
        assert len(lines) == 3
        gaps = [float(line.split(",")[5]) for line in lines[1:]]
        assert gaps[1] < gaps[0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv, count",
        [
            (["--delta", "1e-300"], "5e+301"),
            (["--delta", "0.25", "--horizon", "1e300"], "8e+300"),
            (["--delta", "5e-324"], "inf"),
        ],
    )
    def test_leaf_count_past_every_int_is_one_json_error(self, capsys, no11_file, argv, count):
        code, out, err = run(capsys, "discretize", "--measure", no11_file, *argv)
        assert (code, out) == (4, "")
        error = json.loads(err)["error"]
        assert error["type"] == "ResolutionError"
        assert error["message"].startswith(f"{count} transcript classes exceed the cap")


class TestMaximize:
    def test_quick_run(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code, out, _ = run(
            capsys,
            "maximize",
            "--zero", "11",
            "--budget", "400",
            "--grid-step", "0.1",
            "--trace-csv", str(trace_path),
        )
        assert code == 0
        result = json.loads(out)
        assert result["value_bits"] == pytest.approx(0.4827, abs=2e-3)
        assert result["value_error_bits"] < 1e-9
        assert trace_path.read_text().startswith("evaluations,best_value_bits")

    @pytest.mark.parametrize(
        "face, same_as",
        [
            (["--zero", ""], ["--zero", "11"]),
            ([], ["--zero", "11"]),
            (["--k", "3", "--zero", "000"], ["--k", "3", "--zero", "000,111"]),
        ],
    )
    def test_faces_with_all_ones_free(self, capsys, face, same_as):
        results = []
        for argv in (face, same_as):
            code, out, _ = run(capsys, "maximize", *argv)
            assert code == 0
            results.append(json.loads(out))
        assert results[0]["value_bits"] == results[1]["value_bits"]
        assert results[0]["argmax"] == results[1]["argmax"]

    def test_face_without_basis_inputs(self, capsys):
        code, out, _ = run(capsys, "maximize", "--zero", "01,10")
        assert code == 0
        assert json.loads(out)["value_bits"] == 0.0

    def test_face_of_all_ones_alone_exits_2(self, capsys):
        code, out, err = run(capsys, "maximize", "--zero", "00,01,10")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == "ConditioningError"


class TestVerifyConcavityChecks:
    def test_shifted_integrand_fails_the_right_tail_check(self, capsys, monkeypatch):
        # on the canonical grid the left interval is empty (the sender's
        # window opens at the earliest start time), so only right_ok can fire
        plain = concavity._concavity_integrand

        def shifted(pert):
            f = plain(pert)
            return lambda ts: f(ts) - 1e-6

        monkeypatch.setattr(concavity, "_concavity_integrand", shifted)
        code, out, _ = run(capsys, "verify-concavity", "--k", "2,3", "--beta", "0.05",
                           "--eps", "1e-2", "--outside")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 5
        assert {row["right_ok"] for row in rows} == {"0"}


class TestContinuityCheck:
    def test_sweep_clean(self, capsys):
        code, out, _ = run(
            capsys,
            "continuity-check",
            "--pairs", "10",
            "--seed", "2",
        )
        assert code == 0
        result = json.loads(out)
        assert result["summary"] == {"pairs": 10, "violations": 0}
        assert list(result) == ["pairs", "summary"]
        assert len(result["pairs"]) == 10

    def test_cost_pushed_past_the_bound_is_a_violation(self, capsys, monkeypatch):
        # the second cost of each pair is moved by twice the pair's bound, so
        # its gap lies at least one bound past it
        seen = []

        def pushed(protocol, mu):
            report = cost_under(protocol, mu)
            seen.append(mu)
            if len(seen) % 2 == 0:
                delta = seen[-2].statistical_distance(mu)
                bound = 2.0 * mu.k * delta + 2.0 * binary_entropy(min(2.0 * delta, 1.0))
                report = dataclasses.replace(report, internal_bits=report.internal_bits + 2 * bound)
            return report

        monkeypatch.setattr(cli, "cost_under", pushed)
        code, out, _ = run(capsys, "continuity-check", "--pairs", "4")
        result = json.loads(out)
        assert code == 4
        assert result["summary"]["violations"] == 4
        assert [row["ok"] for row in result["pairs"]] == [0] * 4

    def test_csv_floats_are_plain(self, capsys):
        code, out, _ = run(
            capsys,
            "continuity-check",
            "--pairs", "20",
            "--format", "csv",
        )
        assert code == 0
        assert "np.float64(" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["maximize", "--grid-step", "0"],
        ["maximize", "--grid-step", "nan"],
        ["maximize", "--grid-step", "1e-309"],
        ["maximize", "--tol", "nan", "--budget", "40", "--grid-step", "0.25"],
        ["maximize", "--zero", "11", "--budget", "2"],
        ["discretize", "--measure", "NO11", "--delta", "nan"],
        ["discretize", "--measure", "NO11", "--delta", "0.25", "--horizon", "nan"],
        ["discretize", "--measure", "NO11", "--delta", "0.25", "--horizon", "inf"],
        ["ic", "--measure", "NO11", "--rtol", "nan"],
        ["ic", "--measure", "NO11", "--rtol", "-1"],
        ["continuity-check", "--pairs", "-1"],
        ["continuity-check", "--pairs", "1", "--delta-max", "nan"],
        ["uniform", "--k", "", "--format", "csv"],
        ["discretize", "--measure", "NO11", "--delta", ""],
        ["verify-concavity", "--beta", ","],
        ["continuity-check", "--k", " "],
        ["simulate-signal", "--measure", "NO11", "--reveal", "1", "--eps", "0.05",
         "--traces", "10", "--seed", "-1"],
        ["continuity-check", "--seed", "-5"],
        ["discretize", "--measure", "NO11", "--delta", "inf"],
    ],
)
def test_malformed_number_exit_2(capsys, no11_file, argv):
    argv = [no11_file if a == "NO11" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "MalformedInputError"


@pytest.mark.parametrize(
    "argv, code, kind, message",
    [
        (["maximize", "--zero", "1x"], 2, "MalformedInputError", "not a bit string: '1x'"),
        (["maximize", "--zero", "111"], 2, "MalformedInputError",
         "label 111 is not on the k=2 support family"),
        (["ic", "--measure", '{"k": 2, "mass": {"0x": 1.0}}'], 2, "MalformedInputError",
         "not a bit string: '0x'"),
        (["ic", "--measure", '{"k": 3, "mass": {"110": 1.0}}'], 3, "AssumptionViolationError",
         "label 110 outside the allowed support family for k=3"),
    ],
)
def test_bad_label_stderr_bytes(capsys, tmp_path, argv, code, kind, message):
    if argv[0] == "ic":
        path = tmp_path / "measure.json"
        path.write_text(argv[-1])
        argv = [*argv[:-1], str(path)]
    got, out, err = run(capsys, *argv)
    error = {"exit_code": code, "message": message, "type": kind}
    assert (got, out) == (code, "")
    assert err == json.dumps({"error": error}, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["uniform", "--k", "1000000000"],
        ["maximize", "--k", "5000"],
        ["verify-concavity", "--k", "2000", "--beta", "1e-4", "--eps", "1e-2"],
        ["ic", "--measure", "BIG"],
    ],
)
def test_absurd_k_rejected_before_labels_are_built(capsys, monkeypatch, tmp_path, argv):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"k": 5000, "mass": {"0" * 5000: 1.0}}))

    def guarded(fn):
        # the label code must reject an absurd k itself, or never see it
        def call(*args):
            fn(*args)
            raise AssertionError(f"a label was built for an absurd k: {fn.__name__}")

        return call

    for module, name in [(measures, "canonical_labels"), (measures, "_row"),
                         (optimize, "canonical_labels"), (optimize, "_row")]:
        monkeypatch.setattr(module, name, guarded(getattr(module, name)))
    code, out, err = run(capsys, *[str(big) if a == "BIG" else a for a in argv])
    assert code == 2
    assert out == ""
    assert "exceeds the limit 1000" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-concavity", "--k", "0"],
        ["verify-concavity", "--k", "-3", "--format", "json"],
        ["uniform", "--k", "1000,0"],
        ["uniform", "--k", "2,1001", "--format", "csv"],
        ["continuity-check", "--k", "2,0", "--pairs", "1"],
    ],
)
def test_every_k_of_a_list_is_checked_before_any_cost(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("a cost was run before every k was checked")

    for name in ("information_cost", "cost_under", "verify_grid"):
        monkeypatch.setattr(cli, name, refuse)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["type"] == "MalformedInputError"


def _json_runs(tmp):
    no11 = tmp / "no11.json"
    no11.write_text(json.dumps({"k": 2, "mass": {"00": 1 / 3, "01": 1 / 3, "10": 1 / 3}}))
    k3 = tmp / "k3.json"
    k3.write_text(json.dumps({"k": 3, "mass": {"000": 0.4, "100": 0.2, "010": 0.2, "111": 0.2}}))
    return [
        ["ic", "--measure", str(k3)],
        ["uniform", "--k", "2,3"],
        ["verify-concavity", "--k", "2", "--beta", "0.05", "--eps", "1e-2", "--outside",
         "--format", "json"],
        ["simulate-signal", "--measure", str(no11), "--reveal", "1", "--eps", "0.3",
         "--traces", "20", "--export-traces", "2"],
        ["discretize", "--measure", str(no11), "--delta", "0.25", "--format", "json"],
        ["maximize", "--zero", "11", "--budget", "40", "--grid-step", "0.25"],
        ["continuity-check", "--pairs", "2"],
        ["ic", "--measure", str(tmp / "missing.json")],
    ]


def test_json_bytes_equal_the_stdlib_writer(capsys, tmp_path):
    for argv in _json_runs(tmp_path):
        main(argv)
        captured = capsys.readouterr()
        text = (captured.out or captured.err).removesuffix("\n")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2), argv[0]


@pytest.mark.parametrize(
    "obj",
    [
        [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 1e-16, 5e-324, 2.0**70, -(2**70)],
        {"": {}, "a": [], "b": [[], {}], "c": None, "d": True, "e": False},
        {"\u00e9\u4e2d": "caf\u00e9 \u2014 \"q\" \\ \n\t\x01", "z": "\U0001f600"},
        ("tuple", 1, (2.5, ("nested",))),
        [{"k": [[{"deep": [0.1]}]]}] * 3,
        "plain",
        np.float64(0.1),
    ],
)
def test_json_writer_matches_stdlib(obj):
    deep = obj
    for _ in range(60):
        deep = {"x": [deep]}
    for value in (obj, deep):
        assert cli._dump(value) == json.dumps(value, sort_keys=True, indent=2)


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # the package does not use scipy, not even in maximize
    code = (
        "import sys, icand.cli; icand.cli.main(['maximize', '--zero', '11', '--budget', '40', "
        f"'--grid-step', '0.25', '--output', {str(tmp_path / 'max.json')!r}]); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
