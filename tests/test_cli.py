"""Command-line interface: subcommands, formats, exit codes, determinism."""

import json

import pytest

from icand import cli, signals
from icand.cli import main


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
        ],
    )
    def test_invalid_measure_exit_2(self, capsys, tmp_path, text, error):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "ic", "--measure", str(path))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == error

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
        assert trace_path.read_text().startswith("evaluations,best_value_bits")


class TestContinuityCheck:
    def test_sweep_clean(self, capsys):
        code, out, _ = run(
            capsys,
            "continuity-check",
            "--pairs", "10",
            "--mixtures", "3",
            "--seed", "2",
        )
        assert code == 0
        result = json.loads(out)
        assert result["summary"]["violations"] == 0
        assert result["summary"]["mixture_violations"] == 0
        assert len(result["pairs"]) == 10

    def test_csv_floats_are_plain(self, capsys):
        code, out, _ = run(
            capsys,
            "continuity-check",
            "--pairs", "20",
            "--mixtures", "3",
            "--format", "csv",
        )
        assert code == 0
        assert "np.float64(" not in out
