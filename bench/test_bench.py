"""Self-tests of the benchmark: run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import icand.cli  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10] with children a [1, 3], b [2, 5] (overlapping a) and
    # d [6, 12] (clipped at the root's end); c [4, 4.5] is b's child
    start = [0.0, 1.0, 2.0, 4.0, 6.0]
    end = [10.0, 3.0, 5.0, 4.5, 12.0]
    parent = [-1, 0, 0, 2, 0]
    assert tracing.self_times(start, end, parent) == pytest.approx([2.0, 2.0, 2.5, 0.5, 6.0])


def test_tracer_records_nesting_with_its_clock():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tr.wrap(lambda x: x, "b.inner")
    outer = tr.wrap(lambda: inner(1) + inner(2), "a.outer")
    assert outer() == 3
    assert tr.name == ["a.outer", "b.inner", "b.inner"]
    assert tr.parent == [-1, 0, 0]
    assert tr.self_times() == [3.0, 1.0, 1.0]


def test_speed_factor_weights_each_stretch_by_its_length():
    ref = speed.SMALL_REFERENCE_S
    # a pass spent half at the reference speed and half twice as fast
    # ran 1.5 times as fast as the reference on average
    assert speed.speed_factor([ref, ref, ref / 2, ref / 2], ref) == pytest.approx(1.5)
    assert speed.speed_factor([2 * ref], ref) == pytest.approx(0.5)


def test_speed_probe_samples_while_running_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    with probe.running():
        t_end = time.perf_counter() + 12 * speed.INTERVAL_S
        while time.perf_counter() < t_end:
            sum(range(1000))
    assert len(probe.small) >= 6 and len(probe.large) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with probe.running():
        pass
    assert (len(probe.small), len(probe.large)) == (1, 1) and probe.factor() > 0


def _bindings() -> dict:
    out = {(name, attr): value
           for name, module in tracing._icand_modules().items()
           for attr, value in vars(module).items()}
    cls = icand.measures.InputDistribution
    out[("InputDistribution", "__init__")] = cls.__dict__["__init__"]
    return out


def test_install_wraps_every_binding_and_restores_them():
    before = _bindings()
    traced = {id(getattr(sys.modules[m], a)) for m, a, _, _ in tracing.TRACED_FUNCTIONS}
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            during = _bindings()
            escaped = [key for key, value in during.items() if id(value) in traced]
            assert escaped == []
            for key in (("icand.buzzers", "integrate"), ("icand.quadrature", "integrate"),
                        ("icand.concavity", "integrate_segments"),
                        ("icand.optimize", "information_cost"),
                        ("icand.cli", "information_cost"),
                        ("InputDistribution", "__init__")):
                assert during[key].__wrapped__ is before[key]
            raise RuntimeError("leave the context by an exception")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_uniform_run_counts_layers(tmp_path):
    tr = tracing.Tracer()
    with tr.installed():
        assert icand.cli.main(["uniform", "--k", "3,4", "--output", str(tmp_path / "u")]) == 0
    m = tracing.layer_metrics(tr, overhead_s=0.0)
    integrands = [i for i, n in enumerate(tr.name) if n == "buzzers.integrand"]
    assert m["buzzers.information_cost.calls"] == 2
    assert m["buzzers.abscissas"] == 15 * len(integrands)
    assert m["quadrature.panels"] == (len(integrands) - m["quadrature.integrate.calls"]) / 2
    assert m["measures.constructions"] >= 2
    # every span nests under cli.main, so the self times add up to its duration
    assert sum(tr.self_times()) == pytest.approx(tr.end[0] - tr.start[0], rel=1e-9)


def test_benchmark_json_lists_the_emitted_metrics():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        row[:3] for row in tracing.PER_LAYER
    ]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


def _write(path: Path, obj) -> None:
    path.write_text(json.dumps(obj))


def test_checks_fail_outside_the_documented_accuracy(tmp_path):
    runs = workloads.prepare("disjointness", tmp_path, seed=0)
    argmax = {"k": 2, "mass": {"00": 0.36, "01": 0.32, "10": 0.32}}
    for value, ok in ((0.4827 + 4e-4, True), (0.4827 + 6e-4, False)):
        _write(tmp_path / "maximize.json", {"value_bits": value, "argmax": argmax})
        assert all(c.ok for c in workloads.check("disjointness", tmp_path, runs, [0])) is ok

    uniform, *_, discretize = workloads.prepare("wide_k", tmp_path, seed=0)
    _write(tmp_path / "discretize.json", {"reference": {}, "rows": []})
    for error, ok in ((5e-9, True), (2e-8, False)):
        rows = []
        for k in (32, 64, 96):
            ext, internal = workloads.closed_form_uniform(k)
            rows.append({"k": k, "external_quadrature": ext,
                         "internal_quadrature": internal + error})
        _write(tmp_path / "uniform.json", rows)
        checks = workloads.check("wide_k", tmp_path, [uniform, discretize], [0, 0])
        assert all(c.ok for c in checks) is ok


def test_failed_invocation_is_a_failed_check(tmp_path):
    runs = workloads.prepare("concavity_grid", tmp_path, seed=0)
    checks = workloads.check("concavity_grid", tmp_path, runs, [3])
    assert [c.ok for c in checks] == [False]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wide_k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
