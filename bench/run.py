"""icand benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: disjointness, wide_k, concavity_grid, signal_walk (see
``workloads.py`` and ``BENCHMARK.json`` for why each exists).  The workload
runs in a fresh single-threaded interpreter (``worker.py``) with
``ICAND_WORKERS`` unset and BLAS pinned to one thread; its inputs come from
the seed.  Every output is checked against an oracle.  The last line of
stdout is one JSON object: ``correct``, ``attempted`` and ``failed`` count
output checks, and ``metrics`` holds the end-to-end metrics (``--trace 0``)
or the per-layer metrics of ``tracing.PER_LAYER`` (``--trace 1``).
Set-up time is the median over several fresh interpreters; ``wall_s`` is the
median pass time rescaled to the reference speed of ``speed.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Fresh interpreters sampled for setup_s: the worker plus this many probes.
SETUP_PROBES = 4
#: Every process the run starts must have ended within this many seconds.
RUN_TIMEOUT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _env() -> dict:
    env = dict(os.environ)
    env.pop("ICAND_WORKERS", None)
    env.pop("PYTHONPATH", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker process; (monotonic start time, its JSON line)."""
    t0 = time.monotonic()
    timeout = max(deadline - t0, 1.0)
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *argv],
                            stdout=subprocess.PIPE, env=_env(), cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker {' '.join(argv)} did not finish in {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return t0, json.loads(out.decode().strip().splitlines()[-1])


def _tail(walls: list[float]) -> str:
    """The highest percentile of the pass times with ten passes beyond it."""
    n = len(walls)
    if n < 11:
        return f"median of {n} passes; no percentile has ten passes beyond it"
    return (f"median of {n} passes; p{100 * (n - 10) / n:.0f} = "
            f"{sorted(walls)[n - 11]:.4f} s with ten passes beyond it")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: reduced sizes, for the benchmark's self-tests")
    args = ap.parse_args()

    if not (ROOT / "src" / "icand" / "cli.py").is_file():
        print(f"no icand sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}"
    work = ROOT / ".bench_build" / "work" / f"{tag}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--scale", args.scale]
    spans = ROOT / ".bench_build" / "spans" / f"{tag}.csv"
    run = [*common, "--work", str(work / "run"), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--spans", str(spans)] if args.trace else [])
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        t0, result = _spawn(run, deadline)
        setups = [result["setup_done"] - t0]
        for j in range(0 if args.trace else SETUP_PROBES):
            t0, probe = _spawn([*common, "--work", str(work / f"probe{j}"),
                                "--setup-only"], deadline)
            setups.append(probe["setup_done"] - t0)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls, scaled = result["walls"], result["scaled_walls"]
    m = result["machine"]
    print(f"machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']} blas_threads={m['blas_threads']}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(walls)}")
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit, _, _ in PER_LAYER}
        print(f"spans={result['spans']} written to .bench_build/spans/{tag}.csv")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(scaled),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"setup_s samples: {[round(s, 4) for s in setups]}")
        print(f"raw pass times: {[round(w, 4) for w in walls]}; {_tail(walls)}")
        print(f"wall_s per pass (reference speed): {[round(w, 4) for w in scaled]}; "
              f"{_tail(scaled)}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'error_rate':40s} {failed / attempted:.6g} "
          f"({failed} of {attempted} output checks failed)")
    for line in result["failures"]:
        print(f"  FAILED {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
