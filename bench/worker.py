"""One workload in one fresh, single-threaded interpreter.

Started by ``run.py``; prints one JSON line.  It imports ``icand`` from the
checkout's ``src``, writes the workload's inputs, then repeats the workload's
CLI invocations in-process (``icand.cli.main``) for about ``--seconds``,
checking the outputs after every pass.  Each pass is timed raw and rescaled
to the reference speed by ``speed.SpeedProbe``.  With ``--trace 1`` it
alternates untraced and traced passes and derives the per-layer metrics from
the first traced pass.  ``--setup-only`` stops after the inputs are written;
it is how ``run.py`` samples set-up time.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import icand.cli  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import check, prepare  # noqa: E402

#: Untraced runs time at least this many passes, so wall_s is a median of
#: several even when one pass takes about half the run.
MIN_PASSES = 2

if not Path(icand.cli.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"icand was imported from {icand.cli.__file__}, not from {ROOT / 'src'}")


def _invoke(argv: list[str]) -> int:
    """Run one CLI invocation the way a process would: an uncaught exception
    is exit code 1, with its traceback on stderr."""
    try:
        return icand.cli.main(argv)
    except Exception:  # noqa: BLE001 -- a crash is a failed invocation
        traceback.print_exc()
        return 1


def _pass(runs: list[list[str]], probe: SpeedProbe) -> tuple[float, float, list[int]]:
    """One pass: (raw seconds, seconds at the reference speed, exit codes)."""
    with probe.running():
        t0 = time.perf_counter()
        codes = [_invoke(argv) for argv in runs]
        wall = time.perf_counter() - t0
    return wall, wall * probe.factor(), codes


def _blas_threads() -> list[int]:
    """Thread counts of every OpenBLAS library loaded in this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    counts = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(int(fn()))
                break
    return counts


def _machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    ap.add_argument("--spans", type=Path, help="write the traced pass's spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    runs = prepare(args.workload, args.work, args.seed, args.scale)
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    machine = _machine()
    if max(machine["blas_threads"], default=1) > machine["nproc"]:
        sys.exit(f"BLAS runs {machine['blas_threads']} threads on {machine['nproc']} CPUs")

    attempted = failed = 0
    failures: list[str] = []

    def checked(codes):
        nonlocal attempted, failed
        for c in check(args.workload, args.work, runs, codes):
            attempted += 1
            if not c.ok:
                failed += 1
                failures.append(f"{c.name}: {c.detail}")

    probe = SpeedProbe()
    walls: list[float] = []
    scaled: list[float] = []
    traced_walls: list[float] = []
    traced_scaled: list[float] = []
    layers = None
    t_start = time.perf_counter()
    while True:
        wall, wall_ref, codes = _pass(runs, probe)
        walls.append(wall)
        scaled.append(wall_ref)
        checked(codes)
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                wall, wall_ref, codes = _pass(runs, probe)
            traced_walls.append(wall)
            traced_scaled.append(wall_ref)
            checked(codes)
            if layers is None:
                layers = tracer
        elapsed = time.perf_counter() - t_start
        per_round = statistics.median(walls) + (statistics.median(traced_walls)
                                                if traced_walls else 0.0)
        if elapsed + per_round > args.seconds and (args.trace or len(walls) >= MIN_PASSES):
            break

    out = {
        "setup_done": setup_done,
        "machine": machine,
        "walls": walls,
        "scaled_walls": scaled,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
    }
    if args.trace:
        overhead = statistics.median(traced_scaled) - statistics.median(scaled)
        out["traced_walls"] = traced_walls
        out["layers"] = layer_metrics(layers, overhead)
        out["spans"] = len(layers.name)
        if args.spans:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            args.spans.write_text(layers.spans_csv(), encoding="utf-8")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
