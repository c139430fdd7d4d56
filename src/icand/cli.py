"""Command-line front end: every verification in the package as a subcommand.

Outputs are JSON objects or CSV tables; errors are machine-readable JSON on
stderr with distinct exit codes (see errors module).  Runs are deterministic
for a fixed seed: identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys

import numpy as np

from . import __version__
from .buzzers import closed_form_uniform, cost_under, information_cost, start_times
from .concavity import GridRow, verify_grid
from .discretize import _schedule, build, exact_ic
from .errors import IcandError, MalformedInputError
from .measures import InputDistribution, _layout, binary_entropy
from .optimize import SupportPattern, maximize_external, maximize_internal
from .signals import (
    Signal,
    SimulationTrace,
    sample_terminal_posteriors,
    simulate_signal,
)


def _read_measure(path: str) -> InputDistribution:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise MalformedInputError(f"cannot read measure file {path}: {exc}") from exc
    return InputDistribution.from_json(text)


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


_STEPS = "\x00steps"  # dumped as "\u0000steps": no printed value holds a control character


def _dump(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` with the package's objects.

    An :class:`InputDistribution` is written in the file format that
    ``from_json`` reads, any other dataclass by its fields.  A
    :class:`SimulationTrace` is the object ``{"eps", "mu", "steps",
    "terminal"}``; its steps are formatted straight from its arrays
    (:func:`_write_steps`) and spliced in where the dump holds a marker."""
    traces: list[SimulationTrace] = []

    def default(value):
        if isinstance(value, InputDistribution):
            return value.to_json_obj()
        if isinstance(value, SimulationTrace):
            traces.append(value)
            return {"eps": value.eps, "mu": value.mu, "steps": _STEPS,
                    "terminal": value.terminal}
        if dataclasses.is_dataclass(value):
            return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    parts = json.dumps(obj, sort_keys=True, indent=2, default=default).split(json.dumps(_STEPS))
    if len(parts) != len(traces) + 1:
        raise ValueError(f"{len(parts) - 1} step markers for {len(traces)} traces")
    out = [parts[0]]
    for trace, before, after in zip(traces, parts, parts[1:]):
        line = before[before.rfind("\n"):]  # the newline and indent of '"steps": '
        _write_steps(trace, out, line[: line.index('"')])
        out.append(after)
    traces.clear()  # json's encoder holds ``default`` in a reference cycle until gc runs
    return "".join(out)


def _write_steps(trace: SimulationTrace, out: list[str], newline: str) -> None:
    """Append a trace's steps as the JSON list of ``{"bit", "posterior":
    {"k", "mass"}, "signal": {"p0_given_0", "p0_given_1", "sender"}}``, the
    posterior's mass holding its live (> 0) coordinates by label.

    Each run of steps with one set of live coordinates fills one text
    template, built at this indent, with its numbers, taken a column at a
    time from the arrays in sorted label order."""
    if not trace.bits.size:
        out.append("[]")
        return
    step, e2, e3, e4 = (newline + "  " * n for n in range(1, 5))
    names = sorted(trace.mu.labels)
    post = trace.posteriors[:, np.argsort(trace.mu.labels)]
    live = post > 0.0
    starts = np.flatnonzero(np.r_[True, (live[1:] != live[:-1]).any(axis=1)])
    texts: list[str] = []
    for a, b in zip(starts.tolist(), [*starts[1:].tolist(), len(live)]):
        cols = np.flatnonzero(live[a])
        mass = ",".join(e4 + json.dumps(names[j]) + ": %s" for j in cols)
        template = (
            "{" + e2 + '"bit": %s,'
            + e2 + '"posterior": {' + e3 + f'"k": {int.__repr__(trace.mu.k)},'
            + e3 + '"mass": ' + ("{" + mass + e3 + "}" if mass else "{}") + e2 + "},"
            + e2 + '"signal": {' + e3 + '"p0_given_0": %s,' + e3 + '"p0_given_1": %s,'
            + e3 + f'"sender": {int.__repr__(trace.sender)}' + e2 + "}" + step + "}"
        )
        numbers = np.c_[post[a:b, cols], trace.conditionals[a:b]]
        columns = numbers.T.tolist()  # "%s" writes a finite float as its repr
        if not np.isfinite(numbers).all():
            columns = [[json.dumps(x) for x in column] for column in columns]
        texts += map(template.__mod__, zip(trace.bits[a:b].tolist(), *columns))
    out.append("[" + step + ("," + step).join(texts) + newline + "]")


def _csv(rows: list[dict], columns: list[str]) -> str:
    """CSV text: a header, then one line per row with floats through repr,
    a missing column as "" and other keys ignored; a field that holds a
    comma or a double quote is quoted."""
    out = io.StringIO()
    writer = csv.DictWriter(out, columns, restval="", extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def _numbers(spec: str, kind=float) -> list:
    """A comma-separated list of ``kind`` values, at least one."""
    noun = "integer" if kind is int else "numeric"
    try:
        values = [kind(s) for s in spec.split(",") if s.strip()]
    except ValueError as exc:
        raise MalformedInputError(f"bad {noun} list {spec!r}") from exc
    if not values:
        raise MalformedInputError(f"empty {noun} list {spec!r}")
    return values


def _player_counts(spec: str) -> list[int]:
    """A ``--k`` list, every count checked (2 <= k <= MAX_K) before any cost."""
    k_values = _numbers(spec, int)
    for k in k_values:
        if k < 2:
            raise MalformedInputError(f"need at least two players, got k={k}")
        _layout(k)  # rejects k > MAX_K
    return k_values


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_ic(args) -> int:
    mu = _read_measure(args.measure)
    report = information_cost(mu, rtol=args.rtol, atol=args.atol)
    _emit(_dump(report), args.output)
    return 0


def _cmd_uniform(args) -> int:
    rows = []
    for k in _player_counts(args.k):
        ext_cf, int_cf = closed_form_uniform(k)
        report = information_cost(InputDistribution.uniform_basis(k))
        rows.append(
            {
                "k": k,
                "external_closed_form": ext_cf,
                "internal_closed_form": int_cf,
                "external_quadrature": report.external_bits,
                "internal_quadrature": report.internal_bits,
                "external_abs_diff": abs(report.external_bits - ext_cf),
                "internal_abs_diff": abs(report.internal_bits - int_cf),
            }
        )
    if args.format == "csv":
        _emit(_csv(rows, list(rows[0])), args.output)
    else:
        _emit(_dump(rows), args.output)
    return 0


def _grid_row(row: GridRow) -> dict:
    out = {"k": row.k, "s": row.s, "beta": row.beta, "eps": row.eps,
           "feasible": int(row.feasible), "skip_reason": row.skip_reason or ""}
    report = row.report
    if report is None:
        return out
    out.update((col, getattr(report, col)) for col in _REPORT_COLUMNS)
    if report.outside is not None:
        out.update(
            left_ok=int(report.outside.left_ok),
            right_ok=int(report.outside.right_ok),
        )
    return out


_REPORT_COLUMNS = [
    "ext_deficit", "int_deficit", "taylor_ext", "taylor_int", "residual_ext", "residual_int",
]
_GRID_COLUMNS = [
    "k", "s", "beta", "eps", "feasible", *_REPORT_COLUMNS, "left_ok", "right_ok", "skip_reason",
]


def _cmd_verify_concavity(args) -> int:
    k_values = _player_counts(args.k)
    grid = verify_grid(
        k_values,
        _numbers(args.beta),
        _numbers(args.eps),
        senders=_numbers(args.s, int) if args.s else None,
        with_outside=args.outside,
    )
    rows = [_grid_row(row) for row in grid]
    if args.format == "json":
        _emit(_dump(rows), args.output)
    else:
        _emit(_csv(rows, _GRID_COLUMNS), args.output)
    return 0


def _cmd_simulate_signal(args) -> int:
    if not args.seed >= 0:
        raise MalformedInputError(f"seed {args.seed} must be >= 0")
    mu = _read_measure(args.measure)
    if args.reveal is not None:
        sig = Signal(sender=args.reveal, p0_given_0=1.0, p0_given_1=0.0)
    elif args.sender is not None:
        if args.p0_given_0 is None or args.p0_given_1 is None:
            raise MalformedInputError(
                "--sender needs --p0-given-0 and --p0-given-1 (or use --reveal)"
            )
        sig = Signal(
            sender=args.sender,
            p0_given_0=args.p0_given_0,
            p0_given_1=args.p0_given_1,
        )
    else:
        raise MalformedInputError("specify the signal via --reveal or --sender")

    if not args.export_traces >= 0:
        raise MalformedInputError(f"exported trace count {args.export_traces} must be >= 0")
    rng = np.random.default_rng(args.seed)
    sample = sample_terminal_posteriors(
        mu, sig, args.eps, rng, args.traces,
        snap_tol=args.snap_tol, max_steps=args.max_steps,
    )
    result = {
        "signal": sig,
        "eps": args.eps,
        "n_traces": sample.n_traces,
        "count0": sample.count0,
        "count1": sample.count1,
        "prob0_exact": sample.prob0_exact,
        "tv_distance": sample.tv_distance(),
        "max_weakness": sample.max_weakness,
        "max_steps_observed": sample.max_steps_observed,
        "mean_steps": sample.mean_steps,
    }
    if args.export_traces:
        rng2 = np.random.default_rng(args.seed + 1)
        snap_tol = max(args.snap_tol, 1e-3)
        result["traces"] = [
            simulate_signal(
                mu, sig, args.eps, rng2,
                snap_tol=snap_tol, max_steps=args.max_steps,
            )
            for _ in range(args.export_traces)
        ]
    _emit(_dump(result), args.output)
    return 0


def _cmd_discretize(args) -> int:
    mu = _read_measure(args.measure)
    deltas = _numbers(args.delta)
    for delta in deltas:  # every argument is checked before the reference cost
        _schedule(mu, delta, args.horizon)
    # the protocol being discretized, all-ones silence included
    reference = cost_under(start_times(mu), mu)
    rows = []
    for delta in deltas:
        report = exact_ic(build(mu, delta, args.horizon))
        rows.append(
            {
                "delta": delta,
                "horizon": args.horizon,
                "external_bits": report.external_bits,
                "internal_bits": report.internal_bits,
                "external_gap": abs(report.external_bits - reference.external_bits),
                "internal_gap": abs(report.internal_bits - reference.internal_bits),
            }
        )
    if args.format == "json":
        _emit(_dump({"reference": reference, "rows": rows}), args.output)
    else:
        _emit(_csv(rows, list(rows[0])), args.output)
    return 0


def _cmd_maximize(args) -> int:
    pattern = SupportPattern.parse(args.k, args.zero or "")
    runner = maximize_internal if args.objective == "internal" else maximize_external
    result = runner(
        pattern, args.budget, grid_step=args.grid_step, coord_tol=args.tol
    )
    _emit(_dump(result), args.output)
    return 0


def _random_measure(rng, k: int) -> InputDistribution:
    """Dirichlet(1) masses on the k + 2 rows of the layout."""
    return InputDistribution._from_vector(k, rng.dirichlet(np.ones(k + 2)))


def _cmd_continuity_check(args) -> int:
    if not args.pairs >= 1:
        raise MalformedInputError(f"pair count {args.pairs} must be >= 1")
    if not args.delta_max > 0.0:
        raise MalformedInputError(f"--delta-max {args.delta_max} must be > 0")
    if not args.seed >= 0:
        raise MalformedInputError(f"seed {args.seed} must be >= 0")
    rng = np.random.default_rng(args.seed)
    k_values = _player_counts(args.k)
    rows = []
    violations = 0
    for j in range(args.pairs):
        k = int(k_values[j % len(k_values)])
        mu = _random_measure(rng, k)
        other = _random_measure(rng, k)
        width = mu.statistical_distance(other)
        w = min(1.0, args.delta_max * float(rng.uniform(0.2, 1.0)) / max(width, 1e-12))
        nu = InputDistribution._from_vector(k, (1.0 - w) * mu.vector + w * other.vector)
        delta = mu.statistical_distance(nu)
        times = start_times(mu)
        cost_mu = cost_under(times, mu)
        cost_nu = cost_under(times, nu)
        bound = 2.0 * k * delta + 2.0 * binary_entropy(min(2.0 * delta, 1.0))
        gap_int = abs(cost_mu.internal_bits - cost_nu.internal_bits)
        gap_ext = abs(cost_mu.external_bits - cost_nu.external_bits)
        ok = gap_int <= bound
        violations += 0 if ok else 1
        rows.append({"pair": j, "k": k, "delta": delta, "bound": bound,
                     "internal_gap": gap_int, "external_gap": gap_ext, "ok": int(ok)})

    summary = {"pairs": args.pairs, "violations": violations}
    if args.format == "json":
        _emit(_dump({"summary": summary, "pairs": rows}), args.output)
    else:
        _emit(_csv(rows, list(rows[0])) + f"\n# violations={violations}\n", args.output)
    return 0 if violations == 0 else 4


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icand",
        description="Information complexity of multiparty AND under the "
        "buzzers protocol.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ic", help="internal/external cost of a measure")
    p.add_argument("--measure", required=True, help="measure JSON file")
    p.add_argument("--rtol", type=float, default=1e-10)
    p.add_argument("--atol", type=float, default=1e-12)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_ic)

    p = sub.add_parser("uniform", help="uniform basis measure: closed forms vs quadrature")
    p.add_argument("--k", default="2,3,4,5,8", help="comma-separated player counts")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_uniform)

    p = sub.add_parser("verify-concavity", help="window-deficit grid vs cubic laws")
    p.add_argument("--k", default="2,3,4,5")
    p.add_argument("--s", default="", help="senders (default: all 1..k)")
    p.add_argument("--beta", default="0.02,0.05,0.1,0.2")
    p.add_argument("--eps", default="1e-2,5e-3,2.5e-3")
    p.add_argument("--outside", action="store_true", help="include outside-window checks")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_verify_concavity)

    p = sub.add_parser("simulate-signal", help="weak-signal simulation walk")
    p.add_argument("--measure", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--traces", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reveal", type=int, help="fully revealing signal of this sender")
    p.add_argument("--sender", type=int)
    p.add_argument("--p0-given-0", type=float, dest="p0_given_0")
    p.add_argument("--p0-given-1", type=float, dest="p0_given_1")
    p.add_argument("--snap-tol", type=float, default=1e-6, dest="snap_tol")
    p.add_argument("--max-steps", type=int, default=10**6, dest="max_steps")
    p.add_argument("--export-traces", type=int, default=0, dest="export_traces")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_simulate_signal)

    p = sub.add_parser("discretize", help="finite-round approximation sweep")
    p.add_argument("--measure", required=True)
    p.add_argument("--delta", required=True, help="comma-separated slot lengths")
    p.add_argument("--horizon", type=float, default=25.0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_discretize)

    p = sub.add_parser("maximize", help="maximize cost over a support face")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--zero", default="", help="comma-separated zeroed labels, e.g. 11")
    p.add_argument("--objective", choices=("internal", "external"), default="internal")
    p.add_argument("--budget", type=int, default=4000)
    p.add_argument("--grid-step", type=float, default=0.02, dest="grid_step")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_maximize)

    p = sub.add_parser("continuity-check", help="measure-continuity bound on random pairs")
    p.add_argument("--pairs", type=int, default=100)
    p.add_argument("--k", default="2,3")
    p.add_argument("--delta-max", type=float, default=0.1, dest="delta_max")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_continuity_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IcandError as exc:
        sys.stderr.write(
            _dump(
                {
                    "error": {
                        "type": type(exc).__name__,
                        "message": str(exc),
                        "exit_code": exc.exit_code,
                    }
                }
            )
            + "\n"
        )
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
