"""The four benchmark workloads: seeded inputs, CLI invocations, output checks.

A workload is a list of ``icand`` command lines (argv lists for
``icand.cli.main``) plus the checks that read their output files.  Inputs are
written by :func:`prepare` from the seed alone; the program sees only those
files and the argv.  Every check compares against an oracle computed here,
independently of the package, at the accuracy the package documents.

This module imports nothing from ``icand``: it must stay an outside oracle.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

NAMES = ("disjointness", "wide_k", "concavity_grid", "signal_walk")

#: The two-party measure with no mass on 11 that maximizes internal cost.
NO11 = {"00": 1 / 3, "01": 1 / 3, "10": 1 / 3}

DISJOINTNESS_CONSTANT = 0.4827
DISJOINTNESS_TOL = 5e-4
#: The coordinate tolerance ``maximize`` runs with (its ``--tol`` default).
ARGMAX_TOL = 1e-6
#: Quadrature accuracy the package documents for cost reports, in bits.
QUADRATURE_TOL = 1e-8
DISCRETE_TOL = 1e-3
DISCRETE_CHECKED_BELOW = 2.0**-10
DEFICIT_FLOOR = -1e-12
CUBIC_LAW_REL = 0.05
TV_BOUND = 0.01
#: The walk sampler rejects a step whose weakness exceeds eps (1 + 1e-12);
#: the same relative round-off slack applies here.
WEAKNESS_SLACK = 1e-12
#: ``simulate-signal`` snaps exported traces at max(--snap-tol, 1e-3).
TRACE_SNAP_TOL = 1e-3


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def labels(k: int) -> list[str]:
    """Basis-family labels for k >= 2: all-zeros, e_1..e_k (player i holds 1),
    all-ones."""
    basis = ["0" * (i - 1) + "1" + "0" * (k - i) for i in range(1, k + 1)]
    return ["0" * k, *basis, "1" * k]


def closed_form_uniform(k: int) -> tuple[float, float]:
    """(external, internal) bits for the uniform basis measure on k players."""
    ext = math.log2(k / (k - 1))
    internal = 0.0 if k == 2 else (k - 2) * math.log2((k - 1) / (k - 2))
    return ext, internal


def taylor_coefficient(k: int, s: int, beta: float, which: str) -> float:
    """Leading cubic-law coefficient of the window deficit (deficit ~ c eps^3)."""
    ln2 = math.log(2.0)
    if which == "ext" or k == 2:
        return (k + 5 * s - 6) * (1 - 2 * beta) * beta / (12 * (1 - beta) * ln2)
    poly = (3 * k - 2) * beta**2 - 4 * (k - 1) * beta + (k - 1)
    return (k + 5 * s - 6) * poly * beta / (12 * (1 - beta) * (1 - 2 * beta) * ln2)


def _entropy_bits(masses) -> float:
    return -sum(m * math.log2(m) for m in masses if m > 0.0)


def _random_measure(rng: random.Random, k: int) -> dict[str, float]:
    # masses within a factor 3 of each other keep every start time within
    # ln 3, so the quadrature work is similar from seed to seed
    w = [rng.uniform(0.5, 1.5) for _ in labels(k)]
    total = sum(w)
    return {lab: x / total for lab, x in zip(labels(k), w)}


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

# Sizes per scale.  "full" is the benchmark; "smoke" is a reduced run that
# exercises the same code paths for the self-tests.
SIZES = {
    "full": {
        "maximize": [],
        "uniform_k": "32,64,96",
        "ic_k": 24,
        "ic_measures": 4,
        "delta_exponents": range(4, 13),
        "grid": ["--k", "2,3,4,5,6,8", "--beta", "0.01,0.02,0.05,0.1",
                 "--eps", "1e-2,5e-3,2.5e-3,1.25e-3"],
        "traces": 20000,
        "export_traces": 5,
    },
    "smoke": {
        "maximize": ["--budget", "40", "--grid-step", "0.25"],
        "uniform_k": "4,6",
        "ic_k": 5,
        "ic_measures": 1,
        "delta_exponents": range(4, 7),
        "grid": ["--k", "2,3", "--beta", "0.05", "--eps", "1e-2,5e-3"],
        "traces": 200,
        "export_traces": 1,
    },
}

WALK_EPS = 0.05
TRACE_SEED = 0


def prepare(name: str, work: Path, seed: int, scale: str = "full") -> list[list[str]]:
    """Write the workload's input files under ``work``; return its argv lists.

    Only ``wide_k`` (its random measures) and ``signal_walk`` (the seed of its
    20,000 walks) depend on the seed; the other two workloads are fixed.
    """
    size = SIZES[scale]
    work.mkdir(parents=True, exist_ok=True)
    out = lambda stem: str(work / stem)  # noqa: E731

    if name == "disjointness":
        return [["maximize", "--zero", "11", *size["maximize"],
                 "--output", out("maximize.json")]]

    if name == "wide_k":
        no11 = _write_json(work / "no11.json", {"k": 2, "mass": NO11})
        rng = random.Random(seed)
        runs = [["uniform", "--k", size["uniform_k"], "--output", out("uniform.json")]]
        for j in range(size["ic_measures"]):
            measure = _write_json(
                work / f"random{j}.json",
                {"k": size["ic_k"], "mass": _random_measure(rng, size["ic_k"])},
            )
            runs.append(["ic", "--measure", measure, "--output", out(f"ic{j}.json")])
        deltas = ",".join(repr(2.0**-j) for j in size["delta_exponents"])
        runs.append(["discretize", "--measure", no11, "--delta", deltas,
                     "--format", "json", "--output", out("discretize.json")])
        return runs

    if name == "concavity_grid":
        return [["verify-concavity", *size["grid"], "--outside",
                 "--output", out("grid.csv")]]

    if name == "signal_walk":
        no11 = _write_json(work / "no11.json", {"k": 2, "mass": NO11})
        walk = ["simulate-signal", "--measure", no11, "--reveal", "1",
                "--eps", repr(WALK_EPS)]
        # The exported traces take a fixed seed: their lengths are heavy-tailed
        # (15k to 35k steps for five traces), so a seeded export would make the
        # pass time vary with the seed by more than the benchmark's bound.
        return [
            [*walk, "--traces", str(size["traces"]), "--seed", str(seed),
             "--output", out("walk.json")],
            [*walk, "--traces", "1", "--seed", str(TRACE_SEED),
             "--export-traces", str(size["export_traces"]), "--output", out("traces.json")],
        ]

    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check(name: str, work: Path, runs: list[list[str]], codes: list[int]) -> list[Check]:
    """Check every output of one pass; an invocation that failed is one failed
    check and its outputs are not read."""
    checks = [
        Check(f"exit:{argv[0]}", code == 0, f"exit code {code}")
        for argv, code in zip(runs, codes)
    ]
    if any(codes):
        return checks
    checker = {
        "disjointness": _check_disjointness,
        "wide_k": _check_wide_k,
        "concavity_grid": _check_concavity_grid,
        "signal_walk": _check_signal_walk,
    }[name]
    return checks + checker(work, runs)


def _output_of(argv: list[str]) -> Path:
    return Path(argv[argv.index("--output") + 1])


def _load(argv: list[str]):
    return json.loads(_output_of(argv).read_text(encoding="utf-8"))


def _check_disjointness(work: Path, runs) -> list[Check]:
    result = _load(runs[0])
    value = result["value_bits"]
    mass = result["argmax"]["mass"]
    asym = abs(mass.get("01", 0.0) - mass.get("10", 0.0))
    return [
        Check("disjointness constant",
              abs(value - DISJOINTNESS_CONSTANT) <= DISJOINTNESS_TOL,
              f"value {value!r} vs {DISJOINTNESS_CONSTANT} +/- {DISJOINTNESS_TOL}"),
        Check("symmetric argmax", asym <= ARGMAX_TOL,
              f"|m(01) - m(10)| = {asym:.3e} (<= {ARGMAX_TOL})"),
    ]


def _check_wide_k(work: Path, runs) -> list[Check]:
    checks = []
    uniform_argv, *ic_argvs, discretize_argv = runs
    wanted = [int(k) for k in uniform_argv[uniform_argv.index("--k") + 1].split(",")]
    rows = _load(uniform_argv)
    checks.append(Check("uniform rows", [r["k"] for r in rows] == wanted,
                        f"k values {[r['k'] for r in rows]}"))
    for r in rows:
        ext, internal = closed_form_uniform(r["k"])
        gap = max(abs(r["external_quadrature"] - ext),
                  abs(r["internal_quadrature"] - internal))
        checks.append(Check(f"uniform k={r['k']} closed form", gap <= QUADRATURE_TOL,
                            f"gap {gap:.3e} bits (<= {QUADRATURE_TOL})"))

    for argv in ic_argvs:
        measure = json.loads(Path(argv[argv.index("--measure") + 1]).read_text())
        report = _load(argv)
        h_x = _entropy_bits(measure["mass"].values())
        ext = report["external_bits"]
        per_sum = sum(report["per_player_bits"])
        ok = (
            all(math.isfinite(v) for v in (ext, report["internal_bits"], per_sum))
            and -1e-12 <= ext <= h_x + 1e-12
            and abs(per_sum - report["internal_bits"]) <= 1e-12 * max(1.0, per_sum)
            and abs(report["concealed_external_bits"] - (h_x - ext)) <= QUADRATURE_TOL
        )
        checks.append(Check(f"ic {Path(argv[2]).name}", ok,
                            f"external {ext!r} in [0, H(X)={h_x!r}], per-player "
                            f"sum {per_sum!r} vs internal {report['internal_bits']!r}"))

    sweep = _load(discretize_argv)
    ref = sweep["reference"]
    for r in sweep["rows"]:
        if r["delta"] > DISCRETE_CHECKED_BELOW:
            continue
        gap = max(abs(r["external_bits"] - ref["external_bits"]),
                  abs(r["internal_bits"] - ref["internal_bits"]))
        checks.append(Check(f"discretize delta={r['delta']!r}", gap <= DISCRETE_TOL,
                            f"gap to information_cost {gap:.3e} bits (<= {DISCRETE_TOL})"))
    return checks


def _check_concavity_grid(work: Path, runs) -> list[Check]:
    argv = runs[0]
    ks = [int(v) for v in argv[argv.index("--k") + 1].split(",")]
    betas = argv[argv.index("--beta") + 1].split(",")
    epss = argv[argv.index("--eps") + 1].split(",")
    with _output_of(argv).open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    cells = sum(ks) * len(betas) * len(epss)
    feasible = [r for r in rows if r["feasible"] == "1"]
    checks = [Check("grid cells", len(rows) == cells and len(feasible) == cells,
                    f"{len(feasible)} feasible of {len(rows)} rows, expected {cells}")]
    eps_min = min(float(e) for e in epss)
    worst_deficit = min(min(float(r["ext_deficit"]), float(r["int_deficit"]))
                        for r in feasible)
    checks.append(Check("deficits nonnegative", worst_deficit >= DEFICIT_FLOOR,
                        f"smallest deficit {worst_deficit:.3e} (>= {DEFICIT_FLOOR})"))
    outside_ok = sum(r["left_ok"] == "1" and r["right_ok"] == "1" for r in feasible)
    checks.append(Check("outside-window signs", outside_ok == len(feasible),
                        f"{outside_ok} of {len(feasible)} rows with left_ok = right_ok = 1"))
    worst_rel = 0.0
    for r in feasible:
        if float(r["eps"]) != eps_min:
            continue
        k, s, beta = int(r["k"]), int(r["s"]), float(r["beta"])
        for col, which in (("ext_deficit", "ext"), ("int_deficit", "int")):
            law = taylor_coefficient(k, s, beta, which) * eps_min**3
            worst_rel = max(worst_rel, abs(float(r[col]) - law) / law)
    checks.append(Check("cubic law", worst_rel <= CUBIC_LAW_REL,
                        f"worst relative residual {worst_rel:.4f} at eps {eps_min!r} "
                        f"(<= {CUBIC_LAW_REL})"))
    return checks


def _check_signal_walk(work: Path, runs) -> list[Check]:
    sample_argv, export_argv = runs
    eps = float(sample_argv[sample_argv.index("--eps") + 1])
    sample, export = _load(sample_argv), _load(export_argv)
    n = sample["n_traces"]
    # revealing player 1's bit: signal 0 exactly when x_1 = 0
    p0 = sum(m for lab, m in NO11.items() if lab[0] == "0")
    tv = abs(sample["count0"] / n - p0)
    weakness = max(sample["max_weakness"], export["max_weakness"])
    checks = [
        Check("terminal law", sample["count0"] + sample["count1"] == n and tv <= TV_BOUND,
              f"TV {tv:.5f} over {n} walks (<= {TV_BOUND})"),
        Check("weakness", weakness <= eps * (1.0 + WEAKNESS_SLACK),
              f"max weakness {weakness!r} (<= eps {eps})"),
    ]
    posteriors = []
    for bit in "01":
        sel = {lab: m for lab, m in NO11.items() if lab[0] == bit}
        total = sum(sel.values())
        posteriors.append({lab: m / total for lab, m in sel.items()})
    expected = int(export_argv[export_argv.index("--export-traces") + 1])
    traces = export.get("traces", [])
    ended = 0
    for trace in traces:
        terminal = trace["terminal"]["mass"]
        last = trace["steps"][-1]["posterior"]["mass"] if trace["steps"] else None
        ended += any(
            _tv(terminal, post) <= 1e-12
            and last is not None and _tv(last, post) <= TRACE_SNAP_TOL
            for post in posteriors
        )
    checks.append(Check("traces terminate", len(traces) == expected and ended == expected,
                        f"{ended} of {expected} exported traces end at an exact posterior"))
    return checks


def _tv(a: dict, b: dict) -> float:
    return 0.5 * sum(abs(a.get(lab, 0.0) - b.get(lab, 0.0)) for lab in set(a) | set(b))
