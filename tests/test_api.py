"""The package is what the command line runs, and its public API is no larger
than the command line and the acceptance suite need."""

import ast
import json
import sys
from pathlib import Path

import icand
from icand import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(icand.__file__).parent

#: Functions no small CLI run reaches, each with the reason it stays.
UNREACHED = {
    "classify": "acceptance: criterion 6 classifies every walk step",
    "merge_tail_players": "acceptance: criterion 10, merge invariance",
    "SimulationTrace.steps": "acceptance: criterion 6 reads the step objects",
    "InputDistribution.two_party": "acceptance: the no-11 measure of criteria 6 and 7",
    "InputDistribution.to_json": "acceptance: criterion 1 writes its measure files",
    "InputDistribution.mass": "acceptance: criterion 2 compares the argmax masses of 01 and 10",
    "InputDistribution.mass_zeros": "acceptance: the eps^2 bound of criterion 5 and merge_tail_players",
    "ZeroEMassError.__init__": "exception constructor",
    "InputDistribution.__setattr__": "dunder: raises on mutation",
    "InputDistribution.__repr__": "dunder",
    "InputDistribution.__eq__": "dunder",
    "InputDistribution.__hash__": "dunder",
}


def _imported_names(path: Path) -> set[str]:
    """Names a module imports from the package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").startswith("icand")
        ):
            names |= {alias.name for alias in node.names}
    return names


def test_every_public_name_is_used():
    used = _imported_names(PACKAGE / "cli.py") | _imported_names(
        ROOT / "tests" / "test_acceptance.py"
    )
    assert sorted(set(icand.__all__) - used) == []


def _defined_functions() -> dict[tuple[str, str, int], str]:
    """Every function and method in the package, keyed as a code object
    names it (file, name, first line, decorators included), with its
    qualified name."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    out[(str(path), child.name, first)] = prefix + child.name
                    visit(child, prefix + child.name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def _cli_runs(tmp: Path) -> list[list[str]]:
    no11 = tmp / "no11.json"
    no11.write_text(json.dumps({"k": 2, "mass": {"00": 1 / 3, "01": 1 / 3, "10": 1 / 3}}))
    k3 = tmp / "k3.json"
    k3.write_text(json.dumps({"k": 3, "mass": {"000": 0.4, "100": 0.2, "010": 0.2, "111": 0.2}}))
    out = lambda name: ["--output", str(tmp / name)]  # noqa: E731
    return [
        ["ic", "--measure", str(no11), *out("ic.json")],
        ["ic", "--measure", str(k3), *out("ic3.json")],
        ["uniform", "--k", "3,4", "--format", "csv", *out("uniform.csv")],
        ["verify-concavity", "--k", "2,3", "--beta", "0.05,0.4", "--eps", "1e-2",
         "--outside", "--format", "json", *out("grid.json")],
        ["simulate-signal", "--measure", str(no11), "--reveal", "1", "--eps", "0.3",
         "--traces", "50", "--export-traces", "1", *out("walk.json")],
        ["discretize", "--measure", str(no11), "--delta", "0.25", "--format", "json",
         *out("discretize.json")],
        ["maximize", "--zero", "11", "--budget", "40", "--grid-step", "0.25",
         "--trace-csv", str(tmp / "trace.csv"), *out("maximize.json")],
        ["maximize", "--zero", "00,10,11", "--objective", "external", *out("point.json")],
        ["continuity-check", "--pairs", "2", "--format", "csv",
         *out("continuity.csv")],
        ["ic", "--measure", str(tmp / "missing.json")],
    ]


def test_every_package_function_is_reached(tmp_path, capsys):
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_name, code.co_firstlineno))

    # a warm lru_cache answers without calling its function
    for name, module in list(sys.modules.items()):
        if name.startswith("icand."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    codes, runs = [], _cli_runs(tmp_path)
    sys.setprofile(profile)
    try:
        for argv in runs:
            codes.append(cli.main(argv))
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * 9 + [2]
    # every JSON file a subcommand writes is the standard library's text
    outputs = [argv[-1] for argv in runs if argv[-2] == "--output" and argv[-1].endswith(".json")]
    assert len(outputs) == 7
    for path in outputs:
        text = Path(path).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2), path
    unreached = {name for key, name in _defined_functions().items() if key not in reached}
    assert unreached == set(UNREACHED)
