"""Which modules each part of the package loads.

The engine's route needs only integer and rational arithmetic, so importing
the command line and answering ``exact`` on a symbolic set or
``network-check`` must load neither numpy nor scipy, nor the oracle or the
Monte Carlo.  The three routes must also stay independent: the oracle and
the Monte Carlo build on ``model`` and ``exact`` alone, and the engine never
reads either of them, so an agreement between routes still means something.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ehrenfest"

HEAVY = ("numpy", "scipy", "ehrenfest.oracle", "ehrenfest.mc")

# argv of each request, then the modules it left loaded; one fresh interpreter runs them all
STARTUP = """
import json, sys
sys.path.insert(0, sys.argv[1])
import ehrenfest.cli as cli
cli.build_parser()
for batch in json.loads(sys.argv[2]):
    codes = [cli.main(argv + ["--out", sys.argv[3]]) for argv in batch]
    print(json.dumps([codes, sorted(m for m in %r if m in sys.modules)]))
""" % (HEAVY,)

GRID = ["--order", "4", "--u", "1/2,2", "--lambda", "0.5"]
SIZE = ["--N", "4", "--M", "3"]


def _exact(start, target):
    return ["exact", *SIZE, "--start", start, "--set", target, *GRID]


def test_engine_requests_load_no_numpy_oracle_or_mc(tmp_path):
    members = tmp_path / "members.json"
    members.write_text("[[2, 2, 2], [3, 3, 3]]", encoding="utf-8")
    engine = [
        _exact("1,1,1", "singleton:2,2,2"),
        _exact("1,1,1", "pair:(2,2,2);(3,3,3)"),
        _exact("1,2,1", "diagonal"),
        _exact("1,1,1", "count:1"),
        _exact("1,1,1", "distinct"),
        ["network-check", "--N", "4", "--M", "20"],
    ]
    # the contrast: each of these needs numpy, and still answers
    others = [
        _exact("1,1,1", f"explicit:@{members}"),
        ["oracle", *SIZE, "--start", "1,1,1", "--set", "singleton:2,2,2", *GRID],
        ["simulate", *SIZE, "--start", "1,1,1", "--set", "singleton:2,2,2", "--replicas", "100"],
    ]
    proc = subprocess.run(
        [sys.executable, "-I", "-c", STARTUP, str(ROOT / "src"), json.dumps([engine, others]),
         str(tmp_path / "report.json")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    (engine_codes, engine_loaded), (other_codes, other_loaded) = map(json.loads, proc.stdout.splitlines())
    assert engine_codes == [0] * len(engine) and engine_loaded == []
    assert other_codes == [0] * len(others) and other_loaded == ["ehrenfest.mc", "ehrenfest.oracle", "numpy"]


def _imports(tree: ast.Module) -> list[tuple[str, bool]]:
    """``(module, at module level)`` of every import in ``tree``.  A module of
    the package is named ``ehrenfest.<name>``; an import inside a function
    body is not at module level, one in a class body is."""
    found = []

    def visit(node, top):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((alias.name, top) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                if not child.level:
                    found.append((child.module, top))
                elif child.module:
                    found.append((f"ehrenfest.{child.module}", top))
                else:
                    found.extend((f"ehrenfest.{alias.name}", top) for alias in child.names)
            visit(child, top and not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(tree, True)
    return found


IMPORTS = {
    path.stem: _imports(ast.parse(path.read_text(encoding="utf-8")))
    for path in sorted(PACKAGE.glob("*.py"))
}


def _package_imports(module: str) -> set[str]:
    return {name.split(".")[1] for name, _ in IMPORTS[module] if name.startswith("ehrenfest.")}


@pytest.mark.parametrize("route", ["oracle", "mc"])
def test_oracle_and_mc_build_on_model_and_exact_alone(route):
    assert _package_imports(route) <= {"model", "exact"}


@pytest.mark.parametrize("module", ["hitting", "resolvent", "closedforms", "exact"])
def test_the_engine_never_imports_the_oracle_or_the_mc(module):
    assert not _package_imports(module) & {"oracle", "mc"}


@pytest.mark.parametrize("module", ["__init__", "model", "exact", "resolvent", "closedforms", "hitting", "cli"])
def test_no_module_level_numpy_or_scipy(module):
    top = {name.split(".")[0] for name, at_top in IMPORTS[module] if at_top}
    assert not top & {"numpy", "scipy"}


def test_the_reader_sees_imports_inside_functions():
    assert ("scipy", False) in IMPORTS["resolvent"]
    assert ("ehrenfest.oracle", False) in IMPORTS["cli"] and ("ehrenfest.mc", False) in IMPORTS["cli"]
    assert ("numpy", True) in IMPORTS["oracle"] and ("numpy", False) in IMPORTS["model"]
