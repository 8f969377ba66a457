"""Which modules each part of the package loads.

The engine's route needs only integer and rational arithmetic, so importing
the command line and answering ``exact`` on a symbolic set, ``network-check``
or ``identities`` must load neither numpy nor scipy, nor the oracle or the
Monte Carlo.  Start-up also leaves out the standard modules it does not
use: ``dataclasses`` and ``inspect``, which took about half of a fresh
process's import time, ``csv``, which only a ``--format csv`` report
loads, and ``json``'s package, decoder and scanner, which only an
``explicit:@file`` set loads: the report writer takes ``json``'s C string
encoder from ``_json``.  No module of the package imports scipy or ``dataclasses`` at all.
The three routes must also stay independent: the oracle and the Monte Carlo
build on ``model`` and ``exact`` alone, and the engine never reads either of
them, so an agreement between routes still means something.  That holds at
run time too: the oracle's solves and the walk, called directly or through
the command line, answer on every kind of target set with no engine module
(``hitting``, ``resolvent``, ``closedforms``) loaded.
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
ENGINE = ("ehrenfest.hitting", "ehrenfest.resolvent", "ehrenfest.closedforms")
# standard modules that start-up and a JSON report do without; numpy loads inspect itself
UNUSED = ("dataclasses", "inspect", "csv")

# argv of each request, then the modules it left loaded of those watched; one fresh interpreter runs them all
STARTUP = """
import json, sys
sys.path.insert(0, sys.argv[1])
import ehrenfest.cli as cli
cli.build_parser()
for batch in json.loads(sys.argv[2]):
    codes = [cli.main(argv + ["--out", sys.argv[3]]) for argv in batch]
    print(json.dumps([codes, sorted(m for m in json.loads(sys.argv[4]) if m in sys.modules)]))
"""

GRID = ["--order", "4", "--u", "1/2,2", "--lambda", "0.5"]
SIZE = ["--N", "4", "--M", "3"]


def _exact(start, target):
    return ["exact", *SIZE, "--start", start, "--set", target, *GRID]


def _batches(batches, watched, tmp_path):
    """``(exit codes, watched modules left loaded)`` after each batch of requests, all run by one fresh
    interpreter that imports ``ehrenfest.cli`` and nothing else of the package."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", STARTUP, str(ROOT / "src"), json.dumps(batches), str(tmp_path / "report.json"),
         json.dumps(watched)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def _kinds(tmp_path):
    """``(start, --set)`` of one target set of each kind at ``SIZE``, the explicit one written to ``tmp_path``."""
    members = tmp_path / "members.json"
    members.write_text("[[2, 2, 2], [3, 3, 3]]", encoding="utf-8")
    return [("1,1,1", "singleton:2,2,2"), ("1,1,1", "pair:(2,2,2);(3,3,3)"), ("1,2,1", "diagonal"),
            ("1,1,1", "count:1"), ("1,1,1", "distinct"), ("1,1,1", f"explicit:@{members}")]


def test_engine_requests_load_no_numpy_oracle_or_mc(tmp_path):
    *symbolic, explicit = _kinds(tmp_path)
    engine = [*(_exact(*kind) for kind in symbolic), ["network-check", "--N", "4", "--M", "20"], ["identities"]]
    # the contrast: a CSV report loads csv, and each of the others needs numpy, and still answers
    tables = [[*_exact("1,1,1", "singleton:2,2,2"), "--format", "csv"]]
    others = [
        _exact(*explicit),
        ["oracle", *SIZE, "--start", "1,1,1", "--set", "singleton:2,2,2", *GRID],
        ["simulate", *SIZE, "--start", "1,1,1", "--set", "singleton:2,2,2", "--replicas", "100"],
    ]
    (engine_codes, engine_loaded), (table_codes, table_loaded), (other_codes, other_loaded) = _batches(
        [engine, tables, others], HEAVY + UNUSED, tmp_path
    )
    assert engine_codes == [0] * len(engine) and engine_loaded == []
    assert table_codes == [0] and table_loaded == ["csv"]
    assert other_codes == [0] * len(others)
    assert [m for m in other_loaded if m in HEAVY] == ["ehrenfest.mc", "ehrenfest.oracle", "numpy"]


# STARTUP's check for the json package, which STARTUP's own import of json would hide: the batches of argv come
# as a Python literal, read by ast.literal_eval
JSON_FREE = """
import ast, sys
sys.path.insert(0, sys.argv[1])
import ehrenfest.cli as cli
cli.build_parser()
for batch in ast.literal_eval(sys.argv[2]):
    codes = [cli.main(argv + ["--out", sys.argv[3]]) for argv in batch]
    print(repr([codes, sorted(m for m in sys.modules if m.partition(".")[0] == "json")]))
"""


def test_start_up_and_engine_requests_load_no_json_module(tmp_path):
    *symbolic, explicit = _kinds(tmp_path)
    engine = [*(_exact(*kind) for kind in symbolic), ["network-check", "--N", "4", "--M", "20"], ["identities"]]
    proc = subprocess.run(
        [sys.executable, "-I", "-c", JSON_FREE, str(ROOT / "src"), repr([[], engine, [_exact(*explicit)]]),
         str(tmp_path / "report.json")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    (_, started), (engine_codes, engine_loaded), (file_codes, file_loaded) = map(ast.literal_eval,
                                                                                   proc.stdout.splitlines())
    assert started == [] and engine_codes == [0] * len(engine) and engine_loaded == []
    assert file_codes == [0] and "json.decoder" in file_loaded  # the check sees json once it is loaded


def test_the_report_writer_encodes_strings_as_json_does():
    import json.encoder

    from ehrenfest import cli

    assert cli.encode_basestring_ascii is json.encoder.encode_basestring_ascii


# the oracle's three solves and a walk on each (start, --set) of argv[2], in an interpreter that imports the two
# routes and the definitions they build on: whether each answered, then the engine modules left loaded, before
# and after an import of the engine
ROUTES = """
import json, sys
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
from ehrenfest import mc, oracle
from ehrenfest.model import ModelParams, parse_set
params = ModelParams(4, 3)
chain, answered = oracle.EnumeratedChain(params), []
for text, descriptor in json.loads(sys.argv[2]):
    start, target = tuple(map(int, text.split(","))), parse_set(descriptor)
    moments = oracle.solve_raw_moments(chain, target, start, 2)
    transform = oracle.solve_transform_u(chain, target, start, Fraction(1, 2))
    exits = oracle.exit_distribution(chain, target, start)
    walk = mc.sample_hitting(params, start, target, mc.SimConfig(100, 1))
    answered.append(moments[0] > 0 and 0 < transform < 1 and sum(exits.values()) == 1 and walk.sample_mean > 0)
engine = %r
print(json.dumps([answered, [m for m in engine if m in sys.modules]]))
import ehrenfest.hitting
print(json.dumps([m for m in engine if m in sys.modules]))
""" % (ENGINE,)


def test_the_oracle_and_the_walk_run_without_the_engine(tmp_path):
    kinds = _kinds(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-I", "-c", ROUTES, str(ROOT / "src"), json.dumps(kinds)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    (answered, loaded), contrast = map(json.loads, proc.stdout.splitlines())
    assert answered == [True] * len(kinds) and loaded == []
    assert contrast == list(ENGINE)  # the check sees the engine once it is loaded


def test_oracle_and_simulate_requests_load_no_engine_module(tmp_path):
    routes = [
        [command, *SIZE, "--start", start, "--set", target, *extra]
        for start, target in _kinds(tmp_path)
        for command, extra in (("oracle", GRID), ("simulate", ["--replicas", "100", "--lambda", "0.5"]),
                               ("simulate", ["--replicas", "100", "--mode", "ctmc", "--u", "1/2,2"]))
    ]
    (route_codes, route_loaded), (engine_codes, engine_loaded) = _batches(
        [routes, [_exact("1,1,1", "singleton:2,2,2")]], ENGINE, tmp_path
    )
    assert route_codes == [0] * len(routes) and route_loaded == []
    assert engine_codes == [0] and engine_loaded == sorted(ENGINE)  # the check sees the engine once it is loaded


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


def test_the_package_never_imports_scipy():
    assert not any(name.split(".")[0] == "scipy" for found in IMPORTS.values() for name, _ in found)


def test_the_package_never_imports_dataclasses():
    assert not any(name == "dataclasses" for found in IMPORTS.values() for name, _ in found)


def test_the_reader_sees_imports_inside_functions():
    assert ("ehrenfest.oracle", False) in IMPORTS["cli"] and ("ehrenfest.mc", False) in IMPORTS["cli"]
    assert ("numpy", True) in IMPORTS["oracle"] and ("numpy", False) in IMPORTS["model"]
