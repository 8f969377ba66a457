"""The README quick start and every demo run, each name imported from its
module: the engine's from ``ehrenfest.hitting`` and ``ehrenfest.closedforms``,
the oracle's and the Monte Carlo's from ``ehrenfest.oracle`` and
``ehrenfest.mc``, the definitions from ``ehrenfest.model``."""

import re
import runpy
import shlex
from pathlib import Path

import pytest

from ehrenfest import cli, mc, model, oracle

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    snippet = re.search(r"## Library quick start\s+```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    exec(snippet, namespace)
    query = namespace["query"]
    assert namespace["mean"](query) == 10
    assert namespace["variance"](query) == 74
    assert namespace["raw_moments"](query, 4) == [10, 174, 4498, 154974]
    chain = namespace["EnumeratedChain"](query.params)
    assert namespace["solve_raw_moments"](chain, namespace["target"], (1, 1), 4) == [10, 174, 4498, 154974]


def _readme_cli_lines():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line.*?```sh\n(.*?)```", readme, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("ehrenfest ")]


@pytest.mark.parametrize(
    "line", _readme_cli_lines(), ids=[f"{i}-{line.split()[1]}" for i, line in enumerate(_readme_cli_lines())]
)
def test_readme_cli_line_runs(line, capsys):
    assert cli.main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out


def _renderings(value: int) -> set[str]:
    """The ways the README may write an integer: plainly, as a power of two,
    or as a mantissa times a power of ten (``10^7``, ``1.5*10^8``)."""
    forms = {str(value)}
    if value > 1 and value & (value - 1) == 0:
        forms.add(f"2^{value.bit_length() - 1}")
    exponent = len(str(value)) - 1
    if exponent >= 3 and value % 10 ** (exponent - 1) == 0:
        mantissa = f"{value / 10**exponent:g}"
        forms.add(f"10^{exponent}" if mantissa == "1" else f"{mantissa}*10^{exponent}")
    return forms


def test_readme_states_every_bound():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (paragraph,) = [p for p in readme.split("\n\n") if p.startswith("Bounds.")]
    text = " ".join(paragraph.split())
    for _, flag, least, greatest in cli._INT_BOUNDS:
        assert any(f"`{flag}` in `{least}..{form}`" in text for form in _renderings(greatest)), flag
    for module, name in ((oracle, "MAX_MOVES"), (oracle, "MAX_BLOCKS"),
                         (mc, "WALK_BUDGET"), (mc, "STEP_CHARGE"), (mc, "MAX_SLOTS"), (mc, "TABLE_ENTRIES"),
                         (model, "MAX_PAIR_COORDS"), (model, "MAX_GRID_CELLS")):
        value = getattr(module, name)
        assert any(f"`{module.__name__.rsplit('.')[-1]}.{name}` = `{form}`" in text for form in _renderings(value)), name
