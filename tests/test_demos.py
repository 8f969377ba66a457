"""The top-level namespace serves the README quick start and every demo."""

import re
import runpy
import shlex
from pathlib import Path

import pytest

from ehrenfest import cli

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
