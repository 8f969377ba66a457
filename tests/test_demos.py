"""The top-level namespace serves the README quick start and every demo."""

import re
import runpy
from pathlib import Path

import pytest

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
