"""Exact-arithmetic reports stay byte-identical.

Each ``golden/<name>.out`` is the stdout of one exact or oracle command,
which runs no Monte Carlo and no quadrature, only exact arithmetic, so no
numpy version can change it. Regenerate a file only with a contract change
named in CHANGES.md.
"""

from pathlib import Path

import pytest

from ehrenfest import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (argv, exit code); the first three are README's exact and oracle lines
CASES = {
    "exact_singleton": (["exact", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
                         "--order", "4", "--u", "1/2,1,2"], 0),
    "exact_diagonal": (["exact", "--N", "3", "--M", "2", "--start", "1,2", "--set", "diagonal"], 0),
    "oracle_pair": (["oracle", "--N", "3", "--M", "2", "--start", "1,1", "--set", "pair:(2,2);(1,2)"], 0),
    "exact_count": (["exact", "--N", "3", "--M", "6", "--start", "1,1,1,1,1,1", "--set", "count:2",
                     "--order", "4", "--u", "1/2,2", "--lambda", "0.5"], 0),
    # non-dyadic lambdas at 40 digits: their u is a fixed-point Taylor sum floored to 46 digits' worth of bits
    "exact_lambda": (["exact", "--N", "3", "--M", "6", "--start", "1,1,1,1,1,1", "--set", "singleton:2,2,2,2,2,2",
                      "--order", "4", "--lambda", "0.01,0.1", "--digits", "40"], 0),
    # every level pair's two commute-identity sides, each reduced and rendered
    "network_check": (["network-check", "--N", "4", "--M", "20"], 0),
}


@pytest.mark.parametrize("name", CASES)
def test_report_matches_golden_file(name, capsys):
    argv, want_code = CASES[name]
    code = cli.main(argv)
    assert code == want_code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(CASES)
