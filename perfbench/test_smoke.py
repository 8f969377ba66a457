"""Smoke test of the benchmark: every workload at a tiny size.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import json

import pytest

import checks
import run

TINY = {
    "exact-wide": [
        {"cmd": "exact", "set": "count", "N": 3, "M": 4, "h": 1},
        {"cmd": "exact", "set": "distinct", "N": 3, "M": 3, "permuted": True},
    ],
    "exact-deep": [
        {"cmd": "exact", "set": "singleton", "N": 3, "M": 8, "k": 3, "order": 4, "u": "1/2,2", "lambda": "0.01,0.5"},
        {"cmd": "exact", "set": "pair", "N": 3, "M": 6, "d": 2, "a": 2, "b": (1, 0), "order": 3, "u": "1"},
        {"cmd": "exact", "set": "diagonal", "N": 3, "M": 5, "occ": (3, 1, 1), "order": 3, "lambda": "0.5"},
        {"cmd": "identities"},
        {"cmd": "network-check", "N": 3, "M": 4},
    ],
    "verify": [
        {"cmd": "oracle", "set": "singleton", "N": 2, "M": 3, "k": 1, "order": 3, "u": "1", "lambda": "0.5"},
        {"cmd": "oracle", "set": "pair", "N": 3, "M": 2, "d": 2, "a": 0, "b": (1, 0), "order": 2},
        {"cmd": "oracle", "set": "diagonal", "N": 3, "M": 2, "occ": (1, 1), "order": 2, "u": "1"},
        {"cmd": "oracle", "set": "random", "N": 2, "M": 3, "size": 3, "order": 2, "lambda": "0.1"},
        {"cmd": "compare", "set": "count", "N": 2, "M": 3, "h": 2, "k": 0},
    ],
    "simulate": [
        {"cmd": "simulate", "set": "singleton", "N": 2, "M": 3, "k": 1, "mode": "discrete"},
        {"cmd": "simulate", "set": "distinct", "N": 3, "M": 3, "occ": (2, 1), "mode": "ctmc"},
        {"cmd": "simulate", "set": "count", "N": 3, "M": 3, "h": 2, "k": 0, "mode": "ctmc"},
    ],
}

SPEC = json.loads(run.BENCHMARK.read_text())


def _tiny(workload, trace, **kw):
    return run.run_workload(workload, 7, 1, trace, menu=TINY[workload], passes=1 if not trace else 2,
                            setup_samples=1, **kw)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_reported_with_unit(workload, trace):
    record = _tiny(workload, trace)
    result = record["result"]
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] == len(TINY[workload]) * (2 if trace else 1)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_wrong_expected_value_counts_as_failure(monkeypatch):
    real = checks.LumpedChain.moments
    monkeypatch.setattr(checks.LumpedChain, "moments", lambda self, start, order: [v + 1 for v in real(self, start, order)])
    result = _tiny("exact-wide", False)["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2


def test_timeout_counts_as_one_failure():
    record = _tiny("verify", False, timeout=1e-4)
    assert record["result"]["failed"] == len(TINY["verify"])
    assert all("timed out" in f["why"] for f in record["failures"])


def test_lumped_chain_matches_package_oracle():
    from ehrenfest.model import ModelParams
    from ehrenfest.oracle import lumped_count_oracle

    for n, m in ((2, 4), (3, 5), (4, 3)):
        for k in range(m + 1):
            for h in range(m + 1):
                want = lumped_count_oracle(ModelParams(n, m), k, h)
                assert checks.count_chain(n, m, h).moments(k, 1)[0] == want
