import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrenfest import cli, closedforms, exact, hitting, mc, model, oracle, resolvent
from ehrenfest.closedforms import count_set_mean
from ehrenfest.exact import format_rational
from ehrenfest.model import ModelParams, parse_set
import reference


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out) if out else None, err


def test_exact_singleton(capsys):
    code, report, _ = run_json(
        capsys,
        "exact", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
        "--order", "2", "--u", "1/2,1,2", "--lambda", "0,0.5",
    )
    assert code == 0
    results = report["results"]
    assert results["mean"]["rational"] == "10"
    assert results["variance"]["rational"] == "74"
    assert [m["rational"] for m in results["raw_moments"]] == ["10", "174"]
    assert results["u_samples"][0] == {"u": "1/2", "value": {"rational": "1/4", "float": 0.25}}
    assert results["lambda_samples"][0]["float"] == 1.0
    assert results["exit_distribution"] == {"2,2": {"rational": "1", "float": 1.0}}
    assert report["request"]["set_text"] == "singleton:2,2"


def test_exact_diagonal_exit_distribution(capsys):
    code, report, _ = run_json(
        capsys, "exact", "--N", "3", "--M", "2", "--start", "1,2", "--set", "diagonal"
    )
    assert code == 0
    results = report["results"]
    assert results["mean"]["rational"] == "2"
    assert results["exit_distribution"] == {
        "1,1": {"rational": "2/5", "float": 0.4},
        "2,2": {"rational": "2/5", "float": 0.4},
        "3,3": {"rational": "1/5", "float": 0.2},
    }


def test_exact_start_inside_target(capsys):
    code, report, _ = run_json(
        capsys,
        "exact", "--N", "3", "--M", "2", "--start", "2,2", "--set", "singleton:2,2",
        "--u", "1,2", "--lambda", "0.5,1",
    )
    assert code == 0
    results = report["results"]
    assert results["mean"]["rational"] == "0"
    assert all(s["value"]["rational"] == "1" for s in results["u_samples"])
    assert all(s["float"] == 1.0 for s in results["lambda_samples"])


def test_exact_rejects_asymmetric_set(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([[1, 1], [2, 2], [1, 2]]))
    code, out, err = run_cli(
        capsys, "exact", "--N", "3", "--M", "2", "--start", "1,1", "--set", f"explicit:@{path}"
    )
    assert code == 3
    assert out == ""
    assert "overlap histogram" in err
    assert "(1, 1, 1)" in err and "(0, 2, 1)" in err


def test_exit_three_message_is_bounded_by_the_histograms(tmp_path, capsys):
    # the 12870-member count:8 set at N=2 M=16, one member replaced by all ones:
    # the witnesses are two histograms of M + 1 counts, not two profiles of |A| overlaps
    params = ModelParams(2, 16)
    states = model.SetDescriptor.count(8).materialize(params)
    states = sorted(states[:-1] + [(1,) * 16])
    path = tmp_path / "count8.json"
    path.write_text(json.dumps([list(s) for s in states]))
    code, out, err = run_cli(
        capsys, "exact", "--N", "2", "--M", "16", "--start", ",".join(["1"] * 16), "--set", f"explicit:@{path}"
    )
    assert (code, out) == (3, "")
    assert len(err.encode()) < 1024
    hists = [tuple(sum(model.overlap(y, z) == k for z in states) for k in range(17)) for y in states[:2]]
    assert err == (
        f"error: target set is not overlap-symmetric: state {states[0]} has overlap histogram {hists[0]} "
        f"but state {states[1]} has overlap histogram {hists[1]}\n"
    )


def test_oracle_mirrors_exact(capsys):
    args = ["--N", "3", "--M", "2", "--start", "1,2", "--set", "diagonal",
            "--order", "4", "--u", "1/2,1,2"]
    code_e, exact_report, _ = run_json(capsys, "exact", *args)
    code_o, oracle_report, _ = run_json(capsys, "oracle", *args)
    assert code_e == code_o == 0
    for key in ("mean", "variance"):
        assert exact_report["results"][key]["rational"] == oracle_report["results"][key]["rational"]
    assert [m["rational"] for m in exact_report["results"]["raw_moments"]] == [
        m["rational"] for m in oracle_report["results"]["raw_moments"]
    ]
    assert exact_report["results"]["u_samples"] == oracle_report["results"]["u_samples"]
    assert exact_report["results"]["exit_distribution"] == oracle_report["results"]["exit_distribution"]


#: (N, M, --set, a start outside the set, a start inside it) on chains of N * M <= 12; the explicit set is
#: the ternary tetracode, written to a file by the test
_ROUTE_CASES = [
    (3, 3, "singleton:2,3,1", "1,1,1", "2,3,1"),
    (3, 3, "pair:(2,2,2);(1,3,2)", "1,1,1", "1,3,2"),
    (4, 3, "diagonal", "1,2,3", "4,4,4"),
    (3, 4, "count:2", "2,2,2,1", "2,1,2,3"),
    (4, 3, "distinct", "1,1,2", "3,1,4"),
    (3, 4, "explicit", "1,1,1,2", "1,1,1,1"),
]


@pytest.mark.parametrize("inside", [False, True], ids=["outside", "inside"])
@pytest.mark.parametrize("n, m, text, outside, member", _ROUTE_CASES, ids=[c[2].split(":")[0] for c in _ROUTE_CASES])
def test_engine_and_oracle_summaries_are_equal(n, m, text, outside, member, inside, tmp_path):
    # both routes fill their summaries by one constructor, so the oracle's is also held to its solves, taken
    # directly: a fault in the shared rules would otherwise show on both routes alike
    if text == "explicit":
        (g, h) = ((1, 0, 1, 1), (0, 1, 1, 2))
        members = sorted({tuple((a * x + b * y) % 3 + 1 for x, y in zip(g, h)) for a in range(3) for b in range(3)})
        (tmp_path / "tetracode.json").write_text(json.dumps(members))
        text = f"explicit:@{tmp_path / 'tetracode.json'}"
    lambdas = (0.0, 0.5, 3.0)
    for order in range(1, 5):
        args = cli.build_parser().parse_args(["exact", "--N", str(n), "--M", str(m), "--start",
                                              member if inside else outside, "--set", text,
                                              "--order", str(order), "--u", "1/2,2"])
        cli._check_args(args)
        chain = oracle.EnumeratedChain(args.params)
        _, engine = cli._engine(args, args.u_grid, lambdas)
        truth = cli._oracle(args, chain, args.u_grid, lambdas, exit_law=True)
        if engine.exit_distribution is None:
            truth = truth._replace(exit_distribution=None)
        # each route prints its own lambda samples, the engine from an enclosure and the oracle from its exact
        # value: both are equal, and the engine's exact sums equal the oracle's solves at the same u
        assert engine == truth
        start, target = args.start_state, args.target
        moments = oracle.solve_raw_moments(chain, target, start, max(order, 2))
        assert truth.raw_moments == tuple(moments[:order])
        assert (truth.mean, truth.variance) == (moments[0], moments[1] - moments[0] ** 2)
        values = [oracle.solve_transform_u(chain, target, start, u)
                  for u in (*args.u_grid, *(exact.lambda_to_u(m, lam, 20) for lam in lambdas[1:]))]
        assert truth.u_samples == tuple(zip(args.u_grid, values[:2]))
        assert truth.lambda_samples == ((0.0, "1", 1.0), *((lam, reference.format_significant(v, 20), float(v))
                                                           for lam, v in zip(lambdas[1:], values[2:])))
        query = hitting.HittingQuery(args.params, start, target)
        assert [Fraction(*hitting.lambda_sums(query, lam, 20)) for lam in lambdas[1:]] == values[2:]
        assert (truth.mean == 0) == inside


_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-(2**200), 2**200),
                          st.floats(allow_nan=False, allow_infinity=False), st.text())


@settings(max_examples=300, deadline=None)
@given(st.recursive(_JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(st.text(), inner, max_size=4)), max_leaves=30))
def test_the_report_writer_writes_what_json_writes(report):
    assert cli._to_json(report) == json.dumps(report, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("name", sorted(p.stem for p in (Path(__file__).parent / "golden").glob("*.out")))
def test_the_report_writer_rewrites_every_golden_report(name):
    text = (Path(__file__).parent / "golden" / f"{name}.out").read_text(encoding="utf-8")
    assert cli._to_json(json.loads(text)) == text


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["value", "list"])
def test_the_report_writer_refuses_what_json_refuses(value, where):
    report = {"value": {"a": value}, "list": [[1, value]]}[where]
    with pytest.raises(ValueError) as want:
        json.dumps(report, indent=2, allow_nan=False)
    with pytest.raises(ValueError) as got:
        cli._to_json(report)
    assert str(got.value) == str(want.value) == f"Out of range float values are not JSON compliant: {value!r}"
    with pytest.raises(TypeError) as want:
        json.dumps({"a": [object()]}, indent=2, allow_nan=False)
    with pytest.raises(TypeError) as got:
        cli._to_json({"a": [object()]})
    assert str(got.value) == str(want.value) == "Object of type object is not JSON serializable"


def test_oracle_accepts_asymmetric_set(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([[1, 1], [2, 2], [1, 2]]))
    code, report, _ = run_json(
        capsys, "oracle", "--N", "3", "--M", "2", "--start", "2,1", "--set", f"explicit:@{path}"
    )
    assert code == 0
    assert report["results"]["mean"]["rational"] != "0"


def test_oracle_cap_exceeded(capsys):
    code, out, err = run_cli(
        capsys,
        "oracle", "--N", "4", "--M", "10", "--start", "1,1,1,1,1,1,1,1,1,1", "--set", "diagonal",
    )
    assert code == 4
    assert "31457280 state-move pairs" in err and f"MAX_MOVES = {oracle.MAX_MOVES}" in err


@pytest.mark.parametrize("command", ["oracle", "compare"])
def test_cap_checked_before_enumeration(capsys, command):
    # 10**12 states and a count set of ~8.5e10 members: either enumeration would exhaust memory
    started = time.perf_counter()
    code, out, err = run_cli(
        capsys, command, "--N", "10", "--M", "12", "--start", ",".join(["1"] * 12), "--set", "count:3"
    )
    assert code == 4 and out == ""
    assert "108000000000000 state-move pairs" in err and "Traceback" not in err
    assert time.perf_counter() - started < 1


@pytest.mark.parametrize("bound,size", [("MAX_MOVES", 36), ("MAX_BLOCKS", 4)], ids=["MAX_MOVES", "MAX_BLOCKS"])
def test_oracle_bound_names_itself(capsys, monkeypatch, bound, size):
    # N=3 M=2 has 9 states of 4 moves each; from (1,2) the diagonal's moments need 1 transient block,
    # its exit law 4
    monkeypatch.setattr(oracle, bound, size - 1)
    code, out, err = run_cli(capsys, "oracle", "--N", "3", "--M", "2", "--start", "1,2", "--set", "diagonal")
    assert code == 4 and out == ""
    assert f"needs {size} " in err and f"{bound} = {size - 1}" in err


def test_barely_lumping_set_exits_four_at_once(tmp_path, capsys):
    # five random states at N=3 M=7: every one of the other 2182 states is a block of its own
    path = tmp_path / "barely.json"
    path.write_text(json.dumps([[2, 1, 1, 3, 2, 3, 3], [2, 2, 1, 2, 3, 2, 2], [2, 2, 2, 3, 1, 3, 1],
                                [2, 2, 3, 1, 2, 2, 2], [3, 1, 2, 1, 3, 1, 3]]))
    started = time.perf_counter()
    code, out, err = run_cli(
        capsys, "oracle", "--N", "3", "--M", "7", "--start", "1,1,1,1,1,1,1", "--set", f"explicit:@{path}"
    )
    assert code == 4 and out == ""
    assert "2182 transient blocks" in err and f"MAX_BLOCKS = {oracle.MAX_BLOCKS}" in err
    assert time.perf_counter() - started < 2


def test_oversized_exit_law_quotient_exits_four_before_any_solve(capsys, monkeypatch):
    # the exit law keeps the start apart, so its quotient is the finer of the two:
    # a bound between their sizes must refuse it before the moment solve runs
    chain = oracle.EnumeratedChain(ModelParams(3, 3))
    target = model.SetDescriptor.singleton((2, 2, 2))
    moments, exits = (oracle._lump(chain, target, start)[2] for start in (None, (1, 1, 1)))
    assert moments < exits
    factored = []
    real = oracle._Factored.__init__

    def spy(self, matrix):
        factored.append(len(matrix))
        real(self, matrix)

    monkeypatch.setattr(oracle._Factored, "__init__", spy)
    monkeypatch.setattr(oracle, "MAX_BLOCKS", moments)
    code, out, err = run_cli(capsys, "oracle", "--N", "3", "--M", "3", "--start", "1,1,1", "--set", "singleton:2,2,2")
    assert code == 4 and out == ""
    assert f"needs {exits} transient blocks" in err
    assert factored == []


def test_simulate_reproducible_output(capsys):
    args = [
        "simulate", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
        "--replicas", "5000", "--seed", "77", "--lambda", "0.5,1",
    ]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical JSON for a fixed seed
    report = json.loads(out1)
    assert report["results"]["replicas"] == 5000
    assert report["results"]["truncated"] == 0
    assert len(report["results"]["transforms"]) == 2


def test_simulate_readme_example_is_pinned(capsys):
    # the fixed-seed contract: changing the random stream layout must change this test too
    code, report, _ = run_json(
        capsys,
        "simulate", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
        "--mode", "ctmc", "--replicas", "100000", "--seed", "7",
    )
    assert code == 0
    assert report["results"]["sample_mean"] == 4.993769084476033
    assert report["results"]["stderr"] == 0.014433858343050464


def test_simulate_stream_is_keyed_by_the_seed_alone(capsys):
    # one Philox stream keyed by the seed, its counter starting at 0: moving the key or the counter changes these
    code, report, _ = run_json(
        capsys,
        "simulate", "--N", "3", "--M", "3", "--start", "1,1,1", "--set", "pair:(2,2,2);(3,1,2)",
        "--mode", "ctmc", "--u", "1/2", "--replicas", "8192", "--seed", "7",
    )
    assert code == 0
    results = report["results"]
    assert (results["sample_mean"], results["sample_variance"], results["stderr"]) == (
        5.464591508409054, 25.486311912713035, 0.055777433247303096
    )
    assert results["transforms"] == [
        {"argument": 0.5, "estimate": 0.2327666439028134, "stderr": 0.0026867665664326835}
    ]


@pytest.mark.parametrize(
    "argv,pinned",
    [
        (["--N", "3", "--M", "3", "--start", "1,1,1", "--set", "pair:(2,2,2);(3,1,2)", "--mode", "discrete"],
         (16.51485, 216.53220608780438, 0.10405099857469037)),
        (["--N", "3", "--M", "4", "--start", "1,2,3,1", "--set", "diagonal", "--mode", "ctmc"],
         (7.366452103076863, 50.2886006992268, 0.05014409272248666)),
        (["--N", "4", "--M", "3", "--start", "1,1,1", "--set", "distinct", "--mode", "ctmc"],
         (1.1585903236565405, 0.8329750780123787, 0.006453584577629624)),
        (["--N", "3", "--M", "3", "--start", "1,1,1", "--set", "explicit:@set.json", "--mode", "discrete"],
         (10.18335, 71.29369746237312, 0.059704981979049755)),
    ],
    ids=["pair-discrete", "diagonal-ctmc", "distinct-ctmc", "explicit-discrete"],
)
def test_simulate_non_sphere_kinds_are_pinned(capsys, monkeypatch, tmp_path, argv, pinned):
    # fixed-seed outputs of every membership key that is not a sphere's agreement counter
    monkeypatch.chdir(tmp_path)
    # the explicit row keys on state codes, the one membership key no symbolic kind uses
    (tmp_path / "set.json").write_text("[[2, 2, 2], [3, 1, 2], [1, 3, 3]]")
    code, report, _ = run_json(capsys, "simulate", *argv, "--replicas", "20000", "--seed", "7")
    assert code == 0
    results = report["results"]
    assert (results["sample_mean"], results["sample_variance"], results["stderr"]) == pinned


def test_simulate_ctmc_mean_scales(capsys):
    code, report, _ = run_json(
        capsys,
        "simulate", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
        "--replicas", "40000", "--seed", "5", "--mode", "ctmc",
    )
    assert code == 0
    results = report["results"]
    assert abs(results["sample_mean"] - 5.0) <= 4 * results["stderr"]


def test_simulate_sphere_needs_no_state_codes(capsys, tmp_path):
    # 10**20 states do not fit 64-bit codes; symbolic sets keep structural keys instead
    ones, twos = ",".join(["1"] * 20), ",".join(["2"] * 20)
    base = ["simulate", "--N", "10", "--M", "20", "--start", ones, "--replicas", "100"]
    code, report, _ = run_json(capsys, *base, "--set", "count:19:1")
    assert code == 0
    assert report["results"]["sample_mean"] == 1.0  # any first move leaves 19 balls in urn 1
    for target in ("diagonal", f"pair:({twos});({ones})"):  # the start is a member
        code, report, _ = run_json(capsys, *base, "--set", target)
        assert code == 0 and report["results"]["sample_mean"] == 0.0
    code, report, _ = run_json(
        capsys, "simulate", "--N", "20", "--M", "20", "--start", ",".join(map(str, range(20, 0, -1))),
        "--set", "distinct", "--replicas", "100",
    )
    assert code == 0 and report["results"]["sample_mean"] == 0.0
    code, out, err = run_cli(capsys, *base, "--set", "distinct")
    assert code == 2 and out == "" and "balls <= urns" in err
    path = tmp_path / "set.json"
    path.write_text(json.dumps([[2] * 20]))
    code, out, err = run_cli(capsys, *base, "--set", f"explicit:@{path}")
    assert code == 2 and out == ""
    assert "64-bit" in err


def test_simulate_distinct_lists_no_permutations(capsys):
    # 12!/3! members: listing them to test membership ran out of memory
    started = time.perf_counter()
    code, report, _ = run_json(
        capsys, "simulate", "--N", "12", "--M", "9", "--start", "1,1,2,3,4,5,6,7,8", "--set", "distinct",
    )
    assert time.perf_counter() - started < 2
    assert code == 0 and report["results"]["truncated"] == 0
    assert report["results"]["sample_mean"] >= 1


@pytest.mark.parametrize(
    "set_text",
    ["singleton:2,2,2", "pair:(2,2,2);(3,1,2)", "diagonal", "count:1", "distinct", "explicit:@set.json"],
)
def test_simulate_validates_its_target_once(capsys, monkeypatch, tmp_path, set_text):
    # the walk reads the validated payload: a sphere's center and level are not validated a second time
    monkeypatch.chdir(tmp_path)
    (tmp_path / "set.json").write_text("[[2, 2, 2], [3, 1, 2], [1, 3, 3]]")
    calls = []
    real = model.SetDescriptor.validate
    monkeypatch.setattr(model.SetDescriptor, "validate", lambda self, params: calls.append(self) or real(self, params))
    code, _, _ = run_json(capsys, "simulate", "--N", "3", "--M", "3", "--start", "1,1,2", "--set", set_text,
                          "--replicas", "100")
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "set_text",
    ["singleton:2,2,2", "pair:(2,2,2);(3,1,2)", "diagonal", "count:1", "distinct", "explicit:@set.json"],
)
def test_compare_validates_its_target_once_per_route(capsys, monkeypatch, tmp_path, set_text):
    # the engine, the oracle and the walk each validate the target; the count set's network verdict
    # reads its level off the descriptor and the start
    monkeypatch.chdir(tmp_path)
    (tmp_path / "set.json").write_text("[[2, 2, 2], [3, 1, 2]]")
    calls = []
    real = model.SetDescriptor.validate
    monkeypatch.setattr(model.SetDescriptor, "validate", lambda self, params: calls.append(self) or real(self, params))
    code, report, _ = run_json(capsys, "compare", "--N", "3", "--M", "3", "--start", "1,1,2", "--set", set_text,
                               "--replicas", "200")
    assert code in (0, 5) and report["verdicts"]
    assert len(calls) == 3


def test_a_numpy_integer_payload_prints_the_same_report():
    # the exit law reads the payload the query validated, without a check_state copy into ints
    params, start = ModelParams(3, 3), (1, 1, 2)
    for states in [((2, 2, 2),), ((2, 2, 2), (3, 1, 2))]:
        kind = "singleton" if len(states) == 1 else "pair"
        wide = tuple(tuple(np.int64(c) for c in s) for s in states)
        reports = [
            json.dumps(cli._summary_results(hitting.summarize(hitting.HittingQuery(params, start, target), 3)))
            for target in (model.SetDescriptor(kind, states=states), model.SetDescriptor(kind, states=wide))
        ]
        assert reports[0] == reports[1] and "exit_distribution" in reports[0]


@pytest.mark.parametrize("u,code", [("1e-400", 2), ("1e400", 2), ("1e-300", 0), ("1e300", 0)])
def test_simulate_ctmc_refuses_a_u_outside_the_float_range(capsys, u, code):
    # 1e-400 became the float 0.0 and answered at argument 0; 1e400 blamed a result for the float overflow
    got, out, err = run_cli(capsys, "simulate", *_SINGLETON, "--mode", "ctmc", "--replicas", "100", "--u", u)
    assert got == code and "Traceback" not in err
    if code:
        assert out == "" and err.startswith("error: --u values must lie in the float range")
    else:
        assert json.loads(out)["results"]["transforms"][0]["argument"] == float(u)


@pytest.mark.parametrize(
    "size,target,outside,inside",
    [
        (("12", "9"), "distinct", "1,1,2,3,4,5,6,7,8", "1,2,3,4,5,6,7,8,9"),
        (("10", "12"), "count:3", ",".join(["1"] * 12), ",".join(["2"] * 3 + ["1"] * 9)),
    ],
    ids=["distinct-N12-M9", "count3-N10-M12"],
)
def test_exact_counts_large_symbolic_sets(capsys, size, target, outside, inside):
    # 12!/3! and C(12,3) * 9**9 members: listing them to count two histograms ran out of memory
    base = ["exact", "--N", size[0], "--M", size[1], "--set", target, "--order", "3"]
    for start in (outside, inside):
        started = time.perf_counter()
        code, report, _ = run_json(capsys, *base, "--start", start)
        assert time.perf_counter() - started < 2
        assert code == 0
        results = report["results"]
        assert (results["mean"]["rational"] == "0") == (start == inside)
        # no closed form gives the exit law of these kinds, not even from inside the set
        assert "exit_distribution" not in results
        if target.startswith("count") and start == outside:
            want = count_set_mean(ModelParams(10, 12), 0, 3)
            assert results["mean"]["rational"] == format_rational(want)


def test_compare_passes_and_reports_verdicts(capsys):
    code, report, _ = run_json(
        capsys,
        "compare", "--N", "3", "--M", "2", "--start", "2,2", "--set", "count:0",
        "--replicas", "20000", "--seed", "3",
    )
    assert code == 0
    verdicts = {v["name"]: v for v in report["verdicts"]}
    assert all(v["pass"] for v in verdicts.values())
    assert verdicts["mean_exact_vs_oracle"]["detail"]["exact"] == "7/2"
    net = verdicts["network_identity_h0_k2"]
    assert net["detail"]["lhs"] == "27/2" and net["detail"]["rhs"] == "27/2"


def test_compare_walks_once_and_matches_simulate(capsys, monkeypatch):
    calls = []
    real = mc._walk
    monkeypatch.setattr(mc, "_walk", lambda *a: calls.append(1) or real(*a))
    args = ["--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2", "--replicas", "9000", "--seed", "8"]
    code, report, _ = run_json(capsys, "compare", *args)
    assert code == 0 and len(calls) == 1
    for mode in ("discrete", "ctmc"):
        _, alone, _ = run_json(capsys, "simulate", *args, "--mode", mode)
        assert report["results"]["mc"][mode] == {key: alone["results"][key] for key in report["results"]["mc"][mode]}


def test_compare_detects_corrupted_engine(capsys, monkeypatch):
    real = hitting.raw_moments

    def corrupted(query, order):  # a broken engine: the first moment is off by one
        first, *rest = real(query, order)
        return [first + 1, *rest]

    monkeypatch.setattr(hitting, "raw_moments", corrupted)
    code, report, _ = run_json(
        capsys,
        "compare", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
        "--replicas", "2000", "--seed", "3",
    )
    assert code == 5
    failing = [v["name"] for v in report["verdicts"] if not v["pass"]]
    assert "mean_exact_vs_oracle" in failing


def test_compare_folds_the_query_once(capsys, monkeypatch):
    calls = []
    real = hitting.kernel_row
    monkeypatch.setattr(hitting, "kernel_row", lambda *a: calls.append(a) or real(*a))
    code, _, _ = run_cli(capsys, "compare", "--N", "3", "--M", "4", "--start", "1,1,1,1", "--set", "count:2")
    assert code == 0 and len(calls) == 2


def test_compare_checks_what_exact_and_oracle_print(capsys):
    args = ["--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2", "--order", "4", "--u", "1/2,2"]
    _, exact_report, _ = run_json(capsys, "exact", *args)
    _, oracle_report, _ = run_json(capsys, "oracle", *args)
    code, report, _ = run_json(capsys, "compare", *args, "--replicas", "2000")
    assert code == 0
    details = {v["name"]: v["detail"] for v in report["verdicts"]}
    names = ["mean_exact_vs_oracle", "variance_exact_vs_oracle", "moment3_exact_vs_oracle",
             "moment4_exact_vs_oracle", "transform_u_1/2", "transform_u_2"]
    for side, printed in (("exact", exact_report["results"]), ("oracle", oracle_report["results"])):
        values = [printed["mean"], printed["variance"], *printed["raw_moments"][2:],
                  *(s["value"] for s in printed["u_samples"])]
        assert [details[name][side] for name in names] == [v["rational"] for v in values]


@pytest.mark.parametrize("command", ["exact", "oracle"])
def test_lambda_floats_agree_at_any_digits(capsys, command):
    # u is never coarser than 17 + 6 digits, so each transform's float is the same at any --digits
    floats = []
    for digits in ("1", "5", "20"):
        code, report, _ = run_json(
            capsys,
            command, "--N", "3", "--M", "4", "--start", "1,1,1,1", "--set", "singleton:2,2,2,2",
            "--lambda", "0.001,0.5,3", "--digits", digits,
        )
        assert code == 0
        floats.append([s["float"] for s in report["results"]["lambda_samples"]])
    assert floats[0] == floats[1] == floats[2]


def test_compare_lambda_verdicts_follow_requested_digits(capsys):
    # at --digits 8 the lambda transforms agree to a relative ~1e-24, far inside the precision asked for
    code, report, _ = run_json(
        capsys,
        "compare", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
        "--digits", "8", "--replicas", "2000",
    )
    assert code == 0
    lambdas = [v for v in report["verdicts"] if v["name"].startswith("transform_lambda_")]
    assert len(lambdas) == 4 and all(v["pass"] for v in lambdas)


def test_compare_accepts_lambda_zero(capsys):
    # exact and oracle print the transform 1 at lambda = 0; compare checks it instead of exiting 2
    code, report, _ = run_json(
        capsys,
        "compare", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
        "--lambda", "0", "--replicas", "200",
    )
    assert code == 0
    (verdict,) = [v for v in report["verdicts"] if v["name"].startswith("transform_lambda_")]
    assert verdict == {"name": "transform_lambda_0.0", "pass": True, "detail": {"relative_error": 0.0}}


def test_identities_subcommand(capsys):
    code, report, _ = run_json(capsys, "identities", "--max-urns", "4", "--max-balls", "5")
    assert code == 0
    assert report["results"]["failures"] == 0


def _failing_identities(report):
    return sorted(v["name"] for v in report["verdicts"] if not v["pass"])


def test_identities_catch_a_shifted_gap(capsys, monkeypatch):
    exact_table = resolvent.kernel_increments

    def shifted(params):
        table = exact_table(params)
        if params != ModelParams(3, 2):
            return table
        gaps = (table.increments[0], table.increments[1] + Fraction(1, 10**9))
        return table._replace(increments=gaps)

    monkeypatch.setattr(resolvent, "kernel_increments", shifted)
    code, report, _ = run_json(capsys, "identities", "--max-urns", "3", "--max-balls", "3")
    assert code == 5
    assert _failing_identities(report) == ["identities_N3_M2"]


def test_identities_catch_a_wrong_binomial_on_the_series_left_sides(capsys, monkeypatch):
    # C(3, 2) off by one: only the left-hand sums of the series identities use it there,
    # the right-hand sums are powers of 1 + a
    monkeypatch.setattr(resolvent, "comb", lambda n, k: math.comb(n, k) + ((n, k) == (3, 2)))
    try:
        assert not resolvent.series_identity_checks(ModelParams(2, 3), 1)
        assert not resolvent.series_identity_checks(ModelParams(2, 3), -1)
        code, report, _ = run_json(capsys, "identities", "--max-urns", "3", "--max-balls", "3")
    finally:
        # kernel rows built under the patch must not outlive it
        for cached in (resolvent.kernel_coefficients, resolvent._centered_at_zero,
                       resolvent.centered_kernel_derivative, resolvent.centered_kernel_jet):
            cached.cache_clear()
    assert code == 5
    assert _failing_identities(report) == ["identities_N2_M3", "identities_N3_M3"]


def test_identities_catch_a_shifted_binomial_mean(capsys, monkeypatch):
    exact_mean = resolvent.binomial_increment_mean

    def shifted(params, m):
        mean = exact_mean(params, m)
        return mean + Fraction(1, 10**9) if params == ModelParams(3, 3) else mean

    monkeypatch.setattr(resolvent, "binomial_increment_mean", shifted)
    code, report, _ = run_json(capsys, "identities", "--max-urns", "3", "--max-balls", "3")
    assert code == 5
    assert _failing_identities(report) == ["identities_N3_M3"]


def test_identities_catch_a_shifted_kernel_derivative(capsys, monkeypatch):
    exact_derivative = resolvent.centered_kernel_derivative

    def shifted(params, k, order=1):
        value = exact_derivative(params, k, order)
        return value + Fraction(1, 10**9) if (params, k) == (ModelParams(2, 3), 0) else value

    monkeypatch.setattr(resolvent, "centered_kernel_derivative", shifted)
    try:
        code, report, _ = run_json(capsys, "identities", "--max-urns", "3", "--max-balls", "3")
    finally:
        for cached in (exact_derivative, resolvent.centered_kernel_jet):
            cached.cache_clear()
    assert code == 5
    assert _failing_identities(report) == ["identities_N2_M3"]


def test_network_check_catches_a_wrong_conductance(capsys, monkeypatch):
    # one edge of the count chain at N=4, M=6 doubled: only the right sides of pairs that span it read it
    exact_conductance = closedforms.CountChain.conductance_up

    def doubled(self, i):
        value = exact_conductance(self, i)
        return 2 * value if (self.params, i) == (ModelParams(4, 6), 2) else value

    monkeypatch.setattr(closedforms.CountChain, "conductance_up", doubled)
    closedforms._commute_sides.cache_clear()  # sides summed before the patch must not answer for it
    try:
        code, report, _ = run_json(capsys, "network-check", "--N", "4", "--M", "6")
    finally:
        closedforms._commute_sides.cache_clear()
    assert code == 5
    failing = [v for v in report["verdicts"] if not v["pass"]]
    assert [v["name"] for v in failing] == [f"commute_h{h}_k{k}" for h in range(3) for k in range(3, 7)]
    assert all(v["detail"]["lhs"] != v["detail"]["rhs"] for v in failing)
    assert all(v["detail"]["lhs"] == v["detail"]["rhs"] for v in report["verdicts"] if v["pass"])


def test_network_check_subcommand(capsys):
    code, report, _ = run_json(capsys, "network-check", "--N", "3", "--M", "3")
    assert code == 0
    assert all(v["pass"] for v in report["verdicts"])


def test_network_check_at_large_m_is_bounded():
    # O(M) per side plus one difference per pair: about a second at M=200
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "ehrenfest.cli", "network-check", "--N", "3", "--M", "200"],
        capture_output=True, text=True, timeout=15, env=env,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["results"]["pairs"] == 200 * 201 // 2
    assert all(v["pass"] for v in report["verdicts"])


def test_unreachable_target_exits_two_within_the_walk_budget(capsys, monkeypatch):
    # from one ball off the all-ones state this seed's walks never reach the diagonal; none is absorbed,
    # so each step costs 100 + STEP_CHARGE and the walk stops at the last step the budget affords
    monkeypatch.setattr(mc, "WALK_BUDGET", 10**6)
    with pytest.warns(RuntimeWarning, match="walk budget ran out"):
        code, out, err = run_cli(capsys, "simulate", "--N", "10", "--M", "20", "--start",
                                 "2," + ",".join(["1"] * 19), "--set", "diagonal", "--replicas", "100")
    assert code == 2 and out == ""
    stop = int(re.search(r"every replica was truncated at step (\d+),", err).group(1))
    assert stop == mc.WALK_BUDGET // (100 + mc.STEP_CHARGE)


def test_compare_refuses_a_truncated_walk(capsys, monkeypatch):
    # three steps of 2000 replicas: the few that hit within them would make the MC mean biased low
    monkeypatch.setattr(mc, "WALK_BUDGET", 3 * (2000 + mc.STEP_CHARGE))
    with pytest.warns(RuntimeWarning, match="walk budget ran out"):
        code, out, err = run_cli(capsys, "compare", "--N", "3", "--M", "2", "--start", "1,1",
                                 "--set", "singleton:2,2", "--replicas", "2000")
    assert code == 2 and out == ""
    truncated = int(re.search(r"error: (\d+) of 2000 replicas were truncated when the walk budget", err).group(1))
    assert 0 < truncated < 2000


def test_csv_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "exact", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["case", "quantity", "exact", "oracle", "mc_mean", "mc_stderr", "verdict"]
    assert ["mean", "10"] in [[r[1], r[2]] for r in rows[1:]]


def test_compare_csv_shows_every_failing_verdict(capsys, monkeypatch):
    real = hitting.laplace_lambda

    def corrupted(query, lam, digits=20):  # off only in compare's cross-check, which asks for more digits
        value = real(query, lam, digits)
        return value * Fraction(1001, 1000) if digits > 20 else value

    monkeypatch.setattr(hitting, "laplace_lambda", corrupted)
    code, out, _ = run_cli(
        capsys,
        "compare", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
        "--lambda", "0.5", "--replicas", "2000", "--format", "csv",
    )
    assert code == 5
    verdicts = {row[1]: row[-1] for row in csv.reader(io.StringIO(out))}
    assert verdicts["transform_lambda_0.5"] == "fail"
    assert verdicts["mean_exact_vs_oracle"] == verdicts["variance_exact_vs_oracle"] == "pass"


_SINGLETON = ["--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2"]
_CSV_CASES = {
    "exact": ["exact", *_SINGLETON, "--order", "4", "--u", "1/2,2", "--lambda", "0.5"],
    "oracle": ["oracle", "--N", "3", "--M", "2", "--start", "1,1", "--set", "pair:(2,2);(1,2)"],
    "simulate": ["simulate", *_SINGLETON, "--lambda", "0.5,1", "--replicas", "500", "--seed", "3"],
    "compare": ["compare", "--N", "3", "--M", "2", "--start", "2,2", "--set", "count:0", "--replicas", "2000"],
    "network-check": ["network-check", "--N", "3", "--M", "3"],
    "identities": ["identities", "--max-urns", "3", "--max-balls", "2"],
    "timing": ["compare", *_SINGLETON, "--replicas", "2000", "--timing"],
}


def _flat(value, path=""):
    """(dotted path, leaf) of each leaf under a JSON value: list items count from 1, a rational is one leaf."""
    if isinstance(value, list):
        value = dict(enumerate(value, 1))
    if not isinstance(value, dict) or "rational" in value:
        return [(path, value)]
    return [leaf for key, item in value.items() for leaf in _flat(item, f"{path}.{key}" if path else str(key))]


def _json_text(value) -> str:
    """A leaf's text as the JSON report writes it, a rational as its p/q string."""
    if isinstance(value, dict):
        return value["rational"]
    return value if isinstance(value, str) else json.dumps(value)


@pytest.mark.parametrize("argv", _CSV_CASES.values(), ids=_CSV_CASES)
def test_csv_carries_every_value_of_the_json_report(capsys, argv):
    code, report, _ = run_json(capsys, *argv)
    assert code == 0
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    lines = {row[1]: dict(zip(header, row)) for row in rows}
    assert len(lines) == len(rows)

    # line name -> the text of each column; timing lines, whose values differ between runs, by name only
    expected = {path: {"exact": _json_text(v)} for path, v in _flat(report["results"])}
    for verdict in report.get("verdicts", ()):
        line = expected[verdict["name"]] = {"verdict": "pass" if verdict["pass"] else "fail"}
        for key, value in verdict.get("detail", {}).items():
            column = {"lhs": "exact", "rhs": "oracle"}.get(key, key)
            if column in ("exact", "oracle", "mc_mean", "mc_stderr"):
                line[column] = _json_text(value)
            else:
                expected[f"{verdict['name']}.{key}"] = {"exact": _json_text(value)}
    timing = [path for path, _ in _flat(report.get("timing", {}), "timing")]
    assert (argv[0] == "compare" and "--timing" in argv) == bool(timing)

    assert set(lines) == set(expected) | set(timing)
    case = report["request"].get("case", argv[0])
    for name, columns in expected.items():
        assert lines[name] == {**dict.fromkeys(header, ""), "case": case, "quantity": name, **columns}


@pytest.mark.parametrize("argv", _CSV_CASES.values(), ids=_CSV_CASES)
def test_every_request_echoes_its_format_and_out(capsys, tmp_path, argv):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, *argv, "--format", "json", "--out", str(path))
    assert code == 0 and out == ""
    request = json.loads(path.read_text())["request"]
    assert request["command"] == argv[0]
    assert (request["format"], request["out"]) == ("json", str(path))


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "exact", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
        "--out", str(path),
    )
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["results"]["mean"]["rational"] == "10"


def test_timing_flag_adds_field(capsys):
    code, report, _ = run_json(
        capsys,
        "exact", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
        "--timing",
    )
    assert code == 0
    assert report["timing"]["seconds"] >= 0


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_timing_flag_adds_replica_steps(capsys, command):
    argv = [command, "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2", "--replicas", "3000"]
    code, report, _ = run_json(capsys, *argv, "--timing")
    assert code == 0
    timing = report["timing"]
    assert list(timing) == ["seconds", "replica_steps", "replica_steps_per_s"]
    results = report["results"]["mc"]["discrete"] if command == "compare" else report["results"]
    assert timing["replica_steps"] == round(results["sample_mean"] * 3000)  # discrete, nothing truncated
    assert timing["replica_steps_per_s"] > 0
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second and "timing" not in json.loads(first)


def test_non_finite_result_exits_two_instead_of_invalid_json(capsys, monkeypatch):
    real = mc.sample_hitting
    monkeypatch.setattr(
        mc, "sample_hitting", lambda *a: real(*a)._replace(sample_mean=float("nan"))
    )
    code, out, err = run_cli(
        capsys, "simulate", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2", "--replicas", "10"
    )
    assert code == 2 and out == ""
    assert "Traceback" not in err and "JSON" in err


@pytest.mark.parametrize(
    "module, name, command",
    [(hitting, "summarize", "exact"), (oracle, "solve_raw_moments", "oracle"), (mc, "sample_hitting", "simulate")],
    ids=["exact", "oracle", "simulate"],
)
def test_an_overflow_inside_a_route_exits_two_with_its_own_message(capsys, monkeypatch, module, name, command):
    # the report's float conversions catch their own overflows, so any other is the route's, not the report's
    def overflow(*args):
        raise OverflowError("boom")

    monkeypatch.setattr(module, name, overflow)
    code, out, err = run_cli(capsys, command, "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2")
    assert (code, out, err) == (2, "", "error: boom\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--N", "3", "--M", "2", "--start", "1,2", "--set", "diagonal", "--timing"],
        ["oracle", "--N", "3", "--M", "2", "--start", "1,2", "--set", "diagonal"],
        ["simulate", "--N", "3", "--M", "2", "--start", "1,2", "--set", "diagonal", "--replicas", "100"],
        ["compare", "--N", "3", "--M", "2", "--start", "2,2", "--set", "count:0", "--replicas", "1000"],
        ["identities", "--max-urns", "3", "--max-balls", "2"],
        ["network-check", "--N", "3", "--M", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_json_report_keys(capsys, argv):
    code, report, _ = run_json(capsys, *argv)
    assert code == 0
    assert set(report) <= {"request", "results", "verdicts", "timing"}


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["exact", "--M", "2", "--start", "1,1", "--set", "diagonal"])
    assert exc.value.code == 2
    # validation errors after parsing also map to exit 2
    code, _, err = run_cli(
        capsys, "exact", "--N", "1", "--M", "2", "--start", "1,1", "--set", "diagonal"
    )
    assert code == 2
    assert "--N must lie in" in err


_ONES = ",".join(["1"] * 200)
_TWOS = ",".join(["2"] * 200)


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["exact", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
          "--lambda", "inf"], "--lambda"),
        pytest.param(
            ["simulate", "--N", "10", "--M", "20", "--start", "2," + ",".join(["1"] * 19), "--set", "diagonal",
             "--replicas", "100"], "truncated",
            marks=pytest.mark.filterwarnings("ignore:.*walk budget"),
        ),
        (["oracle", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
          "--u", "-1"], "u must be positive"),
        (["exact", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
          "--lambda", "1e5"], "--lambda"),
        (["oracle", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
          "--lambda", "-1"], "--lambda"),
        (["exact", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
          "--lambda", "-1"], "--lambda"),
        (["identities", "--max-urns", "1"], "--max-urns"),
        (["identities", "--max-balls", "0"], "--max-balls"),
        (["exact", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
          "--lambda", "1", "--digits", "-7"], "--digits"),
        (["exact", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
          "--order", "0"], "--order"),
        (["oracle", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
          "--order", "0"], "--order"),
        (["oracle", "--N", "3", "--M", "4", "--start", "3,2,3,2", "--set", "diagonal",
          "--u", "2,1/0"], "--u"),
        (["exact", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
          "--u", "1/0"], "--u"),
        (["simulate", "--N", "3", "--M", "2", "--start", "1,1", "--set", "count:5",
          "--replicas", "10"], "count target"),
        (["simulate", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
          "--u", "1/2", "--replicas", "10"], "from --lambda, not --u"),
        (["simulate", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
          "--mode", "ctmc", "--lambda", "0.5", "--replicas", "10"], "from --u, not --lambda"),
        (["simulate", "--N", "3", "--M", "3", "--start", "1,1,1", "--set", "singleton:2,2,2",
          "--mode", "ctmc", "--u", "-1000", "--replicas", "10"], "--u"),
        (["simulate", "--N", "3", "--M", "3", "--start", "1,1,1", "--set", "singleton:2,2,2",
          "--mode", "ctmc", "--u", "-1", "--replicas", "10"], "--u"),
        (["simulate", "--N", "3", "--M", "4", "--start", "1,1,1,1", "--set", "distinct",
          "--replicas", "10"], "balls <= urns"),
        (["simulate", "--N", "3", "--M", "2", "--start", "1,2", "--set", "pair:(1,1);(1,1)",
          "--replicas", "10"], "two distinct states"),
        (["simulate", "--N", "3", "--M", "2", "--start", "1,2", "--set", "pair:(1,1);(1,4)",
          "--replicas", "10"], "outside 1..3"),
        (["exact", "--N", "2", "--M", "1", "--start", "1", "--set", "singleton:2",
          "--order", "33"], "--order"),
        (["exact", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
          "--lambda", "1", "--digits", "1001"], "--digits"),
        (["simulate", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
          "--replicas", str(10**12)], "--replicas"),
        (["compare", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
          "--replicas", str(10**7 + 1)], "--replicas"),
        (["identities", "--max-urns", "17"], "--max-urns"),
        (["identities", "--max-balls", "25"], "--max-balls"),
        (["exact", "--N", str(10**5 + 1), "--M", "2", "--start", "1,2", "--set", "diagonal"], "--N"),
        (["network-check", "--N", "3", "--M", "201"], "--M"),
        (["simulate", "--N", str(10**5), "--M", "2", "--start", "1,2", "--set", "diagonal",
          "--replicas", "10000"], "1000000000 urn slots"),
        (["simulate", "--N", "2", "--M", "200", "--start", _ONES, "--set", "count:100:2",
          "--replicas", str(10**7)], "2000000000 urn slots"),
        (["exact", "--N", "3", "--M", "2", "--start", "1,2", "--set", "explicit:@diagonal.json"],
         "18 member-pair coordinates (3^2 members x 2), more than MAX_PAIR_COORDS = 17"),
        (["exact", "--N", "3", "--M", "2", "--start", "a,1", "--set", "singleton:2,2"], "--start"),
        (["exact", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:a,b"],
         "cannot parse set descriptor 'singleton:a,b'"),
        (["exact", "--N", "3", "--M", "2", "--start", "1,1", "--set", "count:x"],
         "cannot parse set descriptor 'count:x'"),
        (["simulate", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
          "--replicas", "10", "--seed", "-1"], "--seed"),
        (["compare", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
          "--replicas", "10", "--seed", str(2**128)], "--seed"),
        (["exact", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
          "--lambda", "x"], "--lambda"),
        (["exact", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
          "--lambda", "0.5,"], "--lambda"),
        (["simulate", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
          "--replicas", "1"], "--replicas"),
        (["compare", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
          "--replicas", "1"], "--replicas"),
        (["compare", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
          "--replicas", "99"], "--replicas"),
        (["exact", "--N", "3", "--M", "2", "--start", "1,1", "--set", "ring:3"], "unknown set descriptor kind 'ring'"),
    ],
    ids=["lambda-inf", "all-truncated", "oracle-negative-u", "lambda-huge",
         "oracle-negative-lambda", "exact-negative-lambda", "identities-one-urn", "identities-no-balls",
         "negative-digits", "exact-order-zero", "oracle-order-zero", "oracle-u-zero-denominator",
         "exact-u-zero-denominator", "simulate-count-level-outside", "simulate-discrete-u",
         "simulate-ctmc-lambda", "simulate-ctmc-u-very-negative", "simulate-ctmc-u-negative",
         "simulate-distinct-too-many-balls", "simulate-pair-equal-states", "simulate-pair-outside",
         "order-above-bound", "digits-above-bound", "simulate-replicas-above-bound",
         "compare-replicas-above-bound", "identities-urns-above-bound", "identities-balls-above-bound",
         "exact-urns-above-bound", "network-check-balls-above-bound", "simulate-occupancy-slots",
         "simulate-offset-slots", "exact-symmetry-test-above-bound", "start-not-integers",
         "singleton-not-integers", "count-not-integers", "simulate-seed-negative", "compare-seed-above-bound",
         "lambda-not-a-number", "lambda-empty-item", "simulate-one-replica", "compare-one-replica",
         "compare-99-replicas", "exact-unknown-set-kind"],
)
def test_bad_inputs_exit_two_without_traceback(capsys, monkeypatch, tmp_path, argv, needle):
    # a small walk budget makes the all-truncated row's walk end at once; no other row walks
    monkeypatch.setattr(mc, "WALK_BUDGET", 10**5)
    # three members at M=2 make 18 member-pair coordinates and a grid of 27 cells; only explicit sets run
    # the symmetry test, and a set past both bounds is refused
    monkeypatch.setattr(model, "MAX_PAIR_COORDS", 17)
    monkeypatch.setattr(model, "MAX_GRID_CELLS", 26)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "diagonal.json").write_text("[[1, 1], [2, 2], [3, 3]]")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and needle in errors[0]


def test_moment_past_the_float_range_is_reported_exactly(capsys):
    code, report, err = run_json(
        capsys, "exact", "--N", "3", "--M", "200", "--start", _ONES, "--set", f"singleton:{_TWOS}", "--order", "4"
    )
    assert code == 0, err
    fourth = report["results"]["raw_moments"][3]
    assert fourth["float"] is None
    query = hitting.HittingQuery(ModelParams(3, 200), (1,) * 200, parse_set(f"singleton:{_TWOS}"))
    assert fourth["rational"] == format_rational(hitting.raw_moments(query, 4)[3])


def test_result_past_the_int_digit_limit_is_rendered(capsys):
    # the transform's numerator and denominator run to thousands of digits
    u = "123456789012345678901234567890123/7"
    code, report, err = run_json(
        capsys, "exact", "--N", "3", "--M", "200", "--start", _ONES, "--set", f"singleton:{_TWOS}",
        "--u", u,
    )
    assert code == 0, err
    value = report["results"]["u_samples"][0]["value"]["rational"]
    assert len(value) > sys.get_int_max_str_digits()
    # Decimal reads and converts integers without the digit limit
    num, den = (int(Decimal(part)) for part in value.split("/"))
    query = hitting.HittingQuery(ModelParams(3, 200), (1,) * 200, parse_set(f"singleton:{_TWOS}"))
    assert hitting.laplace_u(query, Fraction(u)) == Fraction(num, den)


@pytest.mark.parametrize("flag", ["--u", "--set", "--start"])
def test_number_past_the_int_digit_limit_exits_two_naming_the_flag(capsys, flag):
    argv = {"--u": "1/2", "--set": "singleton:2,2", "--start": "1,1"}
    argv[flag] = argv[flag][:-1] + "1" * (sys.get_int_max_str_digits() + 1)
    code, out, err = run_cli(capsys, "exact", "--N", "3", "--M", "2", *[a for kv in argv.items() for a in kv])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} holds a number of more than") and "Traceback" not in err


_LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize(
    "u", [f"1e{_LIMIT + 1}", f"1e-{_LIMIT + 1}", "1e999999999", "9" * (_LIMIT - 300) + "e400"],
    ids=["exponent", "negative-exponent", "huge-exponent", "long-mantissa"],
)
@pytest.mark.parametrize(
    "command", [["exact"], ["oracle"], ["compare"], ["simulate", "--mode", "ctmc"]], ids=lambda c: c[-1]
)
def test_u_past_the_int_digit_limit_in_exponent_notation_exits_two_at_once(capsys, command, u):
    # Fraction("1e...") writes out the exponent's zeros: 1e999999999 would take minutes, 1e-300000 a zero float
    started = time.perf_counter()
    code, out, err = run_cli(capsys, *command, "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
                             "--u", u)
    assert time.perf_counter() - started < 1
    assert code == 2 and out == ""
    assert err == f"error: --u holds a number of more than {_LIMIT} digits\n"


def test_u_at_the_int_digit_limit_in_exponent_notation_answers(capsys):
    code, report, _ = run_json(capsys, "exact", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
                               "--u", f"1e{_LIMIT - 1}")
    assert code == 0
    assert report["request"]["u_grid"] == ["1" + "0" * (_LIMIT - 1)]


@pytest.mark.parametrize(
    "content",
    ["5", "[1, 2]", "null", "[[1.7, 1.2], [2.9, 2.2]]", "[[1, 1], [2, 2.0]]", "[[true, 1], [2, 2]]",
     '[["1", 1]]', '{"a": [1]}'],
)
def test_explicit_file_not_a_list_of_states_exits_two(tmp_path, capsys, content):
    path = tmp_path / "set.json"
    path.write_text(content)
    code, out, err = run_cli(
        capsys, "exact", "--N", "3", "--M", "2", "--start", "1,1", "--set", f"explicit:@{path}"
    )
    assert code == 2 and out == ""
    assert "Traceback" not in err and "JSON array of states" in err and str(path) in err


@pytest.mark.parametrize("content", ["[[1, 2], [2", "[[1, " + "1" * (sys.get_int_max_str_digits() + 1) + "]]"])
def test_explicit_file_that_json_cannot_read_exits_two_naming_it(tmp_path, capsys, content):
    path = tmp_path / "set.json"
    path.write_text(content)
    code, out, err = run_cli(
        capsys, "exact", "--N", "3", "--M", "2", "--start", "1,1", "--set", f"explicit:@{path}"
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path} is not a readable JSON array of states") and "Traceback" not in err
