import json

import pytest

from ehrenfest import cli


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
    assert "profile" in err
    assert "(0, 1, 2)" in err and "(1, 1, 2)" in err


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
    assert "1048576" in err and "2000" in err


def test_oracle_cap_flag_override(capsys):
    code, out, err = run_cli(
        capsys, "oracle", "--N", "3", "--M", "2", "--start", "1,1", "--set", "diagonal", "--cap", "5"
    )
    assert code == 4
    assert "9" in err and "5" in err


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


def test_simulate_ctmc_mean_scales(capsys):
    code, report, _ = run_json(
        capsys,
        "simulate", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
        "--replicas", "40000", "--seed", "5", "--mode", "ctmc",
    )
    assert code == 0
    results = report["results"]
    assert abs(results["sample_mean"] - 5.0) <= 4 * results["stderr"]


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


def test_compare_detects_corrupted_engine(capsys):
    code, report, _ = run_json(
        capsys,
        "compare", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
        "--replicas", "2000", "--seed", "3", "--corrupt-engine",
    )
    assert code == 5
    failing = [v["name"] for v in report["verdicts"] if not v["pass"]]
    assert "mean_exact_vs_oracle" in failing


def test_identities_subcommand(capsys):
    code, report, _ = run_json(capsys, "identities", "--max-urns", "4", "--max-balls", "5")
    assert code == 0
    assert report["results"]["failures"] == 0


def test_network_check_subcommand(capsys):
    code, report, _ = run_json(capsys, "network-check", "--N", "3", "--M", "3")
    assert code == 0
    assert all(v["pass"] for v in report["verdicts"])


def test_csv_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "exact", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
        "--format", "csv",
    )
    assert code == 0
    import csv
    import io

    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["case", "quantity", "exact", "oracle", "mc_mean", "mc_stderr", "verdict"]
    assert ["mean", "10"] in [[r[1], r[2]] for r in rows[1:]]


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


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["exact", "--M", "2", "--start", "1,1", "--set", "diagonal"])
    assert exc.value.code == 2
    # validation errors after parsing also map to exit 2
    code, _, err = run_cli(
        capsys, "exact", "--N", "1", "--M", "2", "--start", "1,1", "--set", "diagonal"
    )
    assert code == 2
    assert "urns" in err


_ONES = ",".join(["1"] * 200)
_TWOS = ",".join(["2"] * 200)


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["exact", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
          "--lambda", "inf"], "--lambda"),
        (["exact", "--N", "3", "--M", "200", "--start", _ONES, "--set", f"singleton:{_TWOS}",
          "--order", "4"], "float"),
        pytest.param(
            ["simulate", "--N", "3", "--M", "2", "--start", "1,1", "--set", "singleton:2,2",
             "--max-steps", "1", "--replicas", "100"], "truncated",
            marks=pytest.mark.filterwarnings("ignore:.*step cap"),
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
    ],
    ids=["lambda-inf", "moment-overflow", "all-truncated", "oracle-negative-u", "lambda-huge",
         "oracle-negative-lambda", "exact-negative-lambda", "identities-one-urn", "identities-no-balls",
         "negative-digits", "exact-order-zero", "oracle-order-zero", "oracle-u-zero-denominator",
         "exact-u-zero-denominator", "simulate-count-level-outside"],
)
def test_bad_inputs_exit_two_without_traceback(capsys, argv, needle):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and needle in errors[0]


@pytest.mark.parametrize("content", ["5", "[1, 2]", "null"])
def test_explicit_file_not_a_list_of_states_exits_two(tmp_path, capsys, content):
    path = tmp_path / "set.json"
    path.write_text(content)
    code, out, err = run_cli(
        capsys, "exact", "--N", "3", "--M", "2", "--start", "1,1", "--set", f"explicit:@{path}"
    )
    assert code == 2 and out == ""
    assert "Traceback" not in err and "JSON array of states" in err
