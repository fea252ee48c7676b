import csv
import json
from pathlib import Path

import numpy as np
import pytest

from randomkeys import GenericMipInstance, generate_tdtsp_instance
from randomkeys.cli import main
from randomkeys.instances import write_mip, write_tdtsp

DATA_TDTSP = Path(__file__).resolve().parent.parent / "data" / "tdtsp_n6_h2.json"


@pytest.fixture()
def tdtsp_path(tmp_path):
    path = tmp_path / "small.json"
    write_tdtsp(generate_tdtsp_instance(4, 2, seed=81), path)
    return path


@pytest.fixture()
def knapsack_path(tmp_path):
    inst = GenericMipInstance(
        costs=np.array([-5.0, -4.0, -3.0]),
        lower=np.zeros(3),
        upper=np.ones(3),
        rows=np.array([[4.0, 3.0, 2.0]]),
        rhs=np.array([5.0]),
        n_integer=3,
    )
    path = tmp_path / "knap.json"
    write_mip(inst, path)
    return path


def read_csv(path):
    with open(path) as handle:
        return list(csv.reader(handle))


def test_solve_writes_json_and_runs_csv(tdtsp_path, tmp_path):
    out = tmp_path / "result"
    code = main([
        "solve", "--instance", str(tdtsp_path), "--kind", "tdtsp",
        "--seeds", "2", "--decoder-calls", "800", "--deterministic",
        "--out", str(out),
    ])
    assert code == 0
    rows = read_csv(tmp_path / "result_runs.csv")
    assert rows[0] == ["seed", "best_cost", "time_to_best", "decoder_calls", "searcher"]
    assert len(rows) == 3
    assert rows[1][0] == "1" and rows[2][0] == "2"
    summary = json.loads((tmp_path / "result.json").read_text())
    assert summary["schema"] == "solve-v1"
    assert summary["solution"]["feasible"] is True
    assert summary["best"]["cost"] <= float(rows[1][1])


def test_solve_mip_requires_budget(knapsack_path, tmp_path):
    code = main([
        "solve", "--instance", str(knapsack_path), "--kind", "mip",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 2


def test_solve_unknown_searcher_is_a_usage_error(tdtsp_path, tmp_path):
    code = main([
        "solve", "--instance", str(tdtsp_path), "--kind", "tdtsp",
        "--searchers", "brkga,annealing", "--decoder-calls", "100",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 2


def test_solve_missing_instance_file(tmp_path):
    code = main([
        "solve", "--instance", str(tmp_path / "absent.json"), "--kind", "tdtsp",
        "--decoder-calls", "100", "--out", str(tmp_path / "x"),
    ])
    assert code == 2


def test_rpd_pipeline(tdtsp_path, tmp_path):
    out = tmp_path / "result"
    main([
        "solve", "--instance", str(tdtsp_path), "--kind", "tdtsp",
        "--seeds", "2", "--decoder-calls", "600", "--deterministic",
        "--out", str(out),
    ])
    code = main([
        "rpd", "--runs", str(tmp_path / "result_runs.csv"),
        "--reference", "20", "--instance-id", "small",
        "--out", str(tmp_path / "rpd.csv"),
    ])
    assert code == 0
    rows = read_csv(tmp_path / "rpd.csv")
    assert rows[0][0] == "instance"
    assert rows[1][0] == "small"
    assert rows[1][6] == "2"


def test_ttt_writes_ranked_rows(tdtsp_path, tmp_path):
    code = main([
        "ttt", "--instance", str(tdtsp_path), "--kind", "tdtsp",
        "--reference", "12", "--target-percent", "200",
        "--repetitions", "3", "--decoder-calls", "2000", "--deterministic",
        "--out", str(tmp_path / "ttt.csv"),
    ])
    assert code == 0
    rows = read_csv(tmp_path / "ttt.csv")
    assert rows[0] == ["rank", "time_s", "prob", "censored"]
    assert len(rows) == 4
    assert [r[0] for r in rows[1:]] == ["1", "2", "3"]


def test_ttt_times_count_calls_under_a_call_budget(tmp_path):
    # the optimum of this instance is 18: some runs reach it in 150
    # calls and some are censored, and both must be counted in calls
    code = main([
        "ttt", "--instance", str(DATA_TDTSP), "--kind", "tdtsp",
        "--reference", "18", "--target-percent", "0",
        "--repetitions", "6", "--decoder-calls", "150",
        "--out", str(tmp_path / "ttt.csv"),
    ])
    assert code == 0
    rows = read_csv(tmp_path / "ttt.csv")[1:]
    assert {r[3] for r in rows} == {"0", "1"}
    for _, time_s, _, _ in rows:
        assert float(time_s) == int(float(time_s))
        assert 1 <= float(time_s) <= 150


def test_oracle_tdtsp_json(tdtsp_path, tmp_path, capsys):
    out = tmp_path / "oracle.json"
    code = main([
        "oracle", "--instance", str(tdtsp_path), "--kind", "tdtsp",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "tdtsp"
    assert sorted(payload["order"]) == [1, 2, 3, 4]


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_non_finite_tdtsp_instance_exits_2(command, tdtsp_path, tmp_path, capsys):
    data = json.loads(tdtsp_path.read_text())
    data["t"][0][1][2] = "PLACEHOLDER"
    tdtsp_path.write_text(json.dumps(data).replace('"PLACEHOLDER"', "Infinity"))
    extra = ["--decoder-calls", "100", "--out", str(tmp_path / "x")] if command == "solve" else []
    code = main([command, "--instance", str(tdtsp_path), "--kind", "tdtsp", *extra])
    assert code == 2
    assert "finite" in capsys.readouterr().err


def test_oracle_guard_maps_to_exit_3(tmp_path):
    big = tmp_path / "big.json"
    write_tdtsp(generate_tdtsp_instance(12, 2, seed=83), big)
    code = main(["oracle", "--instance", str(big), "--kind", "tdtsp"])
    assert code == 3


def test_generate_then_solve_round_trip(tmp_path):
    gen = tmp_path / "gen.json"
    assert main([
        "generate", "--customers", "4", "--intervals", "2", "--seed", "9",
        "--out", str(gen),
    ]) == 0
    assert main([
        "solve", "--instance", str(gen), "--kind", "tdtsp",
        "--decoder-calls", "500", "--deterministic", "--seeds", "1",
        "--out", str(tmp_path / "g"),
    ]) == 0


def test_profile_command(tmp_path):
    results = tmp_path / "results.csv"
    refs = tmp_path / "refs.csv"
    results.write_text(
        "method,instance,cost\nours,a,100.0\nours,b,210.0\n"
        "rival,a,110.0\nrival,b,200.0\n"
    )
    refs.write_text("instance,best,lower\na,100.0,90.0\nb,200.0,150.0\n")
    code = main([
        "profile", "--results", str(results), "--references", str(refs),
        "--taus", "1.0,1.1", "--out", str(tmp_path / "profile.csv"),
    ])
    assert code == 0
    rows = read_csv(tmp_path / "profile.csv")
    by_key = {(r[0], r[1], r[2]): float(r[3]) for r in rows[1:]}
    assert by_key[("best", "ours", "1.000000")] == 0.5
    assert by_key[("best", "rival", "1.000000")] == 0.5
    assert by_key[("best", "ours", "1.100000")] == 1.0


def test_frontier_sweeps_lambdas(tmp_path):
    port = tmp_path / "port.txt"
    port.write_text(
        "3\n"
        "0.0013 0.0432\n0.0042 0.0403\n0.0015 0.0413\n"
        "1 1 1.0\n1 2 0.56\n1 3 0.75\n2 2 1.0\n2 3 0.58\n3 3 1.0\n"
    )
    code = main([
        "frontier", "--instance", str(port), "--lambdas", "0.3,0.7",
        "--cardinality", "2", "--decoder-calls", "600", "--deterministic",
        "--out", str(tmp_path / "front.csv"),
    ])
    assert code == 0
    rows = read_csv(tmp_path / "front.csv")
    assert rows[0] == ["lambda", "risk", "return", "cost"]
    assert [r[0] for r in rows[1:]] == ["0.300000", "0.700000"]


def test_frontier_rejects_endpoint_lambdas(tmp_path):
    port = tmp_path / "port.txt"
    port.write_text("1\n0.001 0.01\n1 1 1.0\n")
    code = main([
        "frontier", "--instance", str(port), "--lambdas", "0.0,0.5",
        "--cardinality", "1", "--decoder-calls", "100",
        "--out", str(tmp_path / "front.csv"),
    ])
    assert code == 2


def test_profile_rejects_malformed_results(tmp_path):
    results = tmp_path / "results.csv"
    results.write_text("method,instance\nours,a\n")
    refs = tmp_path / "refs.csv"
    refs.write_text("instance,best,lower\na,1.0,1.0\n")
    code = main([
        "profile", "--results", str(results), "--references", str(refs),
        "--out", str(tmp_path / "p.csv"),
    ])
    assert code == 2


def test_knapsack_solve_reports_feasible_solution(knapsack_path, tmp_path):
    out = tmp_path / "knap_result"
    code = main([
        "solve", "--instance", str(knapsack_path), "--kind", "mip",
        "--decoder-calls", "2000", "--deterministic", "--seeds", "1",
        "--out", str(out),
    ])
    assert code == 0
    summary = json.loads((tmp_path / "knap_result.json").read_text())
    assert summary["solution"]["feasible"] is True
    # optimum: x = (1, 0, 0) or better combos under 4x+3y+2z <= 5
    assert summary["best"]["cost"] <= -5.0


@pytest.mark.parametrize("command", ["solve", "ttt", "frontier", "ttt-time-limit"])
def test_deterministic_without_call_budget_is_refused(command, tdtsp_path, tmp_path):
    port = tmp_path / "port.txt"
    port.write_text("2\n0.001 0.01\n0.002 0.02\n1 1 1.0\n1 2 0.5\n2 2 1.0\n")
    out = tmp_path / "out"
    argv = {
        "solve": ["solve", "--instance", str(tdtsp_path), "--kind", "tdtsp"],
        "ttt": ["ttt", "--instance", str(tdtsp_path), "--kind", "tdtsp",
                "--reference", "12", "--time-limit", "0.5"],
        "frontier": ["frontier", "--instance", str(port), "--lambdas", "0.5",
                     "--cardinality", "1"],
        # a call budget does not help while a deadline can still cut the run
        "ttt-time-limit": ["ttt", "--instance", str(tdtsp_path), "--kind", "tdtsp",
                           "--reference", "12", "--time-limit", "5",
                           "--decoder-calls", "150"],
    }[command]
    assert main(argv + ["--deterministic", "--out", str(out)]) == 2
    assert not [p for p in tmp_path.iterdir() if p.name.startswith("out")]


@pytest.mark.parametrize("command", ["solve", "ttt", "frontier", "oracle"])
def test_invalid_portfolio_flag_exits_2(command, tmp_path):
    port = tmp_path / "port.txt"
    port.write_text("2\n0.001 0.01\n0.002 0.02\n1 1 1.0\n1 2 0.5\n2 2 1.0\n")
    argv = {
        "solve": ["solve", "--kind", "portfolio", "--decoder-calls", "100"],
        "ttt": ["ttt", "--kind", "portfolio", "--reference", "0.001",
                "--decoder-calls", "100"],
        "frontier": ["frontier", "--lambdas", "0.5", "--decoder-calls", "100"],
        "oracle": ["oracle", "--kind", "portfolio"],
    }[command]
    out = tmp_path / "out"
    code = main(argv + ["--instance", str(port), "--cardinality", "0", "--out", str(out)])
    assert code == 2
    assert not [p for p in tmp_path.iterdir() if p.name.startswith("out")]


@pytest.mark.parametrize("command,flag,value", [
    ("solve", "--decoder-calls", "0"),
    ("solve", "--time-limit", "-1"),
    ("solve", "--quantum", "0"),
    ("solve", "--pool-size", "0"),
    ("solve", "--seeds", "0"),
    ("ttt", "--repetitions", "0"),
    ("frontier", "--seeds", "0"),
])
def test_out_of_range_run_flag_exits_2(command, flag, value, tdtsp_path, tmp_path, capsys):
    port = tmp_path / "port.txt"
    port.write_text("2\n0.001 0.01\n0.002 0.02\n1 1 1.0\n1 2 0.5\n2 2 1.0\n")
    argv = {
        "solve": ["solve", "--instance", str(tdtsp_path), "--kind", "tdtsp"],
        "ttt": ["ttt", "--instance", str(tdtsp_path), "--kind", "tdtsp",
                "--reference", "12"],
        "frontier": ["frontier", "--instance", str(port), "--lambdas", "0.5",
                     "--cardinality", "1"],
    }[command]
    if flag != "--decoder-calls":
        argv += ["--decoder-calls", "100"]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exited:
        main(argv + [flag, value, "--out", str(out)])
    assert exited.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert not [p for p in tmp_path.iterdir() if p.name.startswith("out")]


@pytest.mark.parametrize("command,flag,value", [
    ("generate", "--customers", "0"),
    ("generate", "--intervals", "0"),
    ("generate", "--horizon", "-5"),
    ("oracle", "--grid-step", "0"),
])
def test_out_of_range_instance_flag_exits_2(command, flag, value, tmp_path, capsys):
    port = tmp_path / "port.txt"
    port.write_text("2\n0.001 0.01\n0.002 0.02\n1 1 1.0\n1 2 0.5\n2 2 1.0\n")
    argv = {
        "generate": ["generate", "--customers", "4", "--intervals", "2", "--seed", "1"],
        "oracle": ["oracle", "--instance", str(port), "--kind", "portfolio",
                   "--cardinality", "1"],
    }[command]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exited:
        main(argv + [flag, value, "--out", str(out)])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err
    assert "Traceback" not in err
    assert not out.exists()
