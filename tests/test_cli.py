import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from randomkeys import (
    BrkgaParams,
    GenericMipInstance,
    MipDecoder,
    PenaltyModel,
    PortfolioDecoder,
    PortfolioInstance,
    RunBudget,
    SaParams,
    TdTspDecoder,
    brute_force_mip,
    brute_force_portfolio,
    brute_force_tdtsp,
    check_mip,
    check_portfolio,
    check_tdtsp,
    generate_tdtsp_instance,
    run_ensemble,
    ttt_curve,
)
from randomkeys.cli import main
from randomkeys.instances import (
    load_mip,
    load_orlib_portfolio,
    load_tdtsp,
    write_mip,
    write_tdtsp,
)

ROOT = Path(__file__).resolve().parent.parent
DATA_TDTSP = ROOT / "data" / "tdtsp_n6_h2.json"


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
    infinite = json.loads(json.dumps(data))
    infinite["t"][0][1][2] = "PLACEHOLDER"
    # Every time is finite, but a route's sum is not.
    overflowing = {**data, "t": (np.array(data["t"]) * 1e307).tolist()}
    extra = ["--decoder-calls", "100", "--out", str(tmp_path / "x")] if command == "solve" else []
    for text in (
        json.dumps(infinite).replace('"PLACEHOLDER"', "Infinity"),
        json.dumps(overflowing),
    ):
        tdtsp_path.write_text(text)
        code = main([command, "--instance", str(tdtsp_path), "--kind", "tdtsp", *extra])
        assert code == 2
        assert "finite" in capsys.readouterr().err


# One non-numeric entry per field of the MIP format.
NON_NUMERIC_MIP_FIELDS = {
    "c": ["a", -4.0, -3.0],
    "l": [0.0, "zero", 0.0],
    "u": [1.0, 1.0, [1.0]],
    "b": ["five"],
    "A_dense": [[4.0, "x", 2.0]],
    "A_sparse": [[0, 0, 4.0], [0, 1, "x"]],
}


@pytest.mark.parametrize("field", NON_NUMERIC_MIP_FIELDS)
def test_non_numeric_mip_field_exits_2(field, knapsack_path, tmp_path, capsys):
    data = json.loads(knapsack_path.read_text())
    if field == "A_sparse":
        del data["A_dense"]
    data[field] = NON_NUMERIC_MIP_FIELDS[field]
    knapsack_path.write_text(json.dumps(data))
    code = main([
        "solve", "--instance", str(knapsack_path), "--kind", "mip",
        "--decoder-calls", "100", "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert field in capsys.readouterr().err


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


def test_frontier_refuses_risk_aversion(tmp_path, capsys):
    # Its sweep takes each risk aversion from --lambdas.
    port = tmp_path / "port.txt"
    port.write_text("1\n0.001 0.01\n1 1 1.0\n")
    with pytest.raises(SystemExit) as refused:
        main([
            "frontier", "--instance", str(port), "--lambdas", "0.5",
            "--risk-aversion", "0.3", "--cardinality", "1", "--decoder-calls", "100",
            "--out", str(tmp_path / "front.csv"),
        ])
    assert refused.value.code == 2
    assert "unrecognized arguments: --risk-aversion 0.3" in capsys.readouterr().err
    assert not (tmp_path / "front.csv").exists()


@pytest.mark.parametrize("command", ["rpd", "profile", "frontier"])
def test_bad_number_flag_exits_2(command, tmp_path, capsys):
    # A zero rpd reference, a non-numeric tau and a non-numeric lambda.
    runs = tmp_path / "runs.csv"
    runs.write_text("seed,best_cost,time_to_best,decoder_calls,searcher\n1,20.0,5.0,100,sa\n")
    results = tmp_path / "results.csv"
    results.write_text("method,instance,cost\nours,a,100.0\n")
    refs = tmp_path / "refs.csv"
    refs.write_text("instance,best,lower\na,100.0,90.0\n")
    port = tmp_path / "port.txt"
    port.write_text("1\n0.001 0.01\n1 1 1.0\n")
    argv = {
        "rpd": ["rpd", "--runs", str(runs), "--reference", "0", "--instance-id", "a"],
        "profile": ["profile", "--results", str(results), "--references", str(refs),
                    "--taus", "1,abc"],
        "frontier": ["frontier", "--instance", str(port), "--lambdas", "0.3,abc",
                     "--cardinality", "1", "--decoder-calls", "100"],
    }[command]
    out = tmp_path / "out.csv"
    try:
        code = main(argv + ["--out", str(out)])
    except SystemExit as exited:
        code = exited.code
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err
    assert not out.exists()


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


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_time_limit_that_never_ends_exits_2(value, tdtsp_path, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exited:
        main(["solve", "--instance", str(tdtsp_path), "--kind", "tdtsp",
              "--decoder-calls", "100", "--time-limit", value, "--out", str(out)])
    assert exited.value.code == 2
    assert "argument --time-limit" in capsys.readouterr().err
    assert not [p for p in tmp_path.iterdir() if p.name.startswith("out")]


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("command", ["solve", "ttt", "oracle"])
def test_penalty_weight_must_be_positive_and_finite(
    command, value, knapsack_path, tmp_path, capsys
):
    argv = {
        "solve": ["solve", "--decoder-calls", "100"],
        "ttt": ["ttt", "--reference", "-8", "--repetitions", "1", "--decoder-calls", "100"],
        "oracle": ["oracle"],
    }[command]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exited:
        main(argv + ["--instance", str(knapsack_path), "--kind", "mip",
                     "--penalty-weight", value, "--out", str(out)])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --penalty-weight" in err
    assert "Traceback" not in err
    assert not [p for p in tmp_path.iterdir() if p.name.startswith("out")]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command,flag", [
    ("solve", "--target-cost"),
    ("ttt", "--target-percent"),
    ("ttt", "--reference"),
    ("rpd", "--reference"),
])
def test_non_finite_target_or_reference_exits_2(
    command, flag, value, knapsack_path, tmp_path, capsys
):
    runs = tmp_path / "runs.csv"
    runs.write_text("seed,best_cost,time_to_best\n1,-8,3\n")
    argv = {
        "solve": ["solve", "--instance", str(knapsack_path), "--kind", "mip",
                  "--decoder-calls", "200", "--target-cost", "-8"],
        "ttt": ["ttt", "--instance", str(knapsack_path), "--kind", "mip",
                "--decoder-calls", "200", "--repetitions", "2", "--reference", "-8"],
        "rpd": ["rpd", "--runs", str(runs), "--instance-id", "k", "--reference", "-8"],
    }[command]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exited:
        main(argv + [f"{flag}={value}", "--out", str(out)])  # "=" lets "-inf" through
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}" in err
    assert "must be finite" in err
    assert "Traceback" not in err
    assert not [p for p in tmp_path.iterdir() if p.name.startswith("out")]


def test_ttt_target_that_overflows_exits_2(knapsack_path, tmp_path, capsys):
    # Each flag is finite, but the target they give is not.
    out = tmp_path / "out"
    code = main(["ttt", "--instance", str(knapsack_path), "--kind", "mip",
                 "--decoder-calls", "100", "--repetitions", "1", "--reference", "1e308",
                 "--target-percent", "1e10", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: --reference 1e+308 and --target-percent 10000000000.0" in err
    assert not out.exists()


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


# Run flags away from their defaults, so that a command that dropped one
# on the way to run_ensemble would write other bytes.
SEED_FLAGS = ["--searchers", "sa,brkga", "--decoder-calls", "400",
              "--pool-size", "7", "--quantum", "3", "--deterministic"]


def library_reports(decoder, seeds, target=None):
    """Reports of direct run_ensemble calls at seeds 1..seeds under
    ``SEED_FLAGS``."""
    searchers = [SaParams(), BrkgaParams()]
    return [
        run_ensemble(decoder, searchers, RunBudget(decoder_calls=400), seed,
                     pool_capacity=7, deterministic=True, quantum=3,
                     target_cost=target)
        for seed in range(1, seeds + 1)
    ]


def csv_text(header, rows):
    return "".join(",".join(row) + "\n" for row in [header, *rows])


def test_cli_seeds_are_the_library_seeds(tmp_path):
    # Twelve customers keep the runs improving late enough that the
    # quantum and the initial fill size show in every CSV below.
    instance = tmp_path / "n12.json"
    write_tdtsp(generate_tdtsp_instance(12, 3, seed=5), instance)
    decoder = TdTspDecoder(load_tdtsp(instance))

    assert main(["solve", "--instance", str(instance), "--kind", "tdtsp",
                 "--seeds", "3", "--target-cost", "45", *SEED_FLAGS,
                 "--out", str(tmp_path / "solve")]) == 0
    runs = [[str(r.seed), f"{r.best_cost:.6f}", f"{r.time_to_best:.6f}",
             str(r.decoder_calls), r.searcher]
            for r in library_reports(decoder, 3, target=45.0)]
    assert (tmp_path / "solve_runs.csv").read_text() == csv_text(
        ["seed", "best_cost", "time_to_best", "decoder_calls", "searcher"], runs)

    # Some runs reach the target and some are censored.
    assert main(["ttt", "--instance", str(instance), "--kind", "tdtsp",
                 "--reference", "45", "--target-percent", "0", "--repetitions", "6",
                 *SEED_FLAGS, "--out", str(tmp_path / "ttt.csv")]) == 0
    curve = ttt_curve([r.time_to_best if r.best_cost <= 45.0 else None
                       for r in library_reports(decoder, 6, target=45.0)],
                      target=45.0, limit=400.0)
    assert 0 < curve.n_censored < 6
    ranked = [[str(i + 1), f"{t:.6f}", f"{p:.6f}", "0"]
              for i, (t, p) in enumerate(curve.points())]
    censored = [[str(len(ranked) + k + 1), "400.000000", "", "1"]
                for k in range(curve.n_censored)]
    assert (tmp_path / "ttt.csv").read_text() == csv_text(
        ["rank", "time_s", "prob", "censored"], ranked + censored)

    port = tmp_path / "port.txt"
    port.write_text(
        "3\n"
        "0.0013 0.0432\n0.0042 0.0403\n0.0015 0.0413\n"
        "1 1 1.0\n1 2 0.56\n1 3 0.75\n2 2 1.0\n2 3 0.58\n3 3 1.0\n"
    )
    assert main(["frontier", "--instance", str(port), "--lambdas", "0.3,0.7",
                 "--cardinality", "2", "--seeds", "3", *SEED_FLAGS,
                 "--out", str(tmp_path / "front.csv")]) == 0
    means, covariance = load_orlib_portfolio(port)
    front = []
    for lam in (0.3, 0.7):
        decoder = PortfolioDecoder(PortfolioInstance(
            means=means, covariance=covariance, cardinality=2,
            risk_aversion=lam, lower=0.0, upper=1.0,
        ))
        reports = library_reports(decoder, 3)
        best = reports[0]
        for report in reports[1:]:  # the first of the lowest
            if report.best_cost < best.best_cost:
                best = report
        decoded = decoder.decode(best.best_keys)
        front.append([f"{lam:.6f}", f"{decoded.risk:.6f}",
                      f"{decoded.mean_return:.6f}", f"{decoded.cost:.6f}"])
    assert (tmp_path / "front.csv").read_text() == csv_text(
        ["lambda", "risk", "return", "cost"], front)


def test_deterministic_output_is_the_same_in_every_process(tmp_path):
    # --deterministic promises byte-identical output; hash randomization
    # differs between these two processes and must change nothing.
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed
        out.mkdir()
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
        for argv in (
            ["solve", "--kind", "tdtsp", "--seeds", "3", "--decoder-calls", "2000",
             "--out", str(out / "solve")],
            ["ttt", "--kind", "tdtsp", "--reference", "18", "--target-percent", "0",
             "--repetitions", "6", "--decoder-calls", "150", "--out", str(out / "ttt.csv")],
        ):
            done = subprocess.run(
                [sys.executable, "-m", "randomkeys", *argv, "--instance", str(DATA_TDTSP),
                 "--deterministic"],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
        outputs.append([(out / name).read_bytes()
                        for name in ("solve.json", "solve_runs.csv", "ttt.csv")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("flags", [["--seed", "-1"], ["--seed", "1", "--horizon", "1e306"]])
def test_generate_seed_or_horizon_the_generator_refuses_exits_2(flags, tmp_path, capsys):
    out = tmp_path / "gen.json"
    code = main(["generate", "--customers", "4", "--intervals", "2", *flags,
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "instance,best,lower\n"])
def test_profile_refuses_references_without_data_rows(text, tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text("method,instance,cost\nours,a,100.0\n")
    refs = tmp_path / "refs.csv"
    refs.write_text(text)
    out = tmp_path / "p.csv"
    code = main(["profile", "--results", str(results), "--references", str(refs),
                 "--out", str(out)])
    assert code == 2
    assert f"error: {refs}: no data rows" in capsys.readouterr().err
    assert not out.exists()


PORT3 = (
    "3\n"
    "0.0013 0.0432\n0.0042 0.0403\n0.0015 0.0413\n"
    "1 1 1.0\n1 2 0.56\n1 3 0.75\n2 2 1.0\n2 3 0.58\n3 3 1.0\n"
)


@pytest.mark.parametrize("kind", ["mip", "portfolio", "tdtsp"])
def test_solve_and_oracle_report_what_the_library_gives(
    kind, knapsack_path, tdtsp_path, tmp_path, capsys
):
    port = tmp_path / "port.txt"
    port.write_text(PORT3)
    # Problem flags away from their defaults: at a penalty weight of 0.5
    # the knapsack's optimum is infeasible, and the portfolio bounds and
    # risk aversion move its optimum.
    instance, flags = {
        "mip": (knapsack_path, ["--penalty-weight", "0.5"]),
        "portfolio": (port, ["--cardinality", "2", "--risk-aversion", "0.3",
                             "--lower-bound", "0.1", "--upper-bound", "0.8"]),
        "tdtsp": (tdtsp_path, []),
    }[kind]
    problem = ["--instance", str(instance), "--kind", kind, *flags]
    assert main(["solve", *problem, "--seeds", "2", "--decoder-calls", "300",
                 "--deterministic", "--out", str(tmp_path / "solve")]) == 0
    capsys.readouterr()
    assert main(["oracle", *problem, "--grid-step", "0.01",
                 "--out", str(tmp_path / "oracle.json")]) == 0
    keys = np.array(json.loads((tmp_path / "solve.json").read_text())["best"]["keys"])

    if kind == "mip":
        mip = load_mip(instance)
        decoded = MipDecoder(mip, PenaltyModel(weight=0.5)).decode(keys)
        solution = {"x": decoded.x.tolist(), "objective": decoded.objective,
                    "penalty": decoded.penalty, "cost": decoded.cost,
                    "feasible": check_mip(mip, decoded.x).feasible}
        cost, x = brute_force_mip(mip, PenaltyModel(weight=0.5))
        oracle = {"kind": "mip", "cost": cost, "x": x.tolist()}
        assert cost == -7.5  # (1, 0, 1) over the capacity by 1
    elif kind == "portfolio":
        means, covariance = load_orlib_portfolio(instance)
        portfolio = PortfolioInstance(means=means, covariance=covariance, cardinality=2,
                                      risk_aversion=0.3, lower=0.1, upper=0.8)
        decoded = PortfolioDecoder(portfolio).decode(keys)
        solution = {"assets": list(decoded.assets), "weights": decoded.weights.tolist(),
                    "risk": decoded.risk, "return": decoded.mean_return,
                    "penalty": decoded.penalty, "cost": decoded.cost,
                    "feasible": check_portfolio(portfolio, decoded).feasible}
        cost, assets, weights = brute_force_portfolio(portfolio, 0.01)
        oracle = {"kind": "portfolio", "cost": cost, "assets": list(assets),
                  "weights": weights.tolist(), "grid_step": 0.01}
    else:
        tdtsp = load_tdtsp(instance)
        decoded = TdTspDecoder(tdtsp).decode(keys)
        solution = {"order": list(decoded.order), "arrival": decoded.arrival.tolist(),
                    "travel_cost": decoded.travel_cost, "penalized": decoded.penalized,
                    "cost": decoded.cost, "feasible": check_tdtsp(tdtsp, decoded).feasible}
        cost, order = brute_force_tdtsp(tdtsp)
        oracle = {"kind": "tdtsp", "cost": cost, "order": list(order)}
    assert json.loads((tmp_path / "solve.json").read_text())["solution"] == solution
    assert json.loads((tmp_path / "oracle.json").read_text()) == oracle
    assert json.loads(capsys.readouterr().out) == oracle
