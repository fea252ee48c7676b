"""Smoke test of the benchmark itself.

Each workload runs at a tiny size and must emit every metric that
``BENCHMARK.json`` names, with its unit.  Run from the repository root:

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import run_bench
from workloads import (
    WORKLOADS, portfolio_ensemble, tdtsp_ensemble, tdtsp_population, tdtsp_ttt,
)

SPEC = json.loads((run_bench.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "tdtsp-ensemble": lambda seed: tdtsp_ensemble(seed, instances=1, calls=600, runs=2),
    "tdtsp-population": lambda seed: tdtsp_population(seed, calls=600, runs=2),
    "tdtsp-ttt": lambda seed: tdtsp_ttt(seed, instances=2, runs=2),
    "portfolio-ensemble": lambda seed: portfolio_ensemble(seed, calls=600, runs=2),
}


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(TINY)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", list(TINY))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = run_bench.measure(workload, 5, 0.0, trace, make_jobs=TINY[workload])["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    json.dumps(result, allow_nan=False)

    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert (metrics["portfolio.cost.calls"] > 0) == (workload == "portfolio-ensemble")
        if workload == "tdtsp-population":
            assert all(
                value == 0
                for name, value in metrics.items()
                if name.startswith("localsearch.") and name.endswith(".calls")
            )


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run_bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run_bench.ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "tdtsp-population",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
