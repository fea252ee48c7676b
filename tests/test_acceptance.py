"""End-to-end acceptance checks.

One test per criterion; each prints a single ``criterion N: PASS/FAIL``
line (visible with ``pytest -s`` and in failure reports) and enforces
its stated tolerance and runtime.  Criterion 5 needs the OR-Library
portfolio file ``data/orlib/port1.txt`` and skips loudly when that data
is not present.
"""

import csv
import time
from pathlib import Path

import numpy as np
import pytest

from randomkeys import (
    BlendConfig,
    BrkgaParams,
    ElitePool,
    EvaluatedSolution,
    Evaluator,
    IlsParams,
    InsertOutcome,
    PortfolioDecoder,
    PortfolioInstance,
    RunBudget,
    SaParams,
    ShakeConfig,
    TdTspDecoder,
    VnsParams,
    blend,
    brute_force_mip,
    brute_force_portfolio,
    brute_force_tdtsp,
    check_mip,
    decode_portfolio,
    decode_tdtsp,
    generate_tdtsp_instance,
    profile_fractions,
    quality_ratios,
    relative_percent_deviation,
    run_ensemble,
    rvnd,
    shake,
    travel_time_lower_bound,
    ttt_curve,
    ttt_target,
)
from randomkeys import GenericMipInstance, MipDecoder, PenaltyModel
from randomkeys.cli import main as cli_main
from randomkeys.instances import load_orlib_portfolio
from conftest import BENCH_KEYS, answer, toy_portfolio

REPO = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO / "data" / "tdtsp_n6_h2.json"
PORT1_PATH = REPO / "data" / "orlib" / "port1.txt"

ENSEMBLE = [BrkgaParams(), SaParams(), IlsParams(), VnsParams()]


def report(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def best_of_1ms(fn):
    """Minimum runtime of five repetitions, after one warmup call."""
    fn()
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_c1_portfolio_decoder_pin(ten_asset_instance):
    keys = np.array([0.81, 0.32, 0.54, 0.29, 0.15, 0.91])
    sol = decode_portfolio(ten_asset_instance, keys)
    ok = (
        sol.assets == (8, 2, 5)
        and np.allclose(sol.weights, [0.2212, 0.1231, 0.6557], atol=1e-4)
        and abs(sol.penalty - 0.2557) <= 1e-4
    )
    runtime = best_of_1ms(lambda: decode_portfolio(ten_asset_instance, keys))
    ok = ok and runtime < 1e-3
    report(1, ok,
           f"assets {sol.assets}, weights {np.round(sol.weights, 4).tolist()}, "
           f"penalty {sol.penalty:.4f}, decode {runtime * 1e6:.0f}us")


def test_c2_route_decoder_pin(bench_instance):
    sol = decode_tdtsp(bench_instance, BENCH_KEYS)
    visited = [float(sol.arrival[v]) for v in sol.order]
    slots = [h for _, _, h in sol.arcs]
    ok = (
        sol.order == (5, 4, 2, 3, 1, 6)
        and visited == [6, 19, 26, 37, 46, 54]
        and sol.arrival[7] == 59
        and slots == [0, 0, 0, 0, 1, 1, 1]  # switch after the fourth visit
        and not sol.penalized
        and sol.cost == 32.0
    )
    runtime = best_of_1ms(lambda: decode_tdtsp(bench_instance, BENCH_KEYS))
    ok = ok and runtime < 1e-3
    report(2, ok,
           f"order {'-'.join(map(str, sol.order))}, arrivals {visited}, "
           f"cost {sol.cost}, decode {runtime * 1e6:.0f}us")


def test_c3_tdtsp_oracle_equivalence():
    t0 = time.monotonic()
    sizes = [6, 7, 8, 9, 6, 7, 8, 9, 6, 7]
    exact = within = total = 0
    for idx, n in enumerate(sizes):
        inst = generate_tdtsp_instance(n, 3, seed=101 + idx)
        opt, _ = brute_force_tdtsp(inst)
        for seed in range(1, 6):
            result = run_ensemble(
                TdTspDecoder(inst), ENSEMBLE, RunBudget(time_limit=float(n)),
                seed, target_cost=opt,
            )
            total += 1
            if abs(result.best_cost - opt) < 1e-9:
                exact += 1
            if result.best_cost <= opt * 1.02 + 1e-9:
                within += 1
    elapsed = time.monotonic() - t0
    ok = exact >= 0.95 * total and within == total and elapsed < 600
    report(3, ok,
           f"optimum reached in {exact}/{total} runs, within 2% in "
           f"{within}/{total}, {elapsed:.1f}s")


def test_c4_portfolio_oracle_equivalence():
    t0 = time.monotonic()
    shapes = [(4, 2), (5, 3), (6, 2), (7, 2), (8, 2)]
    tolerance = 1e-3 + 1e-6  # grid resolution plus slack
    worst = 0.0
    inside = total = 0
    for idx, (n, k) in enumerate(shapes):
        inst = toy_portfolio(n, k, seed=11 + idx)
        opt, _, _ = brute_force_portfolio(inst, grid_step=1e-3)
        for seed in range(1, 6):
            result = run_ensemble(
                PortfolioDecoder(inst), ENSEMBLE, RunBudget(time_limit=5.0),
                seed, target_cost=opt + 1e-7,
            )
            total += 1
            gap = abs(result.best_cost - opt)
            worst = max(worst, gap)
            if gap <= tolerance:
                inside += 1
    elapsed = time.monotonic() - t0
    ok = inside == total and elapsed < 300
    report(4, ok,
           f"{inside}/{total} runs within {tolerance:.1e} of the grid oracle "
           f"(worst gap {worst:.2e}), {elapsed:.1f}s")


@pytest.mark.skipif(
    not PORT1_PATH.exists(),
    reason=(
        "OR-Library portfolio data not bundled: place the Hang Seng file "
        "(beasley OR-Library 'port1') at data/orlib/port1.txt to run the "
        "reproduction against its published best values"
    ),
)
def test_c5_orlib_port1_reproduction():
    t0 = time.monotonic()
    means, covariance = load_orlib_portfolio(PORT1_PATH)
    cases = [
        (5, 0.3, -0.00466),
        (8, 0.3, -0.00465),
        (10, 0.3, -0.00464),
        (5, 0.5, -0.00297),
    ]
    details = []
    ok = True
    for cardinality, lam, expected in cases:
        inst = PortfolioInstance(
            means=means, covariance=covariance, cardinality=cardinality,
            risk_aversion=lam, lower=0.01, upper=1.0,
        )
        best = min(
            run_ensemble(
                PortfolioDecoder(inst), ENSEMBLE, RunBudget(time_limit=10.0),
                seed,
            ).best_cost
            for seed in range(1, 6)
        )
        deviation = abs((best - expected) / expected)
        details.append(f"K={cardinality} lam={lam}: {best:.5f} ({deviation:.2%})")
        ok = ok and deviation <= 0.001
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 360
    report(5, ok, "; ".join(details) + f", {elapsed:.1f}s")


def knapsack_instance():
    rng = np.random.default_rng(42)
    values = rng.integers(10, 60, size=15).astype(float)
    weights = rng.integers(5, 30, size=15).astype(float)
    return GenericMipInstance(
        costs=-values,
        lower=np.zeros(15),
        upper=np.ones(15),
        rows=weights.reshape(1, -1),
        rhs=np.array([float(weights.sum() * 0.45)]),
        n_integer=15,
    )


def test_c6_knapsack_ensemble():
    t0 = time.monotonic()
    inst = knapsack_instance()
    opt, _ = brute_force_mip(inst)
    decoder = MipDecoder(inst)
    hits = 0
    feasible = 0
    for seed in range(1, 21):
        result = run_ensemble(
            decoder, ENSEMBLE, RunBudget(decoder_calls=10_000), seed,
            deterministic=True,
        )
        solution = decoder.decode(result.best_keys)
        if check_mip(inst, solution.x).feasible:
            feasible += 1
        if abs(result.best_cost - opt) < 1e-9:
            hits += 1
    elapsed = time.monotonic() - t0
    ok = hits >= 18 and feasible == 20 and elapsed < 60
    report(6, ok,
           f"enumeration optimum {opt:.0f} reached in {hits}/20 runs, "
           f"{feasible}/20 feasible, {elapsed:.1f}s")


def test_c7_invariant_suites(bench_instance):
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)

    # key-range closure: shake and blend, 1e4 cases each
    shake_cases = blend_cases = 0
    cfg = ShakeConfig()
    for _ in range(10_000):
        d = int(rng.integers(1, 12))
        out = shake(rng.random(d), cfg, rng)
        assert np.all(out >= 0.0) and np.all(out < 1.0)
        shake_cases += 1
    bcfg = BlendConfig(inherit_prob=0.7, mutation_prob=0.05)
    for _ in range(10_000):
        d = int(rng.integers(1, 12))
        out = blend(rng.random(d), rng.random(d), bcfg, rng)
        assert np.all(out >= 0.0) and np.all(out < 1.0)
        blend_cases += 1

    # rvnd closure: every candidate it evaluates must stay in range
    rvnd_cases = 0

    class Probe:
        dimension = 4

        def cost(self, keys):
            nonlocal rvnd_cases
            assert np.all(keys >= 0.0) and np.all(keys < 1.0)
            rvnd_cases += 1
            return float(np.sum((keys - 0.37) ** 2))

    evaluator = Evaluator(Probe(), RunBudget(decoder_calls=10**8))
    while rvnd_cases < 10_000:
        start = rng.random(4)
        answer(rvnd(start, evaluator.charge(start), rng), evaluator.charge)

    # pool capacity, monotonicity, dedup: 1e4 random inserts
    pool = ElitePool(capacity=7)
    pool_cases = 0
    best = np.inf
    for _ in range(10_000):
        keys = np.round(rng.random(3), 2)  # coarse grid provokes duplicates
        cost = float(np.sum(keys))
        outcome = pool.insert(EvaluatedSolution(keys=keys, cost=cost))
        best = min(best, cost)
        entries = pool.entries
        assert len(entries) <= 7
        costs = [e.cost for e in entries]
        assert costs == sorted(costs)
        assert pool.best().cost == best
        if outcome is InsertOutcome.DUPLICATE:
            assert any(np.array_equal(e.keys, keys) for e in entries)
        pool_cases += 1

    # portfolio: cardinality and unit budget, 1e4 decodes
    port = toy_portfolio(9, 4, seed=77)
    port_cases = 0
    for _ in range(10_000):
        sol = decode_portfolio(port, rng.random(8))
        assert len(set(sol.assets)) == 4
        assert abs(float(sol.weights.sum()) - 1.0) <= 1e-9
        port_cases += 1

    # routing: bijectivity, flow telescope, and the travel-time bound
    bound = travel_time_lower_bound(bench_instance)
    route_cases = 0
    for _ in range(10_000):
        sol = decode_tdtsp(bench_instance, rng.random(6))
        assert sorted(sol.order) == [1, 2, 3, 4, 5, 6]
        values = {(i, j): v for i, j, v in sol.flows}
        route = [0] + list(sol.order) + [7]
        for step, (a, b) in enumerate(zip(route, route[1:])):
            assert values[(a, b)] == 6 - step
            assert values[(b, a)] == step
        if not sol.penalized:
            assert bound <= sol.cost
        route_cases += 1

    elapsed = time.monotonic() - t0
    counts = (shake_cases, blend_cases, rvnd_cases, pool_cases,
              port_cases, route_cases)
    ok = all(c >= 10_000 for c in counts) and elapsed < 120
    report(7, ok,
           f"cases shake/blend/rvnd/pool/portfolio/route = "
           f"{'/'.join(map(str, counts))}, {elapsed:.1f}s")


def test_c8_determinism(tmp_path):
    t0 = time.monotonic()
    outputs = []
    for rep in range(3):
        out = tmp_path / f"rep{rep}"
        code = cli_main([
            "solve", "--instance", str(BENCH_PATH), "--kind", "tdtsp",
            "--seeds", "3", "--decoder-calls", "3000", "--deterministic",
            "--out", str(out),
        ])
        assert code == 0
        outputs.append((tmp_path / f"rep{rep}_runs.csv").read_bytes())
    elapsed = time.monotonic() - t0
    ok = outputs[0] == outputs[1] == outputs[2] and elapsed < 30
    report(8, ok,
           f"3 invocations, {len(outputs[0])} bytes each, "
           f"byte-identical: {outputs[0] == outputs[2]}, {elapsed:.1f}s")


def test_c9_metric_fixtures():
    t0 = time.monotonic()
    checks = []

    checks.append(abs(relative_percent_deviation(110.0, 100.0) - 10.0) <= 1e-10)
    checks.append(abs(relative_percent_deviation(-99.0, -100.0) - 1.0) <= 1e-10)
    checks.append(abs(ttt_target(200.0, 2.0) - 204.0) <= 1e-10)

    curve = ttt_curve([4.0, None, 1.0, 2.5, None], target=10.0, limit=30.0)
    checks.append(curve.n_censored == 2)
    checks.append(curve.points() == [(1.0, 0.1), (2.5, 0.3), (4.0, 0.5)])

    # two methods over 225 instances: one attains the best-known value
    # on 224 of them, the other on 46
    reference = {f"i{k}": 100.0 for k in range(225)}
    strong = {f"i{k}": 100.0 if k < 224 else 101.0 for k in range(225)}
    weak = {f"i{k}": 100.0 if k < 46 else 102.0 for k in range(225)}
    rho_strong = profile_fractions(
        quality_ratios(strong, reference, "best"), [1.0]
    )[0]
    rho_weak = profile_fractions(quality_ratios(weak, reference, "best"), [1.0])[0]
    checks.append(rho_strong == 224 / 225)
    checks.append(rho_weak == 46 / 225)

    lower = {f"i{k}": 80.0 for k in range(225)}
    rho_lower = profile_fractions(
        quality_ratios(strong, lower, "lower"), [1.25]
    )[0]
    checks.append(rho_lower == 224 / 225)

    elapsed = time.monotonic() - t0
    ok = all(checks) and elapsed < 10
    report(9, ok,
           f"{sum(checks)}/{len(checks)} fixtures exact "
           f"(rho(1) = {rho_strong:.6f} and {rho_weak:.6f}), {elapsed:.2f}s")
