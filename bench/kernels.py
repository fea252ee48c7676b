"""Isolated per-call timings of single kernels.

Each row calls one public function in a loop over pre-drawn inputs,
after a warm-up pass, and reports the median over a few repeats in
microseconds per call.  Inputs come from the workload seed.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Sequence

import numpy as np

from randomkeys import (
    BlendConfig,
    ElitePool,
    EvaluatedSolution,
    GenericMipInstance,
    MipDecoder,
    PortfolioDecoder,
    ShakeConfig,
    TdTspDecoder,
    blend,
    generate_tdtsp_instance,
    shake,
)

from workloads import toy_portfolio

CALLS = 200
REPEATS = 5


def _per_call_us(fn: Callable, inputs: Sequence[tuple]) -> float:
    for args in inputs:
        fn(*args)
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for args in inputs:
            fn(*args)
        samples.append((time.perf_counter() - start) / len(inputs))
    return statistics.median(samples) * 1e6


def knapsack(n: int, rng: np.random.Generator) -> GenericMipInstance:
    """Binary knapsack with one capacity row at 45% of the total weight."""
    values = rng.integers(10, 60, size=n).astype(float)
    weights = rng.integers(5, 30, size=n).astype(float)
    return GenericMipInstance(
        costs=-values,
        lower=np.zeros(n),
        upper=np.ones(n),
        rows=weights.reshape(1, -1),
        rhs=np.array([float(weights.sum() * 0.45)]),
        n_integer=n,
    )


def _pool_at_capacity(capacity: int, dimension: int, rng: np.random.Generator):
    pool = ElitePool(capacity)
    for _ in range(capacity):
        pool.insert(EvaluatedSolution(rng.random(dimension), float(rng.random())))
    candidates = [
        (EvaluatedSolution(rng.random(dimension), float(rng.random())),)
        for _ in range(CALLS)
    ]
    return pool, candidates


def isolated_rows(seed: int) -> dict[str, float]:
    rng = np.random.default_rng(seed)

    def keys(d: int) -> list[tuple]:
        return [(rng.random(d),) for _ in range(CALLS)]

    rows = {}
    for n in (50, 200):
        decoder = TdTspDecoder(generate_tdtsp_instance(n, 5, seed))
        rows[f"tdtsp.cost.isolated_us_n{n}"] = _per_call_us(decoder.cost, keys(n))
    portfolio = PortfolioDecoder(toy_portfolio(225, 10, seed))
    rows["portfolio.cost.isolated_us_n225"] = _per_call_us(portfolio.cost, keys(20))
    mip = MipDecoder(knapsack(50, rng))
    rows["mip.cost.isolated_us_n50"] = _per_call_us(mip.cost, keys(50))
    config = ShakeConfig()
    for d in (50, 200):
        rows[f"keys.shake.isolated_us_d{d}"] = _per_call_us(
            lambda k: shake(k, config, rng), keys(d)
        )
    crossover = BlendConfig(inherit_prob=0.7)
    pairs = [(rng.random(50), rng.random(50)) for _ in range(CALLS)]
    rows["keys.blend.isolated_us_d50"] = _per_call_us(
        lambda a, b: blend(a, b, crossover, rng), pairs
    )
    # The warm-up pass lets the qualifying candidates in; after it the
    # pool stays at capacity and every timed repeat sees the same
    # outcomes (a duplicate scan, or a refusal after the cost scan).
    pool, candidates = _pool_at_capacity(20, 50, rng)
    rows["pool.insert.isolated_us_cap20"] = _per_call_us(pool.insert, candidates)
    return rows
