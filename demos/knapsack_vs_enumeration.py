"""Solve a 15-item 0/1 knapsack with the searcher ensemble and compare
against exhaustive enumeration.

$ python3 demos/knapsack_vs_enumeration.py

The knapsack is phrased as a generic bounded integer program: minimize
-value subject to one weight row.  15 binary variables means 2^15
assignments, small enough for the brute-force oracle, which makes it a
nice sanity check that four different metaheuristics sharing one
decoder-call budget all converge to the same answer.
"""

import numpy as np

from randomkeys import (
    BrkgaParams,
    GenericMipInstance,
    IlsParams,
    MipDecoder,
    RunBudget,
    SaParams,
    VnsParams,
    brute_force_mip,
    check_mip,
    run_ensemble,
)

rng = np.random.default_rng(42)
values = rng.integers(10, 60, size=15).astype(float)
weights = rng.integers(5, 30, size=15).astype(float)
capacity = float(weights.sum() * 0.45)

instance = GenericMipInstance(
    costs=-values,
    lower=np.zeros(15),
    upper=np.ones(15),
    rows=weights.reshape(1, -1),
    rhs=np.array([capacity]),
    n_integer=15,
)

optimum, best_x = brute_force_mip(instance)
print(f"enumeration: optimum value {-optimum:.0f} "
      f"({int(best_x.sum())} items, capacity {capacity:.0f})")

decoder = MipDecoder(instance)
searchers = [BrkgaParams(), SaParams(), IlsParams(), VnsParams()]
for seed in range(1, 6):
    report = run_ensemble(
        decoder, searchers, RunBudget(decoder_calls=10_000), seed,
        deterministic=True,
    )
    solution = decoder.decode(report.best_keys)
    verdict = check_mip(instance, solution.x)
    gap = report.best_cost - optimum
    print(f"seed {seed}: value {-report.best_cost:.0f}  gap {gap:+.0f}  "
          f"found by {report.searcher} at call {report.time_to_best:.0f} "
          f"of {report.decoder_calls}  "
          f"feasible {verdict.feasible}")
