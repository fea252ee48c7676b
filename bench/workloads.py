"""The benchmark workloads and the correctness gate on their results.

A workload turns the workload seed into a fixed list of ensemble runs,
one round.  The seed generates the instances and the search seeds; the
package receives only the generated inputs.  Every run uses the public
``run_ensemble`` with the single-threaded round-robin driver
(``deterministic=True``) and a decoder-call budget, so a round is a pure
function of the seed and each repeat of it must report the same results.

The four workloads load different sets of layers, so that a change
to one layer shows on one workload and not on another:

- ``tdtsp-ensemble``: the paper's default configuration, all four
  searchers on 50-customer TD-TSP instances at a fixed call budget.
  The decoder carries the largest share; ILS and VNS make most of the
  calls, so local search does most of the rest and ``keys`` is nearly
  idle.
- ``tdtsp-population``: BRKGA and SA on a 50-customer TD-TSP instance
  at a fixed call budget.  The decoder, ``keys.shake``, ``keys.blend``
  and the generation loop carry the run; local search is never entered.
- ``tdtsp-ttt``: all four searchers, the paper's configuration, run to
  the brute-force optimum of small instances.  The decoder is cheap
  there, so local search and the budget, pool, searcher and driver
  overhead dominate; it is the workload that stops at a target.
- ``portfolio-ensemble``: all four searchers on a 225-asset portfolio
  with 10 assets to pick (dimension 20) at a fixed call budget.  The
  only workload that runs ``portfolio.cost``, which carries the run
  together with local search; ``keys`` is nearly idle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from randomkeys import (
    BrkgaParams,
    IlsParams,
    PortfolioDecoder,
    PortfolioInstance,
    RunBudget,
    RunReport,
    SaParams,
    TdTspDecoder,
    VnsParams,
    brute_force_tdtsp,
    check_portfolio,
    check_tdtsp,
    generate_tdtsp_instance,
)

ENSEMBLE = (BrkgaParams(), SaParams(), IlsParams(), VnsParams())
POPULATION = (BrkgaParams(), SaParams())

# A time-to-target run is allowed this many decoder calls.  Runs on
# 6-customer instances reach the optimum after a median of about 750
# calls and the slowest of 1500 took 6.5k, so a miss means a real stall.
TTT_CALL_CAP = 400_000
# The time to target is heavy-tailed and differs between instances, so
# its median is only steady across workload seeds over many runs on
# many instances; 6 customers keep each run short enough for that.
TTT_CUSTOMERS = 6

Decoder = Union[TdTspDecoder, PortfolioDecoder]


@dataclass(frozen=True)
class Job:
    """One ``run_ensemble`` call; ``target`` is the oracle optimum on
    time-to-target runs and ``None`` on fixed-budget runs."""

    decoder: Decoder
    searchers: tuple
    budget: RunBudget
    seed: int
    target: Optional[float] = None


def _draw_seeds(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _primed(decoder: Decoder) -> Decoder:
    # One decode fills the decoder's lazy caches, which belong to set-up.
    decoder.cost(np.full(decoder.dimension, 0.5))
    return decoder


def toy_portfolio(n: int, k: int, seed: int) -> PortfolioInstance:
    """Random instance with a dense positive-semidefinite covariance,
    drawn the same way as the test suite's toy portfolio.

    It asks for minimum variance (risk aversion 1), so that every cost
    is positive and the mean best cost compares as a share; the decoder
    does the same work at any risk aversion."""
    rng = np.random.default_rng(seed)
    means = rng.uniform(0.001, 0.01, size=n)
    a = rng.normal(size=(n, n))
    cov = (a @ a.T) / n * 1e-3
    return PortfolioInstance(
        means=means, covariance=cov, cardinality=k, risk_aversion=1.0,
        lower=0.0, upper=1.0,
    )


def _fixed_budget(decoder: Decoder, searchers: tuple, seed: int, calls: int, runs: int):
    budget = RunBudget(decoder_calls=calls)
    return [Job(decoder, searchers, budget, s) for s in _draw_seeds(seed, runs)]


def tdtsp_population(seed: int, calls: int = 2_500, runs: int = 40) -> list[Job]:
    # Many short runs, so that the median time per run is steady.
    (instance_seed,) = _draw_seeds(seed, 1)
    decoder = _primed(TdTspDecoder(generate_tdtsp_instance(50, 5, instance_seed)))
    return _fixed_budget(decoder, POPULATION, instance_seed, calls, runs)


def tdtsp_ensemble(seed: int, instances: int = 16, calls: int = 12_000, runs: int = 2) -> list[Job]:
    # Many instances, so that neither the mean best cost nor the time
    # per run hangs on one instance.  Below about 12k calls a run spends
    # more time in local search than in the decoder.
    jobs = []
    for instance_seed in _draw_seeds(seed, instances):
        decoder = _primed(TdTspDecoder(generate_tdtsp_instance(50, 5, instance_seed)))
        jobs += _fixed_budget(decoder, ENSEMBLE, instance_seed, calls, runs)
    return jobs


def portfolio_ensemble(seed: int, calls: int = 3_000, runs: int = 16) -> list[Job]:
    (instance_seed,) = _draw_seeds(seed, 1)
    decoder = _primed(PortfolioDecoder(toy_portfolio(225, 10, instance_seed)))
    return _fixed_budget(decoder, ENSEMBLE, instance_seed, calls, runs)


def tdtsp_ttt(seed: int, instances: int = 125, runs: int = 8) -> list[Job]:
    budget = RunBudget(decoder_calls=TTT_CALL_CAP)
    jobs = []
    for instance_seed in _draw_seeds(seed, instances):
        instance = generate_tdtsp_instance(TTT_CUSTOMERS, 3, instance_seed)
        optimum, _ = brute_force_tdtsp(instance)
        decoder = _primed(TdTspDecoder(instance))
        jobs += [
            Job(decoder, ENSEMBLE, budget, s, target=optimum)
            for s in _draw_seeds(instance_seed, runs)
        ]
    return jobs


WORKLOADS: dict[str, Callable[..., list[Job]]] = {
    "tdtsp-ensemble": tdtsp_ensemble,
    "tdtsp-population": tdtsp_population,
    "tdtsp-ttt": tdtsp_ttt,
    "portfolio-ensemble": portfolio_ensemble,
}


def reached_target(job: Job, report: RunReport) -> bool:
    return job.target is None or report.best_cost <= job.target + 1e-9


def check(job: Job, report: RunReport) -> Optional[str]:
    """Return why ``report`` is wrong, or ``None`` when it passes.

    The best keys are decoded again with the assembling decoder, whose
    cost must equal the reported one, and an unpenalized solution must
    pass the independent TD-TSP or portfolio checker.  Fixed-budget
    runs must charge exactly their budget, and no run may beat the
    oracle.  A missed target is not an error here; it counts as a
    failed run.
    """
    solution = job.decoder.decode(report.best_keys)
    if solution.cost != report.best_cost:
        return f"re-decoded cost {solution.cost!r} != reported {report.best_cost!r}"
    if isinstance(job.decoder, TdTspDecoder):
        checker, unpenalized = check_tdtsp, not solution.penalized
    else:
        checker, unpenalized = check_portfolio, solution.penalty == 0.0
    if unpenalized:
        verdict = checker(job.decoder.instance, solution)
        if not verdict.feasible:
            return f"solution fails {checker.__name__}: {verdict.reasons}"
    limit = job.budget.decoder_calls
    if job.target is None and report.decoder_calls != limit:
        return f"charged {report.decoder_calls} calls against a budget of {limit}"
    if report.decoder_calls > limit:
        return f"charged {report.decoder_calls} calls past the cap of {limit}"
    if job.target is not None and report.best_cost < job.target - 1e-9:
        return f"cost {report.best_cost!r} beats the oracle optimum {job.target!r}"
    return None
