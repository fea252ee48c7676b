"""Run an ensemble of searchers against one decoder under one budget.

All searchers share the elite pool and the decoder-call budget.  One
driver interleaves the searcher generators round-robin on the calling
thread, switching at the first yield on or after a fixed quantum of
decoder calls.  Every decode goes through one :class:`Evaluator`, which
keeps the best decode of the run and stops it at the target cost.

Time fields count in the unit of the budget: decoder calls when it has
no ``time_limit``, wall seconds otherwise.  Under a call-only budget a
run is a pure function of its seed, decoder, searcher list and budget.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .budget import Decoder, Evaluator, RunBudget, SearchClock
from .errors import BudgetExhausted
from .keys import new_random_vector
from .pool import ElitePool
from .searchers import SearcherParams

__all__ = ["RunReport", "run_ensemble"]


@dataclass(frozen=True)
class RunReport:
    """Outcome of one ensemble run.

    The best is the first decode of the run with the lowest cost.
    ``time_to_best`` is the time of that decode: its decoder-call
    ordinal under a call-only budget, wall seconds since the start of
    the run under a budget with a ``time_limit``.  ``searcher`` is the
    label of the searcher that decoded it ("init" when the initial
    random pool was never beaten).
    """

    best_cost: float
    best_keys: np.ndarray
    time_to_best: float
    decoder_calls: int
    seed: int
    searcher: str


def _unique_labels(searchers: Sequence[SearcherParams]) -> list[str]:
    counts = Counter(s.label for s in searchers)
    seen: Counter = Counter()
    labels = []
    for s in searchers:
        if counts[s.label] == 1:
            labels.append(s.label)
        else:
            seen[s.label] += 1
            labels.append(f"{s.label}-{seen[s.label]}")
    return labels


def run_ensemble(
    decoder: Decoder,
    searchers: Sequence[SearcherParams],
    budget: RunBudget,
    seed: int,
    *,
    pool_capacity: int = 20,
    deterministic: bool = False,
    quantum: int = 100,
    target_cost: Optional[float] = None,
) -> RunReport:
    """Search the key hypercube of ``decoder`` and return the best found.

    The pool is seeded with ``pool_capacity`` random evaluated vectors
    (these decodes count against the budget), then every searcher runs
    until the budget is exhausted or, when ``target_cost`` is given,
    until some decode reaches it.  Under a call-only budget ``seed``
    reproduces the run exactly.  ``deterministic=True`` asks for that:
    it raises ``ValueError`` when the budget has a ``time_limit``.
    """
    if deterministic and budget.time_limit is not None:
        raise ValueError("a run with a time_limit does not reproduce")
    if not searchers:
        raise ValueError("need at least one searcher")
    if quantum < 1:
        raise ValueError(f"quantum must be >= 1, got {quantum}")
    dimension = decoder.dimension
    if dimension < 1:
        raise ValueError(f"decoder dimension must be positive, got {dimension}")

    clock = SearchClock(budget)
    evaluator = Evaluator(decoder, clock, target_cost)
    streams = np.random.SeedSequence(seed).spawn(len(searchers) + 1)
    pool = ElitePool(pool_capacity)
    init_rng = np.random.default_rng(streams[0])
    init_evaluate = evaluator.bound_to("init")
    try:
        for _ in range(pool_capacity):
            pool.insert(init_evaluate(new_random_vector(dimension, init_rng)))
    except BudgetExhausted:
        pass
    else:
        labels = _unique_labels(searchers)
        generators = [
            spec.search(
                dimension,
                evaluator.bound_to(labels[i]),
                pool,
                np.random.default_rng(streams[i + 1]),
            )
            for i, spec in enumerate(searchers)
        ]
        _drive_round_robin(generators, clock, quantum)

    best = evaluator.best
    if best is None:
        raise RuntimeError("budget expired before any vector was evaluated")
    return RunReport(
        best_cost=best.cost,
        best_keys=best.keys,
        time_to_best=evaluator.time_to_best,
        decoder_calls=clock.calls,
        seed=seed,
        searcher=best.origin,
    )


def _drive_round_robin(generators, clock: SearchClock, quantum: int) -> None:
    """Resume each generator in turn until it has used ``quantum`` calls
    since it was resumed, and drop it once it ends or hits the budget."""
    active = list(generators)
    while active:
        for gen in list(active):
            resumed_at = clock.calls
            while clock.calls - resumed_at < quantum:
                try:
                    next(gen)
                except (StopIteration, BudgetExhausted):
                    active.remove(gen)
                    break
