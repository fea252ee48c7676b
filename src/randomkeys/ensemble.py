"""Run an ensemble of searchers against one decoder under one budget.

The searchers share the decoder-call budget and nothing else.  A run
first charges one block of random vectors, the initial fill.  Then one
driver resumes the ask/tell searchers round-robin on the calling
thread, decodes what they ask for through one :class:`Evaluator`, and
switches at the first pause on or after a fixed quantum of decoder
calls.  A searcher asks for one key vector, told its cost as a float,
or for a block of independent vectors, whose rows are charged in order
and told as a list of costs.  The evaluator charges the budget and
keeps the best decode of the run; the run ends at the first decode it
refuses, once the budget is spent or the target cost reached.

Time fields count in the unit of the budget: decoder calls when it has
no ``time_limit``, wall seconds otherwise.  Under a call-only budget a
run is a pure function of its seed, decoder, searcher list and budget.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .budget import Decoder, Evaluator, RunBudget, is_count
from .searchers import Search, SearcherParams

__all__ = ["RunReport", "run_ensemble"]


@dataclass(frozen=True)
class RunReport:
    """Outcome of one ensemble run.

    The best is the first decode of the run with the lowest cost.
    ``time_to_best`` is the time of that decode: its decoder-call
    ordinal under a call-only budget, wall seconds since the start of
    the run under a budget with a ``time_limit``.  ``searcher`` is the
    label of the searcher that decoded it ("init" when the initial
    fill was never beaten).
    """

    best_cost: float
    best_keys: np.ndarray
    time_to_best: float
    decoder_calls: int
    seed: int
    searcher: str


def _unique_labels(searchers: Sequence[SearcherParams]) -> list[str]:
    """The searchers' labels, a repeated one numbered in list order
    ("sa-1", "sa-2").  Raises ``ValueError`` when two labels still
    coincide or one is "init", the initial fill's origin."""
    counts = Counter(s.label for s in searchers)
    seen: Counter = Counter()
    labels = []
    for s in searchers:
        if counts[s.label] == 1:
            labels.append(s.label)
        else:
            seen[s.label] += 1
            labels.append(f"{s.label}-{seen[s.label]}")
    if len(set(labels)) < len(labels) or "init" in labels:
        raise ValueError(f"searcher labels must be distinct and not 'init': {labels}")
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

    ``pool_capacity`` is the number of random vectors decoded, as one
    block, before the searchers start (the initial fill; these decodes
    count against the budget).  Then every searcher runs until the
    budget is exhausted or, when ``target_cost`` is given, until some
    decode reaches it; a searcher that returns raises ``RuntimeError``.
    Under a call-only budget ``seed`` reproduces the run exactly.
    ``deterministic=True`` asks for that: it raises ``ValueError`` when
    the budget has a ``time_limit``.  ``quantum`` and ``pool_capacity``
    must be positive integers (``int`` or numpy integers, not bools),
    and ``target_cost``, when given, must be finite, or ``ValueError``
    is raised.  Searchers that share a label are numbered ("sa-1",
    "sa-2"); labels that would still coincide, or "init", raise
    ``ValueError``.
    """
    if deterministic and budget.time_limit is not None:
        raise ValueError("a run with a time_limit does not reproduce")
    if not searchers:
        raise ValueError("need at least one searcher")
    if not is_count(quantum):
        raise ValueError(f"quantum must be a positive integer, got {quantum!r}")
    if not is_count(pool_capacity):
        raise ValueError(f"pool_capacity must be a positive integer, got {pool_capacity!r}")
    if target_cost is not None and not math.isfinite(target_cost):
        raise ValueError(f"target_cost must be finite, got {target_cost!r}")
    dimension = decoder.dimension
    if dimension < 1:
        raise ValueError(f"decoder dimension must be positive, got {dimension}")

    evaluator = Evaluator(decoder, budget, target_cost)
    streams = np.random.SeedSequence(seed).spawn(len(searchers) + 1)
    rngs = [np.random.default_rng(stream) for stream in streams]
    labelled = [
        (label, spec.search(dimension, rng))
        for label, spec, rng in zip(_unique_labels(searchers), searchers, rngs[1:])
    ]
    fill = rngs[0].random((pool_capacity, dimension))
    if len(evaluator.charge_block(fill, "init")) == pool_capacity:
        _drive_round_robin(labelled, evaluator, quantum)

    best = evaluator.best
    if best is None:
        raise RuntimeError("budget expired before any vector was evaluated")
    return RunReport(
        best_cost=best.cost,
        best_keys=best.keys,
        time_to_best=evaluator.time_to_best,
        decoder_calls=evaluator.calls,
        seed=seed,
        searcher=best.origin,
    )


def _drive_round_robin(
    labelled: list[tuple[str, Search]], evaluator: Evaluator, quantum: int
) -> None:
    """Resume each searcher in turn, decode what it asks for under its
    label, tell it the costs, and move on at its first pause once it
    has used ``quantum`` calls since it was resumed.  A 1-D ask is one
    decode, a 2-D ask a block whose rows are decoded in order.  Return
    at the first decode the evaluator refuses; no searcher is resumed
    after it.  A searcher that returns raises ``RuntimeError`` naming
    its label."""
    while True:
        for label, search in labelled:
            resumed_at = evaluator.calls
            try:
                keys = next(search)
                while keys is not None or evaluator.calls - resumed_at < quantum:
                    if keys is None:
                        keys = search.send(None)
                    elif keys.ndim == 1:
                        if (cost := evaluator.charge(keys, label)) is None:
                            return
                        keys = search.send(cost)
                    else:
                        costs = evaluator.charge_block(keys, label)
                        if len(costs) < len(keys):
                            return
                        keys = search.send(costs)
            except StopIteration:
                raise RuntimeError(
                    f"searcher {label!r} returned after {evaluator.calls} decoder "
                    "calls; a searcher must run until the run ends"
                ) from None
