"""Local searches over key vectors and the RVND driver that cycles them.

All searches are first-improvement: they return as soon as one
evaluated neighbour costs strictly less than the incumbent.  Decoder
calls issued here are charged to the run budget by the evaluator;
:func:`rvnd` can additionally cap its own total calls.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .errors import BudgetExhausted
from .keys import KEY_MAX
from .pool import EvaluatedSolution

__all__ = [
    "FAREY_VALUES",
    "swap_search",
    "mirror_search",
    "farey_search",
    "nelder_mead_search",
    "rvnd",
]

# Farey sequence of order 7, with the right endpoint pulled just below
# one so it stays a representable key.
FAREY_VALUES = (
    0.0, 1 / 7, 1 / 6, 1 / 5, 1 / 4, 2 / 7, 1 / 3, 2 / 5, 3 / 7, 1 / 2,
    4 / 7, 3 / 5, 2 / 3, 5 / 7, 3 / 4, 4 / 5, 5 / 6, 6 / 7, 0.9999,
)

Trial = Callable[[np.ndarray], EvaluatedSolution]


class _RvndBudget(Exception):
    """Internal: rvnd's own call allowance ran out."""


def swap_search(
    current: EvaluatedSolution, try_eval: Trial, rng: np.random.Generator
) -> tuple[bool, EvaluatedSolution]:
    """Try exchanging key pairs (i, j), i < j, in random order."""
    d = current.keys.shape[0]
    for p in rng.permutation(d * (d - 1) // 2).tolist():
        i, j = _pair(p, d)
        if current.keys[i] == current.keys[j]:
            continue
        cand = current.keys.copy()
        cand[i], cand[j] = cand[j], cand[i]
        trial = try_eval(cand)
        if trial.cost < current.cost:
            return True, trial
    return False, current


def _pair(p: int, d: int) -> tuple[int, int]:
    """The p-th pair (i, j), i < j < d, in lexicographic order.

    Counted back from the last pair, row i = d - 2 - r holds the r + 1
    pairs numbered r(r+1)/2 to (r+1)(r+2)/2 - 1.
    """
    back = d * (d - 1) // 2 - 1 - p
    r = (math.isqrt(8 * back + 1) - 1) // 2
    return d - 2 - r, d - 1 - (back - r * (r + 1) // 2)


def mirror_search(
    current: EvaluatedSolution, try_eval: Trial, rng: np.random.Generator
) -> tuple[bool, EvaluatedSolution]:
    """Try replacing single keys with their mirror 1 - key."""
    d = current.keys.shape[0]
    for i in rng.permutation(d):
        value = min(max(1.0 - current.keys[i], 0.0), KEY_MAX)
        if value == current.keys[i]:
            continue
        cand = current.keys.copy()
        cand[i] = value
        trial = try_eval(cand)
        if trial.cost < current.cost:
            return True, trial
    return False, current


def farey_search(
    current: EvaluatedSolution, try_eval: Trial, rng: np.random.Generator
) -> tuple[bool, EvaluatedSolution]:
    """Try snapping single keys to Farey fractions of order 7."""
    d = current.keys.shape[0]
    for i in rng.permutation(d):
        for value in FAREY_VALUES:
            if value == current.keys[i]:
                continue
            cand = current.keys.copy()
            cand[i] = value
            trial = try_eval(cand)
            if trial.cost < current.cost:
                return True, trial
    return False, current


def nelder_mead_search(
    current: EvaluatedSolution, try_eval: Trial, rng: np.random.Generator
) -> tuple[bool, EvaluatedSolution]:
    """Downhill-simplex descent from the incumbent, clamped to the key box.

    The initial simplex is the incumbent plus, per coordinate, a copy
    shifted by +0.05 (or -0.05 where that would leave the box).
    Standard reflection/expansion/contraction/shrink steps with
    coefficients 1, 2, 0.5, 0.5.  Stops after 50 * dimension decoder
    calls or when no vertex lies farther than 1e-4 from the best vertex
    in any coordinate (max-norm); if the outer budget runs out
    mid-descent, the best vertex found so far is returned and the
    exhaustion is left for the caller's next call.
    """
    d = current.keys.shape[0]
    calls = 0
    limit = 50 * d

    def spend(keys: np.ndarray) -> EvaluatedSolution:
        nonlocal calls
        if calls >= limit:
            raise _NmDone
        calls += 1
        return try_eval(np.clip(keys, 0.0, KEY_MAX))

    # ``simplex[k]`` is vertex k; row k of ``points`` holds its keys.
    # Every reorder and replacement updates both.
    simplex = [current]
    points = np.empty((d + 1, d))
    points[0] = current.keys
    try:
        for i in range(d):
            vertex = current.keys.copy()
            step = 0.05 if vertex[i] + 0.05 <= KEY_MAX else -0.05
            vertex[i] += step
            simplex.append(spend(vertex))
            points[i + 1] = simplex[-1].keys
        while True:
            costs = [s.cost for s in simplex]
            order = sorted(range(d + 1), key=costs.__getitem__)
            simplex = [simplex[k] for k in order]
            points = points[order]
            if np.abs(points - points[0]).max() < 1e-4:
                break
            worst = simplex[-1]
            centroid = points[:-1].mean(axis=0)
            reflected = spend(centroid + (centroid - worst.keys))
            if reflected.cost < simplex[0].cost:
                expanded = spend(centroid + 2.0 * (centroid - worst.keys))
                simplex[-1] = expanded if expanded.cost < reflected.cost else reflected
            elif reflected.cost < simplex[-2].cost:
                simplex[-1] = reflected
            elif reflected.cost < worst.cost:
                contracted = spend(centroid + 0.5 * (reflected.keys - centroid))
                if contracted.cost <= reflected.cost:
                    simplex[-1] = contracted
                else:
                    _shrink(simplex, points, spend)
            else:
                contracted = spend(centroid - 0.5 * (centroid - worst.keys))
                if contracted.cost < worst.cost:
                    simplex[-1] = contracted
                else:
                    _shrink(simplex, points, spend)
            points[-1] = simplex[-1].keys
    except (_NmDone, _RvndBudget, BudgetExhausted):
        pass
    best = min(simplex, key=lambda s: s.cost)
    if best.cost < current.cost:
        return True, best
    return False, current


class _NmDone(Exception):
    """Internal: the Nelder-Mead call allowance ran out."""


def _shrink(simplex: list[EvaluatedSolution], points: np.ndarray, spend: Trial) -> None:
    """Pull every vertex but the best halfway towards it, in place."""
    shrunk = points[0] + 0.5 * (points[1:] - points[0])
    for k in range(1, len(simplex)):
        simplex[k] = spend(shrunk[k - 1])
        points[k] = simplex[k].keys


def rvnd(
    start: EvaluatedSolution,
    evaluate: Trial,
    rng: np.random.Generator,
    max_calls: Optional[int] = None,
) -> EvaluatedSolution:
    """Random variable neighbourhood descent over the four searches.

    Runs the searches in a freshly shuffled order, reshuffling and
    restarting the list after every improvement, until all four fail in
    a row.  ``max_calls`` caps the decoder calls issued by this descent
    (the run budget still applies underneath); on either budget running
    out the best solution found so far is returned.

    The returned cost is never above ``start.cost``.
    """
    remaining = float("inf") if max_calls is None else max_calls

    def try_eval(keys: np.ndarray) -> EvaluatedSolution:
        nonlocal remaining
        if remaining <= 0:
            raise _RvndBudget
        remaining -= 1
        return evaluate(keys)

    searches = (swap_search, mirror_search, farey_search, nelder_mead_search)
    current = start
    try:
        order = [searches[k] for k in rng.permutation(len(searches))]
        i = 0
        while i < len(order):
            improved, current = order[i](current, try_eval, rng)
            if improved:
                order = [searches[k] for k in rng.permutation(len(searches))]
                i = 0
            else:
                i += 1
    except (_RvndBudget, BudgetExhausted):
        pass
    return current
