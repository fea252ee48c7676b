"""Local searches over key vectors and the RVND descent that cycles them.

Each search is an ask/tell generator: ``solution = yield keys`` asks
for one decode and receives the evaluated solution, and the return
value is the result.  The four neighbourhoods are first-improvement:
each returns the first neighbour that costs strictly less than the
incumbent, or the incumbent.  :func:`rvnd` can cap its own decodes.
"""

from __future__ import annotations

import math
from typing import Generator, Optional

import numpy as np

from .budget import EvaluatedSolution
from .keys import KEY_MAX

__all__ = [
    "FAREY_VALUES",
    "swap_moves",
    "mirror_moves",
    "farey_moves",
    "nelder_mead_moves",
    "rvnd",
]

# Farey sequence of order 7, with the right endpoint pulled just below
# one so it stays a representable key.
FAREY_VALUES = (
    0.0, 1 / 7, 1 / 6, 1 / 5, 1 / 4, 2 / 7, 1 / 3, 2 / 5, 3 / 7, 1 / 2,
    4 / 7, 3 / 5, 2 / 3, 5 / 7, 3 / 4, 4 / 5, 5 / 6, 6 / 7, 0.9999,
)

# Asks for key vectors, is told their evaluated solutions, returns the
# solution it ends on.
Moves = Generator[np.ndarray, EvaluatedSolution, EvaluatedSolution]


def swap_moves(current: EvaluatedSolution, rng: np.random.Generator) -> Moves:
    """Try exchanging key pairs (i, j), i < j, in random order."""
    d = current.keys.shape[0]
    for p in rng.permutation(d * (d - 1) // 2).tolist():
        i, j = _pair(p, d)
        if current.keys[i] == current.keys[j]:
            continue
        cand = current.keys.copy()
        cand[i], cand[j] = cand[j], cand[i]
        trial = yield cand
        if trial.cost < current.cost:
            return trial
    return current


def _pair(p: int, d: int) -> tuple[int, int]:
    """The p-th pair (i, j), i < j < d, in lexicographic order.

    Counted back from the last pair, row i = d - 2 - r holds the r + 1
    pairs numbered r(r+1)/2 to (r+1)(r+2)/2 - 1.
    """
    back = d * (d - 1) // 2 - 1 - p
    r = (math.isqrt(8 * back + 1) - 1) // 2
    return d - 2 - r, d - 1 - (back - r * (r + 1) // 2)


def mirror_moves(current: EvaluatedSolution, rng: np.random.Generator) -> Moves:
    """Try replacing single keys with their mirror 1 - key."""
    d = current.keys.shape[0]
    for i in rng.permutation(d):
        value = min(max(1.0 - current.keys[i], 0.0), KEY_MAX)
        if value == current.keys[i]:
            continue
        cand = current.keys.copy()
        cand[i] = value
        trial = yield cand
        if trial.cost < current.cost:
            return trial
    return current


def farey_moves(current: EvaluatedSolution, rng: np.random.Generator) -> Moves:
    """Try snapping single keys to Farey fractions of order 7."""
    d = current.keys.shape[0]
    for i in rng.permutation(d):
        for value in FAREY_VALUES:
            if value == current.keys[i]:
                continue
            cand = current.keys.copy()
            cand[i] = value
            trial = yield cand
            if trial.cost < current.cost:
                return trial
    return current


def nelder_mead_moves(
    current: EvaluatedSolution, rng: np.random.Generator, max_calls: float = math.inf
) -> Moves:
    """Downhill-simplex descent from the incumbent, clamped to the key box.

    The initial simplex is the incumbent plus, per coordinate, a copy
    shifted by +0.05 (or -0.05 where that would leave the box).
    Standard reflection/expansion/contraction/shrink steps with
    coefficients 1, 2, 0.5, 0.5.  Stops after ``50 * dimension``
    decodes (fewer when ``max_calls`` is smaller) or when no vertex lies
    farther than 1e-4 from the best vertex in any coordinate (max-norm),
    and returns the best vertex when it beats the incumbent.  ``rng`` is
    unused.
    """
    d = current.keys.shape[0]
    # ``simplex[k]`` is vertex k; row k of ``points`` holds its keys.
    # The steps update both in place, so a cut descent leaves them here.
    simplex = [current]
    points = np.empty((d + 1, d))
    points[0] = current.keys
    yield from _capped(_simplex_steps(simplex, points), min(50 * d, max_calls))
    best = min(simplex, key=lambda s: s.cost)
    return best if best.cost < current.cost else current


def _in_box(keys: np.ndarray) -> np.ndarray:
    return keys.clip(0.0, KEY_MAX)


def _simplex_steps(simplex: list[EvaluatedSolution], points: np.ndarray) -> Generator:
    """Grow ``[incumbent]`` into the initial simplex, then step until it
    has converged, asking for every new vertex."""
    current = simplex[0]
    d = points.shape[1]
    for i in range(d):
        vertex = current.keys.copy()
        step = 0.05 if vertex[i] + 0.05 <= KEY_MAX else -0.05
        vertex[i] += step
        simplex.append((yield _in_box(vertex)))
        points[i + 1] = simplex[-1].keys
    while True:
        costs = [s.cost for s in simplex]
        order = sorted(range(d + 1), key=costs.__getitem__)
        simplex[:] = [simplex[k] for k in order]
        points[:] = points[order]
        if np.abs(points - points[0]).max() < 1e-4:
            return
        worst = simplex[-1]
        centroid = points[:-1].mean(axis=0)
        reflected = yield _in_box(centroid + (centroid - worst.keys))
        if reflected.cost < simplex[0].cost:
            expanded = yield _in_box(centroid + 2.0 * (centroid - worst.keys))
            simplex[-1] = expanded if expanded.cost < reflected.cost else reflected
        elif reflected.cost < simplex[-2].cost:
            simplex[-1] = reflected
        elif reflected.cost < worst.cost:
            contracted = yield _in_box(centroid + 0.5 * (reflected.keys - centroid))
            if contracted.cost <= reflected.cost:
                simplex[-1] = contracted
            else:
                yield from _shrink(simplex, points)
        else:
            contracted = yield _in_box(centroid - 0.5 * (centroid - worst.keys))
            if contracted.cost < worst.cost:
                simplex[-1] = contracted
            else:
                yield from _shrink(simplex, points)
        points[-1] = simplex[-1].keys


def _shrink(simplex: list[EvaluatedSolution], points: np.ndarray) -> Generator:
    """Pull every vertex but the best halfway towards it, in place."""
    shrunk = points[0] + 0.5 * (points[1:] - points[0])
    for k in range(1, len(simplex)):
        simplex[k] = yield _in_box(shrunk[k - 1])
        points[k] = simplex[k].keys


def _capped(moves: Generator, limit: float) -> Generator:
    """Pass on the asks of ``moves`` until it returns or asks again
    after ``limit`` answers.  Returns the number of answers and the
    result of ``moves``, ``None`` when it was cut off (and closed)."""
    calls = 0
    try:
        keys = next(moves)
        while calls < limit:
            calls += 1
            keys = moves.send((yield keys))
    except StopIteration as stop:
        return calls, stop.value
    moves.close()
    return calls, None


def rvnd(
    start: EvaluatedSolution,
    rng: np.random.Generator,
    max_calls: Optional[int] = None,
) -> Moves:
    """Random variable neighbourhood descent over the four neighbourhoods.

    Runs them in a freshly shuffled order, reshuffling and restarting
    the list after every improvement, until all four fail in a row.
    ``max_calls`` caps the decodes this descent asks for.  When the cap
    is spent, Nelder-Mead stops and keeps its best vertex, and any other
    neighbourhood that asks again ends the descent.

    The returned cost is never above ``start.cost``.
    """
    remaining = math.inf if max_calls is None else max_calls
    searches = (swap_moves, mirror_moves, farey_moves, nelder_mead_moves)
    current = start
    order = [searches[k] for k in rng.permutation(len(searches))]
    i = 0
    while i < len(order):
        if order[i] is nelder_mead_moves:
            moves = nelder_mead_moves(current, rng, remaining)
        else:
            moves = order[i](current, rng)
        calls, found = yield from _capped(moves, remaining)
        remaining -= calls
        if found is None:
            return current
        if found.cost < current.cost:
            current = found
            order = [searches[k] for k in rng.permutation(len(searches))]
            i = 0
        else:
            i += 1
    return current
