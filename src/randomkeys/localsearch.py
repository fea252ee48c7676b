"""Local searches over key vectors and the RVND descent that cycles them.

Each search is an ask/tell generator that starts from an incumbent
given as ``(keys, cost, rng)``: ``cost = yield keys`` asks for one
decode and receives its cost as a float, and the return value is the
result, a ``(keys, cost)`` pair.  Nelder-Mead also asks for its initial
simplex and for each shrink as one ``(d, d)`` block of independent
vectors, ``costs = yield block``, and receives their costs as a list in
row order.  The four neighbourhoods are first-improvement: each
returns the first neighbour that costs strictly less than the
incumbent, or the incumbent.  :func:`rvnd` runs each of them with
``yield from``, so an ask passes straight through it.  Nelder-Mead is
one generator that counts its own decodes in an ``int``, a block's
rows included, to stop at ``50 * dimension``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Generator, Union

import numpy as np

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

# Asks for key vectors or blocks of them, is told their costs, one float
# or a list, and returns the (keys, cost) pair it ends on.
Moves = Generator[np.ndarray, Union[float, list[float]], tuple[np.ndarray, float]]


def swap_moves(keys: np.ndarray, cost: float, rng: np.random.Generator) -> Moves:
    """Try exchanging key pairs (i, j), i < j, in random order."""
    d = keys.shape[0]
    for p in rng.permutation(d * (d - 1) // 2).tolist():
        i, j = _pair(p, d)
        if keys[i] == keys[j]:
            continue
        cand = keys.copy()
        cand[i], cand[j] = cand[j], cand[i]
        trial = yield cand
        if trial < cost:
            return cand, trial
    return keys, cost


def _pair(p: int, d: int) -> tuple[int, int]:
    """The p-th pair (i, j), i < j < d, in lexicographic order.

    Counted back from the last pair, row i = d - 2 - r holds the r + 1
    pairs numbered r(r+1)/2 to (r+1)(r+2)/2 - 1.
    """
    back = d * (d - 1) // 2 - 1 - p
    r = (math.isqrt(8 * back + 1) - 1) // 2
    return d - 2 - r, d - 1 - (back - r * (r + 1) // 2)


def mirror_moves(keys: np.ndarray, cost: float, rng: np.random.Generator) -> Moves:
    """Try replacing single keys with their mirror 1 - key."""
    d = keys.shape[0]
    for i in rng.permutation(d):
        value = min(max(1.0 - keys[i], 0.0), KEY_MAX)
        if value == keys[i]:
            continue
        cand = keys.copy()
        cand[i] = value
        trial = yield cand
        if trial < cost:
            return cand, trial
    return keys, cost


def farey_moves(keys: np.ndarray, cost: float, rng: np.random.Generator) -> Moves:
    """Try snapping single keys to Farey fractions of order 7."""
    d = keys.shape[0]
    for i in rng.permutation(d):
        for value in FAREY_VALUES:
            if value == keys[i]:
                continue
            cand = keys.copy()
            cand[i] = value
            trial = yield cand
            if trial < cost:
                return cand, trial
    return keys, cost


def nelder_mead_moves(keys: np.ndarray, cost: float, rng: np.random.Generator) -> Moves:
    """Downhill-simplex descent from the incumbent, clamped to the key box.

    The initial simplex is the incumbent plus, per coordinate, a copy
    shifted by +0.05 (or -0.05 where that would leave the box); those d
    vertices are asked for as one ``(d, d)`` block.  Standard
    reflection/expansion/contraction/shrink steps with coefficients 1,
    2, 0.5, 0.5; a shrink asks for its d pulled vertices as one block,
    the other steps for one vector each.  Stops after ``50 * dimension``
    decodes or when no vertex lies 1e-4 or farther from the best vertex
    in any coordinate (max-norm), and returns the best vertex when it
    beats the incumbent.  ``rng`` is unused.
    """
    return _nelder_mead(keys, cost, 50 * keys.shape[0])


def _nelder_mead(keys: np.ndarray, cost: float, limit: int) -> Moves:
    """The descent of :func:`nelder_mead_moves`, stopped after ``limit``
    decodes.

    ``used`` counts the decodes, a block's rows included.  No vector is
    asked for once ``used`` reaches ``limit``, and a block ask is cut to
    the ``limit - used`` rows left; a cut block replaces only the
    vertices of its rows, as asking row by row would, and ends the
    descent.  An answer to the ``limit``-th decode is kept when it
    completes a step and dropped when the step needs one more ask.

    Row k of ``points`` is vertex k and ``costs[k]`` its cost.  The
    vertices stay in the order of a stable sort by cost: sorted in full
    after each block, while a reflection, expansion or contraction
    replaces only the worst vertex and inserts the new one after every
    vertex that costs no more.  The result is the first vertex of
    lowest cost, returned as a copy of its row.

    The simplex has converged when every row lies less than 1e-4 from
    row 0 in max-norm.  A full test that fails keeps a witness, the
    best-ranked row 1e-4 or more from row 0.  A step that inserts behind
    row 0 and drops a vertex other than the witness leaves both rows as
    they were, so the test cannot pass and is skipped; it stops each
    descent exactly where testing after every step would.  The centroid
    is ``np.add.reduce`` over the rows divided by ``d``, the reduction
    ``ndarray.sum`` runs.
    """
    d = keys.shape[0]
    points = np.empty((d + 1, d))
    points[0] = keys
    costs = [cost]
    used = 0
    # Row i is the incumbent with key i moved 0.05 up, or down where up
    # would leave the box.
    block = np.tile(keys, (d, 1))
    np.fill_diagonal(block, keys + np.where(keys + 0.05 <= KEY_MAX, 0.05, -0.05))
    while True:
        if block is not None:
            # The initial simplex or a shrink: vertices 1 to d at once.
            if used == limit:
                break
            block = _in_box(block[: limit - used])
            rows = len(block)
            costs[1:1 + rows] = yield block
            points[1:1 + rows] = block
            used += rows
            if rows < d:
                break
            costs = _sort(costs, points)
            block = None
            # The best-ranked row that the last full test found 1e-4 or
            # more from row 0.  Row 0 is never one, so 0 means "test in
            # full".
            witness = 0
        if witness == 0:
            spread = np.abs(points - points[0]).max(axis=1)
            if spread.max() < 1e-4:
                break
            # 0 again when only NaN spreads failed the test.
            witness = int(np.argmax(spread >= 1e-4))
        if used == limit:
            break
        worst = points[-1]
        centroid = np.add.reduce(points[:-1], axis=0) / d
        # The reflection is the new vertex unless a later ask replaces it.
        new = reflected = _in_box(centroid + (centroid - worst))
        new_cost = reflected_cost = yield reflected
        used += 1
        if reflected_cost < costs[0]:
            if used == limit:
                break
            expanded = _in_box(centroid + 2.0 * (centroid - worst))
            expanded_cost = yield expanded
            used += 1
            if expanded_cost < reflected_cost:
                new, new_cost = expanded, expanded_cost
        elif reflected_cost >= costs[-2]:
            if used == limit:
                break
            if reflected_cost < costs[-1]:
                new = _in_box(centroid + 0.5 * (reflected - centroid))
                new_cost = yield new
                shrink = new_cost > reflected_cost
            else:
                new = _in_box(centroid - 0.5 * (centroid - worst))
                new_cost = yield new
                shrink = new_cost >= costs[-1]
            used += 1
            if shrink:
                # Shrink: pull every vertex but the best halfway towards it.
                block = points[0] + 0.5 * (points[1:] - points[0])
                continue
        del costs[-1]
        k = bisect_right(costs, new_cost)
        costs.insert(k, new_cost)
        points[k + 1:] = points[k:-1]
        points[k] = new
        # Rows 0 to k - 1 stay and the rest move down one, the worst
        # dropped: the witness still lies as far from an unchanged row 0
        # unless it was dropped or row 0 is new.
        if k == 0 or witness == d:
            witness = 0
        elif witness >= k:
            witness += 1
    k = costs.index(min(costs))
    return (points[k].copy(), costs[k]) if costs[k] < cost else (keys, cost)


def _in_box(keys: np.ndarray) -> np.ndarray:
    return keys.clip(0.0, KEY_MAX)


def _sort(costs: list[float], points: np.ndarray) -> list[float]:
    """Stable-sort the rows of ``points`` by ``costs``; return them sorted."""
    order = sorted(range(len(costs)), key=costs.__getitem__)
    points[:] = points[order]
    return [costs[k] for k in order]


def rvnd(keys: np.ndarray, cost: float, rng: np.random.Generator) -> Moves:
    """Random variable neighbourhood descent over the four neighbourhoods.

    Runs them in a freshly shuffled order, reshuffling and restarting
    the list after every improvement, until all four fail in a row.
    The returned cost is never above ``cost``.
    """
    searches = (swap_moves, mirror_moves, farey_moves, nelder_mead_moves)
    order = [searches[k] for k in rng.permutation(len(searches))]
    i = 0
    while i < len(order):
        found, found_cost = yield from order[i](keys, cost, rng)
        if found_cost < cost:
            keys, cost = found, found_cost
            order = [searches[k] for k in rng.permutation(len(searches))]
            i = 0
        else:
            i += 1
    return keys, cost
