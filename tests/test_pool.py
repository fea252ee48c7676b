import bisect
from collections import Counter

import numpy as np
import pytest

from randomkeys import ElitePool, EvaluatedSolution, InsertOutcome


def entry(cost, *keys):
    return EvaluatedSolution(keys=np.array(keys, dtype=float), cost=cost)


def test_insert_orders_by_cost():
    pool = ElitePool(capacity=5)
    for cost in (3.0, 1.0, 2.0):
        assert pool.insert(entry(cost, cost / 10)) is InsertOutcome.ACCEPTED
    costs = [e.cost for e in pool.entries]
    assert costs == [1.0, 2.0, 3.0]
    assert pool.best().cost == 1.0


def test_duplicate_keys_rejected():
    pool = ElitePool(capacity=5)
    pool.insert(entry(1.0, 0.5, 0.5))
    outcome = pool.insert(entry(0.5, 0.5, 0.5))
    assert outcome is InsertOutcome.DUPLICATE
    assert len(pool.entries) == 1
    assert pool.best().cost == 1.0


def test_worse_than_worst_rejected_at_capacity():
    pool = ElitePool(capacity=2)
    pool.insert(entry(1.0, 0.1))
    pool.insert(entry(2.0, 0.2))
    assert pool.insert(entry(9.0, 0.9)) is InsertOutcome.WORSE
    assert [e.cost for e in pool.entries] == [1.0, 2.0]


def test_eviction_prefers_nearest_worse_entry():
    pool = ElitePool(capacity=3)
    pool.insert(entry(1.0, 0.0))
    pool.insert(entry(5.0, 0.6))
    pool.insert(entry(6.0, 0.9))
    # new cost-2 entry: worse entries are at 0.6 and 0.9, the nearer
    # one (0.6 to 0.55) leaves
    assert pool.insert(entry(2.0, 0.55)) is InsertOutcome.ACCEPTED
    keys = sorted(float(e.keys[0]) for e in pool.entries)
    assert keys == [0.0, 0.55, 0.9]


def test_best_never_worsens_under_random_inserts():
    rng = np.random.default_rng(21)
    pool = ElitePool(capacity=4)
    best = np.inf
    for _ in range(2000):
        cost = float(rng.random())
        pool.insert(EvaluatedSolution(keys=rng.random(3), cost=cost))
        best = min(best, cost)
        assert pool.best().cost == best
        assert len(pool.entries) <= 4


def test_random_entry_uses_rng():
    pool = ElitePool(capacity=4)
    for cost in (1.0, 2.0, 3.0):
        pool.insert(entry(cost, cost))
    picks = {pool.random_entry(np.random.default_rng(s)).cost for s in range(20)}
    assert picks == {1.0, 2.0, 3.0}


def test_empty_pool_behaviour():
    pool = ElitePool(capacity=2)
    assert pool.best() is None
    with pytest.raises(LookupError):
        pool.random_entry(np.random.default_rng(0))


def test_entries_snapshot_is_detached():
    pool = ElitePool(capacity=2)
    pool.insert(entry(1.0, 0.1))
    snapshot = pool.entries
    pool.insert(entry(0.5, 0.2))
    assert len(snapshot) == 1


def test_solution_keys_are_frozen():
    sol = entry(1.0, 0.1, 0.2)
    with pytest.raises(ValueError):
        sol.keys[0] = 0.9


def test_solution_constructor_forms_and_defaults():
    keys = np.array([0.1, 0.2])
    positional = EvaluatedSolution(keys, 1.5)
    assert positional.keys is keys and positional.cost == 1.5
    assert positional.decoded_at == 0 and positional.origin == ""
    named = EvaluatedSolution(keys=np.array([0.3]), cost=2.0, decoded_at=7, origin="sa")
    assert (named.cost, named.decoded_at, named.origin) == (2.0, 7, "sa")
    assert EvaluatedSolution(np.array([0.3]), 2.0, 7, "sa").origin == "sa"


def test_solution_keys_frozen_also_for_a_row_view():
    block = np.random.default_rng(3).random((4, 3))
    sol = EvaluatedSolution(block[2], 1.0)
    with pytest.raises(ValueError):
        sol.keys[0] = 0.9
    assert np.array_equal(sol.keys, block[2])


def test_solutions_compare_by_identity():
    a = entry(1.0, 0.1, 0.2)
    b = entry(1.0, 0.1, 0.2)
    assert a != b and a == a
    listed = [a, b]
    listed.remove(b)
    assert len(listed) == 1 and listed[0] is a


def reference_insert(entries, capacity, solution):
    """The insert of an earlier version, which scanned every entry with
    ``np.array_equal``, only then looked at the capacity, and measured
    distances with ``np.linalg.norm``."""
    for e in entries:
        if np.array_equal(e.keys, solution.keys):
            return InsertOutcome.DUPLICATE
    if len(entries) >= capacity:
        worse = [e for e in entries if e.cost > solution.cost]
        if not worse:
            return InsertOutcome.WORSE
        victim = min(worse, key=lambda e: float(np.linalg.norm(e.keys - solution.keys)))
        entries.remove(victim)
    bisect.insort(entries, solution, key=lambda e: e.cost)
    return InsertOutcome.ACCEPTED


def draw_keys(rng, offered, entries, d=3):
    """Fresh keys, some of them zero, or an exact copy or a sign-of-zero
    twin of an earlier offer (evicted ones too) or of a pool entry."""
    kind = rng.integers(6)
    if kind == 0 or not entries:
        return rng.random(d) * (rng.random(d) < 0.7)
    if kind == 1:
        return rng.choice([0.0, -0.0, 0.5], size=d)
    source = offered if kind < 4 else [e.keys for e in entries]
    keys = source[rng.integers(len(source))].copy()
    if kind % 2:
        zero = keys == 0.0
        keys[zero] = -keys[zero]
    return keys


@pytest.mark.parametrize("capacity", [1, 3, 20])
def test_insert_matches_array_equal_scan(capacity):
    rng = np.random.default_rng(capacity)
    pool, reference, offered = ElitePool(capacity), [], []
    seen = Counter()
    for _ in range(3000):
        keys = draw_keys(rng, offered, reference)
        offered.append(keys)
        solution = EvaluatedSolution(keys.copy(), float(rng.integers(12)))
        at_capacity = len(reference) >= capacity
        tie = at_capacity and solution.cost == reference[-1].cost
        twin = any(
            np.array_equal(e.keys, keys) and e.keys.tobytes() != keys.tobytes()
            for e in reference
        )
        expected = reference_insert(reference, capacity, solution)
        assert pool.insert(solution) is expected
        assert len(pool.entries) == len(reference)
        assert all(a is b for a, b in zip(pool.entries, reference))
        seen[expected, tie, twin] += 1
    assert {outcome for outcome, _, _ in seen} == set(InsertOutcome)
    assert seen[InsertOutcome.WORSE, True, False] > 0
    assert seen[InsertOutcome.DUPLICATE, False, True] + seen[InsertOutcome.DUPLICATE, True, True] > 0

    # Near ties: the midpoint of two entries lies at the same distance
    # from both in exact arithmetic, and within a few ulps in floating
    # point, so the victim hangs on how each distance is rounded.
    if capacity == 1:
        return
    near_ties = 0
    for _ in range(1000):
        i, j = rng.choice(len(reference), size=2, replace=False)
        first, second = reference[i], reference[j]
        keys = (first.keys + second.keys) / 2
        solution = EvaluatedSolution(keys, min(first.cost, second.cost) - 1.0)
        distances = sorted(
            np.linalg.norm(e.keys - keys) for e in reference if e.cost > solution.cost
        )
        near_ties += distances[1] - distances[0] <= 4 * np.spacing(distances[0])
        expected = reference_insert(reference, capacity, solution)
        assert pool.insert(solution) is expected
        assert all(a is b for a, b in zip(pool.entries, reference))
    assert near_ties > 0
