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
