"""Bounded elite pool of distinct key vectors, ordered by cost.

No searcher and no part of a run uses it: the searchers keep their own
incumbents and the evaluator the best decode of a run.  The class stays
only because the benchmark's isolated ``pool.insert`` row times it.
"""

from __future__ import annotations

import bisect
import enum
from typing import Optional

import numpy as np

from .budget import EvaluatedSolution
from .keys import key_distance

__all__ = ["InsertOutcome", "ElitePool"]


class InsertOutcome(enum.Enum):
    ACCEPTED = "accepted"
    DUPLICATE = "rejected-duplicate"
    WORSE = "rejected-worse"


class ElitePool:
    """Fixed-capacity pool of elite solutions, deduplicated by exact keys.

    A candidate whose keys equal an entry's, element by element, is a
    duplicate; the check runs first.  Duplicates are found in a set of
    the entries' ``keys + 0.0`` bytes: the addition turns ``-0.0``
    into ``0.0``, so keys that differ only in the sign of a zero, which
    compare equal, also share their bytes.  Insertion below capacity
    always accepts a non-duplicate.  At capacity, the candidate must
    cost strictly less than at least one entry; the evicted entry is,
    among those costing strictly more than the candidate, the one
    closest to it in Euclidean key distance.  This keeps the pool
    diverse: the candidate displaces its most similar worse neighbour
    rather than the global worst.  The keys of an
    :class:`EvaluatedSolution` are read-only, so an entry's bytes
    cannot change while it is pooled.
    """

    def __init__(self, capacity: int = 20) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: list[EvaluatedSolution] = []
        self._fingerprints: set[bytes] = set()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> list[EvaluatedSolution]:
        """Snapshot of the pool ordered by ascending cost."""
        return list(self._entries)

    def best(self) -> Optional[EvaluatedSolution]:
        return self._entries[0] if self._entries else None

    def random_entry(self, rng: np.random.Generator) -> EvaluatedSolution:
        if not self._entries:
            raise LookupError("pool is empty")
        return self._entries[int(rng.integers(len(self._entries)))]

    def insert(self, solution: EvaluatedSolution) -> InsertOutcome:
        fingerprint = _fingerprint(solution.keys)
        if fingerprint in self._fingerprints:
            return InsertOutcome.DUPLICATE
        entries = self._entries
        if len(entries) >= self.capacity:
            # The entries are sorted by cost: nothing costs more than the last.
            if not solution.cost < entries[-1].cost:
                return InsertOutcome.WORSE
            worse = [e for e in entries if e.cost > solution.cost]
            victim = min(worse, key=lambda e: key_distance(e.keys, solution.keys))
            entries.remove(victim)
            self._fingerprints.remove(_fingerprint(victim.keys))
        bisect.insort(entries, solution, key=lambda e: e.cost)
        self._fingerprints.add(fingerprint)
        return InsertOutcome.ACCEPTED


def _fingerprint(keys: np.ndarray) -> bytes:
    return (keys + 0.0).tobytes()
