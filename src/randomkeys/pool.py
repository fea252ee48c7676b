"""Bounded elite pool shared by all searchers in a run.

The pool keeps the best distinct key vectors that the searchers offer
it, ordered by cost.  The searchers share it to exchange solutions; the
best decode of a run is kept by the evaluator, not here, because a
searcher offers only some of what it decodes.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .keys import key_distance

__all__ = ["EvaluatedSolution", "InsertOutcome", "ElitePool"]


@dataclass(frozen=True, eq=False)
class EvaluatedSolution:
    """A key vector together with its decoded cost.

    ``decoded_at`` is the decoder-call ordinal at which the vector was
    evaluated, ``origin`` the searcher label that produced it.  The key
    array is marked read-only on construction.
    """

    keys: np.ndarray
    cost: float
    decoded_at: int = 0
    origin: str = ""

    def __post_init__(self) -> None:
        self.keys.setflags(write=False)


class InsertOutcome(enum.Enum):
    ACCEPTED = "accepted"
    DUPLICATE = "rejected-duplicate"
    WORSE = "rejected-worse"


class ElitePool:
    """Fixed-capacity pool of elite solutions, deduplicated by exact keys.

    Insertion below capacity always accepts a non-duplicate.  At
    capacity, the candidate must cost strictly less than at least one
    entry; the evicted entry is, among those costing strictly more than
    the candidate, the one closest to it in Euclidean key distance.
    This keeps the pool diverse: the candidate displaces its most
    similar worse neighbour rather than the global worst.
    """

    def __init__(self, capacity: int = 20) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: list[EvaluatedSolution] = []

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
        for entry in self._entries:
            if np.array_equal(entry.keys, solution.keys):
                return InsertOutcome.DUPLICATE
        if len(self._entries) >= self.capacity:
            worse = [e for e in self._entries if e.cost > solution.cost]
            if not worse:
                return InsertOutcome.WORSE
            victim = min(worse, key=lambda e: key_distance(e.keys, solution.keys))
            self._entries.remove(victim)
        bisect.insort(self._entries, solution, key=lambda e: e.cost)
        return InsertOutcome.ACCEPTED
