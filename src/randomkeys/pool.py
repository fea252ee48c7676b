"""Bounded elite pool shared by all searchers in a run.

The pool keeps the best distinct key vectors that the searchers offer
it, ordered by cost.  The searchers share it to exchange solutions; the
best decode of a run is kept by the evaluator, not here, because a
searcher offers only some of what it decodes.
"""

from __future__ import annotations

import bisect
import enum
from typing import Optional

import numpy as np

from .keys import key_distance

__all__ = ["EvaluatedSolution", "InsertOutcome", "ElitePool"]


class EvaluatedSolution:
    """A key vector together with its decoded cost.

    ``decoded_at`` is the decoder-call ordinal at which the vector was
    evaluated, ``origin`` the searcher label that produced it.  The key
    array is marked read-only on construction, so the key bytes on which
    :class:`ElitePool` finds duplicates (with ``-0.0`` read as ``0.0``)
    cannot change while the solution is pooled.  Solutions compare by
    identity, so two decodes of equal keys stay distinct objects and
    ``list.remove`` removes exactly the one it is given.

    The evaluator builds one of these for every decode, so it is a
    plain ``__slots__`` class: a frozen dataclass costs about twice as
    much to construct.  Treat its fields as read-only.
    """

    __slots__ = ("keys", "cost", "decoded_at", "origin")

    def __init__(
        self, keys: np.ndarray, cost: float, decoded_at: int = 0, origin: str = ""
    ) -> None:
        keys.setflags(write=False)
        self.keys = keys
        self.cost = cost
        self.decoded_at = decoded_at
        self.origin = origin

    def __repr__(self) -> str:
        return (
            f"EvaluatedSolution(keys={self.keys!r}, cost={self.cost!r}, "
            f"decoded_at={self.decoded_at!r}, origin={self.origin!r})"
        )


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
    rather than the global worst.
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
