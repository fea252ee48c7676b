"""Run budgets and decoder-call accounting.

Every decode in a run goes through one :class:`Evaluator`.  It counts
the decoder calls, holds the call limit and the deadline, and keeps the
best decode of the run.  The ensemble is its only caller: it charges
the initial fill and then what its driver decodes for the searchers,
which only ask for key vectors, one at a time or as a block of
independent rows.  Once the call limit or deadline is hit, or a decode
has reached the target, the evaluator refuses: it decodes nothing and
returns ``None``, or a block's list cut where the run ended, so no
decode is ever issued past the budget and the reported call count is
exact.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Protocol

import numpy as np

from .errors import DecoderError

__all__ = ["Decoder", "EvaluatedSolution", "RunBudget", "Evaluator"]


class EvaluatedSolution:
    """A key vector together with its decoded cost.

    ``decoded_at`` is the decoder-call ordinal at which the vector was
    evaluated, ``origin`` the searcher label that produced it.  The key
    array is marked read-only on construction, so the keys of a charged
    decode cannot change after it.  Solutions compare by identity, so
    two decodes of equal keys stay distinct objects.

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


class Decoder(Protocol):
    """What searchers need from a problem binding.

    ``dimension`` is the key-vector length; ``cost`` maps a key vector
    to a finite float (penalties included).  Implementations must be
    deterministic and must not mutate the key array.

    A decoder may also define ``cost_batch(block)``, which maps a
    ``(rows, dimension)`` block to the list of its rows' costs, each the
    float that ``cost`` returns on that row.  It is optional: the
    evaluator decodes a block through it in one call when only the call
    count can end the run, and row by row through ``cost`` otherwise.
    """

    @property
    def dimension(self) -> int: ...

    def cost(self, keys: np.ndarray) -> float: ...


@dataclass(frozen=True)
class RunBudget:
    """Stopping rule for one ensemble run.

    At least one of ``time_limit`` (wall seconds) and ``decoder_calls``
    must be set; whichever is hit first stops the run.
    """

    time_limit: Optional[float] = None
    decoder_calls: Optional[int] = None

    def __post_init__(self) -> None:
        if self.time_limit is None and self.decoder_calls is None:
            raise ValueError("budget needs a time limit or a decoder-call limit")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError(f"time_limit must be positive, got {self.time_limit}")
        if self.decoder_calls is not None and self.decoder_calls <= 0:
            raise ValueError(f"decoder_calls must be positive, got {self.decoder_calls}")


class Evaluator:
    """Charges the budget for each decode, stamps evaluated solutions
    and keeps the best decode.

    ``best`` is the first decode of the run with the lowest cost and
    ``time_to_best`` the :meth:`elapsed` time right after it.  A decode
    at or below ``target_cost`` ends the run: every later call is
    refused.  A key vector or block of the wrong shape raises
    :class:`DecoderError` before anything is charged.
    """

    def __init__(
        self, decoder: Decoder, budget: RunBudget, target_cost: Optional[float] = None
    ) -> None:
        self.decoder = decoder
        self.dimension = decoder.dimension
        self._shape = (self.dimension,)
        self.target_cost = target_cost
        self.calls = 0
        self.call_limit = budget.decoder_calls
        self._t0 = time.monotonic()
        self._deadline = (
            None if budget.time_limit is None else self._t0 + budget.time_limit
        )
        # A block is decoded in one call only when the call count alone
        # can end the run, so that it can be cut before it is decoded.
        self._cost_batch = (
            getattr(decoder, "cost_batch", None)
            if target_cost is None and self._deadline is None
            else None
        )
        self.reached_target = False
        self.best: Optional[EvaluatedSolution] = None
        self.time_to_best = 0.0

    def elapsed(self) -> float:
        """Time in the unit of the budget: decoder calls when it has no
        ``time_limit``, wall seconds otherwise.  A run under a call-only
        budget thus reports times that do not depend on machine speed."""
        if self._deadline is None:
            return float(self.calls)
        return time.monotonic() - self._t0

    def evaluate(self, keys: np.ndarray, origin: str = "") -> Optional[EvaluatedSolution]:
        """Decode ``keys`` and charge one call, or return ``None`` without
        decoding once the budget is spent or the target was reached."""
        if keys.shape != self._shape:
            raise DecoderError(f"expected {self.dimension} keys, got shape {keys.shape}")
        if (
            self.reached_target
            or (self.call_limit is not None and self.calls >= self.call_limit)
            or (self._deadline is not None and time.monotonic() >= self._deadline)
        ):
            return None
        try:
            cost = float(self.decoder.cost(keys))
        except Exception as exc:
            raise DecoderError(f"decoder failed on keys {keys!r}") from exc
        return self._charge(keys, cost, origin)

    def evaluate_block(self, block: np.ndarray, origin: str = "") -> list[EvaluatedSolution]:
        """Decode the rows of ``block`` in order and charge each as
        :meth:`evaluate` would, each solution over its own copy of its
        row.  The list is shorter than the block when the run ended
        within it; no row past that point is decoded.

        Under a call-only budget, with a decoder that has ``cost_batch``,
        the block is cut to the remaining calls and decoded in one call;
        otherwise its rows go through :meth:`evaluate` one by one.
        """
        if block.ndim != 2 or block.shape[1] != self.dimension:
            raise DecoderError(
                f"expected a block of {self.dimension}-key rows, got shape {block.shape}"
            )
        solutions = []
        if self._cost_batch is None:
            for row in block:
                solution = self.evaluate(row.copy(), origin)
                if solution is None:
                    break
                solutions.append(solution)
            return solutions
        block = block[: self.call_limit - self.calls]
        if not len(block):
            return solutions
        try:
            costs = self._cost_batch(block)
        except Exception as exc:
            raise DecoderError(f"decoder failed on block {block!r}") from exc
        if len(costs) != len(block):
            raise DecoderError(f"decoder returned {len(costs)} costs for {len(block)} rows")
        for row, cost in zip(block, costs):
            solutions.append(self._charge(row.copy(), float(cost), origin))
        return solutions

    def _charge(self, keys: np.ndarray, cost: float, origin: str) -> EvaluatedSolution:
        """Charge one decoded call, build its solution and compare it
        against the best."""
        self.calls += 1
        if not math.isfinite(cost):
            raise DecoderError(f"decoder returned non-finite cost {cost!r}")
        # Positional: keyword arguments add about 0.3 us to every decode.
        solution = EvaluatedSolution(keys, cost, self.calls, origin)
        if self.best is None or cost < self.best.cost:
            self.best = solution
            self.time_to_best = self.elapsed()
            self.reached_target = self.target_cost is not None and cost <= self.target_cost
        return solution
