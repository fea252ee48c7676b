"""Run budgets and decoder-call accounting.

Every decode in a run goes through one :class:`Evaluator`.  It counts
the decoder calls, holds the call limit and the deadline, and keeps the
best decode of the run.  The ensemble is its only caller: it charges
the initial fill and then what its driver decodes for the searchers,
which only ask for key vectors, one at a time or as a block of
independent rows, and are told their costs.  A vector is one
``Decoder.cost`` call, charged by :meth:`Evaluator.charge`.  A block is
one ``Decoder.cost_rows`` call, cut to the calls left and charged at
once, when the decoder has that method and the run has no deadline,
with or without a target: the decoder stops at the first row at or
below the target, so no row after it is decoded.  The TD-TSP and
portfolio decoders have the method.  Under a deadline, or without the
method, as on the MIP decoder, the rows are charged one by one, so
that a run which reaches its deadline within a block decodes no row
after it.
Only a decode that beats the run's best becomes an
:class:`EvaluatedSolution`.  Once the call limit or deadline is hit, or
a decode has reached the target, the evaluator refuses: it decodes
nothing and returns ``None``, or a block's list of costs cut where the
run ended, so no decode is ever issued past the budget and the reported
call count is exact.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Protocol

import numpy as np

from .errors import DecoderError

__all__ = ["Decoder", "EvaluatedSolution", "RunBudget", "Evaluator"]


@dataclass(frozen=True, eq=False)
class EvaluatedSolution:
    """A key vector together with its decoded cost.

    ``decoded_at`` is the decoder-call ordinal at which the vector was
    evaluated, ``origin`` the searcher label that produced it.  The key
    array is marked read-only on construction, so the keys of a charged
    decode cannot change after it.  Solutions compare by identity, so
    two decodes of equal keys stay distinct objects.  The evaluator
    builds one for each new best of a run, over its own copy of the keys.
    """

    keys: np.ndarray
    cost: float
    decoded_at: int = 0
    origin: str = ""

    def __post_init__(self) -> None:
        self.keys.setflags(write=False)


class Decoder(Protocol):
    """What searchers need from a problem binding.

    ``dimension`` is the key-vector length; ``cost`` maps a key vector
    to a finite float (penalties included).  Implementations must be
    deterministic and must not mutate the key array.  A decoder may also
    have ``cost_rows(block, stop) -> list[float]``, the floats ``cost``
    gives a 2-D block's rows, bit for bit, up to and including the first
    row that costs less than ``stop``, as the TD-TSP and portfolio
    decoders do; the evaluator calls it as the module says.
    """

    @property
    def dimension(self) -> int: ...

    def cost(self, keys: np.ndarray) -> float: ...


def is_count(value: object) -> bool:
    """Whether ``value`` is a positive ``int`` or numpy integer; a bool
    is not, nor is a float, however whole."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value > 0


@dataclass(frozen=True)
class RunBudget:
    """Stopping rule for one ensemble run.

    At least one of ``time_limit`` (wall seconds) and ``decoder_calls``
    must be set; whichever is hit first stops the run.  A time limit
    must be finite and positive, so that it ends the run, and a call
    limit a positive integer (not a bool), so that it charges exactly
    the calls it names.
    """

    time_limit: Optional[float] = None
    decoder_calls: Optional[int] = None

    def __post_init__(self) -> None:
        limit, calls = self.time_limit, self.decoder_calls
        if limit is None and calls is None:
            raise ValueError("budget needs a time limit or a decoder-call limit")
        # Written so that NaN fails it too.
        if limit is not None and not (0 < limit < math.inf):
            raise ValueError(f"time_limit must be positive and finite, got {limit!r}")
        if calls is not None and not is_count(calls):
            raise ValueError(f"decoder_calls must be a positive integer, got {calls!r}")


class Evaluator:
    """Charges the budget for each decode and keeps the best decode.

    ``best`` is the first decode of the run with the lowest cost and
    ``time_to_best`` the :meth:`elapsed` time right after it.  A decode
    at or below ``target_cost`` ends the run: every later call is
    refused.  A key vector or block of the wrong shape raises
    :class:`DecoderError` before anything is charged.  So does a decode
    that fails or costs a non-finite amount: it is never charged, and
    a block decoded row by row keeps only the rows before it.
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
        self.reached_target = False
        self.best: Optional[EvaluatedSolution] = None
        self.time_to_best = 0.0
        # A block row costing less than this is at or below the target.
        self._stop = -math.inf if target_cost is None else math.nextafter(target_cost, math.inf)
        self._cost_rows = getattr(decoder, "cost_rows", None) if self._deadline is None else None

    def elapsed(self) -> float:
        """Time in the unit of the budget: decoder calls when it has no
        ``time_limit``, wall seconds otherwise.  A run under a call-only
        budget thus reports times that do not depend on machine speed."""
        if self._deadline is None:
            return float(self.calls)
        return time.monotonic() - self._t0

    def charge(self, keys: np.ndarray, origin: str = "") -> Optional[float]:
        """Decode ``keys``, charge one call and return its cost, or
        return ``None`` without decoding once the budget is spent or the
        target was reached.  A cost strictly below the best so far makes
        a new best over a copy of ``keys``."""
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
        if not math.isfinite(cost):
            raise DecoderError(f"decoder returned non-finite cost {cost!r}")
        self.calls += 1
        if self.best is None or cost < self.best.cost:
            self._improve(keys, cost, self.calls, origin)
        return cost

    def _improve(self, keys: np.ndarray, cost: float, decoded_at: int, origin: str) -> None:
        """Make decode ``decoded_at`` the best, over a copy of ``keys``."""
        self.best = EvaluatedSolution(keys.copy(), cost, decoded_at, origin)
        self.time_to_best = float(decoded_at) if self._deadline is None else self.elapsed()
        self.reached_target = self.target_cost is not None and cost <= self.target_cost

    def charge_block(self, block: np.ndarray, origin: str = "") -> list[float]:
        """Charge the rows of ``block`` in order and return their costs.
        The list is shorter than the block when the run ended within it;
        no row past that point is decoded.  A block decodes exactly as its
        rows asked for one at a time would, and saves the driver a round
        trip per row.  A failed ``cost_rows`` call charges no row, and so
        does one whose list is empty, longer than the block, or shorter
        without ending at or below the target.
        """
        if block.ndim != 2 or block.shape[1] != self.dimension:
            raise DecoderError(
                f"expected a block of {self.dimension}-key rows, got shape {block.shape}"
            )
        if self._cost_rows is None:
            costs = []
            for row in block:
                if (cost := self.charge(row, origin)) is None:
                    break
                costs.append(cost)
            return costs
        block = block[: 0 if self.reached_target else self.call_limit - self.calls]
        if not len(block):
            return []
        try:
            costs = self._cost_rows(block, self._stop)
        except Exception as exc:
            raise DecoderError(f"decoder failed on a block of {len(block)} rows") from exc
        # A list shorter than the block must end in the row below the stop.
        complete = len(costs) == len(block) or (costs and costs[-1] < self._stop)
        if not complete or len(costs) > len(block) or not all(map(math.isfinite, costs)):
            raise DecoderError(f"expected {len(block)} finite costs, got {costs!r}")
        low = min(costs)
        if self.best is None or low < self.best.cost:
            k = costs.index(low)
            self._improve(block[k], low, self.calls + k + 1, origin)
        self.calls += len(costs)
        return costs
