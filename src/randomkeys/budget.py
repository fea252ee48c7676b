"""Run budgets and decoder-call accounting.

Every decode in a run goes through one :class:`Evaluator`.  It counts
the decoder calls, holds the call limit and the deadline, and keeps the
best decode of the run.  The ensemble's driver is its only caller; the
searchers only ask for key vectors.  Once the call limit or deadline is
hit, or a decode has reached the target, the evaluator refuses: it
decodes nothing and returns ``None``, so no decode is ever issued past
the budget and the reported call count is exact.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Protocol

import numpy as np

from .errors import DecoderError
from .pool import EvaluatedSolution

__all__ = ["Decoder", "RunBudget", "Evaluator"]


class Decoder(Protocol):
    """What searchers need from a problem binding.

    ``dimension`` is the key-vector length; ``cost`` maps a key vector
    to a finite float (penalties included).  Implementations must be
    deterministic and must not mutate the key array.
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
    refused.
    """

    def __init__(
        self, decoder: Decoder, budget: RunBudget, target_cost: Optional[float] = None
    ) -> None:
        self.decoder = decoder
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
        if (
            self.reached_target
            or (self.call_limit is not None and self.calls >= self.call_limit)
            or (self._deadline is not None and time.monotonic() >= self._deadline)
        ):
            return None
        self.calls += 1
        try:
            cost = float(self.decoder.cost(keys))
        except Exception as exc:
            raise DecoderError(f"decoder failed on keys {keys!r}") from exc
        if not math.isfinite(cost):
            raise DecoderError(f"decoder returned non-finite cost {cost!r}")
        solution = EvaluatedSolution(
            keys=keys, cost=cost, decoded_at=self.calls, origin=origin
        )
        if self.best is None or cost < self.best.cost:
            self.best = solution
            self.time_to_best = self.elapsed()
            self.reached_target = self.target_cost is not None and cost <= self.target_cost
        return solution
