"""Run budgets and decoder-call accounting.

Every decode in a run goes through one :class:`Evaluator`, which
charges the shared :class:`SearchClock` before invoking the decoder and
keeps the best decode of the run.  The ensemble's driver is its only
caller; the searchers only ask for key vectors.  Charging raises
:class:`~randomkeys.errors.BudgetExhausted` once the call limit or
deadline is hit or the target is reached, so no decode is ever issued
past the budget and the reported call count is exact.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Protocol

import numpy as np

from .errors import BudgetExhausted, DecoderError
from .pool import EvaluatedSolution

__all__ = ["Decoder", "RunBudget", "SearchClock", "Evaluator"]


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


class SearchClock:
    """Shared decoder-call counter, wall deadline, and stop flag.

    :meth:`elapsed` counts in the unit of the budget: decoder calls when
    the budget has no ``time_limit``, wall seconds otherwise.  A run
    under a call-only budget thus reports times that do not depend on
    machine speed.
    """

    def __init__(self, budget: RunBudget) -> None:
        self.calls = 0
        self.call_limit = budget.decoder_calls
        self._t0 = time.monotonic()
        self._deadline = (
            None if budget.time_limit is None else self._t0 + budget.time_limit
        )
        self._stopped = False

    def stop(self) -> None:
        self._stopped = True

    @property
    def stopped(self) -> bool:
        return self._stopped

    def exhausted(self) -> bool:
        if self._stopped:
            return True
        if self.call_limit is not None and self.calls >= self.call_limit:
            return True
        if self._deadline is not None and time.monotonic() >= self._deadline:
            return True
        return False

    def charge(self) -> None:
        """Account for one decoder call, or refuse with BudgetExhausted."""
        if self.exhausted():
            raise BudgetExhausted
        self.calls += 1

    def elapsed(self) -> float:
        if self._deadline is None:
            return float(self.calls)
        return time.monotonic() - self._t0


class Evaluator:
    """Binds a decoder to a clock, stamps evaluated solutions and keeps
    the best decode.

    ``best`` is the first decode of the run with the lowest cost and
    ``time_to_best`` the clock's :meth:`~SearchClock.elapsed` right after
    it.  A decode at or below ``target_cost`` stops the clock, so the
    next charge ends the run.
    """

    def __init__(
        self, decoder: Decoder, clock: SearchClock, target_cost: Optional[float] = None
    ) -> None:
        self.decoder = decoder
        self.clock = clock
        self.target_cost = target_cost
        self.best: Optional[EvaluatedSolution] = None
        self.time_to_best = 0.0

    def evaluate(self, keys: np.ndarray, origin: str = "") -> EvaluatedSolution:
        self.clock.charge()
        try:
            cost = float(self.decoder.cost(keys))
        except Exception as exc:
            raise DecoderError(f"decoder failed on keys {keys!r}") from exc
        if not math.isfinite(cost):
            raise DecoderError(f"decoder returned non-finite cost {cost!r}")
        solution = EvaluatedSolution(
            keys=keys, cost=cost, decoded_at=self.clock.calls, origin=origin
        )
        if self.best is None or cost < self.best.cost:
            self.best = solution
            self.time_to_best = self.clock.elapsed()
            if self.target_cost is not None and cost <= self.target_cost:
                self.clock.stop()
        return solution
