"""Spans around the package's public functions, recorded from outside.

The traced run does not edit the package.  It passes ``run_ensemble`` a
decoder wrapper that times ``cost``, and for the length of a round it
replaces a few public functions with timing wrappers, each in the module
namespace where its callers look it up.  A name that a refactor removed
is reported as absent rather than failing the run.

Each span is kept in memory as (name, start, end, parent, note), where
``note`` holds the outcome the per-layer ratios need, until the
ensemble run it belongs to ends.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

LOCAL_SEARCHES = ("swap", "mirror", "farey", "nelder_mead")
ORIGINS = ("init", "brkga", "sa", "ils", "vns")


def _origin(solution):
    return solution.origin


def _outcome(outcome):
    return outcome.value


def _improved(result):
    return result[0]


# (span name, module, class or None, attribute, note taken from the result)
TARGETS = (
    ("budget.evaluate", "randomkeys.budget", "Evaluator", "evaluate", _origin),
    ("pool.insert", "randomkeys.pool", "ElitePool", "insert", _outcome),
    ("keys.shake", "randomkeys.searchers", None, "shake", None),
    ("keys.blend", "randomkeys.searchers", None, "blend", None),
    ("localsearch.rvnd", "randomkeys.searchers", None, "rvnd", None),
) + tuple(
    (f"localsearch.{name}", "randomkeys.localsearch", None, f"{name}_search", _improved)
    for name in LOCAL_SEARCHES
)


class Tracer:
    """In-memory span recorder.

    Spans of one ensemble run are kept until :meth:`flush`, which the
    caller invokes when the run ends; it folds them into per-name totals
    and drops them, so memory stays bounded by the largest run.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.own: defaultdict = defaultdict(float)
        self.decodes: Counter = Counter()
        self.notes: defaultdict = defaultdict(Counter)

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                noted = None if note is None or result is None else note(result)
                spans[index] = (name, start, end, parent, noted)

        return traced

    def flush(self) -> None:
        """Fold the recorded spans into the totals and drop them."""
        spans = self.spans
        child = [0.0] * len(spans)
        decodes_under = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
            if name.endswith(".cost"):
                while parent >= 0:
                    decodes_under[parent] += 1
                    parent = spans[parent][3]
        for i, (name, start, end, _, note) in enumerate(spans):
            self.calls[name] += 1
            self.total[name] += end - start
            self.own[name] += end - start - child[i]
            self.decodes[name] += decodes_under[i]
            self.notes[name][note] += 1
        spans.clear()

    def rows(self) -> dict[str, float]:
        """Per-layer counts, times and shares of everything flushed.

        Shares are self time over the wall time of the ``ensemble.run``
        spans.  Times are microseconds per call.
        """
        calls, total, own, decodes, notes = (
            self.calls, self.total, self.own, self.decodes, self.notes
        )
        wall = total["ensemble.run"]

        def per_call_us(value: float, name: str) -> float:
            return value / calls[name] * 1e6 if calls[name] else 0.0

        def ratio(count: int, name: str) -> float:
            return count / calls[name] if calls[name] else 0.0

        rows: dict[str, float] = {}
        for name in ("tdtsp.cost", "portfolio.cost", "keys.shake", "keys.blend"):
            rows[f"{name}.calls"] = calls[name]
            rows[f"{name}.us"] = per_call_us(total[name], name)
            rows[f"{name}.share"] = own[name] / wall
        rows["localsearch.rvnd.calls"] = calls["localsearch.rvnd"]
        rows["localsearch.rvnd.decodes_per_call"] = ratio(
            decodes["localsearch.rvnd"], "localsearch.rvnd"
        )
        for search in LOCAL_SEARCHES:
            name = f"localsearch.{search}"
            rows[f"{name}.calls"] = calls[name]
            rows[f"{name}.decodes"] = decodes[name]
            rows[f"{name}.improve_ratio"] = ratio(notes[name][True], name)
            rows[f"{name}.self_us"] = per_call_us(own[name], name)
        rows["localsearch.self_share"] = (
            sum(own[f"localsearch.{s}"] for s in ("rvnd",) + LOCAL_SEARCHES) / wall
        )
        rows["budget.evaluate.calls"] = calls["budget.evaluate"]
        rows["budget.evaluate.self_us"] = per_call_us(own["budget.evaluate"], "budget.evaluate")
        rows["budget.evaluate.share"] = own["budget.evaluate"] / wall
        rows["pool.insert.calls"] = calls["pool.insert"]
        rows["pool.insert.us"] = per_call_us(total["pool.insert"], "pool.insert")
        rows["pool.insert.accept_ratio"] = ratio(notes["pool.insert"]["accepted"], "pool.insert")
        rows["pool.insert.duplicate_ratio"] = ratio(
            notes["pool.insert"]["rejected-duplicate"], "pool.insert"
        )
        rows["pool.insert.share"] = own["pool.insert"] / wall
        evaluated = sum(notes["budget.evaluate"][origin] for origin in ORIGINS)
        for origin in ORIGINS:
            rows[f"searchers.{origin}.decode_share"] = (
                notes["budget.evaluate"][origin] / evaluated if evaluated else 0.0
            )
        rows["ensemble.self_share"] = own["ensemble.run"] / wall
        return rows


class WatchedDecoder:
    """Decoder wrapper that times ``cost`` and remembers the first
    minimum over all charged decodes together with its ordinal."""

    def __init__(self, decoder, tracer: Tracer) -> None:
        layer = type(decoder).__module__.rsplit(".", 1)[-1]
        self.dimension = decoder.dimension
        self._cost = tracer.wrap(f"{layer}.cost", decoder.cost)
        self.calls = 0
        self.best = math.inf
        self.best_at = 0

    def cost(self, keys):
        value = self._cost(keys)
        self.calls += 1
        if value < self.best:
            self.best, self.best_at = value, self.calls
        return value


@contextmanager
def instrument(tracer: Tracer) -> Iterator[list[str]]:
    """Install the wrappers for the duration of the block.

    Yields the span names whose function could not be found."""
    installed, absent = [], []
    for name, module_name, class_name, attr, note in TARGETS:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            owner = None
        if owner is not None and class_name is not None:
            owner = getattr(owner, class_name, None)
        original = getattr(owner, attr, None)
        if not callable(original):
            absent.append(name)
            continue
        setattr(owner, attr, tracer.wrap(name, original, note))
        installed.append((owner, attr, original))
    try:
        yield absent
    finally:
        for owner, attr, original in installed:
            setattr(owner, attr, original)
