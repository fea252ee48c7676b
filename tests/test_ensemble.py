from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from randomkeys import (
    BrkgaParams,
    DecoderError,
    IlsParams,
    RunBudget,
    SaParams,
    TdTspDecoder,
    VnsParams,
    generate_tdtsp_instance,
    run_ensemble,
)
from randomkeys.keys import KEY_MAX


class SphereDecoder:
    def __init__(self, dim=4):
        self._dim = dim
        self.target = np.linspace(0.2, 0.8, dim)
        self.calls = 0

    @property
    def dimension(self):
        return self._dim

    def cost(self, keys):
        self.calls += 1
        return float(np.sum((keys - self.target) ** 2))


class RecordingDecoder:
    """Wraps a decoder and records the cost of every charged decode."""

    def __init__(self, inner):
        self.inner = inner
        self.costs = []

    @property
    def dimension(self):
        return self.inner.dimension

    def cost(self, keys):
        value = self.inner.cost(keys)
        self.costs.append(value)
        return value

    def first_minimum(self):
        """Lowest cost and the 1-based ordinal of its first decode."""
        best = min(self.costs)
        return best, self.costs.index(best) + 1


ALL_SEARCHERS = [BrkgaParams(population_size=20), SaParams(),
                 IlsParams(), VnsParams()]


def test_call_accounting_is_exact():
    decoder = SphereDecoder()
    report = run_ensemble(
        decoder, ALL_SEARCHERS, RunBudget(decoder_calls=1234), seed=1,
        deterministic=True,
    )
    assert report.decoder_calls == 1234
    assert decoder.calls == 1234


def test_deterministic_runs_repeat_exactly():
    kwargs = dict(budget=RunBudget(decoder_calls=2000), seed=5, deterministic=True)
    a = run_ensemble(SphereDecoder(), ALL_SEARCHERS, **kwargs)
    b = run_ensemble(SphereDecoder(), ALL_SEARCHERS, **kwargs)
    assert a.best_cost == b.best_cost
    assert np.array_equal(a.best_keys, b.best_keys)
    assert a.time_to_best == b.time_to_best
    assert a.searcher == b.searcher


def test_different_seeds_differ():
    a = run_ensemble(SphereDecoder(), ALL_SEARCHERS,
                     RunBudget(decoder_calls=800), seed=1, deterministic=True)
    b = run_ensemble(SphereDecoder(), ALL_SEARCHERS,
                     RunBudget(decoder_calls=800), seed=2, deterministic=True)
    assert not np.array_equal(a.best_keys, b.best_keys)


def test_round_robin_driver_improves_too():
    report = run_ensemble(SphereDecoder(), ALL_SEARCHERS,
                          RunBudget(decoder_calls=4000), seed=3)
    assert report.best_cost < 0.05
    assert report.decoder_calls <= 4000


def test_target_cost_stops_early():
    report = run_ensemble(
        SphereDecoder(), ALL_SEARCHERS, RunBudget(decoder_calls=50_000),
        seed=4, deterministic=True, target_cost=0.05,
    )
    assert report.best_cost <= 0.05
    assert report.decoder_calls < 50_000


def test_single_searcher_runs():
    report = run_ensemble(
        SphereDecoder(), [IlsParams()],
        RunBudget(decoder_calls=1500), seed=6, deterministic=True,
    )
    assert report.best_cost < 0.1
    assert report.searcher in ("ils", "init")


def test_duplicate_searchers_get_distinct_labels():
    report = run_ensemble(
        SphereDecoder(), [SaParams(), SaParams()],
        RunBudget(decoder_calls=1500), seed=7, deterministic=True,
    )
    assert report.searcher in ("init", "sa-1", "sa-2")


@dataclass(frozen=True)
class Labelled:
    """Searcher parameters with any label, whose search is ILS's."""

    label: str

    def search(self, dimension, rng):
        return IlsParams().search(dimension, rng)


@pytest.mark.parametrize(
    "searchers",
    [
        [SaParams(), SaParams(), Labelled("sa-1")],
        [Labelled("init")],
    ],
    ids=["numbered-label-taken", "init"],
)
def test_labels_that_would_coincide_are_refused(searchers):
    # The report names the best's searcher by label, so two searchers
    # (or a searcher and the initial fill) must never share one.
    with pytest.raises(ValueError, match="distinct"):
        run_ensemble(SphereDecoder(), searchers, RunBudget(decoder_calls=100), seed=1)


def test_budget_smaller_than_pool_init_still_reports():
    report = run_ensemble(
        SphereDecoder(), ALL_SEARCHERS, RunBudget(decoder_calls=7),
        seed=8, deterministic=True, pool_capacity=20,
    )
    assert report.decoder_calls == 7
    assert report.searcher == "init"
    assert np.isfinite(report.best_cost)


def test_empty_searcher_list_rejected():
    with pytest.raises(ValueError):
        run_ensemble(SphereDecoder(), [], RunBudget(decoder_calls=10), seed=1)


@pytest.mark.parametrize("capacity", [0, -1])
def test_an_empty_initial_fill_is_rejected(capacity):
    decoder = SphereDecoder()
    with pytest.raises(ValueError, match="pool_capacity"):
        run_ensemble(decoder, ALL_SEARCHERS, RunBudget(decoder_calls=10), seed=1,
                     pool_capacity=capacity)
    assert decoder.calls == 0


@pytest.mark.parametrize("name", ["quantum", "pool_capacity"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 2.5, 3.0, True])
def test_quantum_and_fill_must_be_positive_integers(name, value):
    # A NaN quantum never bounds a turn (``calls < nan`` is false) and an
    # infinite one never ends it; a float or a bool is no call count.
    decoder = SphereDecoder()
    with pytest.raises(ValueError, match=name):
        run_ensemble(decoder, ALL_SEARCHERS, RunBudget(decoder_calls=500), seed=1,
                     **{name: value})
    assert decoder.calls == 0


@pytest.mark.parametrize("target", [float("nan"), float("inf"), -float("inf"),
                                    np.float64("nan")])
def test_target_cost_must_be_finite(target):
    # An infinite target ends a run at its first decode, or never; a NaN
    # one is never reached and reads as if no target were set.
    decoder = SphereDecoder()
    with pytest.raises(ValueError, match="target_cost"):
        run_ensemble(decoder, ALL_SEARCHERS, RunBudget(decoder_calls=500), seed=1,
                     target_cost=target)
    assert decoder.calls == 0


def test_numpy_integer_quantum_and_fill_are_taken():
    budget = RunBudget(decoder_calls=1500)
    plain = run_ensemble(SphereDecoder(), ALL_SEARCHERS, budget, seed=3,
                         pool_capacity=7, quantum=50)
    fixed = run_ensemble(SphereDecoder(), ALL_SEARCHERS, budget, seed=3,
                         pool_capacity=np.int64(7), quantum=np.int32(50))
    assert (plain.best_cost, plain.time_to_best, plain.searcher) == (
        fixed.best_cost, fixed.time_to_best, fixed.searcher
    )
    assert plain.best_keys.tobytes() == fixed.best_keys.tobytes()


@dataclass(frozen=True)
class OneAsk:
    """Searcher parameters whose search asks for one vector and returns."""

    label: str = "one-ask"

    def search(self, dimension, rng):
        yield rng.random(dimension)


def test_a_searcher_that_returns_raises_naming_it():
    # The budget is exact: a searcher that stops before it is spent is
    # an error, not a run that reports fewer calls.
    with pytest.raises(RuntimeError, match="'one-ask'"):
        run_ensemble(SphereDecoder(), [OneAsk()], RunBudget(decoder_calls=1000), seed=1)
    with pytest.raises(RuntimeError, match="'one-ask'"):
        run_ensemble(SphereDecoder(), [IlsParams(), OneAsk()],
                     RunBudget(decoder_calls=1000), seed=1)


def test_time_to_best_is_virtual_in_deterministic_mode():
    report = run_ensemble(
        SphereDecoder(), ALL_SEARCHERS, RunBudget(decoder_calls=2000),
        seed=9, deterministic=True,
    )
    assert report.time_to_best == int(report.time_to_best)
    assert 0 < report.time_to_best <= 2000


@pytest.mark.parametrize("seed", range(1, 9))
def test_brkga_budget_ending_mid_generation_reports_the_minimum(seed):
    # pool 5 + population 20 + 3 generations of 16 offspring + 9 more
    decoder = RecordingDecoder(SphereDecoder(dim=6))
    report = run_ensemble(
        decoder, [BrkgaParams(population_size=20)],
        RunBudget(decoder_calls=5 + 20 + 3 * 16 + 9), seed=seed, pool_capacity=5,
    )
    best, _ = decoder.first_minimum()
    assert report.best_cost == best
    assert SphereDecoder(dim=6).cost(report.best_keys) == best


@pytest.mark.parametrize("seed", range(1, 5))
def test_time_to_best_is_the_ordinal_of_the_best_decode(seed):
    decoder = RecordingDecoder(SphereDecoder())
    report = run_ensemble(decoder, ALL_SEARCHERS, RunBudget(decoder_calls=2000), seed=seed)
    best, ordinal = decoder.first_minimum()
    assert report.best_cost == best
    assert report.time_to_best == ordinal


@pytest.mark.parametrize("seed", range(1, 5))
def test_target_stops_at_the_first_decode_that_reaches_it(seed):
    decoder = RecordingDecoder(SphereDecoder())
    target = 0.05
    report = run_ensemble(
        decoder, ALL_SEARCHERS, RunBudget(decoder_calls=50_000), seed=seed,
        target_cost=target,
    )
    first_hit = next(i + 1 for i, c in enumerate(decoder.costs) if c <= target)
    assert report.decoder_calls == first_hit == len(decoder.costs)
    assert report.time_to_best == first_hit
    assert report.best_cost <= target


def test_decoder_error_inside_a_searcher_propagates():
    class FailsLate(SphereDecoder):
        def cost(self, keys):
            if self.calls == 300:
                raise KeyError("boom")
            return super().cost(keys)

    with pytest.raises(DecoderError):
        run_ensemble(FailsLate(), ALL_SEARCHERS, RunBudget(decoder_calls=2000), seed=1)


def test_call_budget_runs_repeat_exactly_without_the_flag():
    a = run_ensemble(SphereDecoder(), ALL_SEARCHERS, RunBudget(decoder_calls=1500), seed=10)
    b = run_ensemble(SphereDecoder(), ALL_SEARCHERS, RunBudget(decoder_calls=1500), seed=10)
    assert (a.best_cost, a.time_to_best, a.searcher) == (b.best_cost, b.time_to_best, b.searcher)
    assert np.array_equal(a.best_keys, b.best_keys)


def test_deterministic_flag_refuses_a_time_limit():
    with pytest.raises(ValueError):
        run_ensemble(SphereDecoder(), ALL_SEARCHERS,
                     RunBudget(time_limit=1.0, decoder_calls=100), seed=1,
                     deterministic=True)


def row_by_row(search):
    """The same search, asking for the rows of each block one at a time."""
    reply = None
    while True:
        keys = search.send(reply)
        if keys is not None and keys.ndim == 2:
            reply = []
            for row in keys:
                reply.append((yield row.copy()))
        else:
            reply = yield keys


def recording(search, asks):
    """The same search, appending each vector or block it asks for to
    ``asks``."""
    reply = None
    while True:
        keys = search.send(reply)
        if keys is not None:
            asks.append(keys)
        reply = yield keys


@dataclass(frozen=True)
class Wrapped:
    """Searcher parameters whose search is ``wrap`` of ``inner``'s."""

    inner: object
    wrap: Callable

    @property
    def label(self):
        return self.inner.label

    def search(self, dimension, rng):
        return self.wrap(self.inner.search(dimension, rng))


@pytest.mark.parametrize("calls", [1237, 3001])
@pytest.mark.parametrize("seed", [1, 2])
def test_block_asks_report_as_row_by_row_asks(seed, calls):
    instance = generate_tdtsp_instance(20, 3, seed=seed)
    searchers = [BrkgaParams(population_size=30), SaParams(), IlsParams(),
                 VnsParams()]
    budget = RunBudget(decoder_calls=calls)
    blocks = run_ensemble(TdTspDecoder(instance), searchers, budget, seed, deterministic=True)
    rows = run_ensemble(TdTspDecoder(instance), [Wrapped(s, row_by_row) for s in searchers],
                        budget, seed, deterministic=True)
    assert blocks.best_keys.tobytes() == rows.best_keys.tobytes()
    assert (blocks.best_cost, blocks.time_to_best, blocks.decoder_calls, blocks.searcher) == (
        rows.best_cost, rows.time_to_best, rows.decoder_calls, rows.searcher
    )


def is_initial_simplex(block):
    """Whether ``block`` is Nelder-Mead's initial simplex around some
    vector: row i is the vector with key i moved 0.05 up, or down where
    up would leave the box."""
    d = len(block)
    base = block[(np.arange(d) + 1) % d, np.arange(d)]
    expected = np.tile(base, (d, 1))
    np.fill_diagonal(expected, base + np.where(base + 0.05 <= KEY_MAX, 0.05, -0.05))
    return np.array_equal(expected.clip(0.0, KEY_MAX), block)


@pytest.mark.parametrize(
    "label,calls,inside",
    [("ils", 276, "initial"), ("ils", 300, "shrink"),
     ("vns", 310, "initial"), ("vns", 345, "shrink")],
)
def test_descents_cut_inside_a_block_report_as_row_by_row_asks(label, calls, inside):
    # Nelder-Mead asks for its initial simplex and each shrink as one
    # block; each budget here ends the run inside one of them.
    searcher = {"ils": IlsParams(), "vns": VnsParams()}[label]
    instance = generate_tdtsp_instance(20, 3, seed=1)
    budget = RunBudget(decoder_calls=calls)
    asks = []
    blocks = run_ensemble(TdTspDecoder(instance), [Wrapped(searcher, lambda s: recording(s, asks))],
                          budget, 1, deterministic=True)
    rows = run_ensemble(TdTspDecoder(instance), [Wrapped(searcher, row_by_row)],
                        budget, 1, deterministic=True)
    # The 20 vectors of the initial fill, then the searcher's asks.
    before = 20 + sum(1 if keys.ndim == 1 else len(keys) for keys in asks[:-1])
    assert asks[-1].ndim == 2 and before < calls < before + len(asks[-1])
    assert is_initial_simplex(asks[-1]) == (inside == "initial")
    assert blocks.best_keys.tobytes() == rows.best_keys.tobytes()
    assert (blocks.best_cost, blocks.time_to_best, blocks.decoder_calls, blocks.searcher) == (
        rows.best_cost, rows.time_to_best, rows.decoder_calls, rows.searcher
    )
