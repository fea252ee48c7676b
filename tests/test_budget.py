import math

import numpy as np
import pytest

from randomkeys import (
    DecoderError,
    Evaluator,
    PortfolioDecoder,
    RunBudget,
    TdTspDecoder,
    generate_tdtsp_instance,
)
from randomkeys import budget as budget_module
from randomkeys.localsearch import rvnd
from conftest import answer, toy_portfolio


class CountingDecoder:
    """Sums the keys; counts how often it is asked."""

    def __init__(self, dim=3):
        self._dim = dim
        self.calls = 0

    @property
    def dimension(self):
        return self._dim

    def cost(self, keys):
        self.calls += 1
        return float(keys.sum())


KEYS = np.array([0.4, 0.5, 0.6])


def test_budget_requires_a_limit():
    with pytest.raises(ValueError):
        RunBudget()
    with pytest.raises(ValueError):
        RunBudget(time_limit=-1.0)
    with pytest.raises(ValueError):
        RunBudget(decoder_calls=0)


@pytest.mark.parametrize(
    "limits",
    [
        dict(time_limit=float("nan")),
        dict(time_limit=float("inf")),
        dict(time_limit=float("inf"), decoder_calls=10),
        dict(decoder_calls=2.5),
        dict(decoder_calls=3.0),
        dict(decoder_calls=True),
        dict(decoder_calls="3"),
    ],
    ids=["nan-time", "inf-time", "inf-time-with-calls", "fractional-calls",
         "float-calls", "bool-calls", "text-calls"],
)
def test_budget_refuses_limits_that_never_end_or_overcharge(limits):
    with pytest.raises(ValueError):
        RunBudget(**limits)


def test_budget_takes_numpy_integer_calls():
    ev = Evaluator(CountingDecoder(), RunBudget(decoder_calls=np.int64(2)))
    assert [ev.charge(KEYS.copy()) is None for _ in range(3)] == [False, False, True]


def test_charge_stops_exactly_at_call_limit():
    decoder = CountingDecoder()
    ev = Evaluator(decoder, RunBudget(decoder_calls=3))
    for _ in range(3):
        assert ev.charge(KEYS) is not None
    assert ev.charge(KEYS) is None
    assert ev.calls == decoder.calls == 3


def test_stop_flag_blocks_further_charges():
    decoder = CountingDecoder()
    ev = Evaluator(decoder, RunBudget(decoder_calls=100), target_cost=2.0)
    ev.charge(KEYS)
    assert ev.reached_target
    assert ev.charge(np.array([0.1, 0.1, 0.1])) is None
    assert ev.calls == decoder.calls == 1


def test_virtual_elapsed_counts_calls():
    ev = Evaluator(CountingDecoder(), RunBudget(decoder_calls=10))
    assert ev.elapsed() == 0.0
    ev.charge(KEYS)
    ev.charge(KEYS)
    assert ev.elapsed() == 2.0


def test_wall_elapsed_is_nonnegative_seconds():
    ev = Evaluator(CountingDecoder(), RunBudget(time_limit=60.0))
    assert ev.elapsed() >= 0.0
    assert ev.elapsed() < 1.0
    # a call limit beside the time limit does not change the unit
    ev = Evaluator(CountingDecoder(), RunBudget(time_limit=60.0, decoder_calls=10))
    ev.charge(KEYS)
    ev.charge(KEYS)
    assert ev.elapsed() < 1.0


def test_evaluator_refuses_past_the_deadline(monkeypatch):
    now = [100.0]

    class FakeTime:
        @staticmethod
        def monotonic():
            return now[0]

    monkeypatch.setattr(budget_module, "time", FakeTime)
    decoder = CountingDecoder()
    ev = Evaluator(decoder, RunBudget(time_limit=5.0, decoder_calls=10))
    now[0] = 104.5
    assert ev.charge(KEYS) is not None
    assert ev.elapsed() == 4.5
    now[0] = 105.0
    assert ev.charge(KEYS) is None
    assert ev.calls == decoder.calls == 1


def test_evaluator_keeps_first_strictly_lower_decode():
    ev = Evaluator(CountingDecoder(), RunBudget(decoder_calls=10))
    assert ev.best is None
    ev.charge(np.array([0.3, 0.3, 0.3]), origin="init")
    ev.charge(np.array([0.1, 0.1, 0.1]), origin="sa")
    first = ev.best
    ev.charge(np.array([0.1, 0.1, 0.1]), origin="ils")  # ties, not lower
    ev.charge(np.array([0.5, 0.5, 0.5]), origin="vns")
    assert ev.best is first
    assert (first.origin, first.decoded_at) == ("sa", 2)
    assert ev.time_to_best == 2.0


def test_evaluator_stops_the_clock_at_the_target():
    decoder = CountingDecoder()
    ev = Evaluator(decoder, RunBudget(decoder_calls=10), target_cost=0.5)
    ev.charge(np.array([0.3, 0.3, 0.3]))
    assert not ev.reached_target
    ev.charge(np.array([0.1, 0.1, 0.1]))
    assert ev.reached_target
    assert ev.charge(np.array([0.0, 0.0, 0.0])) is None
    assert decoder.calls == ev.calls == 2
    assert ev.best.decoded_at == 2


def test_evaluator_never_decodes_past_budget():
    decoder = CountingDecoder()
    ev = Evaluator(decoder, RunBudget(decoder_calls=2))
    ev.charge(np.array([0.1, 0.2, 0.3]))
    ev.charge(np.array([0.4, 0.5, 0.6]))
    assert ev.charge(np.array([0.7, 0.8, 0.9])) is None
    assert ev.charge(np.array([0.0, 0.0, 0.0])) is None
    assert decoder.calls == 2
    assert ev.calls == 2


def test_evaluator_ends_a_search_at_the_target():
    """A search answered through the evaluator gets no decode after the
    first one at or below the target: its next ask ends it."""
    decoder = CountingDecoder(dim=6)
    ev = Evaluator(decoder, RunBudget(decoder_calls=10_000), target_cost=1.5)
    start = np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.4])
    start_cost = ev.charge(start)
    costs = []

    def charge(keys):
        cost = ev.charge(keys)
        if cost is not None:
            costs.append(cost)
        return cost

    assert answer(rvnd(start, start_cost, np.random.default_rng(1)), charge) is None
    assert costs[-1] <= 1.5 < min(costs[:-1])
    assert ev.calls == decoder.calls == len(costs) + 1
    assert ev.best.cost == costs[-1]
    assert ev.time_to_best == ev.calls


def test_evaluator_stamps_origin_and_ordinal():
    ev = Evaluator(CountingDecoder(), RunBudget(decoder_calls=5))
    # Only a new best is stamped, so each decode here is lower.
    assert ev.charge(np.array([0.2, 0.2, 0.2]), origin="sa") == pytest.approx(0.6)
    first = ev.best
    assert first.origin == "sa"
    assert first.decoded_at == 1
    assert first.cost == pytest.approx(0.6)
    ev.charge(np.array([0.1, 0.1, 0.1]), "ils")
    second = ev.best
    assert second.origin == "ils"
    assert second.decoded_at == 2
    assert second.cost == pytest.approx(0.3)


def test_evaluator_wraps_decoder_failures():
    class Broken:
        dimension = 2

        def cost(self, keys):
            raise KeyError("boom")

    ev = Evaluator(Broken(), RunBudget(decoder_calls=5))
    with pytest.raises(DecoderError):
        ev.charge(np.array([0.1, 0.2]))


def test_evaluator_rejects_non_finite_cost():
    class Nan:
        dimension = 1

        def cost(self, keys):
            return float("nan")

    ev = Evaluator(Nan(), RunBudget(decoder_calls=5))
    with pytest.raises(DecoderError):
        ev.charge(np.array([0.5]))
    assert ev.calls == 0


def test_evaluator_refuses_a_key_vector_of_the_wrong_length():
    decoder = TdTspDecoder(generate_tdtsp_instance(6, 2, seed=1))
    ev = Evaluator(decoder, RunBudget(decoder_calls=10))
    for keys in (np.array([0.3, 0.1, 0.2]), np.zeros(7), np.zeros((1, 6)), np.float64(0.5)):
        with pytest.raises(DecoderError):
            ev.charge(keys)
    assert ev.calls == 0
    assert ev.best is None


def test_evaluator_refuses_a_block_of_the_wrong_shape():
    decoder = CountingDecoder()
    ev = Evaluator(decoder, RunBudget(decoder_calls=10))
    for block in (KEYS, np.zeros((4, 2)), np.zeros((4, 4)), np.zeros((2, 4, 3))):
        with pytest.raises(DecoderError):
            ev.charge_block(block)
    assert ev.calls == decoder.calls == 0


def test_block_crossing_the_call_limit_is_cut_before_it_is_decoded():
    class Recording(CountingDecoder):
        def __init__(self):
            super().__init__()
            self.decoded = []

        def cost(self, keys):
            self.decoded.append(keys.tobytes())
            return super().cost(keys)

    decoder = Recording()
    ev = Evaluator(decoder, RunBudget(decoder_calls=5))
    ev.charge(KEYS)
    ev.charge(KEYS)
    block = np.random.default_rng(1).random((4, 3))
    costs = ev.charge_block(block, "brkga")
    assert decoder.decoded[2:] == [row.tobytes() for row in block[:3]]
    assert costs == [float(row.sum()) for row in block[:3]]
    # No row costs less than the first decode, which stays the best.
    assert min(costs) > float(KEYS.sum())
    assert (ev.best.decoded_at, ev.best.origin) == (1, "")
    assert ev.calls == decoder.calls == 5
    # A block asked for once the budget is spent decodes nothing.
    assert ev.charge_block(block) == []
    assert ev.calls == decoder.calls == 5


@pytest.mark.parametrize(
    "budget, target",
    [(RunBudget(decoder_calls=100), 1.0), (RunBudget(time_limit=100.0), None)],
    ids=["target", "deadline"],
)
def test_target_and_deadline_runs_decode_blocks_row_by_row(budget, target):
    # A decoder without cost_rows.
    decoder = CountingDecoder()
    ev = Evaluator(decoder, budget, target_cost=target)
    block = np.array([[0.5, 0.5, 0.5], [0.5, 0.25, 0.5], [0.25, 0.25, 0.25], [0.0, 0.0, 0.125]])
    costs = ev.charge_block(block)
    if target is None:
        assert len(costs) == decoder.calls == ev.calls == 4
    else:
        # The third row reaches the target; the fourth is never decoded.
        assert len(costs) == decoder.calls == ev.calls == 3
        assert ev.reached_target
        assert ev.charge_block(block) == []
        assert decoder.calls == 3


def test_block_best_is_its_first_minimum():
    ev = Evaluator(CountingDecoder(), RunBudget(decoder_calls=10))
    ev.charge(np.array([0.5, 0.5, 0.5]))
    block = np.array(
        [[0.75, 0.75, 0.75], [0.25, 0.125, 0.125], [0.125, 0.125, 0.25], [0.25, 0.25, 0.25]]
    )
    costs = ev.charge_block(block, "sa")
    assert costs == [float(row.sum()) for row in block]
    best = ev.best
    assert (best.cost, best.keys.tobytes(), best.origin) == (costs[1], block[1].tobytes(), "sa")
    assert best.decoded_at == ev.time_to_best == 3
    assert best.keys.base is None and not best.keys.flags.writeable


def test_best_keys_are_the_evaluators_own_copy():
    """The best keeps a read-only copy of the keys it was decoded from:
    writing to the charged array, a block row or a single vector, later
    leaves ``best.keys`` and ``best.cost`` as they were."""
    ev = Evaluator(CountingDecoder(), RunBudget(decoder_calls=10))
    block = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
    ev.charge(block[0], "brkga")
    block[0, 0] = 0.9
    assert ev.best.keys.tolist() == [0.1, 0.2, 0.3]
    assert ev.best.cost == pytest.approx(0.6)
    assert not ev.best.keys.flags.writeable
    single = np.array([0.05, 0.1, 0.15])
    ev.charge(single, "sa")
    single[:] = 0.9
    assert ev.best.keys.tolist() == [0.05, 0.1, 0.15]
    assert ev.best.cost == pytest.approx(0.3)
    assert not ev.best.keys.flags.writeable


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_block_decoder_must_return_a_finite_cost_per_row(bad):
    # The second row of the block decodes to a non-finite cost.
    class Broken(CountingDecoder):
        def cost(self, keys):
            return bad if super().cost(keys) == 3.0 else 1.0

    decoder = Broken()
    ev = Evaluator(decoder, RunBudget(decoder_calls=10))
    with pytest.raises(DecoderError):
        ev.charge_block(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]))
    assert decoder.calls == 2
    assert ev.calls == 1  # the row before the failure


class BlockDecoder(CountingDecoder):
    """A CountingDecoder that also costs blocks, recording each one and
    its stop; it costs the rows up to and including the first below
    the stop."""

    def __init__(self, dim=3):
        super().__init__(dim)
        self.blocks = []
        self.stops = []

    def cost_rows(self, block, stop=-math.inf):
        self.blocks.append(block.copy())
        self.stops.append(stop)
        costs = []
        for row in block:
            costs.append(float(row.sum()))
            if costs[-1] < stop:
                break
        return costs


def test_cost_rows_block_crossing_the_call_limit_decodes_only_the_rows_that_fit():
    decoder = BlockDecoder()
    ev = Evaluator(decoder, RunBudget(decoder_calls=5))
    ev.charge(KEYS)
    ev.charge(KEYS)
    block = np.random.default_rng(1).random((4, 3))
    costs = ev.charge_block(block, "brkga")
    assert [b.tobytes() for b in decoder.blocks] == [block[:3].tobytes()]
    assert costs == [float(row.sum()) for row in block[:3]]
    assert min(costs) > float(KEYS.sum())
    assert (ev.best.decoded_at, ev.best.origin) == (1, "")
    assert ev.calls == 5 and decoder.calls == 2
    # A block asked for once the budget is spent decodes nothing.
    assert ev.charge_block(block) == []
    assert len(decoder.blocks) == 1 and ev.calls == 5


def test_cost_rows_block_best_is_its_first_strict_minimum():
    ev = Evaluator(BlockDecoder(), RunBudget(decoder_calls=10))
    ev.charge(np.array([0.5, 0.5, 0.5]))
    block = np.array(
        [[0.75, 0.75, 0.75], [0.25, 0.125, 0.125], [0.125, 0.125, 0.25], [0.25, 0.25, 0.25]]
    )
    costs = ev.charge_block(block, "sa")
    assert costs == [float(row.sum()) for row in block]
    best = ev.best
    assert (best.cost, best.keys.tobytes(), best.origin) == (costs[1], block[1].tobytes(), "sa")
    assert best.decoded_at == ev.time_to_best == 3
    assert best.keys.base is None and not best.keys.flags.writeable
    block[1] = 0.0
    assert best.keys.tolist() == [0.25, 0.125, 0.125]
    # A block that only ties the best leaves it alone.
    ev.charge_block(block[2:3], "ils")
    assert ev.best is best and ev.calls == 6


def test_cost_rows_charges_as_the_rows_one_by_one_would():
    instance = generate_tdtsp_instance(30, 4, seed=3)

    class RowsOnly:
        dimension = 30

        def __init__(self):
            self.decoder = TdTspDecoder(instance)

        def cost(self, keys):
            return self.decoder.cost(keys)

    class BlocksOnly(TdTspDecoder):
        def cost(self, keys):
            raise AssertionError("a block row was charged through cost")

    def charge_both(target):
        whole = Evaluator(BlocksOnly(instance), RunBudget(decoder_calls=200), target)
        rows = Evaluator(RowsOnly(), RunBudget(decoder_calls=200), target)
        for block in blocks:
            assert whole.charge_block(block, "nm") == rows.charge_block(block, "nm")
            assert whole.calls == rows.calls
            assert whole.best.keys.tobytes() == rows.best.keys.tobytes()
            assert (whole.best.cost, whole.best.decoded_at, whole.time_to_best) == (
                rows.best.cost, rows.best.decoded_at, rows.time_to_best
            )
            assert whole.reached_target == rows.reached_target
        return whole

    rng = np.random.default_rng(4)
    base = rng.random(30)
    blocks = [rng.random((60, 30)), base + rng.random((50, 1)) * 0.01, rng.random((120, 30))]
    best = charge_both(None).best
    assert best.decoded_at < 200
    # With the run's best as its target, the third block stops inside.
    assert charge_both(best.cost).calls == best.decoded_at > 110


@pytest.mark.parametrize(
    "budget, target",
    [(RunBudget(decoder_calls=100), 1.0), (RunBudget(time_limit=100.0), None)],
    ids=["target", "deadline"],
)
def test_target_runs_pass_cost_rows_the_stop_and_deadline_runs_never_call_it(budget, target):
    decoder = BlockDecoder()
    ev = Evaluator(decoder, budget, target_cost=target)
    block = np.array([[0.5, 0.5, 0.5], [0.5, 0.25, 0.5], [0.25, 0.25, 0.25], [0.0, 0.0, 0.0]])
    costs = ev.charge_block(block)
    if target is None:
        assert decoder.blocks == []
        assert len(costs) == decoder.calls == ev.calls == 4
    else:
        # The smallest float above the target, so "below" is "at or below".
        assert decoder.stops == [math.nextafter(1.0, math.inf)]
        assert len(costs) == ev.calls == 3 and decoder.calls == 0


@pytest.mark.parametrize("decoder_type", [CountingDecoder, BlockDecoder], ids=["rows", "block"])
def test_target_reached_mid_block_charges_the_rows_up_to_it(decoder_type):
    decoder = decoder_type()
    # The third row costs exactly the target.
    ev = Evaluator(decoder, RunBudget(decoder_calls=100), target_cost=0.75)
    ev.charge(KEYS)
    block = np.array([[0.5, 0.5, 0.5], [0.5, 0.25, 0.5], [0.25, 0.25, 0.25], [0.0, 0.0, 0.0]])
    assert ev.charge_block(block, "sa") == [1.5, 1.25, 0.75]
    assert ev.calls == 4 and ev.reached_target
    assert (ev.best.cost, ev.best.decoded_at, ev.time_to_best, ev.best.origin) == (
        0.75, 4, 4.0, "sa"
    )
    # (cost calls, cost_rows calls): the row path costs the three rows
    # one by one, the block path in one call; once the target is
    # reached, neither decodes again.
    decodes = (4, 0) if decoder_type is CountingDecoder else (1, 1)
    assert (decoder.calls, len(getattr(decoder, "blocks", []))) == decodes
    assert ev.charge_block(block) == [] and ev.charge(KEYS) is None
    assert (decoder.calls, len(getattr(decoder, "blocks", []))) == decodes
    assert ev.calls == 4


def test_portfolio_target_run_stops_its_block_at_the_first_row_at_or_below_the_target():
    instance = toy_portfolio(30, 5, seed=7)

    class BlocksOnly(PortfolioDecoder):
        def cost(self, keys):
            raise AssertionError("a block row was charged through cost")

    block = np.random.default_rng(8).random((20, 10))
    costs = [PortfolioDecoder(instance).cost(row) for row in block]
    target = min(costs[:12])
    at = costs.index(target)
    assert 0 < at < 11
    ev = Evaluator(BlocksOnly(instance), RunBudget(decoder_calls=100), target_cost=target)
    assert ev.charge_block(block, "nm") == costs[: at + 1]
    assert ev.calls == at + 1 and ev.reached_target
    assert (ev.best.cost, ev.best.decoded_at, ev.best.origin) == (target, at + 1, "nm")
    assert ev.best.keys.tobytes() == block[at].tobytes()
    assert ev.charge_block(block) == [] and ev.calls == at + 1


@pytest.mark.parametrize(
    "answer, cause",
    [
        (lambda block, stop: 1 / 0, ZeroDivisionError),
        (lambda block, stop: [1.0, float("nan"), 1.0][: len(block)], None),
        (lambda block, stop: [1.0, float("inf"), 1.0][: len(block)], None),
        (lambda block, stop: [1.0] * (len(block) - 1), None),
        (lambda block, stop: [1.0] * (len(block) + 1), None),
        (lambda block, stop: [], None),
    ],
    ids=["raises", "nan", "inf", "short", "long", "empty"],
)
def test_failed_cost_rows_raises_and_charges_nothing(answer, cause):
    decoder = BlockDecoder()
    decoder.cost_rows = answer
    # A list shorter than the block must end in a cost at or below the
    # target, which "short" does not reach.
    ev = Evaluator(decoder, RunBudget(decoder_calls=10), target_cost=0.25)
    ev.charge(KEYS)
    best = ev.best
    with pytest.raises(DecoderError) as failure:
        ev.charge_block(np.zeros((3, 3)))
    assert ev.calls == 1 and ev.best is best and not ev.reached_target
    # Each answer fails on its own terms, not on how it is called.
    assert not isinstance(failure.value.__cause__, TypeError)
    assert type(failure.value.__cause__) is (type(None) if cause is None else cause)
