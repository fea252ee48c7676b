import copy

import numpy as np
import pytest

from randomkeys import (
    BrkgaParams,
    Evaluator,
    IlsParams,
    RunBudget,
    SaParams,
    ShakeConfig,
    VnsParams,
    shake,
)
from conftest import answer


class SphereDecoder:
    """Squared distance to an interior optimum; smooth and unimodal."""

    target = np.array([0.3, 0.7, 0.2, 0.6])

    @property
    def dimension(self):
        return 4

    def cost(self, keys):
        return float(np.sum((keys - self.target) ** 2))


class Recording(SphereDecoder):
    """The sphere, recording the bytes and cost of every decode."""

    def __init__(self):
        self.charged = []

    def cost(self, keys):
        value = super().cost(keys)
        self.charged.append((keys.tobytes(), value))
        return value


def drive(params, calls=4000, seed=1, dim=4, decoder=None):
    decoder = decoder or SphereDecoder()
    ev = Evaluator(decoder, RunBudget(decoder_calls=calls))
    search = params.search(dim, np.random.default_rng(seed))
    assert answer(search, ev.evaluate) is None
    return ev


def test_brkga_param_validation():
    with pytest.raises(ValueError):
        BrkgaParams(population_size=2)
    with pytest.raises(ValueError):
        BrkgaParams(elite_fraction=0.0)
    with pytest.raises(ValueError):
        BrkgaParams(elite_fraction=0.6, mutant_fraction=0.5)


def test_sa_param_validation():
    with pytest.raises(ValueError):
        SaParams(initial_acceptance=1.0)
    with pytest.raises(ValueError):
        SaParams(cooling_rate=1.0)
    with pytest.raises(ValueError):
        SaParams(moves_per_temperature=0)


def test_vns_param_validation():
    with pytest.raises(ValueError):
        VnsParams(beta_levels=())
    with pytest.raises(ValueError):
        VnsParams(beta_levels=(0.3, 0.2))
    with pytest.raises(ValueError):
        VnsParams(beta_levels=(0.1, 1.2))


@pytest.mark.parametrize(
    "params",
    [
        BrkgaParams(population_size=20),
        SaParams(),
        IlsParams(rvnd_calls=200),
        VnsParams(rvnd_calls=200),
    ],
    ids=["brkga", "sa", "ils", "vns"],
)
def test_each_searcher_descends_on_a_sphere(params):
    best = drive(params).best
    assert best is not None
    assert best.cost < 0.05  # random vectors average around 0.33


def test_brkga_respects_exact_call_budget():
    decoder = SphereDecoder()
    ev = Evaluator(decoder, RunBudget(decoder_calls=137))
    gen = BrkgaParams(population_size=20).search(4, np.random.default_rng(2))
    assert answer(gen, ev.evaluate) is None
    assert ev.calls == 137


def test_sa_yields_after_each_temperature_step():
    decoder = SphereDecoder()
    ev = Evaluator(decoder, RunBudget(decoder_calls=10_000))
    params = SaParams(moves_per_temperature=5)
    gen = params.search(4, np.random.default_rng(3))

    def to_next_pause():
        reply = None
        while (keys := gen.send(reply)) is not None:
            reply = ev.evaluate(keys) if keys.ndim == 1 else ev.evaluate_block(keys)

    to_next_pause()
    after_first = ev.calls
    # 1 initial + 100 calibration + 5 moves
    assert after_first == 106
    to_next_pause()
    assert ev.calls == 111


def test_sa_restarts_from_its_own_best():
    # Scripted costs: the start costs 1.0 and its 100 calibration
    # neighbours 1.5, which calibrates the temperature to about 0.72;
    # the five moves cost 0.5, 0.4 (the best), then 0.4 three times,
    # accepted at zero delta without becoming the best.  One cooling
    # step takes the temperature below the floor, so the walk, which
    # stands on the fifth move, restarts: the next ask shakes the best.
    class Scripted:
        dimension = 4

        def __init__(self):
            self.calls = 0

        def cost(self, keys):
            self.calls += 1
            if self.calls == 1:
                return 1.0
            if self.calls <= 101:
                return 1.5
            return 0.5 if self.calls == 102 else 0.4

    params = SaParams(moves_per_temperature=5, cooling_rate=0.5, restart_floor=0.5)
    ev = Evaluator(Scripted(), RunBudget(decoder_calls=1000))
    rng = np.random.default_rng(1)
    gen = params.search(4, rng)
    walked, reply = [], None
    while (keys := gen.send(reply)) is not None:
        reply = ev.evaluate(keys) if keys.ndim == 1 else ev.evaluate_block(keys)
        if keys.ndim == 1:
            walked.append(reply)
    assert [s.cost for s in walked] == [1.0, 0.5, 0.4, 0.4, 0.4, 0.4]
    expected = shake(walked[2].keys, params.shake, copy.deepcopy(rng))
    assert not np.array_equal(expected, shake(walked[5].keys, params.shake, copy.deepcopy(rng)))
    assert np.array_equal(gen.send(None), expected)


def test_ils_equals_single_level_vns():
    # same fixed shake strength, same seed: the same decodes, byte for byte
    ils = IlsParams(shake=ShakeConfig(0.3, 0.3), rvnd_calls=50)
    vns = VnsParams(beta_levels=(0.3,), rvnd_calls=50)
    a, b = Recording(), Recording()
    drive(ils, calls=2000, seed=9, decoder=a)
    drive(vns, calls=2000, seed=9, decoder=b)
    assert len(a.charged) == 2000
    assert a.charged == b.charged


def test_vns_cycles_levels_without_improvement():
    # a constant decoder never improves, so the level index must cycle
    class Flat:
        dimension = 3

        def cost(self, keys):
            return 1.0

    params = VnsParams(beta_levels=(0.1, 0.2), rvnd_calls=5)
    assert drive(params, calls=500, dim=3, decoder=Flat()).best.cost == 1.0


def test_sa_flat_landscape_accepts_zero_delta():
    class Flat:
        dimension = 3

        def cost(self, keys):
            return 2.5

    assert drive(SaParams(), calls=400, dim=3, decoder=Flat()).best.cost == 2.5


def test_brkga_asks_own_their_buffers():
    # A generation is asked for as one block, but a charged solution
    # whose keys were a row view would keep the whole block alive as
    # long as the solution; each must own a read-only copy of its row,
    # whether the block is decoded in one call or row by row.
    class Summed:
        dimension = 6

        def cost(self, keys):
            return float(np.sum(keys))

    class SummedInOneCall(Summed):
        def cost_batch(self, block):
            return block.sum(axis=1).tolist()

    params = BrkgaParams(population_size=20)
    n_elite = int(20 * params.elite_fraction)
    calls = 20 + 2 * (20 - n_elite)  # the first population and two generations
    for decoder in (Summed(), SummedInOneCall()):
        ev = Evaluator(decoder, RunBudget(decoder_calls=calls))
        gen = params.search(6, np.random.default_rng(4))
        charged, reply = [], None
        while len(charged) < calls:
            block = gen.send(reply)
            reply = None if block is None else ev.evaluate_block(block, "brkga")
            charged += reply or []
        assert len(charged) == calls == ev.calls
        assert all(
            s.keys.base is None and s.keys.shape == (6,) and not s.keys.flags.writeable
            for s in charged
        )
