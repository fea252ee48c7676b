import numpy as np
import pytest

from randomkeys import (
    BrkgaParams,
    ElitePool,
    EvaluatedSolution,
    Evaluator,
    IlsParams,
    RunBudget,
    SaParams,
    ShakeConfig,
    VnsParams,
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


def drive(params, calls=4000, seed=1, dim=4, decoder=None):
    decoder = decoder or SphereDecoder()
    pool = ElitePool(capacity=10)
    ev = Evaluator(decoder, RunBudget(decoder_calls=calls))
    search = params.search(dim, pool, np.random.default_rng(seed))
    assert answer(search, ev.evaluate) is None
    return pool


def test_brkga_param_validation():
    with pytest.raises(ValueError):
        BrkgaParams(population_size=2)
    with pytest.raises(ValueError):
        BrkgaParams(elite_fraction=0.0)
    with pytest.raises(ValueError):
        BrkgaParams(elite_fraction=0.6, mutant_fraction=0.5)
    with pytest.raises(ValueError):
        BrkgaParams(exchange_interval=0)


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
    pool = drive(params)
    best = pool.best()
    assert best is not None
    assert best.cost < 0.05  # random vectors average around 0.33


def test_brkga_respects_exact_call_budget():
    decoder = SphereDecoder()
    ev = Evaluator(decoder, RunBudget(decoder_calls=137))
    pool = ElitePool(capacity=5)
    gen = BrkgaParams(population_size=20).search(4, pool, np.random.default_rng(2))
    assert answer(gen, ev.evaluate) is None
    assert ev.calls == 137


def test_sa_yields_after_each_temperature_step():
    decoder = SphereDecoder()
    ev = Evaluator(decoder, RunBudget(decoder_calls=10_000))
    pool = ElitePool(capacity=5)
    params = SaParams(moves_per_temperature=5)
    gen = params.search(4, pool, np.random.default_rng(3))

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


def test_ils_equals_single_level_vns():
    # same fixed shake strength, same seed: identical pool trajectories
    ils = IlsParams(shake=ShakeConfig(0.3, 0.3), rvnd_calls=50)
    vns = VnsParams(beta_levels=(0.3,), rvnd_calls=50)
    pool_a = drive(ils, calls=2000, seed=9)
    pool_b = drive(vns, calls=2000, seed=9)
    costs_a = [e.cost for e in pool_a.entries]
    costs_b = [e.cost for e in pool_b.entries]
    assert costs_a == pytest.approx(costs_b, abs=0.0)


def test_vns_cycles_levels_without_improvement():
    # a constant decoder never improves, so the level index must cycle
    class Flat:
        dimension = 3

        def cost(self, keys):
            return 1.0

    params = VnsParams(beta_levels=(0.1, 0.2), rvnd_calls=5)
    pool = drive(params, calls=500, dim=3, decoder=Flat())
    assert pool.best().cost == 1.0


def test_sa_flat_landscape_accepts_zero_delta():
    class Flat:
        dimension = 3

        def cost(self, keys):
            return 2.5

    pool = drive(SaParams(), calls=400, dim=3, decoder=Flat())
    assert pool.best().cost == 2.5


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
        gen = params.search(6, ElitePool(capacity=5), np.random.default_rng(4))
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
