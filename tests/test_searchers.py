import copy

import numpy as np
import pytest

from randomkeys import (
    BlendConfig,
    BrkgaParams,
    Evaluator,
    IlsParams,
    RunBudget,
    SaParams,
    ShakeConfig,
    VnsParams,
    blend,
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
    assert answer(search, ev.charge) is None
    return ev


def test_brkga_param_validation():
    with pytest.raises(ValueError):
        BrkgaParams(population_size=2)
    with pytest.raises(ValueError):
        BrkgaParams(elite_fraction=0.0)
    with pytest.raises(ValueError):
        BrkgaParams(elite_fraction=0.6, mutant_fraction=0.5)
    for size in (20.5, 20.0, float("nan"), True, "20"):
        with pytest.raises(ValueError, match="population_size"):
            BrkgaParams(population_size=size)
    assert BrkgaParams(population_size=np.int64(20)).population_size == 20


def test_sa_param_validation():
    with pytest.raises(ValueError):
        SaParams(initial_acceptance=1.0)
    with pytest.raises(ValueError):
        SaParams(cooling_rate=1.0)
    for moves in (0, 2.5, 2.0, float("nan"), True, "2"):
        with pytest.raises(ValueError, match="moves_per_temperature"):
            SaParams(moves_per_temperature=moves)
    assert SaParams(moves_per_temperature=np.int32(3)).moves_per_temperature == 3


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
        IlsParams(),
        VnsParams(),
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
    assert answer(gen, ev.charge) is None
    assert ev.calls == 137


def test_sa_yields_after_each_temperature_step():
    decoder = SphereDecoder()
    ev = Evaluator(decoder, RunBudget(decoder_calls=10_000))
    params = SaParams(moves_per_temperature=5)
    gen = params.search(4, np.random.default_rng(3))

    def to_next_pause():
        reply = None
        while (keys := gen.send(reply)) is not None:
            reply = ev.charge(keys) if keys.ndim == 1 else ev.charge_block(keys)

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
        reply = ev.charge(keys) if keys.ndim == 1 else ev.charge_block(keys)
        if keys.ndim == 1:
            walked.append((keys, reply))
    assert [cost for _, cost in walked] == [1.0, 0.5, 0.4, 0.4, 0.4, 0.4]
    expected = shake(walked[2][0], params.shake, copy.deepcopy(rng))
    assert not np.array_equal(expected, shake(walked[5][0], params.shake, copy.deepcopy(rng)))
    assert np.array_equal(gen.send(None), expected)


def test_ils_equals_single_level_vns():
    # same fixed shake strength, same seed: the same decodes, byte for byte
    ils = IlsParams(shake=ShakeConfig(0.3, 0.3))
    vns = VnsParams(beta_levels=(0.3,))
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

    params = VnsParams(beta_levels=(0.1, 0.2))
    assert drive(params, calls=500, dim=3, decoder=Flat()).best.cost == 1.0


def test_sa_flat_landscape_accepts_zero_delta():
    class Flat:
        dimension = 3

        def cost(self, keys):
            return 2.5

    assert drive(SaParams(), calls=400, dim=3, decoder=Flat()).best.cost == 2.5


def test_brkga_asks_own_their_buffers():
    # A generation is asked for as one block, but a best whose keys
    # were a row view would keep the whole block alive as long as the
    # best; each new best must own a read-only copy of its row.
    class Summed:
        dimension = 6

        def cost(self, keys):
            return float(np.sum(keys))

    params = BrkgaParams(population_size=20)
    n_elite = int(20 * params.elite_fraction)
    calls = 20 + 2 * (20 - n_elite)  # the first population and two generations
    ev = Evaluator(Summed(), RunBudget(decoder_calls=calls))
    gen = params.search(6, np.random.default_rng(4))
    charged, bests, reply = [], [], None
    while len(charged) < calls:
        block = gen.send(reply)
        if block is None:
            reply = None
            continue
        reply = []
        for row in block:
            reply.append(ev.charge(row, "brkga"))
            if ev.best not in bests:
                bests.append(ev.best)
        charged += reply
    assert len(charged) == calls == ev.calls
    assert len(bests) > 1
    assert all(
        s.keys.base is None and s.keys.shape == (6,) and not s.keys.flags.writeable
        for s in bests
    )


def reference_brkga(params, dimension, rng):
    """BRKGA with its population as a list of (keys, cost) pairs, ranked
    by ``list.sort`` on the cost: the order that the package's array and
    cost list must reproduce, tied costs included.  It yields each ask
    and, at each pause, the ranked pairs."""
    p = params.population_size
    n_elite = max(1, int(p * params.elite_fraction))
    n_mutant = min(int(p * params.mutant_fraction), p - n_elite - 1)
    n_children = p - n_elite - n_mutant
    crossover = BlendConfig(inherit_prob=params.inherit_bias)
    first = rng.random((p, dimension))
    population = list(zip(first, (yield first)))
    population.sort(key=lambda pair: pair[1])
    while True:
        yield population
        mutants = rng.random((n_mutant, dimension))
        parents = np.stack([keys for keys, _ in population])
        elites = rng.integers(n_elite, size=n_children)
        others = n_elite + rng.integers(p - n_elite, size=n_children)
        children = blend(parents[elites], parents[others], crossover, rng)
        offspring = np.concatenate((mutants, children))
        population = population[:n_elite] + list(zip(offspring, (yield offspring)))
        population.sort(key=lambda pair: pair[1])


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_brkga_ranks_tied_costs_as_a_stable_list_sort(seed):
    """Costs on a coarse grid tie often.  After every generation the
    package's population rows and costs must be in the order of a
    stable sort of (keys, cost) pairs, elites before offspring and
    offspring in row order among equal costs, and it must ask for the
    same blocks as the list reference."""

    class Coarse:
        dimension = 5

        def cost(self, keys):
            return float(np.floor(keys.sum()))

    decoder = Coarse()
    params = BrkgaParams(population_size=30)
    gen = params.search(5, np.random.default_rng(seed))
    ref = reference_brkga(params, 5, np.random.default_rng(seed))
    asked, expected = next(gen), next(ref)
    generations = ties = 0
    while generations < 12:
        assert asked.tobytes() == expected.tobytes()
        costs = [decoder.cost(row) for row in asked]
        assert gen.send(costs) is None
        ranked = ref.send(costs)
        state = gen.gi_frame.f_locals
        assert state["population"].tobytes() == np.stack([k for k, _ in ranked]).tobytes()
        assert state["costs"] == [c for _, c in ranked]
        ties += len(ranked) - len(set(state["costs"]))
        generations += 1
        asked, expected = next(gen), next(ref)
    assert ties > 20 * generations
