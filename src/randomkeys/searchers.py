"""The four metaheuristics that search the key hypercube.

Each searcher is an ask/tell generator that knows nothing of the
problem: ``cost = yield keys`` asks for one decode and receives its
cost as a float, ``costs = yield block`` asks for the rows of a
``(rows, d)`` block of independent vectors and receives the list of
their costs in row order, and ``yield None`` after every outer
iteration marks a point where the driver may switch to another
searcher.  Local search runs inside with ``yield from``.  The searchers
never decode, charge the budget or stop the run; the ensemble's driver
and its evaluator do, and a run that ends within a block never resumes
the searcher that asked for it.  A searcher never returns.  Each one
keeps its own incumbents as (keys, cost) pairs, BRKGA its population
as one array and a cost list; they share nothing but the budget.

BRKGA asks for its first population and for each generation as one
block, SA for its 100 calibration neighbours, and Nelder-Mead, inside
ILS's and VNS's descents, for its initial simplex and for each shrink.
The evaluator charges a block as it would its rows asked for one by
one, so a block ask saves a round trip per row and no more.  Every vector
of a block is drawn before the ask, in the order in which one ask per
vector would draw them, so the draw stream is that of row-by-row asks;
Nelder-Mead's blocks draw nothing.

ILS and VNS run one loop, a ladder of shake strengths of which ILS has
a single rung: shake, descend with ``yield from rvnd``, keep if better.

Each kind's ``label``, which names its decodes in a run's report, is
fixed: a class constant ("brkga", "sa", "ils", "vns"), not a field.

The searchers call the key operators and the descent by this module's
names ``shake``, ``blend`` and ``rvnd``, so a wrapper installed here
sees every call.  Each operator draws its randomness in a few block
draws, and BRKGA breeds a whole generation with one ``blend`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Generator, Optional, Union

import numpy as np

from .budget import is_count
from .keys import BlendConfig, ShakeConfig, blend, shake
from .localsearch import rvnd

__all__ = ["BrkgaParams", "SaParams", "IlsParams", "VnsParams", "SearcherParams"]

# Asks for key vectors or blocks of them (``None`` to pause), is told
# their costs, one float or a list, and runs until the driver stops
# resuming it; it never returns.
Search = Generator[Optional[np.ndarray], Union[float, list[float], None], None]


@dataclass(frozen=True)
class BrkgaParams:
    """Biased random-key genetic algorithm.

    Each generation carries the elite fraction unchanged, fills the
    mutant fraction with fresh random vectors, and breeds the rest by
    blending one elite with one non-elite parent, inheriting elite keys
    with probability ``inherit_bias``.

    The first population is asked for as one ``(population_size, d)``
    uniform block.  A generation is drawn as blocks before its ask: the
    mutants as one ``(mutants, d)`` uniform block, whose rows are the
    vectors that one draw per mutant would give, the parents as one
    index draw per side, and the children as one ``blend`` of the
    stacked parents.  The mutants and then the children are asked for
    as one block.  The population is one array ranked by a stable sort
    of its costs: among ties, elites first, then the block in row order.
    """

    population_size: int = 100
    elite_fraction: float = 0.20
    mutant_fraction: float = 0.15
    inherit_bias: float = 0.70
    label: ClassVar[str] = "brkga"

    def __post_init__(self) -> None:
        if not is_count(self.population_size) or self.population_size < 3:
            raise ValueError(
                f"population_size must be an integer >= 3, got {self.population_size!r}"
            )
        if not 0.0 < self.elite_fraction < 1.0:
            raise ValueError(f"elite_fraction outside (0, 1): {self.elite_fraction}")
        if not 0.0 <= self.mutant_fraction < 1.0:
            raise ValueError(f"mutant_fraction outside [0, 1): {self.mutant_fraction}")
        if self.elite_fraction + self.mutant_fraction >= 1.0:
            raise ValueError("elite_fraction + mutant_fraction must stay below 1")
        if not 0.0 <= self.inherit_bias <= 1.0:
            raise ValueError(f"inherit_bias outside [0, 1]: {self.inherit_bias}")

    def search(self, dimension: int, rng: np.random.Generator) -> Search:
        p = self.population_size
        n_elite = max(1, int(p * self.elite_fraction))
        n_mutant = min(int(p * self.mutant_fraction), p - n_elite - 1)
        n_children = p - n_elite - n_mutant
        crossover = BlendConfig(inherit_prob=self.inherit_bias)

        population = rng.random((p, dimension))
        costs = yield population
        while True:
            order = sorted(range(p), key=costs.__getitem__)
            population, costs = population[order], [costs[k] for k in order]
            yield None
            mutants = rng.random((n_mutant, dimension))
            elites = rng.integers(n_elite, size=n_children)
            others = n_elite + rng.integers(p - n_elite, size=n_children)
            children = blend(population[elites], population[others], crossover, rng)
            offspring = np.concatenate((mutants, children))
            costs = costs[:n_elite] + (yield offspring)
            population = np.concatenate((population[:n_elite], offspring))


@dataclass(frozen=True)
class SaParams:
    """Simulated annealing over shake moves with Metropolis acceptance.

    The initial temperature is calibrated so the mean worsening delta
    of 100 sampled neighbours is accepted with ``initial_acceptance``;
    the neighbours are drawn first and asked for as one block.
    When the temperature decays below ``restart_floor`` the walk
    continues from its own best so far at the calibrated temperature.
    ``moves_per_temperature`` defaults to the decoder dimension.
    """

    initial_acceptance: float = 0.5
    cooling_rate: float = 0.99
    moves_per_temperature: Optional[int] = None
    shake: ShakeConfig = field(default_factory=ShakeConfig)
    restart_floor: float = 1e-6
    label: ClassVar[str] = "sa"

    def __post_init__(self) -> None:
        if not 0.0 < self.initial_acceptance < 1.0:
            raise ValueError(
                f"initial_acceptance outside (0, 1): {self.initial_acceptance}"
            )
        if not 0.0 < self.cooling_rate < 1.0:
            raise ValueError(f"cooling_rate outside (0, 1): {self.cooling_rate}")
        moves = self.moves_per_temperature
        if moves is not None and not is_count(moves):
            raise ValueError(f"moves_per_temperature must be a positive integer, got {moves!r}")

    def search(self, dimension: int, rng: np.random.Generator) -> Search:
        moves = self.moves_per_temperature or dimension
        current = rng.random(dimension)
        cost = yield current
        best, best_cost = current, cost

        neighbours = np.stack([shake(current, self.shake, rng) for _ in range(100)])
        deltas = [neighbour_cost - cost for neighbour_cost in (yield neighbours)]
        worsening = [d for d in deltas if d > 0]
        t_start = (
            -float(np.mean(worsening)) / math.log(self.initial_acceptance)
            if worsening
            else 1.0
        )
        temperature = t_start
        while True:
            for _ in range(moves):
                candidate = shake(current, self.shake, rng)
                candidate_cost = yield candidate
                delta = candidate_cost - cost
                if delta < 0:
                    accept = True
                else:
                    ratio = delta / temperature
                    accept = rng.random() < (math.exp(-ratio) if ratio < 700 else 0.0)
                if accept:
                    current, cost = candidate, candidate_cost
                if cost < best_cost:
                    best, best_cost = current, cost
            temperature *= self.cooling_rate
            if temperature < self.restart_floor:
                current, cost = best, best_cost
                temperature = t_start
            yield None


def _shaken_descents(
    configs: list[ShakeConfig], dimension: int, rng: np.random.Generator
) -> Search:
    """Shake the incumbent at ``configs[level]``, descend with RVND, and
    keep the result if it is better.  An improvement resets the level
    to 0; a failure advances it cyclically."""
    current = rng.random(dimension)
    cost = yield current
    level = 0
    while True:
        candidate = shake(current, configs[level], rng)
        candidate_cost = yield candidate
        candidate, candidate_cost = yield from rvnd(candidate, candidate_cost, rng)
        if candidate_cost < cost:
            current, cost = candidate, candidate_cost
            level = 0
        else:
            level = (level + 1) % len(configs)
        yield None


@dataclass(frozen=True)
class IlsParams:
    """Iterated local search: shake the incumbent, descend, keep if better.

    It is :class:`VnsParams`' loop with the single level ``shake``.
    """

    shake: ShakeConfig = field(default_factory=ShakeConfig)
    label: ClassVar[str] = "ils"

    def search(self, dimension: int, rng: np.random.Generator) -> Search:
        return _shaken_descents([self.shake], dimension, rng)


@dataclass(frozen=True)
class VnsParams:
    """Variable neighbourhood search over a ladder of shake strengths.

    Improvement resets to the first level; failure advances cyclically.
    With a single level this is exactly :class:`IlsParams` at that
    fixed strength: both run the same loop.
    """

    beta_levels: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)
    label: ClassVar[str] = "vns"

    def __post_init__(self) -> None:
        if not self.beta_levels:
            raise ValueError("beta_levels must not be empty")
        if any(not 0.0 < b <= 1.0 for b in self.beta_levels):
            raise ValueError(f"beta levels outside (0, 1]: {self.beta_levels}")
        if any(
            b2 <= b1 for b1, b2 in zip(self.beta_levels, self.beta_levels[1:])
        ):
            raise ValueError(f"beta levels must increase: {self.beta_levels}")

    def search(self, dimension: int, rng: np.random.Generator) -> Search:
        configs = [ShakeConfig(b, b) for b in self.beta_levels]
        return _shaken_descents(configs, dimension, rng)


SearcherParams = BrkgaParams | SaParams | IlsParams | VnsParams
