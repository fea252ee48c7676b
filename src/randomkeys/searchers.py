"""The four metaheuristics that search the key hypercube.

Each searcher is an ask/tell generator that knows nothing of the
problem: ``solution = yield keys`` asks for one decode and receives the
evaluated solution, ``solutions = yield block`` asks for the rows of a
``(rows, d)`` block of independent vectors and receives the list of
their solutions in row order, and ``yield None`` after every outer
iteration marks a point where the driver may switch to another
searcher.  Local search runs inside with ``yield from``.  The searchers
never decode, charge the budget or stop the run; the ensemble's driver
and its evaluator do, and a run that ends within a block never resumes
the searcher that asked for it.  A searcher never returns.  Each one
keeps its own incumbents; the searchers share nothing but the budget.

BRKGA asks for its first population and for each generation as one
block, and SA for its 100 calibration neighbours; a decoder with
``cost_batch`` can then decode each block in one call.  Every vector of
a block is drawn before the ask, in the order in which one ask per
vector would draw them, so the draw stream is that of row-by-row asks.

The searchers call the key operators by this module's names ``shake``
and ``blend``, so a wrapper installed here sees every call.  Each
operator draws its randomness in a few block draws, and BRKGA breeds a
whole generation with one ``blend`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Generator, Optional, Union

import numpy as np

from .budget import EvaluatedSolution
from .keys import BlendConfig, ShakeConfig, blend, new_random_vector, shake
from .localsearch import Moves, rvnd

__all__ = ["BrkgaParams", "SaParams", "IlsParams", "VnsParams", "SearcherParams"]

# Asks for key vectors or blocks of them (``None`` to pause), is told
# their evaluated solutions, one or a list, and runs until the driver
# stops resuming it; it never returns.
Search = Generator[
    Optional[np.ndarray], Union[EvaluatedSolution, list[EvaluatedSolution], None], None
]


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
    as one block.
    """

    population_size: int = 100
    elite_fraction: float = 0.20
    mutant_fraction: float = 0.15
    inherit_bias: float = 0.70
    label: str = "brkga"

    def __post_init__(self) -> None:
        if self.population_size < 3:
            raise ValueError(f"population_size must be >= 3, got {self.population_size}")
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

        population = yield rng.random((p, dimension))
        population.sort(key=lambda s: s.cost)
        while True:
            yield None
            mutants = rng.random((n_mutant, dimension))
            parents = np.stack([s.keys for s in population])
            elites = rng.integers(n_elite, size=n_children)
            others = n_elite + rng.integers(p - n_elite, size=n_children)
            children = blend(parents[elites], parents[others], crossover, rng)
            offspring = yield np.concatenate((mutants, children))
            population = population[:n_elite] + offspring
            population.sort(key=lambda s: s.cost)


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
    label: str = "sa"

    def __post_init__(self) -> None:
        if not 0.0 < self.initial_acceptance < 1.0:
            raise ValueError(
                f"initial_acceptance outside (0, 1): {self.initial_acceptance}"
            )
        if not 0.0 < self.cooling_rate < 1.0:
            raise ValueError(f"cooling_rate outside (0, 1): {self.cooling_rate}")
        if self.moves_per_temperature is not None and self.moves_per_temperature < 1:
            raise ValueError("moves_per_temperature must be >= 1 when given")

    def search(self, dimension: int, rng: np.random.Generator) -> Search:
        moves = self.moves_per_temperature or dimension
        current = yield new_random_vector(dimension, rng)
        best = current

        neighbours = np.stack([shake(current.keys, self.shake, rng) for _ in range(100)])
        deltas = [neighbour.cost - current.cost for neighbour in (yield neighbours)]
        worsening = [d for d in deltas if d > 0]
        t_start = (
            -float(np.mean(worsening)) / math.log(self.initial_acceptance)
            if worsening
            else 1.0
        )
        temperature = t_start
        while True:
            for _ in range(moves):
                candidate = yield shake(current.keys, self.shake, rng)
                delta = candidate.cost - current.cost
                if delta < 0:
                    accept = True
                else:
                    ratio = delta / temperature
                    accept = rng.random() < (math.exp(-ratio) if ratio < 700 else 0.0)
                if accept:
                    current = candidate
                if current.cost < best.cost:
                    best = current
            temperature *= self.cooling_rate
            if temperature < self.restart_floor:
                current = best
                temperature = t_start
            yield None


def _shake_then_descend(
    current: EvaluatedSolution,
    config: ShakeConfig,
    rng: np.random.Generator,
    rvnd_calls: Optional[int],
) -> Moves:
    candidate = yield shake(current.keys, config, rng)
    return (yield from rvnd(candidate, rng, rvnd_calls))


@dataclass(frozen=True)
class IlsParams:
    """Iterated local search: shake the incumbent, descend, keep if better."""

    shake: ShakeConfig = field(default_factory=ShakeConfig)
    rvnd_calls: Optional[int] = None
    label: str = "ils"

    def search(self, dimension: int, rng: np.random.Generator) -> Search:
        current = yield new_random_vector(dimension, rng)
        while True:
            candidate = yield from _shake_then_descend(
                current, self.shake, rng, self.rvnd_calls
            )
            if candidate.cost < current.cost:
                current = candidate
            yield None


@dataclass(frozen=True)
class VnsParams:
    """Variable neighbourhood search over a ladder of shake strengths.

    Improvement resets to the first level; failure advances cyclically.
    With a single level this is exactly :class:`IlsParams` at that
    fixed strength (both go through the same shake-then-descend path).
    """

    beta_levels: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)
    rvnd_calls: Optional[int] = None
    label: str = "vns"

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
        current = yield new_random_vector(dimension, rng)
        level = 0
        while True:
            candidate = yield from _shake_then_descend(
                current, configs[level], rng, self.rvnd_calls
            )
            if candidate.cost < current.cost:
                current = candidate
                level = 0
            else:
                level = (level + 1) % len(configs)
            yield None


SearcherParams = BrkgaParams | SaParams | IlsParams | VnsParams
