"""Time the decoder, shake, charging, Nelder-Mead and oracle layers of the ensemble workloads.

Usage, from the root of a checkout:

    python3 tools/layer_cost.py

Prints one JSON object:

- ``portfolio.cost.us``: CPU microseconds per ``PortfolioDecoder.cost``
  call on a fixed set of key vectors, on the benchmark's 225-asset,
  K = 10 toy portfolio;
- ``keys.shake.us_d50`` and ``keys.shake.us_d6``: CPU microseconds per
  ``shake`` call with the default ``ShakeConfig``, on one fixed key
  vector of the benchmark's TD-TSP dimensions (50 and 6 customers) and
  a generator of fixed seed, with no decoder;
- ``budget.charge.us_d50``: CPU microseconds per ``Evaluator.charge``
  call on one fixed 50-key vector, with a null decoder whose cost is
  always 0.0, so that only the first call makes a new best;
- ``budget.charge_block.us_row_d50``: the same per row of
  ``Evaluator.charge_block`` on a fixed ``(100, 50)`` block;
- ``nelder_mead.ask_us_d20`` and ``nelder_mead.ask_us_d50``: CPU
  microseconds per decode that ``nelder_mead_moves`` asks for,
  descending on a quadratic from fixed starts at d = 20 and 50, the
  quadratic's own cost included;
- ``nelder_mead.ask_us_tdtsp50``: the same on the benchmark's
  50-customer TD-TSP decoder, the decoder's cost included; shrinks
  make about four fifths of these descents' decodes;
- ``nelder_mead.decodes_d20``, ``nelder_mead.decodes_d50`` and
  ``nelder_mead.decodes_tdtsp50``: the decodes those descents asked
  for, the same on every host;
- ``tdtsp.cost.us_n50``: CPU microseconds per ``TdTspDecoder.cost``
  call on a fixed set of key vectors, each of a new visiting order, on
  the benchmark's 50-customer, 5-interval TD-TSP instance, whose
  integer times take the exact route loop;
- ``tdtsp.cost.us_n50_tenths``: the same on that instance with 0.1
  added to every travel time, which takes the float route loop;
- ``tdtsp.cost.us_n6``: the same on a 6-customer, 3-interval instance
  of the benchmark's TTT set-up, where a route is short and the fixed
  cost of each call weighs most; of its 720 orders a random key vector
  repeats the one before it about once in 720 calls, which then costs
  one comparison;
- ``tdtsp.decode.us_n50``: CPU microseconds per ``decode_tdtsp`` call,
  which assembles the whole solution, on the key vectors and the
  instance of ``tdtsp.cost.us_n50``;
- ``tdtsp.oracle.ms_n6`` and ``tdtsp.oracle.ms_n8``: CPU milliseconds
  per ``brute_force_tdtsp`` call on generated instances of 6 customers
  and 3 slots, as in the benchmark's TTT set-up, and of 8 customers
  and 5 slots; each call gets an instance generated afresh, outside the
  timing, so no per-instance cache carries over between calls, while
  what a process builds once is built in the untimed warm-up pass; so
  each call also builds the instance's route tables, which a decoder
  of the same instance then reuses;
- ``host_factor``: the median host-speed correction applied.

A descent is told costs as the ensemble tells them: a float for a
vector, and for a block ask, which Nelder-Mead makes for its initial
simplex and for each shrink, a list with one cost per row, each row
counted as one decode.
Each figure is the median over repeats of one timed pass, corrected for
the speed of a shared host by ``bench/hostspeed.py``.  Copy the script
into another checkout to time that tree the same way.

The script only imports ``bench/hostspeed.py`` and ``bench/workloads.py``;
it changes nothing under ``bench/``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# As in the benchmark: one BLAS thread, set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# The package and the bench helpers come from this checkout and nowhere else.
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

from hostspeed import HostClock  # noqa: E402
from randomkeys import (  # noqa: E402
    Evaluator,
    PortfolioDecoder,
    RunBudget,
    ShakeConfig,
    TdTspDecoder,
    TdTspInstance,
    brute_force_tdtsp,
    decode_tdtsp,
    generate_tdtsp_instance,
    shake,
)
from randomkeys.localsearch import nelder_mead_moves  # noqa: E402
from workloads import toy_portfolio  # noqa: E402


class _NullDecoder:
    """A decoder of the given dimension whose every cost is 0.0."""

    def __init__(self, dimension: int) -> None:
        self.dimension = dimension

    def cost(self, keys: np.ndarray) -> float:
        return 0.0


def _median_us(clock: HostClock, work, count: int, repeats: int) -> float:
    """Median corrected microseconds per unit of ``work()``, which does
    ``count`` units; one untimed warm-up pass first."""
    work()
    samples = [clock.time(work)[1] / count for _ in range(repeats)]
    return statistics.median(samples) * 1e6


def _descend(start: tuple, cost, rng: np.random.Generator) -> int:
    """Run one Nelder-Mead descent from the ``(keys, cost)`` pair
    ``start``, answering a block row by row; return its decodes."""
    moves = nelder_mead_moves(*start, rng)
    decodes = 0
    try:
        keys = next(moves)
        while True:
            if keys.ndim == 1:
                decodes += 1
                keys = moves.send(cost(keys))
            else:
                decodes += len(keys)
                keys = moves.send([cost(row) for row in keys])
    except StopIteration:
        return decodes


def _descents_us(clock, rows, name, cost, starts, rng, repeats) -> None:
    """Time Nelder-Mead descents from ``starts`` into ``rows``: the
    corrected microseconds per decode and the decodes of one pass."""
    decodes = sum(_descend(s, cost, rng) for s in starts)
    rows[f"nelder_mead.ask_us_{name}"] = _median_us(
        clock, lambda: [_descend(s, cost, rng) for s in starts], decodes, repeats
    )
    rows[f"nelder_mead.decodes_{name}"] = decodes


def _oracle_ms(clock: HostClock, n: int, slots: int, count: int, repeats: int) -> float:
    """Median corrected milliseconds per ``brute_force_tdtsp`` call over
    ``count`` fresh instances of seeds 1..count; one untimed warm-up
    pass first."""

    def fresh() -> list:
        return [generate_tdtsp_instance(n, slots, seed) for seed in range(1, count + 1)]

    def solve(instances: list) -> None:
        for instance in instances:
            brute_force_tdtsp(instance)

    solve(fresh())
    samples = []
    for _ in range(repeats):
        instances = fresh()
        samples.append(clock.time(lambda: solve(instances))[1] / count)
    return statistics.median(samples) * 1e3


def layer_costs(calls: int = 2000, descents: int = 4, repeats: int = 7) -> dict:
    """The figures the module docstring lists: ``calls`` portfolio
    decodes, ``calls`` shakes per shake row, ``calls`` charges and
    ``calls // 100`` blocks (at least one) per charging row, ``calls``
    route decodes per TD-TSP cost or decode row, ``descents`` descents per
    Nelder-Mead row, and ``calls // 100`` oracle calls at 6 customers
    and ``calls // 1000`` at 8 (at least one each), per repeat."""
    clock = HostClock()
    rng = np.random.default_rng(1)
    rows: dict[str, float] = {}

    decoder = PortfolioDecoder(toy_portfolio(225, 10, 1))
    keys = list(rng.random((calls, decoder.dimension)))
    rows["portfolio.cost.us"] = _median_us(
        clock, lambda: [decoder.cost(k) for k in keys], calls, repeats
    )

    config = ShakeConfig()
    for d in (50, 6):
        start = np.random.default_rng(d).random(d)

        def shakes() -> None:
            moves = np.random.default_rng(7)
            for _ in range(calls):
                shake(start, config, moves)

        rows[f"keys.shake.us_d{d}"] = _median_us(clock, shakes, calls, repeats)

    charging = Evaluator(_NullDecoder(50), RunBudget(decoder_calls=2**62))
    vector = np.random.default_rng(50).random(50)
    rows["budget.charge.us_d50"] = _median_us(
        clock, lambda: [charging.charge(vector) for _ in range(calls)], calls, repeats
    )
    block = np.random.default_rng(100).random((100, 50))
    blocks = max(1, calls // 100)
    rows["budget.charge_block.us_row_d50"] = _median_us(
        clock, lambda: [charging.charge_block(block) for _ in range(blocks)],
        100 * blocks, repeats,
    )

    for d in (20, 50):
        target = rng.random(d)

        def cost(vector: np.ndarray) -> float:
            diff = vector - target
            return float(diff @ diff)

        starts = [(x, cost(x)) for x in rng.random((descents, d))]
        _descents_us(clock, rows, f"d{d}", cost, starts, rng, repeats)

    # The benchmark's TD-TSP instances: 50 customers, 5 time intervals.
    instance = generate_tdtsp_instance(50, 5, 1)
    tenths = TdTspInstance(
        n_customers=50, n_intervals=5, interval_length=instance.interval_length,
        service=instance.service, travel=instance.travel + 0.1,
    )
    # The TTT workload's instances: 6 customers, 3 time intervals.
    small = generate_tdtsp_instance(6, 3, 1)
    wide = list(np.random.default_rng(50).random((calls, 50)))
    short = list(np.random.default_rng(6).random((calls, 6)))
    for name, data, keys in (
        ("us_n50", instance, wide), ("us_n50_tenths", tenths, wide), ("us_n6", small, short)
    ):
        decoder = TdTspDecoder(data)
        rows[f"tdtsp.cost.{name}"] = _median_us(
            clock, lambda: [decoder.cost(k) for k in keys], calls, repeats
        )

    rows["tdtsp.decode.us_n50"] = _median_us(
        clock, lambda: [decode_tdtsp(instance, k) for k in wide], calls, repeats
    )

    route = TdTspDecoder(instance)
    starts = [(x, route.cost(x)) for x in rng.random((descents, 50))]
    _descents_us(clock, rows, "tdtsp50", route.cost, starts, rng, repeats)

    rows["tdtsp.oracle.ms_n6"] = _oracle_ms(clock, 6, 3, max(1, calls // 100), repeats)
    rows["tdtsp.oracle.ms_n8"] = _oracle_ms(clock, 8, 5, max(1, calls // 1000), repeats)

    rows["host_factor"] = clock.median_factor()
    return rows


def main() -> int:
    print(json.dumps(layer_costs(), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
