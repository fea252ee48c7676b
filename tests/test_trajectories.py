"""Pinned run signatures.

Each case is a short ``run_ensemble`` call under a call-only budget, so
it is a pure function of its inputs.  The pinned values are
``(best_cost, decoder_calls, time_to_best, searcher)`` and the SHA-256
of the best keys' bytes.  A change that moves any decode of these runs
(another candidate, another order, another draw from a searcher's
generator) moves at least one of them; a change to the searchers that
must keep every decode in place must keep them all.
"""

import hashlib

import numpy as np
import pytest

from randomkeys import (
    BrkgaParams,
    IlsParams,
    PortfolioDecoder,
    RunBudget,
    SaParams,
    TdTspDecoder,
    VnsParams,
    brute_force_tdtsp,
    generate_tdtsp_instance,
    run_ensemble,
)
from conftest import toy_portfolio

ENSEMBLE = [BrkgaParams(), SaParams(), IlsParams(), VnsParams()]


def tdtsp(seed, customers=12):
    return TdTspDecoder(generate_tdtsp_instance(customers, 3, seed))


def target_case():
    instance = generate_tdtsp_instance(6, 3, 7)
    optimum, _ = brute_force_tdtsp(instance)
    return TdTspDecoder(instance), ENSEMBLE, 50_000, 7, {"target_cost": optimum}


# name -> (decoder, searchers, call budget, seed, keyword arguments)
CASES = {
    "ensemble-1": lambda: (tdtsp(1), ENSEMBLE, 3000, 1, {}),
    "ensemble-2": lambda: (tdtsp(2), ENSEMBLE, 3000, 2, {}),
    "ensemble-3": lambda: (tdtsp(3), ENSEMBLE, 3000, 3, {}),
    "ensemble-5": lambda: (tdtsp(5), ENSEMBLE, 3000, 5, {}),
    "ils-4": lambda: (tdtsp(4), [IlsParams()], 2000, 4, {}),
    "population-quantum-37": lambda: (
        tdtsp(6), [BrkgaParams(), SaParams()], 2500, 6, {"quantum": 37}
    ),
    "target": target_case,
    "portfolio": lambda: (
        PortfolioDecoder(toy_portfolio(30, 5, seed=8)), ENSEMBLE, 3000, 8, {}
    ),
}


def signature(name):
    decoder, searchers, calls, seed, kwargs = CASES[name]()
    report = run_ensemble(decoder, searchers, RunBudget(decoder_calls=calls), seed, **kwargs)
    digest = hashlib.sha256(report.best_keys.tobytes()).hexdigest()
    return (report.best_cost, report.decoder_calls, report.time_to_best,
            report.searcher, digest)


PINNED = {
    "ensemble-1": (32.0, 3000, 1212.0, "ils",
                   "d295627882dc2c4ac307e38c2e7700b9e6d8b19032c57502c028545cb20632f1"),
    "ensemble-2": (34.0, 3000, 672.0, "ils",
                   "d2aa858fa58cd2fc9a0efdd24a74b67c28121b85c6f198abf7a0aebeeacc55a7"),
    "ensemble-3": (30.0, 3000, 2922.0, "ils",
                   "6de3f1803ddfc65b72a3f69429743534a6f2474845bb45e01b873d2899d881b7"),
    "ensemble-5": (34.0, 3000, 762.0, "ils",
                   "d04265d344d212e9afed6050c08266a119526e6fc9c8ee91fb7492663aba020a"),
    "ils-4": (36.0, 2000, 1287.0, "ils",
              "2f07749344b2d406afdd3ab49ba2967ab463234f2150d53a93bb824d6d2a0a63"),
    "population-quantum-37": (37.0, 2500, 1923.0, "brkga",
                              "98c0cef72e75c0560753d27f2c774b7f3b3f6cb6f0ca02728b548c0a23cb7195"),
    "target": (27.0, 309, 309.0, "ils",
               "b0aec191e5c216188a36fe9e59080c6cb9b4c0c4b4ebf65353897ddb7eec3c7b"),
    "portfolio": (-0.004537546432863562, 3000, 2897.0, "ils",
                  "259593cdb06d91890623e50132014869c861060d748d0f18b2dc816346a31f71"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_run_signature_is_pinned(name):
    assert signature(name) == PINNED[name]
