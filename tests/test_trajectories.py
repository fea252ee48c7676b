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
CAPPED = [BrkgaParams(), SaParams(), IlsParams(rvnd_calls=50), VnsParams(rvnd_calls=50)]


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
    "ils-rvnd-5": lambda: (tdtsp(4), [IlsParams(rvnd_calls=5)], 2000, 4, {}),
    "ensemble-rvnd-50": lambda: (tdtsp(5), CAPPED, 3000, 5, {}),
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
    "ensemble-1": (30.0, 3000, 1517.0, "ils",
                   "de5d6ab4143b80022cc9683c13432c28e57d9ce6cb27f1fb9c5169e375bab31a"),
    "ensemble-2": (36.0, 3000, 1268.0, "ils",
                   "b946f809c0019c6988986e521840b3fc2090c248a5e632718a4dbdd05e24cde2"),
    "ensemble-3": (34.0, 3000, 1489.0, "ils",
                   "33b8258643478b99198e534a27fb76f9243862c91ed1f28b1844137b5ff282f7"),
    "ils-rvnd-5": (38.0, 2000, 1214.0, "ils",
                   "6b3d0c95333ba56dd6597fc00943229d179bebe61a2102dcaffe8f0d86c586a5"),
    "ensemble-rvnd-50": (33.0, 3000, 1625.0, "sa",
                         "23238ce9d6c9bca572803e74e10347d934e86cf033ef87a68210d44f4d664710"),
    "population-quantum-37": (39.0, 2500, 945.0, "brkga",
                              "a94e952354dc0d673845035881930176e23c6b36a28f94bc3256bf26be3024fc"),
    "target": (27.0, 838, 838.0, "brkga",
               "e7b1ef08a8ee8edb2fefe1052bfa355a84fedbfdd5842dc6152d7e6ea92deeb8"),
    "portfolio": (-0.004267196925321054, 3000, 2915.0, "ils",
                  "419d20b123cd34e63ca7e4201fd709e1ac8320ee31b66a3350edb5638bf9c96a"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_run_signature_is_pinned(name):
    assert signature(name) == PINNED[name]
