import numpy as np
import pytest

from randomkeys import PortfolioInstance, TdTspInstance

BENCH_SERVICE = np.array([0, 5, 5, 6, 4, 3, 4, 0], dtype=float)
BENCH_TRAVEL = np.array(
    [
        [
            [0, 5, 7, 4, 1, 3, 6, 0],
            [4, 0, 8, 1, 1, 4, 2, 4],
            [7, 8, 0, 5, 2, 6, 6, 7],
            [5, 2, 4, 0, 1, 3, 2, 5],
            [3, 1, 2, 1, 0, 7, 8, 3],
            [2, 3, 5, 3, 9, 0, 4, 2],
            [5, 2, 8, 2, 7, 2, 0, 5],
            [0, 5, 7, 4, 1, 3, 6, 0],
        ],
        [
            [0, 8, 10, 3, 1, 2, 4, 0],
            [7, 0, 8, 1, 3, 4, 4, 7],
            [9, 8, 0, 6, 2, 6, 8, 9],
            [5, 4, 4, 0, 1, 3, 6, 5],
            [2, 1, 2, 1, 0, 7, 8, 2],
            [3, 2, 5, 4, 11, 0, 4, 3],
            [5, 3, 8, 7, 7, 2, 0, 5],
            [0, 8, 10, 3, 1, 2, 4, 0],
        ],
    ],
    dtype=float,
)
# keys whose stable sort yields the route 5-4-2-3-1-6
BENCH_KEYS = np.array([0.71, 0.38, 0.52, 0.28, 0.05, 0.93])


@pytest.fixture(scope="session")
def bench_instance() -> TdTspInstance:
    """Six-customer two-interval routing instance with a known trace."""
    return TdTspInstance(
        n_customers=6,
        n_intervals=2,
        interval_length=30.0,
        service=BENCH_SERVICE.copy(),
        travel=BENCH_TRAVEL.copy(),
        seed=None,
    )


@pytest.fixture(scope="session")
def ten_asset_instance() -> PortfolioInstance:
    """Ten assets, K=3, bounds [0.01, 0.40]: the worked decoder example."""
    means = np.linspace(0.05, 0.14, 10)
    cov = np.diag(np.linspace(0.01, 0.03, 10))
    return PortfolioInstance(
        means=means,
        covariance=cov,
        cardinality=3,
        risk_aversion=0.5,
        lower=0.01,
        upper=0.40,
    )


def toy_portfolio(n: int, k: int, seed: int, lam: float = 0.5) -> PortfolioInstance:
    """Small random instance with a dense positive-semidefinite covariance."""
    rng = np.random.default_rng(seed)
    means = rng.uniform(0.001, 0.01, size=n)
    a = rng.normal(size=(n, n))
    cov = (a @ a.T) / n * 1e-3
    return PortfolioInstance(
        means=means, covariance=cov, cardinality=k, risk_aversion=lam,
        lower=0.0, upper=1.0,
    )


def answer(search, charge):
    """Run an ask/tell generator to its return value.

    Each key vector it asks for is answered with ``charge(keys)``
    (usually an ``Evaluator``'s bound ``charge``), a cost; its pauses
    are passed over.  A 2-D ask, a block of vectors, is answered row by
    row through ``charge``, as ``Evaluator.charge_block`` charges one,
    and the generator is told the list of costs.  When an ask is
    refused, by ``None`` for a vector or for any row of a block, the
    generator is not resumed and this returns ``None``.  A searcher
    never returns, so on one this runs until the evaluator's budget is
    spent.
    """
    reply = None
    try:
        while True:
            keys = search.send(reply)
            if keys is None:
                reply = None
            elif keys.ndim == 1:
                reply = charge(keys)
                if reply is None:
                    return None
            else:
                reply = []
                for row in keys:
                    cost = charge(row)
                    if cost is None:
                        return None
                    reply.append(cost)
    except StopIteration as stop:
        return stop.value
