"""Cardinality-constrained mean-variance portfolio decoder.

An instance asks for exactly K of n assets carrying weights that sum
to one within per-asset bounds, minimizing

    lambda * w' Sigma w - (1 - lambda) * mu' w.

Keys come in two blocks of K: the first block picks assets one at a
time from the shrinking set of those still available, the second block
places each picked asset's raw weight inside its bounds.  Raw weights
are then normalized onto the budget; bound violations that the
normalization may introduce are charged as penalties.

One kernel serves both :func:`decode_portfolio` and
:meth:`PortfolioDecoder.cost`, so the cost a searcher is charged is the
cost a re-decode reports, by construction.  ``cost`` returns the float
and builds no :class:`PortfolioSolution`.  On an instance whose bounds
are all [0, 1] the kernel skips the affine bound map, and with
non-negative weight keys of a finite sum it also skips the penalty
expression: it is exactly ``+0.0`` there (see :func:`decode_portfolio`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import OracleGuardError

__all__ = [
    "BOUND_PENALTY_WEIGHT",
    "INFEASIBILITY_OFFSET",
    "PortfolioInstance",
    "PortfolioSolution",
    "PortfolioFeasibility",
    "decode_portfolio",
    "check_portfolio",
    "PortfolioDecoder",
    "brute_force_portfolio",
]

BOUND_PENALTY_WEIGHT = 1e4
INFEASIBILITY_OFFSET = 1e3


@dataclass(frozen=True)
class PortfolioInstance:
    """Instance data; scalar bounds broadcast to all assets.

    Requires a symmetric covariance, 0 <= lower <= upper <= 1, and
    K * min(lower) <= 1 <= K * max(upper) so that some K-subset can
    carry a unit budget at all.  The instance keeps its own read-only
    copies of the arrays, so that the fields derived from them below
    cannot go stale.
    """

    means: np.ndarray
    covariance: np.ndarray
    cardinality: int
    risk_aversion: float
    lower: np.ndarray = 0.0  # type: ignore[assignment]
    upper: np.ndarray = 1.0  # type: ignore[assignment]
    # Derived from the fields above for the decoder kernel: the asset
    # order its selection list starts from, and whether every asset's
    # bounds are [0, 1], which makes the penalty of finite non-negative
    # weight keys exactly zero.
    _assets: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _unit_bounds: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mu = np.array(self.means, dtype=float)
        sigma = np.array(self.covariance, dtype=float)
        n = mu.shape[0]
        if mu.ndim != 1 or n < 1:
            raise ValueError("means must be a non-empty vector")
        if sigma.shape != (n, n):
            raise ValueError(f"covariance must be {n}x{n}, got {sigma.shape}")
        if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
            raise ValueError("means and covariance must be finite")
        if np.max(np.abs(sigma - sigma.T)) > 1e-12:
            raise ValueError("covariance is not symmetric")
        lower = np.broadcast_to(np.asarray(self.lower, dtype=float), (n,)).copy()
        upper = np.broadcast_to(np.asarray(self.upper, dtype=float), (n,)).copy()
        # Written so that a NaN bound fails it too.
        if not (np.all(0 <= lower) and np.all(lower <= upper) and np.all(upper <= 1)):
            raise ValueError("need 0 <= lower <= upper <= 1 per asset")
        if not 1 <= self.cardinality <= n:
            raise ValueError(f"cardinality outside [1, {n}]: {self.cardinality}")
        if not 0.0 <= self.risk_aversion <= 1.0:
            raise ValueError(f"risk_aversion outside [0, 1]: {self.risk_aversion}")
        k = self.cardinality
        if k * float(lower.min()) > 1.0 or k * float(upper.max()) < 1.0:
            raise ValueError("no K-subset can meet the unit budget within bounds")
        for array in (mu, sigma, lower, upper):
            array.setflags(write=False)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covariance", sigma)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "_assets", tuple(range(n)))
        object.__setattr__(
            self, "_unit_bounds", bool(np.all(lower == 0.0) and np.all(upper == 1.0))
        )

    @property
    def n_assets(self) -> int:
        return self.means.shape[0]


@dataclass(frozen=True)
class PortfolioSolution:
    """Decoded portfolio.

    ``assets`` are zero-based indices in selection order; ``weights``
    aligns with them and sums to one.  ``objective`` is the clean
    risk/return trade-off; ``cost`` adds the bound penalties.
    """

    assets: tuple[int, ...]
    weights: np.ndarray
    risk: float
    mean_return: float
    objective: float
    penalty: float
    cost: float


def decode_portfolio(instance: PortfolioInstance, keys: np.ndarray) -> PortfolioSolution:
    """Map 2K keys to a K-asset portfolio.

    Selection step i (1-based) picks position max(1, ceil(key * m))
    from the m = n + 1 - i assets still available; weight key i places
    the raw weight at lower + (upper - lower) * key of the picked
    asset.  Raw weights are normalized to sum one (an all-zero raw
    vector falls back to equal weights); bound violations after
    normalization are penalized.

    :meth:`PortfolioDecoder.cost` runs the same kernel and returns its
    cost alone.  When every asset's bounds are [0, 1] the kernel skips
    the affine map and the bound gathers: each raw weight is its key
    plus ``0.0``, which is ``0 + (1 - 0) * key`` bit for bit.  It then
    also skips the penalty expression when every weight key is
    non-negative with a finite sum, because it is exactly ``+0.0``
    then: a rounded sum of non-negative numbers is at least each of
    them, so each normalized weight (or the equal-split 1/K) lies in
    [0, 1] and each penalty term is ``max(0, x)`` of some ``x <= 0``.
    A negative weight key, or a sum that is not finite, takes the full
    penalty path.
    """
    k = instance.cardinality
    if keys.shape != (2 * k,):
        raise ValueError(f"expected {2 * k} keys, got shape {keys.shape}")
    assets, weights, risk, mean_return, objective, penalty, cost = _decode(
        instance, keys
    )
    return PortfolioSolution(
        assets=tuple(assets),
        weights=weights,
        risk=risk,
        mean_return=mean_return,
        objective=objective,
        penalty=penalty,
        cost=cost,
    )


def _decode(
    instance: PortfolioInstance, keys: np.ndarray
) -> tuple[list[int], np.ndarray, float, float, float, float, float]:
    """The decoder kernel: assets, weights, risk, mean return,
    objective, penalty and cost, computed as :func:`decode_portfolio`
    describes.

    The keys are read into a list once, for the selection loop and the
    non-negative test.  On unit bounds the penalty path uses the scalar
    bounds 0 and 1, so the kernel gathers no bounds at all there.  The
    risk and return stay a covariance ``take`` pair, two matrix products
    and a dot with the picked means: their bits depend on BLAS, so any
    other formula could change a cost."""
    k = instance.cardinality
    if keys.shape[0] != 2 * k:
        raise ValueError(f"expected {2 * k} keys, got {keys.shape[0]}")
    key_list = keys.tolist()
    remaining = list(instance._assets)
    m = len(remaining)
    chosen: list[int] = []
    for key in key_list[:k]:
        position = math.ceil(key * m)
        if not 0 < position <= m:
            position = 1 if position < 1 else m
        chosen.append(remaining.pop(position - 1))
        m -= 1

    idx = np.array(chosen, dtype=np.intp)
    weight_keys = keys[k:]
    unit = instance._unit_bounds
    if unit:
        # Equals 0 + (1 - 0) * key bit for bit, -0.0 turned to +0.0
        # included; the scalar bounds give the penalty below the same
        # bits as arrays of zeros and ones.
        lo, hi = 0.0, 1.0
        raw = weight_keys + 0.0
    else:
        lo = instance.lower[idx]
        hi = instance.upper[idx]
        raw = lo + (hi - lo) * weight_keys
    total = float(np.add.reduce(raw))
    weights = raw / total if total > 0.0 else np.full(k, 1.0 / k)

    # A NaN key makes the total NaN and fails ``total < inf``, so the
    # builtin min, which can step over a NaN, only sees NaN-free keys.
    if unit and total < math.inf and min(key_list[k:]) >= 0.0:
        penalty = 0.0
    else:
        penalty = float(
            (np.maximum(0.0, weights - hi) + np.maximum(0.0, lo - weights)).sum()
        )
    # take() gathers the same values as cov[idx[:, None], idx], faster.
    sub_cov = instance.covariance.take(idx, 0).take(idx, 1)
    risk = float(weights @ sub_cov @ weights)
    mean_return = float(instance.means[idx] @ weights)
    lam = instance.risk_aversion
    objective = lam * risk - (1.0 - lam) * mean_return
    cost = objective + BOUND_PENALTY_WEIGHT * penalty
    if penalty > 0.0:
        cost += INFEASIBILITY_OFFSET
    return chosen, weights, risk, mean_return, objective, penalty, cost


@dataclass(frozen=True)
class PortfolioFeasibility:
    feasible: bool
    families: dict[str, bool] = field(default_factory=dict)
    reasons: list[str] = field(default_factory=list)


def check_portfolio(
    instance: PortfolioInstance, solution: PortfolioSolution
) -> PortfolioFeasibility:
    """Recheck cardinality, budget, and bounds from the solution itself.

    Bounds are compared exactly so a zero decoder penalty coincides
    with a passing bound family; the budget equality carries a 1e-9
    tolerance.
    """
    families = {}
    reasons = []
    n = instance.n_assets
    distinct = len(set(solution.assets)) == len(solution.assets)
    families["cardinality"] = (
        len(solution.assets) == instance.cardinality
        and distinct
        and all(0 <= a < n for a in solution.assets)
    )
    if not families["cardinality"]:
        reasons.append(f"selection is not K distinct assets: {solution.assets}")
    families["budget"] = abs(float(solution.weights.sum()) - 1.0) <= 1e-9
    if not families["budget"]:
        reasons.append(f"weights sum to {solution.weights.sum()}")
    idx = np.asarray(solution.assets, dtype=np.intp)
    families["bounds"] = bool(
        np.all(solution.weights >= instance.lower[idx])
        and np.all(solution.weights <= instance.upper[idx])
    )
    if not families["bounds"]:
        reasons.append("a weight lies outside its asset bounds")
    return PortfolioFeasibility(
        feasible=all(families.values()), families=families, reasons=reasons
    )


class PortfolioDecoder:
    """Searcher-facing binding: 2K keys to penalized cost."""

    def __init__(self, instance: PortfolioInstance) -> None:
        self.instance = instance

    @property
    def dimension(self) -> int:
        return 2 * self.instance.cardinality

    def cost(self, keys: np.ndarray) -> float:
        return _decode(self.instance, keys)[-1]

    def decode(self, keys: np.ndarray) -> PortfolioSolution:
        return decode_portfolio(self.instance, keys)


_GRID_LIMIT = 10_000_000


def _capped_compositions(
    total: int, caps: Sequence[int]
) -> Iterator[np.ndarray]:
    """Yield batches of composition vectors k with sum(k) = total and
    0 <= k_i <= caps_i, the last two coordinates vectorized."""
    k = len(caps)
    if k == 1:
        if 0 <= total <= caps[0]:
            yield np.array([[total]], dtype=np.int64)
        return
    prefix = np.zeros(k, dtype=np.int64)

    def rec(j: int, rem: int) -> Iterator[np.ndarray]:
        tail_cap = sum(caps[j + 1 :])
        if j == k - 2:
            lo = max(0, rem - caps[j + 1])
            hi = min(caps[j], rem)
            if lo > hi:
                return
            second = np.arange(lo, hi + 1, dtype=np.int64)
            batch = np.tile(prefix, (second.shape[0], 1))
            batch[:, j] = second
            batch[:, j + 1] = rem - second
            yield batch
            return
        for v in range(max(0, rem - tail_cap), min(caps[j], rem) + 1):
            prefix[j] = v
            yield from rec(j + 1, rem - v)

    yield from rec(0, total)


def brute_force_portfolio(
    instance: PortfolioInstance, grid_step: float = 1e-3
) -> tuple[float, tuple[int, ...], np.ndarray]:
    """Grid oracle: best clean objective over all K-subsets and all
    weight vectors on the simplex grid of step ``grid_step`` inside the
    bounds.

    Refuses (OracleGuardError) when the estimated grid size exceeds
    1e7 points or the bounds do not align with the grid step.  Returns
    (cost, assets ascending, weights aligned with assets).
    """
    n, k = instance.n_assets, instance.cardinality
    g = grid_step
    if g <= 0:
        raise ValueError(f"grid_step must be positive, got {g}")
    span_max = (1.0 - k * float(instance.lower.min())) / g
    estimate = math.comb(n, k) * math.comb(max(0, round(span_max)) + k - 1, k - 1)
    if estimate > _GRID_LIMIT:
        raise OracleGuardError(
            f"about {estimate} grid points, above the {_GRID_LIMIT} guard"
        )

    lam = instance.risk_aversion
    best_cost = math.inf
    best_assets: tuple[int, ...] = ()
    best_weights = np.empty(0)
    for subset in itertools.combinations(range(n), k):
        idx = np.array(subset, dtype=np.intp)
        lo = instance.lower[idx]
        hi = instance.upper[idx]
        span = (1.0 - float(lo.sum())) / g
        if span < -1e-9:
            continue
        total = round(span)
        if abs(span - total) > 1e-6:
            raise OracleGuardError(
                f"bounds of subset {subset} do not align with grid step {g}"
            )
        caps = [int(math.floor((h - l) / g + 1e-9)) for l, h in zip(lo, hi)]
        if sum(caps) < total:
            continue
        mu_sub = instance.means[idx]
        cov_sub = instance.covariance[np.ix_(idx, idx)]
        for batch in _capped_compositions(total, caps):
            weights = lo[None, :] + g * batch
            risk = np.einsum("bi,ij,bj->b", weights, cov_sub, weights)
            costs = lam * risk - (1.0 - lam) * (weights @ mu_sub)
            pos = int(np.argmin(costs))
            if costs[pos] < best_cost:
                best_cost = float(costs[pos])
                best_assets = subset
                best_weights = weights[pos].copy()
    if not best_assets:
        raise OracleGuardError("no grid point satisfies the bounds and budget")
    return best_cost, best_assets, best_weights
