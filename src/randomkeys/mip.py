"""Generic mixed-integer program decoder with quadratic constraint penalties.

The problem is min c'x over l <= x <= u subject to A x <= b, where the
first ``n_integer`` variables are integral.  Keys map to the box
directly; constraint violations are charged through a penalty model so
every key vector decodes to a finite cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OracleGuardError

__all__ = [
    "PenaltyModel",
    "GenericMipInstance",
    "MipAssignment",
    "MipFeasibility",
    "map_keys_to_assignment",
    "decode_mip",
    "check_mip",
    "MipDecoder",
    "brute_force_mip",
]


@dataclass(frozen=True)
class PenaltyModel:
    """Quadratic penalty ``weight * delta**2`` per violated row."""

    weight: float = 1e4

    def __post_init__(self) -> None:
        if not 0 < self.weight < math.inf:
            raise ValueError(f"penalty weight must be positive and finite, got {self.weight}")

    def charge(self, slack: np.ndarray) -> float:
        violated = slack[slack < 0]
        return float(self.weight * np.sum(violated * violated))


@dataclass(frozen=True)
class GenericMipInstance:
    """Data of one instance.

    ``n_integer`` leading variables are integral; the rest are
    continuous.  ``rows`` may be empty (box-constrained problem).
    """

    costs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray
    n_integer: int

    def __post_init__(self) -> None:
        c, l, u = (np.asarray(v, dtype=float) for v in (self.costs, self.lower, self.upper))
        a = np.asarray(self.rows, dtype=float).reshape(-1, c.shape[0])
        b = np.asarray(self.rhs, dtype=float)
        for name, v in (("costs", c), ("lower", l), ("upper", u)):
            if v.ndim != 1 or v.shape[0] != c.shape[0]:
                raise ValueError(f"{name} must be a vector of length {c.shape[0]}")
        if b.shape[0] != a.shape[0]:
            raise ValueError(f"rhs length {b.shape[0]} does not match {a.shape[0]} rows")
        if not all(np.isfinite(v).all() for v in (c, l, u, a, b)):
            raise ValueError("costs, bounds, rows and rhs must be finite")
        if not 0 <= self.n_integer <= c.shape[0]:
            raise ValueError(f"n_integer outside [0, {c.shape[0]}]: {self.n_integer}")
        if np.any(l > u):
            raise ValueError("lower bound above upper bound")
        p = self.n_integer
        if p and (np.any(l[:p] != np.floor(l[:p])) or np.any(u[:p] != np.floor(u[:p]))):
            raise ValueError("integer variables need integral bounds")
        object.__setattr__(self, "costs", c)
        object.__setattr__(self, "lower", l)
        object.__setattr__(self, "upper", u)
        object.__setattr__(self, "rows", a)
        object.__setattr__(self, "rhs", b)

    @property
    def n_variables(self) -> int:
        return self.costs.shape[0]

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True)
class MipAssignment:
    """Decoded assignment with its objective, slack, and penalized cost."""

    x: np.ndarray
    objective: float
    slack: np.ndarray
    penalty: float

    @property
    def cost(self) -> float:
        return self.objective + self.penalty


@dataclass(frozen=True)
class MipFeasibility:
    feasible: bool
    reasons: list[str] = field(default_factory=list)


def map_keys_to_assignment(instance: GenericMipInstance, keys: np.ndarray) -> np.ndarray:
    """Map keys in [0, 1) onto the variable box.

    Integer variables take ``round_half_up(l - 0.5 + (u - l + 1) * key)``,
    which lands each key uniformly on the l..u lattice; continuous
    variables interpolate the box affinely.
    """
    l, u = instance.lower, instance.upper
    p = instance.n_integer
    x = l + (u - l) * keys
    if p:
        lattice = np.floor(l[:p] - 0.5 + (u[:p] - l[:p] + 1.0) * keys[:p] + 0.5)
        x[:p] = np.minimum(lattice, u[:p])
    return x


def decode_mip(
    instance: GenericMipInstance,
    keys: np.ndarray,
    penalty: PenaltyModel = PenaltyModel(),
) -> MipAssignment:
    x = map_keys_to_assignment(instance, keys)
    slack = instance.rhs - instance.rows @ x
    return MipAssignment(
        x=x,
        objective=float(instance.costs @ x),
        slack=slack,
        penalty=penalty.charge(slack),
    )


def check_mip(
    instance: GenericMipInstance, x: np.ndarray, tol: float = 1e-9
) -> MipFeasibility:
    """Recheck an assignment against bounds, integrality, and rows.

    Independent of the decoder's penalty bookkeeping: the slack is
    recomputed from scratch.
    """
    reasons = []
    p = instance.n_integer
    if np.any(x < instance.lower - tol) or np.any(x > instance.upper + tol):
        reasons.append("variable bound violated")
    if p and np.any(np.abs(x[:p] - np.round(x[:p])) > tol):
        reasons.append("integrality violated")
    slack = instance.rhs - instance.rows @ x
    bad = np.nonzero(slack < -tol)[0]
    if bad.size:
        reasons.append(f"rows with negative slack: {bad.tolist()}")
    return MipFeasibility(feasible=not reasons, reasons=reasons)


class MipDecoder:
    """Searcher-facing binding: dimension and scalar cost."""

    def __init__(
        self, instance: GenericMipInstance, penalty: PenaltyModel = PenaltyModel()
    ) -> None:
        self.instance = instance
        self.penalty = penalty

    @property
    def dimension(self) -> int:
        return self.instance.n_variables

    def cost(self, keys: np.ndarray) -> float:
        return decode_mip(self.instance, keys, self.penalty).cost

    def decode(self, keys: np.ndarray) -> MipAssignment:
        return decode_mip(self.instance, keys, self.penalty)


_ENUM_LIMIT = 2**20


def brute_force_mip(
    instance: GenericMipInstance, penalty: PenaltyModel = PenaltyModel()
) -> tuple[float, np.ndarray]:
    """Exact minimum of the penalized cost over decodable assignments.

    Enumerates the integer lattice (guarded at 2**20 points).
    Continuous variables are admitted only for box-only instances
    (no rows), where each one independently sits at the bound that
    minimizes its cost term; with rows present the continuous optimum
    need not be at a box corner, so the oracle refuses.
    """
    p = instance.n_integer
    n = instance.n_variables
    l, u = instance.lower, instance.upper
    if p < n and instance.n_rows > 0:
        raise OracleGuardError(
            "continuous variables with constraint rows are not enumerable"
        )
    spans = (u[:p] - l[:p] + 1.0).astype(np.int64)
    total = int(np.prod(spans, dtype=np.int64)) if p else 1
    if total > _ENUM_LIMIT:
        raise OracleGuardError(
            f"integer lattice has {total} points, above the {_ENUM_LIMIT} guard"
        )

    x_cont = np.where(instance.costs[p:] >= 0, l[p:], u[p:])
    if p == 0:
        return float(instance.costs @ x_cont), x_cont

    axes = [np.arange(l[i], u[i] + 1.0) for i in range(p)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(total, p)
    costs = grid @ instance.costs[:p] + float(instance.costs[p:] @ x_cont)
    if instance.n_rows:
        slack = instance.rhs[None, :] - grid @ instance.rows[:, :p].T
        violated = np.minimum(slack, 0.0)
        costs = costs + penalty.weight * np.sum(violated * violated, axis=1)
    best = int(np.argmin(costs))
    x = np.concatenate([grid[best], x_cont])
    return float(costs[best]), x
