"""Time-dependent TSP: decoder, feasibility checker, bound, and oracle.

Nodes 0..n+1: node 0 is the depot, nodes 1..n the customers, node
n+1 a copy of the depot acting as route terminal.  The planning
horizon splits into ``n_intervals`` equal slots of ``interval_length``;
travel times are constant within a slot.  A key vector of length n
encodes the visiting order: customers sorted by key ascending, ties
toward the smaller index.

The decoder simulates the route forward, picking each arc's travel
time from the slot of its departure.  Once the simulated time leaves
the horizon, remaining arcs fall back to the last slot and the route
is penalized by 1000 * horizon on top of its travel cost.

The rule lives in two places on purpose: the row-vectorised kernel
``_simulate``, which :func:`decode_tdtsp` runs on one row and
:func:`brute_force_tdtsp` on permutation chunks, and the scalar
:meth:`TdTspDecoder.cost`, the plain-Python fast path charged on every
decode.  The tests hold the two independent versions equal bit for bit.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import InstanceWarning, OracleGuardError

__all__ = [
    "LATE_PENALTY_FACTOR",
    "TdTspInstance",
    "TdTspSolution",
    "TdTspFeasibility",
    "decode_tdtsp",
    "check_tdtsp",
    "travel_time_lower_bound",
    "TdTspDecoder",
    "brute_force_tdtsp",
    "generate_tdtsp_instance",
]

# Horizon overruns cost 1000 horizons on top of the travel time.
LATE_PENALTY_FACTOR = 1000.0


@dataclass(eq=False)
class TdTspInstance:
    """Instance data.

    ``service`` has length n + 2 with zero entries for depot and
    terminal; ``travel[h, i, j]`` is the i -> j travel time during
    slot h, shape (n_intervals, n + 2, n + 2).  The terminal row and
    column are expected to copy the depot's; a mismatch is reported as
    an :class:`InstanceWarning` since costs through the terminal would
    then differ from costs through the depot.
    """

    n_customers: int
    n_intervals: int
    interval_length: float
    service: np.ndarray
    travel: np.ndarray
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        n, h = self.n_customers, self.n_intervals
        if n < 1:
            raise ValueError(f"need at least one customer, got {n}")
        if h < 1:
            raise ValueError(f"need at least one interval, got {h}")
        if not 0.0 < self.interval_length < math.inf:
            raise ValueError(
                f"interval_length must be positive and finite, got {self.interval_length}"
            )
        service = np.asarray(self.service, dtype=float)
        travel = np.asarray(self.travel, dtype=float)
        if service.shape != (n + 2,):
            raise ValueError(f"service must have shape ({n + 2},), got {service.shape}")
        if travel.shape != (h, n + 2, n + 2):
            raise ValueError(
                f"travel must have shape ({h}, {n + 2}, {n + 2}), got {travel.shape}"
            )
        if service[0] != 0.0 or service[n + 1] != 0.0:
            raise ValueError("depot and terminal service times must be zero")
        # Written so that NaN fails the range tests too.
        customers = service[1 : n + 1]
        if not (0.0 < customers.min() and customers.max() < math.inf):
            raise ValueError("customer service times must be positive and finite")
        if not (0.0 <= travel.min() and travel.max() < math.inf):
            raise ValueError("travel times must be nonnegative and finite")
        self.service = service
        self.travel = travel
        if not (
            np.array_equal(travel[:, n + 1, :], travel[:, 0, :])
            and np.array_equal(travel[:, :, n + 1], travel[:, :, 0])
        ):
            warnings.warn(
                "terminal travel row/column differs from the depot's",
                InstanceWarning,
                stacklevel=2,
            )

    @property
    def horizon(self) -> float:
        return self.n_intervals * self.interval_length

    @cached_property
    def _travel_lists(self) -> list:
        # Nested python lists index several times faster than numpy
        # scalars in the per-arc simulation loop.
        return self.travel.tolist()

    @cached_property
    def _service_list(self) -> list:
        return self.service.tolist()


@dataclass(frozen=True)
class TdTspSolution:
    """Decoded route.

    ``order`` lists customers as visited; ``arrival[i]`` is the
    departure-ready time at node i (arrival plus service), with
    ``arrival[0] = 0`` and ``arrival[n+1]`` the terminal arrival.
    ``arcs`` holds the used (i, j, slot) triples in route order,
    ``flows`` the (i, j, value) node-flow entries the route assigns.
    ``travel_cost`` sums the traversed travel times; ``cost`` adds the
    horizon penalty when ``penalized``.
    """

    order: tuple[int, ...]
    arrival: np.ndarray
    arcs: tuple[tuple[int, int, int], ...]
    flows: tuple[tuple[int, int, int], ...]
    travel_cost: float
    penalized: bool
    cost: float


def _simulate(
    instance: TdTspInstance, orders: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Simulate the routes in ``orders``, (rows, n) customer ids each in
    visiting order, from the depot to the terminal.

    Returns ``(slots, times, travel_cost, late, cost)``: per arc, as
    (n + 1, rows) arrays, the departure slot and the time after the arc
    (arrival plus service); per row the travel time, whether the route
    is late, and the travel time plus the late penalty.  Times are
    finite and non-negative, so the clock never runs back: a route past
    the last slot stays past it, and no frozen slot needs keeping.
    """
    rows, n = orders.shape
    big_h = instance.n_intervals
    t_bar = instance.interval_length
    horizon = instance.horizon
    travel = instance.travel
    service = instance.service
    slots = np.empty((n + 1, rows), dtype=np.int64)
    times = np.empty((n + 1, rows))
    now = np.zeros(rows)
    travel_cost = np.zeros(rows)
    current = np.zeros(rows, dtype=np.int64)
    for step in range(n):
        slots[step] = np.minimum(now // t_bar, big_h - 1)
        nxt = orders[:, step]
        leg = travel[slots[step], current, nxt]
        now += leg + service[nxt]
        travel_cost += leg
        times[step] = now
        current = nxt
    ahead = now // t_bar
    slots[n] = np.minimum(ahead, big_h - 1)
    late = (ahead >= big_h) | (now + travel[slots[n], current, 0] >= horizon)
    slots[n][late] = big_h - 1
    leg = travel[slots[n], current, 0]
    times[n] = now + leg
    travel_cost += leg
    cost = travel_cost + np.where(late, horizon * LATE_PENALTY_FACTOR, 0.0)
    return slots, times, travel_cost, late, cost


def decode_tdtsp(instance: TdTspInstance, keys: np.ndarray) -> TdTspSolution:
    """Simulate the route encoded by ``keys`` and assemble the solution."""
    n = instance.n_customers
    if keys.shape[0] != n:
        raise ValueError(f"expected {n} keys, got {keys.shape[0]}")
    order = keys.argsort(kind="stable") + 1
    slots, times, travel_cost, late, cost = _simulate(instance, order[None])
    arrival = np.zeros(n + 2)
    arrival[order] = times[:n, 0]
    arrival[n + 1] = times[n, 0]
    route = [0, *order.tolist(), n + 1]
    steps = list(zip(route, route[1:]))
    return TdTspSolution(
        order=tuple(route[1:-1]),
        arrival=arrival,
        arcs=tuple((i, j, h) for (i, j), h in zip(steps, slots[:, 0].tolist())),
        flows=tuple(
            flow
            for step, (i, j) in enumerate(steps)
            for flow in ((i, j, n - step), (j, i, step))
        ),
        travel_cost=float(travel_cost[0]),
        penalized=bool(late[0]),
        cost=float(cost[0]),
    )


@dataclass(frozen=True)
class TdTspFeasibility:
    feasible: bool
    families: dict[str, bool] = field(default_factory=dict)
    reasons: list[str] = field(default_factory=list)


def check_tdtsp(
    instance: TdTspInstance, solution: TdTspSolution, tol: float = 1e-9
) -> TdTspFeasibility:
    """Verify a decoded route against the time-indexed flow model.

    Recomputes every constraint family from the solution's arc,
    flow, and timing variables; nothing is taken from the decoder's
    own penalty flag.  An unpenalized decode passes all families; a
    penalized one fails the interval or horizon families.
    """
    n = instance.n_customers
    big_h = instance.n_intervals
    t_bar = instance.interval_length
    terminal = n + 1
    a = solution.arrival
    x = set(solution.arcs)
    y: dict[tuple[int, int], int] = {}
    for i, j, value in solution.flows:
        y[(i, j)] = value

    families: dict[str, bool] = {}
    reasons: list[str] = []

    def fail(family: str, message: str) -> None:
        families[family] = False
        reasons.append(f"{family}: {message}")

    families["depot_terminal_arcs"] = True
    if any(j == 0 for _, j, _ in x):
        fail("depot_terminal_arcs", "an arc enters the depot")
    if any(i == terminal for i, _, _ in x):
        fail("depot_terminal_arcs", "an arc leaves the terminal")
    if any(i == j for i, j, _ in x):
        fail("depot_terminal_arcs", "a self-loop arc is used")

    families["first_interval_departure"] = True
    depot_arcs = [(i, j, h) for i, j, h in x if i == 0]
    if len(depot_arcs) != 1 or depot_arcs[0][2] != 0:
        fail("first_interval_departure", f"depot departures: {depot_arcs}")

    families["degree"] = True
    for v in range(1, n + 1):
        outgoing = sum(1 for i, _, _ in x if i == v)
        incoming = sum(1 for _, j, _ in x if j == v)
        if outgoing != 1 or incoming != 1:
            fail("degree", f"customer {v} has degree in={incoming} out={outgoing}")
    if sum(1 for _, j, _ in x if j == terminal) != 1:
        fail("degree", "terminal in-degree is not one")

    families["flow"] = True

    def out_of(v: int) -> int:
        return sum(val for (i, _), val in y.items() if i == v)

    def into(v: int) -> int:
        return sum(val for (_, j), val in y.items() if j == v)

    if out_of(0) != n:
        fail("flow", f"depot sends {out_of(0)}, expected {n}")
    if into(0) != 0:
        fail("flow", f"depot receives {into(0)}, expected 0")
    if out_of(terminal) != n:
        fail("flow", f"terminal sends {out_of(terminal)}, expected {n}")
    for v in range(1, n + 1):
        if into(v) - out_of(v) != 2:
            fail("flow", f"customer {v} keeps {into(v) - out_of(v)} units, expected 2")

    families["linking"] = True
    used_pairs = {(min(i, j), max(i, j)) for i, j, _ in x}
    pairs = used_pairs | {(min(i, j), max(i, j)) for (i, j) in y}
    for i, j in sorted(pairs):
        lhs = y.get((i, j), 0) + y.get((j, i), 0)
        crossings = sum(1 for (p, q, _) in x if (p, q) in ((i, j), (j, i)))
        if lhs != n * crossings:
            fail("linking", f"pair ({i},{j}): flows {lhs} vs {n} * {crossings} arcs")

    families["time_zero"] = a[0] == 0.0
    if not families["time_zero"]:
        reasons.append(f"time_zero: depot time is {a[0]}")

    # Big-M time propagation over every arc variable: with x = 1 the
    # pair collapses to a_j = a_i + t + s; with x = 0 the slacks
    # 2*Tbar*H (lower) and Tbar*H (upper) keep the pair inactive.
    families["time_propagation"] = True
    slack_lo = 2.0 * t_bar * big_h
    slack_hi = t_bar * big_h
    for i in range(0, n + 1):
        for j in range(1, n + 2):
            if i == j:
                continue
            for h in range(big_h):
                used_arc = 1.0 if (i, j, h) in x else 0.0
                leg = instance.travel[h, i, j] + instance.service[j]
                lo = a[i] + leg * used_arc - slack_lo * (1.0 - used_arc)
                hi = a[i] + leg + slack_hi * (1.0 - used_arc)
                if a[j] < lo - tol or a[j] > hi + tol:
                    fail(
                        "time_propagation",
                        f"arc ({i},{j},{h}) x={used_arc:.0f}: "
                        f"{a[j]} outside [{lo}, {hi}]",
                    )

    families["interval_identification"] = True
    for i, j, h in x:
        if not (h * t_bar - tol <= a[i] < (h + 1) * t_bar + tol):
            fail(
                "interval_identification",
                f"arc ({i},{j},{h}) departs at {a[i]}, outside slot {h}",
            )

    families["horizon"] = a[terminal] < instance.horizon + tol
    if not families["horizon"]:
        reasons.append(f"horizon: terminal arrival {a[terminal]} >= {instance.horizon}")

    families["domains"] = True
    if any(h < 0 or h >= big_h for _, _, h in x):
        fail("domains", "an arc uses a slot outside 0..H-1")
    if any(val < 0 or val > n for val in y.values()):
        fail("domains", "a flow value lies outside 0..n")
    if np.any(a < -tol):
        fail("domains", "a negative time variable")

    return TdTspFeasibility(
        feasible=all(families.values()), families=families, reasons=reasons
    )


def travel_time_lower_bound(instance: TdTspInstance) -> float:
    """Cheapest-arc bound: best depot departure plus, per customer, its
    cheapest outgoing arc over all slots and successors."""
    n = instance.n_customers
    total = float(instance.travel[0, 0, 1 : n + 1].min())
    for i in range(1, n + 1):
        others = [j for j in range(1, n + 2) if j != i]
        total += float(instance.travel[:, i, others].min())
    return total


class TdTspDecoder:
    """Searcher-facing binding: n keys to penalized route cost.

    ``cost`` is the scalar fast path: it simulates one route in plain
    Python, without numpy calls and without assembling arcs and flows,
    because it runs on every charged decode.  ``decode`` goes through
    the row-vectorised kernel that the oracle also uses, so the cost a
    searcher is charged is checked against a second implementation;
    both return the same float on every vector.
    """

    def __init__(self, instance: TdTspInstance) -> None:
        self.instance = instance

    @property
    def dimension(self) -> int:
        return self.instance.n_customers

    def cost(self, keys: np.ndarray) -> float:
        inst = self.instance
        big_h = inst.n_intervals
        t_bar = inst.interval_length
        t = inst._travel_lists
        s = inst._service_list
        slot = 0
        current = 0
        now = 0.0
        total = 0.0
        for idx in keys.argsort(kind="stable").tolist():
            nxt = idx + 1
            leg = t[slot if slot < big_h else big_h - 1][current][nxt]
            now += leg + s[nxt]
            total += leg
            if slot < big_h:
                slot = int(now // t_bar)
            current = nxt
        if slot < big_h:
            leg = t[slot][current][0]
            if now + leg < big_h * t_bar:
                return total + leg
        return total + t[big_h - 1][current][0] + big_h * t_bar * LATE_PENALTY_FACTOR

    def decode(self, keys: np.ndarray) -> TdTspSolution:
        return decode_tdtsp(self.instance, keys)


_PERMUTATION_GUARD = 10
# Visiting orders simulated per kernel call.
_PERMUTATION_CHUNK = 200_000


def brute_force_tdtsp(instance: TdTspInstance) -> tuple[float, tuple[int, ...]]:
    """Exact optimum by enumerating all n! visiting orders.

    Simulates permutation chunks in the route kernel; refuses
    instances with more than 10 customers.  Returns (cost, visiting
    order).
    """
    n = instance.n_customers
    if n > _PERMUTATION_GUARD:
        raise OracleGuardError(
            f"{n} customers means {math.factorial(n)} routes, above the guard"
        )
    best_cost = math.inf
    best_order: tuple[int, ...] = ()
    source = itertools.permutations(range(1, n + 1))
    for _ in range(0, math.factorial(n), _PERMUTATION_CHUNK):
        block = itertools.chain.from_iterable(itertools.islice(source, _PERMUTATION_CHUNK))
        perms = np.fromiter(block, dtype=np.int64).reshape(-1, n)
        cost = _simulate(instance, perms)[4]
        pos = int(np.argmin(cost))
        if cost[pos] < best_cost:
            best_cost = float(cost[pos])
            best_order = tuple(perms[pos].tolist())
    return best_cost, best_order


# Service-time ranges by instance size, seconds.
_SERVICE_BANDS = (
    (14, (1800, 2700)),
    (24, (900, 1500)),
    (54, (360, 600)),
    (84, (180, 360)),
)
_DEFAULT_HORIZON = 54_000.0


def generate_tdtsp_instance(
    n_customers: int,
    n_intervals: int,
    seed: int,
    horizon: float = _DEFAULT_HORIZON,
) -> TdTspInstance:
    """Random instance in the style of the benchmark set.

    Travel times are integers in [1, 12] drawn independently per arc
    and slot; service times are integers from a size-dependent band;
    the horizon splits into ``n_intervals`` equal slots.  The seed is
    embedded in the instance for reproducibility.
    """
    rng = np.random.default_rng(seed)
    n = n_customers
    nodes = n + 2
    band = next(
        (b for limit, b in _SERVICE_BANDS if n <= limit), (120, 240)
    )
    service = np.zeros(nodes)
    service[1 : n + 1] = rng.integers(band[0], band[1] + 1, size=n).astype(float)

    travel = rng.integers(1, 13, size=(n_intervals, nodes, nodes)).astype(float)
    for h in range(n_intervals):
        np.fill_diagonal(travel[h], 0.0)
    travel[:, n + 1, :] = travel[:, 0, :]
    travel[:, :, n + 1] = travel[:, :, 0]
    travel[:, n + 1, n + 1] = 0.0
    return TdTspInstance(
        n_customers=n,
        n_intervals=n_intervals,
        interval_length=horizon / n_intervals,
        service=service,
        travel=travel,
        seed=seed,
    )
