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

:func:`decode_tdtsp` walks the instance's arrays, and the benchmark's
gate re-decodes every best with it.  :meth:`TdTspDecoder.cost`, charged
on every decode, and :func:`brute_force_tdtsp` step over the route
tables, lists built once per instance.  The tests hold them equal.

The slot rule lives in one place.  Slot k starts at the smallest float
clock that floor division by ``interval_length`` puts in slot k or
later.  The instance caches these H starts, and every walk takes a
clock's slot as the number of the first H - 1 starts at or below it
(``bisect_right``): floor division capped at H - 1, bit for bit.  So no
walk checks another's slot rule; the tests' floor-division references,
the ``_slot_start`` tests and the interval family of
:func:`check_tdtsp` in the benchmark's gate do.

The fast path reads the route tables, one node table per slot,
customers first and the depot last.  It keeps the row of the node it
stands at, so the depot's row starts a route and the last customer's
row ends with the leg back; only a clock that reaches the next slot's
start looks its slot up.  It has two loops, chosen once per instance from
the data.  An instance is exact when every travel and service time is
an integer and ``(n + 1) * max travel + total service`` is below
2**53; every clock of its routes is then an integer that a float holds
exactly.  Its legs carry the service time of the node they reach, so
the exact loop keeps only the clock, at one list read, one addition
and one comparison per arc, and takes the travel time as the final
clock minus the total service time.  Any other instance runs the float
loop, which sums the clock and the travel time apart, at three list
reads, two additions and one comparison per arc.  Every clock and cost
of either loop keeps the bits of :func:`decode_tdtsp`'s.

Many key vectors map to one visiting order, and the searchers often
ask for a vector whose order is the one just decoded (a Nelder-Mead
shrink mostly does).  The fast path therefore remembers its last route
as one (order bytes, cost) pair and returns the stored float when the
order repeats.  An instance holds read-only copies of its arrays, so
neither the memo nor the cached lists can go stale.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

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


class _RouteTables(NamedTuple):
    """An instance's travel and service times as nested Python lists,
    for :meth:`TdTspDecoder.cost` and :func:`brute_force_tdtsp`; lists
    index several times faster than numpy scalars there.

    On an exact instance (see :meth:`TdTspInstance._route_tables`) each
    leg already holds the service time of the node it reaches, and
    ``service_total`` holds their sum in place of the list; on any
    other instance the legs are bare and ``service_total`` is None.
    """

    out: list  # out[h][c][j]: node c to node j in slot h; customers 0..n-1, depot n
    service: Optional[list]  # service[c]; None on an exact instance
    edges: list  # edges[h]: the start of slot h + 1; inf for the last slot
    service_total: Optional[float]  # the summed service times; None selects the float loop
    horizon: float


@dataclass(frozen=True, eq=False)
class TdTspInstance:
    """Instance data.

    ``service`` has length n + 2 with zero entries for depot and
    terminal; ``travel[h, i, j]`` is the i -> j travel time during
    slot h, shape (n_intervals, n + 2, n + 2).  The terminal row and
    column are expected to copy the depot's; a mismatch is reported as
    an :class:`InstanceWarning` since costs through the terminal would
    then differ from costs through the depot.  The instance keeps its
    own read-only copies of both arrays, so that the lists and the
    route memo derived from them cannot go stale.
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
        service = np.array(self.service, dtype=float)
        travel = np.array(self.travel, dtype=float)
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
        max_travel = float(travel.max())
        if not (0.0 <= travel.min() and max_travel < math.inf):
            raise ValueError("travel times must be nonnegative and finite")
        # A route runs n + 1 legs, so these bound its clock and its
        # penalized cost; plain floats overflow to inf without a warning.
        legs = (n + 1) * max_travel
        if not (
            legs + sum(service.tolist()) < math.inf
            and legs + h * self.interval_length * LATE_PENALTY_FACTOR < math.inf
        ):
            raise ValueError(
                "travel and service times must keep every route's time and cost finite"
            )
        service.setflags(write=False)
        travel.setflags(write=False)
        object.__setattr__(self, "service", service)
        object.__setattr__(self, "travel", travel)
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
    def _route_tables(self) -> _RouteTables:
        """The lists of the scalar route loops, built once.  The
        instance is exact when every travel and service time is an
        integer and ``(n + 1) * max travel + total service`` is below
        2**53, so that every clock of every route is an integer that a
        float holds exactly; its legs then carry the service time of
        the node they reach.  The edges are the slot starts."""
        n = self.n_customers
        travel, service = self.travel, self.service
        total = float(service.sum())
        exact = (
            np.array_equal(travel, np.rint(travel))
            and np.array_equal(service, np.rint(service))
            and (n + 1) * float(travel.max()) + total < 2.0**53
        )
        legs = travel + service if exact else travel
        # Node order 1..n, 0; four block copies beat two takes here.
        table = np.empty((self.n_intervals, n + 1, n + 1))
        table[:, :n, :n] = legs[:, 1 : n + 1, 1 : n + 1]
        table[:, :n, n] = legs[:, 1 : n + 1, 0]
        table[:, n, :n] = legs[:, 0, 1 : n + 1]
        table[:, n, n] = legs[:, 0, 0]
        return _RouteTables(
            out=table.tolist(),
            service=None if exact else service[1 : n + 1].tolist(),
            edges=self._slot_starts[:-1].tolist() + [math.inf],
            service_total=total if exact else None,
            horizon=float(self.horizon),
        )

    @cached_property
    def _slot_starts(self) -> np.ndarray:
        """Read-only array of the H slot starts: entry k - 1 is the
        smallest float clock that floor division puts in slot k or
        later, for k = 1..H."""
        starts = np.array(
            [_slot_start(k, self.interval_length) for k in range(1, self.n_intervals + 1)]
        )
        starts.setflags(write=False)
        return starts


def _slot_start(k: int, interval_length: float) -> float:
    """The smallest float ``c`` with ``c // interval_length >= k``.

    Floor division of non-negative floats gives the floor of their
    exact quotient (below 2**51, far above any slot count), so it never
    decreases as the clock grows, and every clock from the start on is
    in slot k or later.  The rounded product ``k * interval_length``
    lies within an ulp or so of the start; stepping float by float from
    it finds the start."""
    start = k * interval_length
    while start // interval_length < k:
        start = math.nextafter(start, math.inf)
    while math.nextafter(start, -math.inf) // interval_length >= k:
        start = math.nextafter(start, -math.inf)
    return start


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


def decode_tdtsp(instance: TdTspInstance, keys: np.ndarray) -> TdTspSolution:
    """Simulate the route encoded by ``keys`` and assemble the solution.

    A scalar walk over the instance's arrays, not its route tables.  A
    route is late when its return leg ends at or past the horizon (so
    is any clock past the H-th start); it then returns in the last slot.
    """
    n = instance.n_customers
    if keys.shape != (n,):
        raise ValueError(f"expected {n} keys, got shape {keys.shape}")
    order = (keys.argsort(kind="stable") + 1).tolist()
    travel = instance.travel
    service = instance.service.tolist()
    starts = instance._slot_starts[:-1].tolist()
    horizon = float(instance.horizon)
    arrival = [0.0] * (n + 2)
    arcs = []
    i, now, total = 0, 0.0, 0.0
    for j in order:
        slot = bisect_right(starts, now)
        leg = travel.item(slot, i, j)
        now += leg + service[j]
        total += leg
        arcs.append((i, j, slot))
        arrival[j] = now
        i = j
    slot = bisect_right(starts, now)
    late = now + travel.item(slot, i, 0) >= horizon
    slot = instance.n_intervals - 1 if late else slot
    leg = travel.item(slot, i, 0)
    arrival[n + 1] = now + leg
    total += leg
    arcs.append((i, n + 1, slot))
    route = [0, *order, n + 1]
    return TdTspSolution(
        order=tuple(order),
        arrival=np.array(arrival),
        arcs=tuple(arcs),
        flows=tuple(
            flow
            for step, (i, j) in enumerate(zip(route, route[1:]))
            for flow in ((i, j, n - step), (j, i, step))
        ),
        travel_cost=total,
        penalized=late,
        cost=total + horizon * LATE_PENALTY_FACTOR if late else total,
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
    because it runs on every charged decode.  Per arc it reads the leg
    from the current node's row, adds it to the clock, and compares the
    clock with the next slot's start; only a clock at or past it looks
    the slot up again.  On an instance that is not exact (see the module
    docstring) it also adds the service time to the clock and the leg
    to the travel time.  It remembers the last route it simulated, as
    the bytes of the stable argsort and the cost, and a vector with the
    same order costs one comparison; the pair is replaced in one
    assignment, so an order is never paired with another order's cost.
    Keys of another shape are refused before the memo is read.
    ``cost_rows`` gives a block's rows the costs of ``cost``, with one
    argsort and a walk per row whose order differs from the row before.
    ``decode`` assembles the route with :func:`decode_tdtsp`: a second walk, same float.
    """

    def __init__(self, instance: TdTspInstance) -> None:
        self.instance = instance
        self._shape = (instance.n_customers,)
        # The last route as (order bytes, cost); no keys' bytes are None.
        self._last: tuple[Optional[bytes], float] = (None, 0.0)

    @property
    def dimension(self) -> int:
        return self.instance.n_customers

    def cost(self, keys: np.ndarray) -> float:
        if keys.shape != self._shape:
            raise ValueError(f"expected {self._shape[0]} keys, got shape {keys.shape}")
        order = keys.argsort(kind="stable")
        stamp = order.tobytes()
        last = self._last
        if stamp == last[0]:
            return last[1]
        cost = self._route_cost(order.tolist())
        # One assignment, so the stored order never pairs with another's cost.
        self._last = (stamp, cost)
        return cost

    def cost_rows(self, block: np.ndarray) -> list[float]:
        """The costs and the memo that ``cost`` called on each row of a
        non-empty ``block`` in turn gives, bit for bit."""
        if block.ndim != 2 or block.shape[1:] != self._shape:
            raise ValueError(f"expected rows of {self._shape[0]} keys, got shape {block.shape}")
        orders = block.argsort(axis=1, kind="stable")
        new = np.empty(len(orders), dtype=bool)
        new[0] = orders[0].tobytes() != self._last[0]
        new[1:] = (orders[1:] != orders[:-1]).any(axis=1)
        # Entry 0 is the memo's cost, so a row that repeats it reads index 0.
        values = [self._last[1]] + [self._route_cost(order) for order in orders[new].tolist()]
        costs = [values[i] for i in new.cumsum().tolist()]
        self._last = (orders[-1].tobytes(), costs[-1])
        return costs

    def _route_cost(self, order: list) -> float:
        """The penalized cost of visiting ``order``, 0-based customers.

        On an exact instance the loop carries only the clock, as each
        leg already holds the service time of the customer it reaches,
        and the travel time is the clock minus the total service time.
        That gives the float loop's bits: every clock is a sum of
        integers below 2**53, so each partial sum is an integer that a
        float holds exactly.  The clock therefore has the same value
        after every arc as the float loop's ``now += leg + s[idx]``,
        and every slot decision is the same.  Every customer is visited
        once, so the clock is the exact sum of the legs plus the total
        service time, and subtracting the total gives the float loop's
        exact sum of the legs.  The return leg and the penalty are then
        added to the same operands.  The last customer's row, in the
        clock's slot, ends with the return leg; a clock past the last
        slot is at or past the H-th start, thus the horizon, so the
        return-leg test alone sends it to the penalty.
        """
        out, s, edges, service_total, horizon = self.instance._route_tables
        rows = out[0]
        cur = rows[-1]
        edge = edges[0]
        now = 0.0
        if service_total is None:
            total = 0.0
            for idx in order:
                leg = cur[idx]
                now += leg + s[idx]
                total += leg
                # At or past the next slot's start, the slot is the
                # number of starts at or below the clock, as in decode_tdtsp.
                if now >= edge:
                    slot = bisect_right(edges, now)
                    rows = out[slot]
                    edge = edges[slot]
                cur = rows[idx]
        else:
            for idx in order:
                now += cur[idx]
                if now >= edge:
                    slot = bisect_right(edges, now)
                    rows = out[slot]
                    edge = edges[slot]
                cur = rows[idx]
            total = now - service_total
        leg = cur[-1]
        if now + leg < horizon:
            return total + leg
        return total + out[-1][idx][-1] + horizon * LATE_PENALTY_FACTOR

    def decode(self, keys: np.ndarray) -> TdTspSolution:
        return decode_tdtsp(self.instance, keys)


_PERMUTATION_GUARD = 10


def brute_force_tdtsp(instance: TdTspInstance) -> tuple[float, tuple[int, ...]]:
    """Exact (cost, visiting order) by a lexicographic depth-first branch
    and bound (Little, Murty, Sweeney & Karel, 1963).

    Each step is the float loop of :meth:`TdTspDecoder.cost`, so a leaf
    costs the decoder's float.  On an exact instance the legs carry the
    service times, and a prefix is dropped once ``total``, the cheapest
    legs into the unvisited customers (in the slots that a clock below
    ``(n + 1) * max travel + total service`` reaches) and back, less the
    total service time, reach the best: integers below 2**53, so the
    test is exact.  Elsewhere it is ``total >= best``, which is safe as
    rounding is monotone and no leg is negative.  Only a strictly lower
    leaf replaces the best, so ties keep the lexicographically first
    order.  Refuses more than 10 customers.
    """
    n = instance.n_customers
    if n > _PERMUTATION_GUARD:
        raise OracleGuardError(
            f"{n} customers means {math.factorial(n)} routes, above the guard"
        )
    out, service, edges, service_total, horizon = instance._route_tables
    if service_total is None:
        s, into, base, rest = service, [0.0] * n, 0.0, 0.0
    else:
        # A customer's leg to itself is never taken.
        travel = instance.travel
        reach = bisect_right(edges, (n + 1) * float(travel.max()) + service_total) + 1
        legs = travel[:reach, : n + 1, 1 : n + 1].copy()
        legs[:, range(1, n + 1), range(n)] = math.inf
        into = (legs.min(axis=(0, 1)) + instance.service[1 : n + 1]).tolist()
        s, base = [0.0] * n, service_total
        rest = sum(into) + float(travel[:, 1 : n + 1, 0].min()) - base
    penalty = horizon * LATE_PENALTY_FACTOR
    best_cost = math.inf
    best_order: tuple[int, ...] = ()
    order = [0] * n

    # rest: the cheapest legs into the unvisited customers and back, less base.
    def visit(free, depth, now, total, rest, rows, edge, cur):
        nonlocal best_cost, best_order
        for pos, j in enumerate(free):
            leg = cur[j]
            t = total + leg
            r = rest - into[j]
            if t + r >= best_cost:
                continue
            clock = now + (leg + s[j])
            if clock >= edge:
                slot = bisect_right(edges, clock)
                here, until = out[slot], edges[slot]
            else:
                here, until = rows, edge
            order[depth] = j
            if depth < n - 2:
                visit(free[:pos] + free[pos + 1 :], depth + 1, clock, t, r, here, until, here[j])
                continue
            if depth == n - 2:
                # The last customer is stepped here: one call fewer per route.
                k = free[1 - pos]
                leg = here[j][k]
                t += leg
                if t + r - into[k] >= best_cost:
                    continue
                clock += leg + s[k]
                if clock >= until:
                    here = out[bisect_right(edges, clock)]
                order[depth + 1] = j = k
            ret = here[j][-1]
            if clock + ret < horizon:
                cost = (t - base) + ret
            else:
                cost = (t - base) + out[-1][j][-1] + penalty
            if cost < best_cost:
                best_cost, best_order = cost, tuple(c + 1 for c in order)

    visit(list(range(n)), 0, 0.0, 0.0, rest, out[0], edges[0], out[0][-1])
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
