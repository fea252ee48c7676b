import dataclasses
import itertools
import math

import numpy as np
import pytest

from randomkeys import (
    KEY_MAX,
    BrkgaParams,
    IlsParams,
    InstanceWarning,
    OracleGuardError,
    RunBudget,
    SaParams,
    TdTspDecoder,
    TdTspInstance,
    brute_force_tdtsp,
    check_tdtsp,
    decode_tdtsp,
    generate_tdtsp_instance,
    run_ensemble,
    travel_time_lower_bound,
)
from randomkeys.tdtsp import LATE_PENALTY_FACTOR, _slot_start
from conftest import BENCH_KEYS


def test_known_trace(bench_instance):
    sol = decode_tdtsp(bench_instance, BENCH_KEYS)
    assert sol.order == (5, 4, 2, 3, 1, 6)
    visited_times = [sol.arrival[v] for v in sol.order]
    assert visited_times == [6, 19, 26, 37, 46, 54]
    assert sol.arrival[7] == 59
    assert not sol.penalized
    assert sol.cost == 32.0
    # the slot flips to 1 exactly once, after the fourth visit
    slots = [h for _, _, h in sol.arcs]
    assert slots == [0, 0, 0, 0, 1, 1, 1]


def test_trace_passes_all_checker_families(bench_instance):
    sol = decode_tdtsp(bench_instance, BENCH_KEYS)
    verdict = check_tdtsp(bench_instance, sol)
    assert verdict.feasible, verdict.reasons
    assert all(verdict.families.values())


def test_order_is_a_permutation(bench_instance):
    rng = np.random.default_rng(51)
    for _ in range(300):
        sol = decode_tdtsp(bench_instance, rng.random(6))
        assert sorted(sol.order) == [1, 2, 3, 4, 5, 6]


def test_equal_keys_break_ties_by_customer_index(bench_instance):
    sol = decode_tdtsp(bench_instance, np.full(6, 0.5))
    assert sol.order == (1, 2, 3, 4, 5, 6)


def test_flows_start_at_n_and_telescope(bench_instance):
    sol = decode_tdtsp(bench_instance, BENCH_KEYS)
    route = [0] + list(sol.order) + [7]
    values = {(i, j): v for i, j, v in sol.flows}
    for step, (a, b) in enumerate(zip(route, route[1:])):
        assert values[(a, b)] == 6 - step
        assert values[(b, a)] == step


def test_tight_horizon_gets_penalized(bench_instance):
    tight = TdTspInstance(
        n_customers=6, n_intervals=2, interval_length=10.0,
        service=bench_instance.service.copy(),
        travel=bench_instance.travel.copy(),
        seed=None,
    )
    sol = decode_tdtsp(tight, BENCH_KEYS)
    assert sol.penalized
    assert sol.cost == pytest.approx(sol.travel_cost + 20.0 * 1000.0)
    verdict = check_tdtsp(tight, sol)
    assert not verdict.feasible
    assert not verdict.families["horizon"]


def test_checker_rejects_tampered_flows(bench_instance):
    sol = decode_tdtsp(bench_instance, BENCH_KEYS)
    bad_flows = list(sol.flows)
    i, j, v = bad_flows[0]
    bad_flows[0] = (i, j, v - 1)
    tampered = type(sol)(
        order=sol.order, arrival=sol.arrival, arcs=sol.arcs,
        flows=tuple(bad_flows), travel_cost=sol.travel_cost,
        penalized=sol.penalized, cost=sol.cost,
    )
    verdict = check_tdtsp(bench_instance, tampered)
    assert not verdict.families["flow"] or not verdict.families["linking"]


def test_checker_rejects_tampered_times(bench_instance):
    sol = decode_tdtsp(bench_instance, BENCH_KEYS)
    arrival = sol.arrival.copy()
    arrival[sol.order[0]] += 3.0
    tampered = type(sol)(
        order=sol.order, arrival=arrival, arcs=sol.arcs, flows=sol.flows,
        travel_cost=sol.travel_cost, penalized=sol.penalized, cost=sol.cost,
    )
    assert not check_tdtsp(bench_instance, tampered).families["time_propagation"]


def tight_fifty_customer_instance():
    # The horizon lies 330 time units above the summed service times, so
    # random orders split into routes on time, routes past the horizon
    # before the return leg, and routes late only on the return leg.
    service = generate_tdtsp_instance(50, 4, seed=55).service.sum()
    return generate_tdtsp_instance(50, 4, seed=55, horizon=service + 330.0)


def test_decoder_fast_path_matches_full_decode(bench_instance):
    decoder = TdTspDecoder(bench_instance)
    rng = np.random.default_rng(52)
    for _ in range(300):
        keys = rng.random(6)
        assert decoder.cost(keys) == decode_tdtsp(bench_instance, keys).cost

    tight = tight_fifty_customer_instance()
    decoder = TdTspDecoder(tight)
    outcomes = {"on time": 0, "late mid-route": 0, "late on return": 0}
    for _ in range(120):
        keys = rng.random(50)
        sol = decode_tdtsp(tight, keys)
        assert decoder.cost(keys) == sol.cost
        if not sol.penalized:
            outcomes["on time"] += 1
            verdict = check_tdtsp(tight, sol)
            assert verdict.feasible, verdict.reasons
        elif sol.arrival[sol.order[-1]] >= tight.horizon:
            outcomes["late mid-route"] += 1
        else:
            outcomes["late on return"] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_decoder_fast_path_keeps_stable_order_on_tied_keys():
    # Above 16 keys numpy's default sort is not stable, so this catches a
    # kernel that sorts without ``kind="stable"``.
    inst = generate_tdtsp_instance(40, 3, seed=53)
    decoder = TdTspDecoder(inst)
    rng = np.random.default_rng(54)
    for _ in range(50):
        keys = rng.choice([0.0, 0.25, 0.5, KEY_MAX], size=40)
        sol = decode_tdtsp(inst, keys)
        assert sol.order == tuple(i + 1 for i in sorted(range(40), key=keys.__getitem__))
        assert decoder.cost(keys) == sol.cost


def tenths_instance(n, h, seed, rng):
    """Tenths of a generated instance's travel times, service times of
    0.1 to 0.3 and slots of 0.3: the clocks are sums of inexact floats
    that often land on a slot edge k * 0.3 or one ulp below it."""
    service = np.zeros(n + 2)
    service[1 : n + 1] = rng.integers(1, 4, size=n) * 0.1
    return TdTspInstance(
        n_customers=n, n_intervals=h, interval_length=0.3, service=service,
        travel=generate_tdtsp_instance(n, h, seed=seed).travel * 0.1, seed=None,
    )


def slot_edge_clocks(instance, block):
    """Which kinds of clock at a slot edge, ``k * interval_length`` for
    k = 1..H-1 or the float just below it, the block's routes reach on
    leaving a customer."""
    edges = {k * instance.interval_length for k in range(1, instance.n_intervals)}
    below = {math.nextafter(edge, -math.inf) for edge in edges}
    kinds = set()
    for row in block:
        for clock in decode_tdtsp(instance, row).arrival[1:-1].tolist():
            if clock in edges:
                kinds.add("on an edge")
            elif clock in below:
                kinds.add("an ulp below")
    return kinds


def test_route_kernel_equals_cost_on_every_row():
    # Random sizes and slot counts, horizons short enough that routes
    # end on time, late mid-route or late on the return leg, blocks of
    # one row, tied keys, and a memo primed with one of the block's
    # routes: decode_tdtsp, row by row, gives the scalar costs, byte for
    # byte.  The last 80 cases have fractional times whose clocks land
    # on slot edges and one ulp below them.
    rng = np.random.default_rng(62)
    late = set()
    edge_clocks = set()
    for case in range(160):
        if case < 80:
            n, h = int(rng.integers(1, 61)), int(rng.integers(1, 8))
            service = generate_tdtsp_instance(n, h, seed=case).service.sum()
            horizon = service + rng.uniform(0.0, 1.5) * 6.5 * (n + 1)
            instance = generate_tdtsp_instance(n, h, seed=case, horizon=horizon)
        else:
            n, h = int(rng.integers(1, 61)), int(rng.integers(1, 41))
            instance = tenths_instance(n, h, case, rng)
        decoder = TdTspDecoder(instance)
        block = rng.random((1 if case % 4 == 0 else int(rng.integers(2, 90)), n))
        block[1::2] = rng.choice([0.0, 0.25, 0.5, KEY_MAX], size=block[1::2].shape)
        decoder.cost(block[-1])
        decoded = [decode_tdtsp(instance, row).cost for row in block]
        expected = [decoder.cost(row) for row in block]
        assert np.array(decoded).tobytes() == np.array(expected).tobytes()
        assert [decoder.cost(row) for row in block] == expected
        late.update(cost >= decoder.instance.horizon for cost in decoded)
        if case >= 80:
            edge_clocks.update(slot_edge_clocks(instance, block))
    assert late == {False, True}
    assert edge_clocks == {"on an edge", "an ulp below"}


def reference_simulate(instance, orders):
    """A row-vectorised route walk with slots by floor division capped at
    H - 1 and legs by a 3-D fancy index: the reference whose bytes
    ``decode_tdtsp`` must give on each row of ``orders``."""
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


def test_route_kernel_gives_the_floor_division_reference_bytes():
    # The case mix of test_route_kernel_equals_cost_on_every_row: every
    # output of decode_tdtsp, row by row, not only the cost, keeps the
    # reference's bytes, also for clocks exactly on a slot start or one
    # ulp below.
    rng = np.random.default_rng(62)
    late = set()
    clocks = set()
    for case in range(160):
        if case < 80:
            n, h = int(rng.integers(1, 61)), int(rng.integers(1, 8))
            service = generate_tdtsp_instance(n, h, seed=case).service.sum()
            horizon = service + rng.uniform(0.0, 1.5) * 6.5 * (n + 1)
            instance = generate_tdtsp_instance(n, h, seed=case, horizon=horizon)
        else:
            n, h = int(rng.integers(1, 61)), int(rng.integers(1, 41))
            instance = tenths_instance(n, h, case, rng)
        block = rng.random((1 if case % 4 == 0 else int(rng.integers(2, 90)), n))
        block[1::2] = rng.choice([0.0, 0.25, 0.5, KEY_MAX], size=block[1::2].shape)
        orders = block.argsort(axis=1, kind="stable") + 1
        want = reference_simulate(instance, orders)
        for row, keys in enumerate(block):
            sol = decode_tdtsp(instance, keys)
            assert sol.order == tuple(orders[row].tolist())
            assert [h for _, _, h in sol.arcs] == want[0][:, row].tolist()
            times = np.append(sol.arrival[orders[row]], sol.arrival[n + 1])
            assert times.tobytes() == want[1][:, row].tobytes()
            assert np.float64(sol.travel_cost).tobytes() == want[2][row].tobytes()
            assert sol.penalized is bool(want[3][row])
            assert np.float64(sol.cost).tobytes() == want[4][row].tobytes()
        late.update(want[3].tolist())
        starts = instance._slot_starts.tolist()
        below = {math.nextafter(start, -math.inf) for start in starts}
        departures = set(want[1][:n].ravel().tolist())
        if departures & set(starts):
            clocks.add("on a start")
        if departures & below:
            clocks.add("an ulp below")
    assert late == {False, True}
    assert clocks == {"on a start", "an ulp below"}


def test_slot_start_is_the_first_clock_of_its_slot():
    rng = np.random.default_rng(67)
    for _ in range(50_000):
        t_bar = float(10.0 ** rng.uniform(-3.0, 5.0))
        k = int(rng.integers(1, 10_001))
        start = _slot_start(k, t_bar)
        assert start // t_bar >= k > math.nextafter(start, -math.inf) // t_bar
    for t_bar in (0.1, 0.3, 0.7, 1.1, 54_000.0 / 7):
        for k in range(1, 1000):
            start = _slot_start(k, t_bar)
            assert start // t_bar >= k > math.nextafter(start, -math.inf) // t_bar
    instance = tenths_instance(3, 40, 68, rng)
    starts = instance._slot_starts
    assert starts.tolist() == [_slot_start(k, 0.3) for k in range(1, 41)]
    with pytest.raises(ValueError):
        starts[0] = 0.0


def test_last_slot_start_is_at_or_above_the_horizon():
    # The kernel's late test is the return-leg test alone: a clock that
    # reaches the H-th slot start is at or past the horizon already.
    rng = np.random.default_rng(72)
    t_bars = 10.0 ** rng.uniform(-3.0, 5.0, size=100_000)
    counts = rng.integers(1, 10_001, size=100_000)
    for t_bar, h in zip(t_bars.tolist(), counts.tolist()):
        assert _slot_start(h, t_bar) >= h * t_bar
    for h in (1, 3, 7, 40):
        instance = tenths_instance(2, h, 73, rng)
        assert instance._slot_starts[-1] >= instance.horizon


def reference_route_costs(instance, orders):
    """The scalar route loop with the clock and the travel time summed
    apart, over lists built from the instance's arrays: the reference
    whose bytes the exact loop must give.  ``orders`` hold 0-based
    customers."""
    n = instance.n_customers
    big_h = instance.n_intervals
    t_bar = instance.interval_length
    start = instance.travel[0, 0, 1 : n + 1].tolist()
    out = instance.travel[:, 1 : n + 1, 1 : n + 1].tolist()
    back = instance.travel[:, 1 : n + 1, 0].tolist()
    s = instance.service[1 : n + 1].tolist()
    edges = [k * t_bar for k in range(1, big_h)] + [math.inf]

    def reference_route_cost(order):
        cur = start
        rows = out[0]
        edge = edges[0]
        now = 0.0
        total = 0.0
        for idx in order:
            leg = cur[idx]
            now += leg + s[idx]
            total += leg
            if now >= edge:
                slot = min(int(now // t_bar), big_h - 1)
                rows = out[slot]
                edge = edges[slot]
            cur = rows[idx]
        slot = int(now // t_bar)
        if slot < big_h:
            leg = back[slot][idx]
            if now + leg < big_h * t_bar:
                return total + leg
        return total + back[big_h - 1][idx] + big_h * t_bar * LATE_PENALTY_FACTOR

    return [reference_route_cost(order) for order in orders]


def integer_slot_instance(n, h, seed, rng):
    """A generated instance's integer travel times with service times of
    1 to 5 and slots of 5 to 14 time units: integer clocks that often
    land exactly on a slot edge."""
    service = np.zeros(n + 2)
    service[1 : n + 1] = rng.integers(1, 6, size=n)
    return TdTspInstance(
        n_customers=n, n_intervals=h, interval_length=float(rng.integers(5, 15)),
        service=service, travel=generate_tdtsp_instance(n, h, seed=seed).travel, seed=None,
    )


def route_outcome(instance, keys):
    sol = decode_tdtsp(instance, keys)
    if not sol.penalized:
        return "on time"
    if sol.arrival[sol.order[-1]] >= instance.horizon:
        return "late mid-route"
    return "late on return"


def test_exact_route_loop_gives_the_reference_bytes():
    # Generated instances with horizons that split routes into on time,
    # late mid-route and late on the return leg, tied keys, and integer
    # instances with integral slots whose clocks land on slot edges:
    # the exact loop returns the reference's bytes on every row.
    rng = np.random.default_rng(74)
    outcomes = set()
    on_edge = 0
    for case in range(120):
        n, h = int(rng.integers(1, 61)), int(rng.integers(1, 8))
        if case < 60:
            service = generate_tdtsp_instance(n, h, seed=case).service.sum()
            horizon = service + rng.uniform(0.0, 1.5) * 6.5 * (n + 1)
            instance = generate_tdtsp_instance(n, h, seed=case, horizon=horizon)
        else:
            instance = integer_slot_instance(n, int(rng.integers(1, 41)), case, rng)
        assert instance._route_tables.service_total is not None
        decoder = TdTspDecoder(instance)
        block = rng.random((int(rng.integers(1, 40)), n))
        block[1::2] = rng.choice([0.0, 0.25, 0.5, KEY_MAX], size=block[1::2].shape)
        got = [decoder.cost(row) for row in block]
        want = reference_route_costs(instance, block.argsort(axis=1, kind="stable").tolist())
        assert np.array(got).tobytes() == np.array(want).tobytes()
        outcomes.update(route_outcome(instance, row) for row in block)
        if case >= 60:
            edges = {k * instance.interval_length for k in range(1, instance.n_intervals)}
            on_edge += sum(
                clock in edges
                for row in block
                for clock in decode_tdtsp(instance, row).arrival[1:-1].tolist()
            )
    assert outcomes == {"on time", "late mid-route", "late on return"}
    assert on_edge > 0


def bounded_instance(travel_max):
    """Three customers with integer service times and one leg of
    ``travel_max``, the largest travel time."""
    base = generate_tdtsp_instance(3, 2, seed=75)
    travel = base.travel.copy()
    travel[:, 1, 2] = travel_max
    return TdTspInstance(
        n_customers=3, n_intervals=2, interval_length=base.interval_length,
        service=base.service, travel=travel, seed=None,
    )


def test_route_loop_is_chosen_from_the_data(bench_instance):
    # Integer data whose routes stay below 2**53 take the exact loop;
    # one fractional service or travel time, or a travel time that
    # breaks the bound, sends the instance to the float loop, whose
    # costs are decode_tdtsp's.
    rng = np.random.default_rng(76)
    for instance in (
        bench_instance,
        generate_tdtsp_instance(6, 3, seed=77),
        generate_tdtsp_instance(50, 5, seed=1),
        tight_fifty_customer_instance(),
    ):
        assert instance._route_tables.service_total == instance.service.sum()
        assert instance._route_tables.service is None
    for h in (1, 5, 40):
        assert tenths_instance(8, h, 78, rng)._route_tables.service_total is None

    base = generate_tdtsp_instance(8, 3, seed=79)
    half = base.service.copy()
    half[4] = 0.5
    halves = base.travel.copy()
    halves[:, 2, 3] += 0.5
    at_bound = (2**53 - 1 - bounded_instance(0.0).service.sum()) // 4
    fractional = [
        TdTspInstance(
            n_customers=8, n_intervals=3, interval_length=base.interval_length,
            service=half, travel=base.travel, seed=None,
        ),
        TdTspInstance(
            n_customers=8, n_intervals=3, interval_length=base.interval_length,
            service=base.service, travel=halves, seed=None,
        ),
        bounded_instance(float(at_bound + 1)),
    ]
    for instance in fractional:
        tables = instance._route_tables
        assert tables.service_total is None
        assert tables.service == instance.service[1:-1].tolist()
        decoder = TdTspDecoder(instance)
        for keys in rng.random((200, instance.n_customers)):
            assert decoder.cost(keys) == decode_tdtsp(instance, keys).cost

    exact = bounded_instance(float(at_bound))
    assert exact._route_tables.service_total is not None
    orders = [list(order) for order in itertools.permutations(range(3))]
    decoder = TdTspDecoder(exact)
    got = [decoder.cost(keys_in_order(np.array(order))) for order in orders]
    assert np.array(got).tobytes() == np.array(reference_route_costs(exact, orders)).tobytes()
    assert max(got) > at_bound


def test_the_float_below_a_slot_edge_lies_in_an_earlier_slot():
    # The scalar route loop looks its slot up again only once the clock
    # reaches the float k * interval_length; every clock below it must
    # floor-divide to a slot below k.
    rng = np.random.default_rng(66)
    for _ in range(50_000):
        t_bar = float(10.0 ** rng.uniform(-3.0, 5.0))
        k = int(rng.integers(1, 10_000))
        assert math.nextafter(k * t_bar, -math.inf) // t_bar < k
    for t_bar in (0.1, 0.3, 0.7, 1.1, 54_000.0 / 7):
        for k in range(1, 1000):
            assert math.nextafter(k * t_bar, -math.inf) // t_bar < k


def test_instance_keeps_read_only_copies_of_its_arrays():
    base = generate_tdtsp_instance(6, 2, seed=64)
    service, travel = base.service.copy(), base.travel.copy()
    instance = TdTspInstance(
        n_customers=6, n_intervals=2, interval_length=base.interval_length,
        service=service, travel=travel, seed=None,
    )
    keys = np.random.default_rng(65).random(6)
    cost = TdTspDecoder(instance).cost(keys)
    with pytest.raises(ValueError):
        instance.travel *= 2.0
    with pytest.raises(ValueError):
        instance.service[1] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        instance.travel = travel * 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        instance.interval_length = 1.0
    # The caller's arrays stay its own and writable.
    travel *= 2.0
    service[1:7] += 1.0
    assert TdTspDecoder(instance).cost(keys) == decode_tdtsp(instance, keys).cost == cost


def keys_in_order(order):
    """Distinct keys whose stable sort is ``order``."""
    keys = np.empty(len(order))
    keys[order] = np.arange(len(order)) / len(order)
    return keys


def memo_sequence(rng, n, count):
    """Key vectors that probe the decoder's memory of its last route:
    back-to-back repeats (the same array and a copy), A-B-A
    alternations, other keys in the same order, and tied keys followed
    by distinct keys in the order of their default (unstable) sort and
    of their reversed tie-break."""
    for _ in range(count):
        a, b = rng.random(n), rng.random(n)
        yield from (a, a, a.copy(), b, a, b, b)
        yield keys_in_order(a.argsort(kind="stable"))
        yield a
        tied = rng.choice([0.0, 0.25, 0.5, KEY_MAX], size=n)
        yield from (tied, keys_in_order(tied.argsort()), tied)
        yield keys_in_order(np.lexsort((-np.arange(n), tied)))
        yield tied


def test_route_memo_returns_the_decoded_cost():
    # n = 50, above numpy's stable small-array sort, on an instance where
    # routes end on time, late mid-route and late only on the return leg.
    tight = tight_fifty_customer_instance()
    decoder = TdTspDecoder(tight)
    rng = np.random.default_rng(56)
    late = set()
    for keys in memo_sequence(rng, 50, 40):
        sol = decode_tdtsp(tight, keys)
        assert decoder.cost(keys) == sol.cost
        late.add(sol.penalized)
    assert late == {False, True}


class CountingRows(list):
    """Per-slot travel rows that count how often the simulation reads
    them: at least once per simulated route."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def test_route_memo_skips_the_simulation_of_a_repeated_order():
    instance = generate_tdtsp_instance(20, 3, seed=57)
    tables = instance._route_tables
    rows = CountingRows(tables.out)
    instance.__dict__["_route_tables"] = tables._replace(out=rows)
    decoder = TdTspDecoder(instance)
    keys = np.random.default_rng(58).random(20)
    first = decoder.cost(keys)
    reads = rows.reads
    assert reads > 0
    # The same order from other keys costs a comparison, not a route.
    assert decoder.cost(keys_in_order(keys.argsort(kind="stable"))) == first
    assert decoder.cost(keys * 0.5) == first
    assert rows.reads == reads
    decoder.cost(keys[::-1].copy())
    assert rows.reads > reads


class Interrupted(Exception):
    pass


class FailingRows(list):
    def __getitem__(self, index):
        raise Interrupted


def test_interrupted_route_leaves_the_memo_unchanged(monkeypatch):
    instance = generate_tdtsp_instance(8, 2, seed=59)
    decoder = TdTspDecoder(instance)
    rng = np.random.default_rng(60)
    a, b = rng.random(8), rng.random(8)
    decoder.cost(a)
    with monkeypatch.context() as patch:
        failing = instance._route_tables._replace(out=FailingRows())
        patch.setitem(instance.__dict__, "_route_tables", failing)
        with pytest.raises(Interrupted):
            decoder.cost(b)
    assert decoder.cost(b) == decode_tdtsp(instance, b).cost
    assert decoder.cost(a) == decode_tdtsp(instance, a).cost


def block_cases(rng, n):
    """(prime, block) pairs that probe ``cost_rows``: the decoder costs
    ``prime`` first, then the block.  Random rows; shrink-like runs of
    rows in one order, A-B-A included; tied keys; -0.0 beside 0.0; NaN
    keys; a first row in the order of ``prime``; and one-row blocks."""
    a, b = rng.random(n), rng.random(n)
    yield a, rng.random((int(rng.integers(2, 80)), n))
    runs = [a, b, a, rng.random(n), rng.random(n)]
    shrink = np.array(
        [r * rng.uniform(0.5, 1.0) for r in runs for _ in range(int(rng.integers(1, 15)))]
    )
    yield a, shrink
    yield b, shrink
    tied = rng.choice([0.0, 0.25, 0.5, KEY_MAX], size=(30, n))
    tied[1::3] = tied[::3][: len(tied[1::3])]
    yield a, tied
    signed = np.where(tied == 0.0, rng.choice([0.0, -0.0], size=tied.shape), tied)
    yield tied[0], signed
    holes = rng.random((20, n))
    holes[rng.random(holes.shape) < 0.2] = np.nan
    holes[1::2] = holes[::2]
    yield holes[0], holes
    yield a, a[None] * 0.5
    yield a, b[None]


def test_cost_rows_gives_the_bits_and_memo_of_cost_row_by_row():
    # Exact instances with routes on time and late (mid-route or on the
    # return leg), and tenths instances, which take the float loop.
    rng = np.random.default_rng(63)
    late, fired = set(), set()
    for case in range(40):
        n, h = int(rng.integers(1, 61)), int(rng.integers(1, 8))
        if case % 2:
            instance = tenths_instance(n, h, case, rng)
        else:
            service = generate_tdtsp_instance(n, h, seed=case).service.sum()
            horizon = service + rng.uniform(0.0, 1.5) * 6.5 * (n + 1)
            instance = generate_tdtsp_instance(n, h, seed=case, horizon=horizon)
        for prime, block in block_cases(rng, n):
            reference = TdTspDecoder(instance)
            primed = reference.cost(prime)
            every = [reference.cost(row) for row in block]
            orders = [prime.argsort(kind="stable").tolist()]
            orders += block.argsort(axis=1, kind="stable").tolist()
            # A row that repeats the order before it costs what that row
            # does, so a stop at its cost fires at the first row of its run.
            repeat = next((i for i in range(1, len(block)) if orders[i + 1] == orders[i]), 0)
            up = [math.nextafter(cost, math.inf) for cost in (primed, every[repeat], every[-1])]
            # No stop, the memo's cost, a repeated row's, the last row's,
            # and the lowest cost, which no row is below.
            for stop in (-math.inf, *up, min(every)):
                below = [i for i, cost in enumerate(every) if cost < stop]
                end = below[0] + 1 if below else len(block)
                rows, whole = TdTspDecoder(instance), TdTspDecoder(instance)
                walks = []
                route = whole._route_cost
                whole._route_cost = lambda order: walks.append(order) or route(order)
                rows.cost(prime)
                whole.cost(prime)
                walks.clear()
                expected = [rows.cost(row) for row in block[:end]]
                got = whole.cost_rows(block, stop)
                assert all(type(cost) is float for cost in got)
                assert np.array(got).tobytes() == np.array(expected).tobytes()
                assert whole._last == rows._last
                # One walk per row up to the stop whose order differs
                # from the row before.
                walked = zip(orders[1 : end + 1], orders)
                assert walks == [o for o, before in walked if o != before]
                late.update(cost >= instance.horizon for cost in got)
                if not below:
                    fired.add("never")
                elif end == 1 and orders[1] == orders[0]:
                    fired.add("memo")
                elif end < len(block) and orders[end + 1] == orders[end]:
                    fired.add("inside a run")
                elif end == len(block) > 1:
                    fired.add("last")
    assert late == {False, True}
    assert fired == {"never", "memo", "inside a run", "last"}


def test_cost_rows_refuses_rows_of_another_length():
    decoder = TdTspDecoder(generate_tdtsp_instance(6, 2, seed=1))
    for block in (np.zeros(6), np.zeros((3, 5)), np.zeros((2, 3, 6))):
        with pytest.raises(ValueError):
            decoder.cost_rows(block)
    assert decoder._last == (None, 0.0)


def test_late_route_costs_are_python_floats():
    # interval_length is a numpy float here, and so is the horizon.
    base = generate_tdtsp_instance(6, 3, 1)
    instance = generate_tdtsp_instance(6, 3, 1, horizon=0.9 * base.service.sum())
    block = np.random.default_rng(64).random((20, 6))
    decoder = TdTspDecoder(instance)
    for keys in block:
        cost = decoder.cost(keys)
        assert type(cost) is float
        assert cost == decode_tdtsp(instance, keys).cost >= instance.horizon
    costs = TdTspDecoder(instance).cost_rows(block)
    assert all(type(cost) is float for cost in costs)
    assert min(costs) >= instance.horizon


def test_shared_decoder_reports_as_a_fresh_one():
    instance = generate_tdtsp_instance(30, 3, seed=61)
    searchers = [BrkgaParams(), SaParams(), IlsParams()]
    budget = RunBudget(decoder_calls=2000)
    shared = TdTspDecoder(instance)
    run_ensemble(shared, searchers, budget, 1, deterministic=True)
    again = run_ensemble(shared, searchers, budget, 2, deterministic=True)
    fresh = run_ensemble(TdTspDecoder(instance), searchers, budget, 2, deterministic=True)
    assert again.best_keys.tobytes() == fresh.best_keys.tobytes()
    assert (again.best_cost, again.time_to_best, again.decoder_calls, again.searcher) == (
        fresh.best_cost, fresh.time_to_best, fresh.decoder_calls, fresh.searcher
    )


def test_lower_bound_below_unpenalized_costs(bench_instance):
    bound = travel_time_lower_bound(bench_instance)
    assert bound == 10.0
    rng = np.random.default_rng(53)
    for _ in range(300):
        sol = decode_tdtsp(bench_instance, rng.random(6))
        if not sol.penalized:
            assert bound <= sol.cost


def test_brute_force_agrees_with_exhaustive_decoding():
    inst = generate_tdtsp_instance(5, 2, seed=61)
    # Every route of this one is late, and its fractional travel times
    # make the sum depend on the order in which the penalty is added.
    late = TdTspInstance(
        n_customers=5, n_intervals=2, interval_length=5.0,
        service=inst.service, travel=inst.travel / 10.0, seed=None,
    )
    for instance in (inst, late):
        decoder = TdTspDecoder(instance)
        opt_cost, opt_order = brute_force_tdtsp(instance)
        best = min(
            decoder.cost(np.array(perm, dtype=float))
            for perm in itertools.permutations(range(5))
        )
        assert opt_cost == best
        assert sorted(opt_order) == [1, 2, 3, 4, 5]
        assert decode_tdtsp(instance, np.argsort(opt_order) / 5.0).order == opt_order
    assert brute_force_tdtsp(late)[0] > late.horizon * 1000.0


def reference_brute_force(instance):
    """The oracle by itertools permutations in chunks of 200,000, read
    with ``np.fromiter`` and simulated by the reference kernel: the
    reference whose optimum and order ``brute_force_tdtsp`` must give."""
    n = instance.n_customers
    chunk = 200_000
    best_cost = math.inf
    best_order = ()
    source = itertools.permutations(range(1, n + 1))
    for _ in range(0, math.factorial(n), chunk):
        block = itertools.chain.from_iterable(itertools.islice(source, chunk))
        perms = np.fromiter(block, dtype=np.int64).reshape(-1, n)
        cost = reference_simulate(instance, perms)[4]
        pos = int(np.argmin(cost))
        if cost[pos] < best_cost:
            best_cost = float(cost[pos])
            best_order = tuple(perms[pos].tolist())
    return best_cost, best_order


def tied_instance(n):
    """Unit travel, equal service and a long horizon: every route costs n + 1."""
    travel = np.ones((2, n + 2, n + 2))
    service = np.zeros(n + 2)
    service[1 : n + 1] = 3.0
    return TdTspInstance(
        n_customers=n, n_intervals=2, interval_length=10.0 * n,
        service=service, travel=travel, seed=None,
    )


def near_tied_instance(n, seed):
    """Travel times of 1 or 2, one more in slot 0, service times of 1 to
    3 and slots of 3 to 5: routes cross slots, many cost within one of
    the optimum, and the oracle's bound is often tight."""
    rng = np.random.default_rng(seed)
    h = 4
    travel = rng.integers(1, 3, size=(h, n + 2, n + 2)).astype(float)
    travel[0] += 1.0
    travel[:, n + 1, :] = travel[:, 0, :]
    travel[:, :, n + 1] = travel[:, :, 0]
    service = np.zeros(n + 2)
    service[1 : n + 1] = rng.integers(1, 4, size=n)
    return TdTspInstance(
        n_customers=n, n_intervals=h, interval_length=float(rng.integers(3, 6)),
        service=service, travel=travel, seed=None,
    )


def test_brute_force_gives_the_reference_optimum():
    # Generated, tight and all-late generated, and tenths instances at
    # n = 1..8; an n = 9 instance; an exact instance whose route bound
    # lies just below 2**53; an all-late tenths instance at n = 9, where
    # the bound is the travel time alone; near ties, where the bound is
    # often tight; and ties, where both pick the first order, also at
    # the guard of 10 customers.
    rng = np.random.default_rng(69)
    late = set()
    cases = []
    for n in range(1, 9):
        h = int(rng.integers(1, 6))
        service = generate_tdtsp_instance(n, h, seed=n).service.sum()
        cases += [
            generate_tdtsp_instance(n, h, seed=n),
            generate_tdtsp_instance(n, h, seed=n, horizon=service + 4.0 * (n + 1)),
            generate_tdtsp_instance(n, h, seed=n, horizon=0.9 * service),
            tenths_instance(n, int(rng.integers(1, 41)), 70 + n, rng),
        ]
    cases += [generate_tdtsp_instance(9, 3, seed=71), tied_instance(4), tied_instance(9)]
    at_bound = (2**53 - 1 - bounded_instance(0.0).service.sum()) // 4
    exact = bounded_instance(float(at_bound))
    assert exact._route_tables.service_total is not None
    late_tenths = tenths_instance(9, 4, 80, rng)
    # Every route is late: ten legs of at least 0.1 and the service times.
    assert late_tenths.service.sum() + 1.0 > late_tenths.horizon
    cases += [exact, late_tenths]
    cases += [near_tied_instance(n, 10 * n + k) for n in range(3, 8) for k in range(4)]
    for instance in cases:
        opt = brute_force_tdtsp(instance)
        assert opt == reference_brute_force(instance)
        late.add(opt[0] >= instance.horizon * LATE_PENALTY_FACTOR)
    assert late == {False, True}
    for n in (4, 9, 10):
        assert brute_force_tdtsp(tied_instance(n)) == (n + 1.0, tuple(range(1, n + 1)))


def test_brute_force_guard():
    inst = generate_tdtsp_instance(11, 2, seed=62)
    with pytest.raises(OracleGuardError):
        brute_force_tdtsp(inst)


def test_decode_refuses_keys_of_another_shape(bench_instance):
    cost = TdTspDecoder(bench_instance).cost
    for keys in (BENCH_KEYS[:, None], np.array(0.5), BENCH_KEYS[:5], np.array([])):
        for decode in (lambda k: decode_tdtsp(bench_instance, k), cost):
            with pytest.raises(ValueError, match=r"expected 6 keys, got shape"):
                decode(keys)
    # A memo primed with the same visiting order answers no other shape.
    for decode in (lambda k: decode_tdtsp(bench_instance, k), cost):
        cost(BENCH_KEYS)
        with pytest.raises(ValueError, match=r"expected 6 keys, got shape"):
            decode(BENCH_KEYS[None])


def test_generator_shapes_and_reproducibility():
    a = generate_tdtsp_instance(7, 3, seed=63)
    b = generate_tdtsp_instance(7, 3, seed=63)
    assert np.array_equal(a.travel, b.travel)
    assert np.array_equal(a.service, b.service)
    assert a.travel.shape == (3, 9, 9)
    assert a.service[0] == 0.0 and a.service[8] == 0.0
    assert np.all(a.service[1:8] >= 1800) and np.all(a.service[1:8] <= 2700)
    assert np.all(a.travel[:, np.arange(9), np.arange(9)] == 0.0)
    # terminal row and column mirror the depot
    assert np.array_equal(a.travel[:, 8, :], a.travel[:, 0, :])
    assert np.array_equal(a.travel[:, :8, 8], a.travel[:, :8, 0])
    assert a.seed == 63


def test_instance_warns_on_depot_terminal_mismatch(bench_instance):
    travel = bench_instance.travel.copy()
    travel[0, 7, 1] += 1.0
    with pytest.warns(InstanceWarning):
        TdTspInstance(
            n_customers=6, n_intervals=2, interval_length=30.0,
            service=bench_instance.service.copy(), travel=travel, seed=None,
        )


def test_mid_route_overflow_is_penalized():
    # huge service times blow past both intervals before the route ends
    service = np.array([0.0, 50.0, 50.0, 50.0, 0.0])
    travel = np.ones((2, 5, 5))
    for h in range(2):
        np.fill_diagonal(travel[h], 0.0)
    travel[:, 4, :] = travel[:, 0, :]
    travel[:, :, 4] = travel[:, :, 0]
    inst = TdTspInstance(
        n_customers=3, n_intervals=2, interval_length=20.0,
        service=service, travel=travel, seed=None,
    )
    sol = decode_tdtsp(inst, np.array([0.1, 0.5, 0.9]))
    assert sol.penalized
    assert sol.cost > 1000.0

