import itertools

import numpy as np
import pytest

from randomkeys import (
    KEY_MAX,
    InstanceWarning,
    OracleGuardError,
    TdTspDecoder,
    TdTspInstance,
    brute_force_tdtsp,
    check_tdtsp,
    decode_tdtsp,
    generate_tdtsp_instance,
    travel_time_lower_bound,
)
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


def test_brute_force_guard():
    inst = generate_tdtsp_instance(11, 2, seed=62)
    with pytest.raises(OracleGuardError):
        brute_force_tdtsp(inst)


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

