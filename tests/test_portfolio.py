import dataclasses
import math

import numpy as np
import pytest

from randomkeys import (
    OracleGuardError,
    PortfolioDecoder,
    PortfolioInstance,
    brute_force_portfolio,
    check_portfolio,
    decode_portfolio,
)
from randomkeys.keys import KEY_MAX
from randomkeys.portfolio import (
    BOUND_PENALTY_WEIGHT,
    INFEASIBILITY_OFFSET,
    PortfolioSolution,
)
from conftest import toy_portfolio


def test_worked_selection_example(ten_asset_instance):
    # three selection keys walk the shrinking candidate list:
    # 0.81 of 10 -> position 9, 0.32 of 9 -> position 3, 0.54 of 8 -> 5
    keys = np.array([0.81, 0.32, 0.54, 0.29, 0.15, 0.91])
    sol = decode_portfolio(ten_asset_instance, keys)
    assert sol.assets == (8, 2, 5)
    assert sol.weights == pytest.approx([0.2212, 0.1231, 0.6557], abs=1e-4)
    assert sol.penalty == pytest.approx(0.2557, abs=1e-4)


def test_selection_is_cardinality_exact():
    inst = toy_portfolio(7, 3, seed=31)
    rng = np.random.default_rng(32)
    for _ in range(500):
        sol = decode_portfolio(inst, rng.random(6))
        assert len(sol.assets) == 3
        assert len(set(sol.assets)) == 3
        assert all(0 <= a < 7 for a in sol.assets)


def test_weights_sum_to_one():
    inst = toy_portfolio(6, 3, seed=33)
    rng = np.random.default_rng(34)
    for _ in range(500):
        sol = decode_portfolio(inst, rng.random(6))
        assert sol.weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_zero_weight_keys_fall_back_to_equal_split():
    inst = toy_portfolio(5, 2, seed=35)
    sol = decode_portfolio(inst, np.array([0.1, 0.1, 0.0, 0.0]))
    assert sol.weights == pytest.approx([0.5, 0.5])


def test_selection_key_edges():
    inst = toy_portfolio(4, 2, seed=36)
    # key 0 -> position max(1, ceil(0)) = 1: first remaining asset
    sol = decode_portfolio(inst, np.array([0.0, 0.0, 0.5, 0.5]))
    assert sol.assets == (0, 1)
    # key just below 1 -> last remaining asset
    hi = 1.0 - 1e-9
    sol = decode_portfolio(inst, np.array([hi, hi, 0.5, 0.5]))
    assert sol.assets == (3, 2)


def test_bound_violation_penalized_and_offset():
    inst = PortfolioInstance(
        means=np.array([0.01, 0.02, 0.03]),
        covariance=np.eye(3) * 1e-4,
        cardinality=2,
        risk_aversion=0.5,
        lower=0.3,
        upper=0.6,
    )
    # raw weights (0.3, 0.6) normalized -> (1/3, 2/3): 2/3 breaches 0.6
    sol = decode_portfolio(inst, np.array([0.1, 0.9, 0.0, 1.0 - 1e-9]))
    assert sol.penalty > 0
    assert sol.cost >= sol.objective + 1e3
    verdict = check_portfolio(inst, sol)
    assert not verdict.feasible
    assert not verdict.families["bounds"]


def test_check_portfolio_passes_clean_solutions():
    inst = toy_portfolio(6, 3, seed=37)
    sol = decode_portfolio(inst, np.random.default_rng(38).random(6))
    verdict = check_portfolio(inst, sol)
    assert verdict.feasible
    assert verdict.families == {"cardinality": True, "budget": True, "bounds": True}


def test_decode_refuses_keys_of_another_shape(ten_asset_instance):
    keys = np.array([0.81, 0.32, 0.54, 0.29, 0.15, 0.91])
    cost = PortfolioDecoder(ten_asset_instance).cost
    for wrong in (keys[:, None], np.array(0.5), keys[:5]):
        for decode in (lambda k: decode_portfolio(ten_asset_instance, k), cost):
            with pytest.raises(ValueError, match=r"expected 6 keys, got shape"):
                decode(wrong)


def test_instance_validation():
    means = np.array([0.01, 0.02])
    cov = np.eye(2)
    with pytest.raises(ValueError):
        PortfolioInstance(means=means, covariance=np.array([[1.0, 0.5], [0.4, 1.0]]),
                          cardinality=1, risk_aversion=0.5, lower=0.0, upper=1.0)
    with pytest.raises(ValueError):
        PortfolioInstance(means=means, covariance=cov, cardinality=3,
                          risk_aversion=0.5, lower=0.0, upper=1.0)
    with pytest.raises(ValueError):
        # 2 assets at most 0.4 each cannot reach a total of 1
        PortfolioInstance(means=means, covariance=cov, cardinality=2,
                          risk_aversion=0.5, lower=0.0, upper=0.4)
    for change in (
        {"means": np.array([0.01, np.nan])},
        {"means": np.array([np.inf, 0.02])},
        {"covariance": np.array([[1.0, np.inf], [np.inf, 1.0]])},
        {"covariance": np.array([[np.nan, 0.0], [0.0, 1.0]])},
        {"lower": np.nan},
        {"upper": np.array([1.0, np.nan])},
    ):
        data = dict(means=means, covariance=cov, cardinality=1,
                    risk_aversion=0.5, lower=0.0, upper=1.0)
        with pytest.raises(ValueError):
            PortfolioInstance(**{**data, **change})


def test_instance_keeps_read_only_copies_of_its_arrays():
    means, cov = np.array([0.01, 0.02, 0.03]), np.eye(3)
    lower, upper = np.zeros(3), np.ones(3)
    inst = PortfolioInstance(means=means, covariance=cov, cardinality=2,
                             risk_aversion=0.5, lower=lower, upper=upper)
    keys = np.array([0.2, 0.7, 0.4, 0.9])
    cost = PortfolioDecoder(inst).cost(keys)
    for name in ("means", "covariance", "lower", "upper"):
        with pytest.raises(ValueError):
            getattr(inst, name)[0] = 0.2
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(inst, name, np.zeros(3))
    # The caller's arrays stay its own and writable.
    means[:] = 0.5
    cov *= 2.0
    lower[:] = 0.2
    assert PortfolioDecoder(inst).cost(keys) == decode_portfolio(inst, keys).cost == cost


def test_decoder_dimension_is_twice_cardinality():
    inst = toy_portfolio(8, 3, seed=39)
    assert PortfolioDecoder(inst).dimension == 6


def test_brute_force_two_asset_closed_form():
    # independent assets, lambda = 0.5: H = 0.5 w'Sw - 0.5 m'w; with
    # K = 1 the best single asset maximizes m_i - s_ii
    inst = PortfolioInstance(
        means=np.array([0.10, 0.05]),
        covariance=np.diag([0.01, 0.04]),
        cardinality=1,
        risk_aversion=0.5,
        lower=0.0,
        upper=1.0,
    )
    cost, assets, weights = brute_force_portfolio(inst, grid_step=1e-3)
    assert assets == (0,)
    assert weights == pytest.approx([1.0])
    assert cost == pytest.approx(0.5 * 0.01 - 0.5 * 0.10)


def test_brute_force_beats_or_matches_decodes():
    inst = toy_portfolio(5, 2, seed=40)
    cost, _, _ = brute_force_portfolio(inst, grid_step=1e-2)
    rng = np.random.default_rng(41)
    sampled = min(decode_portfolio(inst, rng.random(4)).cost for _ in range(3000))
    assert cost <= sampled + 1e-2  # grid resolution slack


def test_brute_force_guard_refuses_large_grids():
    inst = toy_portfolio(8, 3, seed=42)
    with pytest.raises(OracleGuardError):
        brute_force_portfolio(inst, grid_step=1e-3)


def test_brute_force_rejects_misaligned_grid():
    inst = PortfolioInstance(
        means=np.array([0.01, 0.02]),
        covariance=np.eye(2) * 1e-4,
        cardinality=2,
        risk_aversion=0.5,
        lower=0.1001,
        upper=1.0,
    )
    with pytest.raises(OracleGuardError):
        brute_force_portfolio(inst, grid_step=1e-2)


def reference_decode_portfolio(instance, keys):
    """Plain version of the decoder kernel; the package version must
    agree with it bit for bit."""
    k = instance.cardinality
    remaining = list(range(instance.n_assets))
    chosen = []
    for i in range(k):
        m = len(remaining)
        position = max(1, math.ceil(float(keys[i]) * m))
        chosen.append(remaining.pop(min(position, m) - 1))

    idx = np.array(chosen, dtype=np.intp)
    lo = instance.lower[idx]
    hi = instance.upper[idx]
    raw = lo + (hi - lo) * keys[k:]
    total = float(raw.sum())
    weights = raw / total if total > 0.0 else np.full(k, 1.0 / k)

    penalty = float(
        np.sum(np.maximum(0.0, weights - hi) + np.maximum(0.0, lo - weights))
    )
    sub_cov = instance.covariance[np.ix_(idx, idx)]
    risk = float(weights @ sub_cov @ weights)
    mean_return = float(instance.means[idx] @ weights)
    lam = instance.risk_aversion
    objective = lam * risk - (1.0 - lam) * mean_return
    cost = objective + BOUND_PENALTY_WEIGHT * penalty
    if penalty > 0.0:
        cost += INFEASIBILITY_OFFSET
    return PortfolioSolution(
        assets=tuple(chosen),
        weights=weights,
        risk=risk,
        mean_return=mean_return,
        objective=objective,
        penalty=penalty,
        cost=cost,
    )


def assert_same_decode(instance, keys):
    got = decode_portfolio(instance, keys)
    want = reference_decode_portfolio(instance, keys)
    assert got.assets == want.assets
    assert got.weights.tobytes() == want.weights.tobytes()
    for name in ("risk", "mean_return", "objective", "penalty", "cost"):
        assert getattr(got, name) == getattr(want, name), name
    assert PortfolioDecoder(instance).cost(keys) == want.cost
    return got


def test_decoder_matches_reference_on_random_and_edge_keys():
    inst = toy_portfolio(40, 10, seed=43)
    rng = np.random.default_rng(44)
    for _ in range(300):
        assert_same_decode(inst, rng.random(20))
    for value in (0.0, KEY_MAX):
        assert_same_decode(inst, np.full(20, value))
    for _ in range(50):
        assert_same_decode(inst, rng.choice([0.0, KEY_MAX], size=20))


def test_decoder_matches_reference_on_the_penalty_path():
    rng = np.random.default_rng(45)
    n = 12
    a = rng.normal(size=(n, n))
    inst = PortfolioInstance(
        means=rng.uniform(0.001, 0.01, size=n),
        covariance=(a @ a.T) / n * 1e-3,
        cardinality=5,
        risk_aversion=0.3,
        lower=rng.uniform(0.02, 0.1, size=n),
        upper=rng.uniform(0.25, 0.4, size=n),
    )
    penalized = sum(
        assert_same_decode(inst, rng.random(10)).penalty > 0.0 for _ in range(300)
    )
    assert 0 < penalized < 300


def test_decoder_matches_reference_on_the_equal_split_fallback():
    inst = toy_portfolio(9, 4, seed=46)
    keys = np.concatenate([np.random.default_rng(47).random(4), np.zeros(4)])
    sol = assert_same_decode(inst, keys)
    assert sol.weights.tolist() == [0.25] * 4


def bounded_instance(seed, lower, upper, n=12, k=5):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return PortfolioInstance(
        means=rng.uniform(0.001, 0.01, size=n),
        covariance=(a @ a.T) / n * 1e-3,
        cardinality=k,
        risk_aversion=0.3,
        lower=lower,
        upper=upper,
    )


def test_decoder_matches_reference_on_signed_zero_keys():
    inst = toy_portfolio(40, 10, seed=48)
    rng = np.random.default_rng(49)
    assert_same_decode(inst, np.full(20, -0.0))
    for _ in range(100):
        keys = rng.random(20)
        keys[rng.random(20) < 0.4] = -0.0
        sol = assert_same_decode(inst, keys)
        assert sol.penalty == 0.0


def test_decoder_matches_reference_on_out_of_range_keys():
    # On [0, 1] bounds a negative weight key gives a negative weight,
    # which must be penalized; keys above one only scale the raw weights.
    # Selection keys outside [0, 1) pick the first or last asset left.
    inst = toy_portfolio(15, 5, seed=50)
    rng = np.random.default_rng(51)
    for _ in range(200):
        keys = np.concatenate([rng.uniform(-0.5, 1.5, size=5), rng.uniform(0.0, 3.0, size=5)])
        assert assert_same_decode(inst, keys).penalty == 0.0
        keys[5 + rng.integers(5)] = -rng.uniform(1e-6, 0.5)
        assert assert_same_decode(inst, keys).penalty > 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_decoder_matches_reference_on_non_finite_weight_keys():
    # Infinite or NaN keys give NaN weights or costs, which == cannot
    # compare, so the fields are compared by repr.
    inst = toy_portfolio(12, 4, seed=52)
    fields = ("risk", "mean_return", "objective", "penalty", "cost")
    for tail in ([0.5, np.inf, 0.2, 0.1], [np.nan, 0.5, 0.2, 0.1], [-np.inf, 0.5, 0.2, 0.1],
                 [1e308, 1e308, 0.2, 0.1]):
        keys = np.array([0.3, 0.6, 0.1, 0.9] + tail)
        got = decode_portfolio(inst, keys)
        want = reference_decode_portfolio(inst, keys)
        assert got.assets == want.assets
        assert got.weights.tobytes() == want.weights.tobytes()
        assert [repr(getattr(got, f)) for f in fields] == [repr(getattr(want, f)) for f in fields]
        assert repr(PortfolioDecoder(inst).cost(keys)) == repr(want.cost)


def test_decoder_matches_reference_with_caps_below_one():
    inst = bounded_instance(53, lower=0.0, upper=np.linspace(0.25, 1.0, 12))
    rng = np.random.default_rng(54)
    penalized = sum(
        assert_same_decode(inst, rng.random(10)).penalty > 0.0 for _ in range(300)
    )
    assert 0 < penalized < 300


def test_decoder_matches_reference_with_buy_in_bounds():
    inst = bounded_instance(55, lower=0.05, upper=1.0)
    rng = np.random.default_rng(56)
    penalized = sum(
        assert_same_decode(inst, rng.random(10)).penalty > 0.0 for _ in range(300)
    )
    assert 0 < penalized < 300


@pytest.mark.parametrize("cardinality", [2.0, 2.5, True, "2", None, 0, 4])
def test_cardinality_must_be_an_integer_count_of_the_assets(cardinality):
    # A float used to pass and then fail at cost as a slice index, and
    # True was taken for 1.
    with pytest.raises(ValueError, match="cardinality must be an integer in"):
        PortfolioInstance(means=np.array([0.01, 0.02, 0.03]), covariance=np.eye(3),
                          cardinality=cardinality, risk_aversion=0.5)


@pytest.mark.parametrize("cardinality", [np.int64(2), np.int32(3), 1])
def test_cardinality_takes_ints_and_numpy_integers(cardinality):
    inst = PortfolioInstance(means=np.array([0.01, 0.02, 0.03]), covariance=np.eye(3),
                             cardinality=cardinality, risk_aversion=0.5)
    decoder = PortfolioDecoder(inst)
    assert decoder.dimension == 2 * cardinality
    keys = np.linspace(0.1, 0.9, decoder.dimension)
    assert len(decode_portfolio(inst, keys).assets) == cardinality
    assert decoder.cost(keys) == decode_portfolio(inst, keys).cost


def row_costs(decoder, block, stop=-math.inf):
    """What ``cost`` gives the rows of ``block`` one at a time, up to
    and including the first row that costs less than ``stop``."""
    costs = []
    for row in block:
        costs.append(decoder.cost(row))
        if costs[-1] < stop:
            break
    return costs


def probe_blocks(k, rng):
    """Blocks of 2K-key rows that probe ``cost_rows``: random rows, as
    many as BRKGA and SA ask for among them, Nelder-Mead-like shrinks, negative weight keys, all-zero weight
    keys (the equal split), signed zeros, keys at ``KEY_MAX`` and
    1-row blocks."""
    d = 2 * k
    best = rng.random(d)
    simplex = np.clip(best + 0.05 * np.eye(d), 0.0, KEY_MAX)
    negative = rng.random((8, d))
    negative[::2, k + rng.integers(k)] = -rng.uniform(1e-6, 0.5)
    zero_split = rng.random((6, d))
    zero_split[1::2, k:] = 0.0
    zero_split[3, k:] = -0.0
    signed = rng.random((8, d))
    signed[rng.random((8, d)) < 0.4] = -0.0
    signed[rng.random((8, d)) < 0.2] = 0.0
    edges = rng.choice([0.0, -0.0, KEY_MAX], size=(8, d))
    edges[0] = KEY_MAX
    return [
        rng.random((12, d)),
        rng.random((100, d)),
        simplex,
        best + 0.5 * (simplex - best),
        best + 0.25 * (simplex - best),
        negative,
        zero_split,
        signed,
        edges,
        rng.random((1, d)),
        edges[:1],
        zero_split[1:2],
    ]


PROBE_INSTANCES = {
    "unit": lambda: toy_portfolio(40, 10, seed=60),
    "unit-k1": lambda: toy_portfolio(9, 1, seed=61),
    "buy-in": lambda: bounded_instance(62, lower=0.05, upper=1.0),
    "buy-in-capped": lambda: bounded_instance(63, lower=0.02, upper=0.4),
    "capped": lambda: bounded_instance(64, lower=0.0, upper=np.linspace(0.25, 1.0, 12)),
}


def as_bytes(costs):
    assert all(type(cost) is float for cost in costs)
    return np.array(costs, dtype=float).tobytes()


@pytest.mark.parametrize("name", PROBE_INSTANCES)
def test_cost_rows_gives_the_bits_of_cost_row_by_row_at_every_stop(name):
    inst = PROBE_INSTANCES[name]()
    decoder = PortfolioDecoder(inst)
    rng = np.random.default_rng(65)
    penalized = 0
    for block in probe_blocks(inst.cardinality, rng) + probe_blocks(inst.cardinality, rng):
        whole = row_costs(decoder, block)
        penalized += sum(cost >= INFEASIBILITY_OFFSET for cost in whole)
        lowest = min(whole)
        # Never fires, fires at the first row at or below the lowest
        # cost, and fires at the first row below a middle row's cost.
        for stop in (-math.inf, lowest, math.nextafter(lowest, math.inf), whole[len(block) // 2]):
            want = row_costs(decoder, block, stop)
            assert as_bytes(decoder.cost_rows(block, stop)) == as_bytes(want), stop
        assert decoder.cost_rows(block, math.nextafter(lowest, math.inf))[-1] == lowest
    # A negative weight key is penalized, except at K = 1, where it
    # makes the total negative and so the split equal; bounds below one
    # or above zero penalize other rows too.
    assert (penalized > 0) == (inst.cardinality > 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", [0, 3, 15], ids=["first-pick", "pick", "weight"])
def test_a_non_finite_key_after_the_stop_row_never_raises(bad, column):
    decoder = PortfolioDecoder(toy_portfolio(40, 10, seed=67))
    block = np.random.default_rng(68).random((6, 20))
    costs = [decoder.cost(row) for row in block]
    first = int(np.argmin(costs[:3]))
    stop = math.nextafter(costs[first], math.inf)
    for after in range(first + 1, 6):
        broken = block.copy()
        broken[after, column] = bad
        assert as_bytes(decoder.cost_rows(broken, stop)) == as_bytes(costs[: first + 1])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_selection_key_at_or_before_the_stop_row_raises_as_cost_does(bad):
    decoder = PortfolioDecoder(toy_portfolio(40, 10, seed=67))
    block = np.random.default_rng(68).random((6, 20))
    costs = [decoder.cost(row) for row in block]
    stop = math.nextafter(min(costs), math.inf)
    for at in range(int(np.argmin(costs)) + 1):
        broken = block.copy()
        broken[at, 4] = bad
        with pytest.raises(Exception) as want:
            decoder.cost(broken[at])
        with pytest.raises(type(want.value)):
            decoder.cost_rows(broken, stop)


def test_cost_rows_refuses_rows_of_another_shape(ten_asset_instance):
    decoder = PortfolioDecoder(ten_asset_instance)
    keys = np.array([0.81, 0.32, 0.54, 0.29, 0.15, 0.91])
    for wrong in (keys, keys[None, :5], np.tile(keys, (2, 2)), keys[None, None, :]):
        with pytest.raises(ValueError, match=r"expected rows of 6 keys, got shape"):
            decoder.cost_rows(wrong)
