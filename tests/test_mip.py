import itertools

import numpy as np
import pytest

from randomkeys import (
    GenericMipInstance,
    MipDecoder,
    OracleGuardError,
    PenaltyModel,
    brute_force_mip,
    check_mip,
    decode_mip,
    map_keys_to_assignment,
)


def box_instance(lower, upper, costs=None, n_integer=None, rows=None, rhs=None):
    n = len(lower)
    return GenericMipInstance(
        costs=np.array(costs if costs is not None else [1.0] * n),
        lower=np.array(lower, dtype=float),
        upper=np.array(upper, dtype=float),
        rows=np.array(rows if rows is not None else []).reshape(-1, n),
        rhs=np.array(rhs if rhs is not None else []),
        n_integer=n if n_integer is None else n_integer,
    )


def test_integer_mapping_covers_the_lattice_uniformly():
    inst = box_instance([-2], [2])
    # five lattice values, so each fifth of the key range maps to one
    for key, expected in [(0.0, -2), (0.19, -2), (0.21, -1), (0.5, 0),
                          (0.79, 1), (0.81, 2), (0.999999, 2)]:
        x = map_keys_to_assignment(inst, np.array([key]))
        assert x[0] == expected, key


def test_integer_mapping_stays_inside_bounds():
    inst = box_instance([0, -3], [5, 4])
    rng = np.random.default_rng(17)
    for _ in range(2000):
        x = map_keys_to_assignment(inst, rng.random(2))
        assert np.all(x >= inst.lower) and np.all(x <= inst.upper)
        assert np.all(x == np.round(x))


def test_continuous_mapping_is_affine():
    inst = box_instance([0.0, -1.0], [2.0, 3.0], n_integer=0)
    x = map_keys_to_assignment(inst, np.array([0.5, 0.25]))
    assert x == pytest.approx([1.0, 0.0])


def test_decode_charges_quadratic_penalty():
    # single row x0 + x1 <= 1 violated by 1 at x = (1, 1)
    inst = box_instance([0, 0], [1, 1], costs=[-1.0, -1.0],
                        rows=[[1.0, 1.0]], rhs=[1.0])
    sol = decode_mip(inst, np.array([0.9, 0.9]), PenaltyModel(weight=100.0))
    assert sol.x == pytest.approx([1.0, 1.0])
    assert sol.objective == pytest.approx(-2.0)
    assert sol.penalty == pytest.approx(100.0)
    assert sol.cost == pytest.approx(98.0)


def test_check_mip_families():
    inst = box_instance([0, 0], [1, 1], rows=[[1.0, 1.0]], rhs=[1.0])
    assert check_mip(inst, np.array([1.0, 0.0])).feasible
    verdict = check_mip(inst, np.array([1.0, 1.0]))
    assert not verdict.feasible
    assert any("slack" in r for r in verdict.reasons)
    assert not check_mip(inst, np.array([0.5, 0.0])).feasible  # fractional
    assert not check_mip(inst, np.array([2.0, 0.0])).feasible  # out of box


def test_validation_rejects_bad_instances():
    with pytest.raises(ValueError):
        box_instance([1], [0])  # l > u
    with pytest.raises(ValueError):
        box_instance([0.5], [1.5])  # fractional integer bounds
    with pytest.raises(ValueError):
        GenericMipInstance(
            costs=np.array([1.0]), lower=np.array([0.0]), upper=np.array([1.0]),
            rows=np.array([[1.0]]), rhs=np.array([1.0, 2.0]), n_integer=1,
        )
    for field in ("costs", "lower", "upper", "rows", "rhs"):
        for value in (np.inf, -np.inf, np.nan):
            data = dict(
                costs=np.array([1.0, 2.0]), lower=np.array([0.0, 0.0]),
                upper=np.array([1.0, 1.0]), rows=np.array([[1.0, 1.0]]),
                rhs=np.array([1.0]),
            )
            data[field].flat[0] = value
            with pytest.raises(ValueError, match="finite"):
                GenericMipInstance(n_integer=0, **data)


@pytest.mark.parametrize("n_integer", [1.5, 1.0, True, False, "1", -1, 3])
def test_n_integer_must_be_an_integer_count_of_the_variables(n_integer):
    # A float used to pass and then fail at cost as a slice index, and
    # True was taken for 1.
    with pytest.raises(ValueError, match="n_integer must be an integer in"):
        box_instance([0, 0], [1, 1], n_integer=n_integer)


@pytest.mark.parametrize("n_integer", [0, 2, np.int64(1), np.int32(2)])
def test_n_integer_takes_ints_and_numpy_integers(n_integer):
    inst = box_instance([0, 0], [1, 1], n_integer=n_integer)
    keys = np.array([0.9, 0.4])
    x = map_keys_to_assignment(inst, keys)
    assert x.tolist() == [1.0, 0.0][:n_integer] + [0.9, 0.4][n_integer:]
    assert isinstance(MipDecoder(inst).cost(keys), float)


def test_brute_force_matches_naive_enumeration():
    rng = np.random.default_rng(23)
    inst = box_instance(
        [0, 0, 0, -1], [2, 1, 3, 1],
        costs=list(rng.normal(size=4)),
        rows=[list(rng.normal(size=4)), list(rng.normal(size=4))],
        rhs=[1.0, 2.0],
    )
    model = PenaltyModel(weight=50.0)
    cost, x = brute_force_mip(inst, model)
    naive = min(
        decode_mip_cost(inst, np.array(pt, dtype=float), model)
        for pt in itertools.product(range(0, 3), range(0, 2), range(0, 4), range(-1, 2))
    )
    assert cost == pytest.approx(naive)
    assert decode_mip_cost(inst, x, model) == pytest.approx(cost)


def decode_mip_cost(inst, x, model):
    slack = inst.rhs - inst.rows @ x
    return float(inst.costs @ x) + model.charge(slack)


def test_brute_force_continuous_box_only():
    inst = box_instance([-1.0, 0.0], [2.0, 3.0], costs=[1.0, -1.0], n_integer=0)
    cost, x = brute_force_mip(inst)
    assert x == pytest.approx([-1.0, 3.0])
    assert cost == pytest.approx(-4.0)


def test_brute_force_refuses_unbounded_enumeration():
    with pytest.raises(OracleGuardError):
        brute_force_mip(box_instance([0] * 21, [1] * 21))
    with pytest.raises(OracleGuardError):
        brute_force_mip(
            box_instance([0.0, 0.0], [1.0, 1.0], n_integer=1,
                         rows=[[1.0, 1.0]], rhs=[1.0])
        )


def test_decoder_dimension_and_cost():
    inst = box_instance([0, 0, 0], [1, 1, 1], costs=[-1.0, -2.0, -3.0])
    dec = MipDecoder(inst)
    assert dec.dimension == 3
    assert dec.cost(np.array([0.9, 0.9, 0.9])) == pytest.approx(-6.0)


def test_decode_refuses_keys_of_another_shape():
    inst = box_instance([0, 0, 0], [4, 4, 4])
    keys = np.array([0.5, 0.25, 0.75])
    for wrong in (keys[:, None], np.array(0.5), np.array([0.5]), keys[:0]):
        for decode in (lambda k: map_keys_to_assignment(inst, k),
                       lambda k: decode_mip(inst, k), MipDecoder(inst).cost):
            with pytest.raises(ValueError, match=r"expected 3 keys, got shape"):
                decode(wrong)


def test_penalty_model_validation():
    for weight in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            PenaltyModel(weight=weight)
    assert PenaltyModel().charge(np.array([1.0, 0.0])) == 0.0
    assert PenaltyModel(weight=2.0).charge(np.array([-3.0])) == pytest.approx(18.0)
