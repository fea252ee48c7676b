import math

import numpy as np
import pytest

from randomkeys import GenericMipInstance, InstanceFormatError, generate_tdtsp_instance
from randomkeys.instances import (
    budget_for,
    load_mip,
    load_tdtsp,
    parse_mip,
    parse_orlib_portfolio,
    parse_tdtsp,
    tdtsp_to_dict,
    write_mip,
    write_tdtsp,
)

ORLIB_SAMPLE = """\
 3
 0.001309 0.043208
 0.004177 0.040258
 0.001487 0.041342
 1 1 1.000000
 1 2 0.562289
 1 3 0.746125
 2 2 1.000000
 2 3 0.583053
 3 3 1.000000
"""


def test_orlib_parse_builds_covariance_from_correlations():
    means, cov = parse_orlib_portfolio(ORLIB_SAMPLE)
    assert means == pytest.approx([0.001309, 0.004177, 0.001487])
    assert cov[0, 0] == pytest.approx(0.043208**2)
    assert cov[0, 1] == pytest.approx(0.562289 * 0.043208 * 0.040258)
    assert cov[0, 1] == cov[1, 0]  # exact mirror
    assert np.array_equal(cov, cov.T)


def reference_covariance(stddev, upper):
    """The covariance by one scalar product per pair i <= j, mirrored:
    the bytes the parser's whole-array product must give."""
    n = len(stddev)
    covariance = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            value = upper[i, j] * stddev[i] * stddev[j]
            covariance[i, j] = value
            covariance[j, i] = value
    return covariance


@pytest.mark.parametrize("n", [1, 2, 5, 60])
def test_orlib_covariance_gives_the_pairwise_loops_bytes(n):
    rng = np.random.default_rng(n)
    means = rng.normal(0.0, 0.01, n)
    stddev = rng.random(n) * 0.1
    stddev[1::7] = 0.0
    stddev[3::7] = -0.0
    upper = np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
    upper[0, 1::3] = -0.0
    np.fill_diagonal(upper, 1.0)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    lines = [str(n)]
    lines += [f"{m!r} {sd!r}" for m, sd in zip(means.tolist(), stddev.tolist())]
    # Both index orders name the same pair.
    lines += [f"{b + 1} {a + 1} {upper[a, b].item()!r}" if (a + b) % 2 else
              f"{a + 1} {b + 1} {upper[a, b].item()!r}" for a, b in pairs]
    got_means, got = parse_orlib_portfolio("\n".join(lines) + "\n")
    assert got_means.tobytes() == means.tobytes()
    assert got.tobytes() == reference_covariance(stddev, upper).tobytes()


@pytest.mark.parametrize(
    "mutation, message",
    [
        (lambda s: s.replace(" 3\n", " x\n", 1), "asset count"),
        (lambda s: s.replace("0.040258", "abc"), "not a number"),
        (lambda s: s.replace("1 2 0.562289", "1 2 1.5"), "outside [-1, 1]"),
        (lambda s: s.replace("2 2 1.000000", "2 2 0.900000"), "diagonal"),
        (lambda s: s.replace("1 3 0.746125", "1 2 0.746125"), "duplicate"),
        (lambda s: s + " 9\n", "trailing"),
        (lambda s: "\n".join(s.splitlines()[:-1]) + "\n", "ended while reading"),
        (lambda s: s.replace("1 2 0.562289", "1 9 0.562289"), "outside 1..3"),
        (lambda s: s.replace("0.004177", "inf"), "not finite"),
        (lambda s: s.replace("0.040258", "nan"), "not finite"),
        (lambda s: s.replace("0.041342", "1e400"), "not finite"),
        (lambda s: s.replace("1 3 0.746125", "1 3 nan"), "outside [-1, 1]"),
    ],
    ids=["count", "number", "range", "diagonal", "dup", "trailing", "eof", "pair",
         "mean-inf", "stddev-nan", "stddev-overflow", "corr-nan"],
)
def test_orlib_parse_rejects_malformed_input(mutation, message):
    with pytest.raises(InstanceFormatError, match=None) as err:
        parse_orlib_portfolio(mutation(ORLIB_SAMPLE))
    assert message in str(err.value)


def test_tdtsp_round_trip(tmp_path):
    inst = generate_tdtsp_instance(5, 3, seed=71)
    path = tmp_path / "inst.json"
    write_tdtsp(inst, path)
    back = load_tdtsp(path)
    assert back.n_customers == 5
    assert back.n_intervals == 3
    assert back.interval_length == inst.interval_length
    assert back.seed == 71
    assert np.array_equal(back.travel, inst.travel)
    assert np.array_equal(back.service, inst.service)


def test_tdtsp_parse_rejects_bad_fields():
    inst = generate_tdtsp_instance(4, 2, seed=72)
    good = tdtsp_to_dict(inst)
    for breakage in (
        {"format": "nope"},
        {"n": "four"},
        {"s": None},
        {"seed": "yes"},
        {"t": [[0.0]]},
    ):
        with pytest.raises(InstanceFormatError):
            parse_tdtsp({**good, **breakage})
    # json reads Infinity, NaN and 1e400 as non-finite floats.
    for value in (math.inf, -math.inf, math.nan):
        travel = inst.travel.copy()
        travel[1, 2, 3] = value
        service = inst.service.copy()
        service[2] = value
        for breakage in ({"Tbar": value}, {"t": travel.tolist()}, {"s": service.tolist()}):
            with pytest.raises(InstanceFormatError, match="finite"):
                parse_tdtsp({**good, **breakage})
    # Finite times whose route sums overflow: a route's five legs, or
    # its late penalty.
    for breakage in ({"t": (inst.travel * 1e307).tolist()}, {"Tbar": 1e306}):
        with pytest.raises(InstanceFormatError, match="finite"):
            parse_tdtsp({**good, **breakage})
    missing = dict(good)
    del missing["Tbar"]
    with pytest.raises(InstanceFormatError, match="Tbar"):
        parse_tdtsp(missing)


def test_tdtsp_load_rejects_non_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InstanceFormatError, match="JSON"):
        load_tdtsp(path)


def mip_fixture():
    return GenericMipInstance(
        costs=np.array([-2.0, 1.0, 0.5]),
        lower=np.array([0.0, 0.0, -1.0]),
        upper=np.array([3.0, 1.0, 1.0]),
        rows=np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]]),
        rhs=np.array([4.0, 2.0]),
        n_integer=2,
    )


def test_mip_round_trip(tmp_path):
    inst = mip_fixture()
    path = tmp_path / "mip.json"
    write_mip(inst, path)
    back = load_mip(path)
    assert np.array_equal(back.costs, inst.costs)
    assert np.array_equal(back.rows, inst.rows)
    assert np.array_equal(back.rhs, inst.rhs)
    assert back.n_integer == 2


def test_mip_sparse_matrix_form():
    data = {
        "format": "mip-v1",
        "n": 3,
        "p": 3,
        "c": [1.0, 1.0, 1.0],
        "l": [0.0, 0.0, 0.0],
        "u": [1.0, 1.0, 1.0],
        "b": [1.0],
        "A_sparse": [[0, 0, 1.0], [0, 2, 2.0]],
    }
    inst = parse_mip(data)
    assert np.array_equal(inst.rows, np.array([[1.0, 0.0, 2.0]]))


def test_mip_parse_rejects_inconsistencies():
    base = {
        "format": "mip-v1", "n": 2, "p": 2,
        "c": [1.0, 1.0], "l": [0.0, 0.0], "u": [1.0, 1.0],
    }
    with pytest.raises(InstanceFormatError, match="no matrix"):
        parse_mip({**base, "b": [1.0]})
    with pytest.raises(InstanceFormatError, match="not both"):
        parse_mip({
            **base, "b": [1.0],
            "A_dense": [[1.0, 1.0]], "A_sparse": [[0, 0, 1.0]],
        })
    with pytest.raises(InstanceFormatError, match="outside"):
        parse_mip({**base, "b": [1.0], "A_sparse": [[0, 5, 1.0]]})
    with pytest.raises(InstanceFormatError, match="A_dense"):
        parse_mip({**base, "b": [1.0], "A_dense": [[1.0, 1.0, 1.0]]})
    for value in (math.inf, math.nan):
        with pytest.raises(InstanceFormatError, match="finite"):
            parse_mip({**base, "c": [value, 1.0]})
        with pytest.raises(InstanceFormatError, match="finite"):
            parse_mip({**base, "b": [1.0], "A_sparse": [[0, 1, value]]})


def test_budget_schedule():
    assert budget_for("portfolio", 31) == 10.0
    assert budget_for("portfolio", 32) == 20.0
    assert budget_for("portfolio", 225) == 30.0
    assert budget_for("portfolio", 1000) == 100.0
    assert budget_for("portfolio", 2000) == 200.0
    assert budget_for("tdtsp", 9) == 9.0
    with pytest.raises(ValueError):
        budget_for("mip", 5)
    with pytest.raises(ValueError):
        budget_for("portfolio", 0)
