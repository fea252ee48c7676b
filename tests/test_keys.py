import math

import numpy as np
import pytest

from randomkeys import (
    KEY_MAX,
    BlendConfig,
    ShakeConfig,
    blend,
    key_distance,
    shake,
)
from randomkeys.localsearch import _in_box


def test_shake_config_validation():
    with pytest.raises(ValueError):
        ShakeConfig(beta_min=0.0, beta_max=0.3)
    with pytest.raises(ValueError):
        ShakeConfig(beta_min=0.4, beta_max=0.3)
    with pytest.raises(ValueError):
        ShakeConfig(beta_min=0.1, beta_max=1.5)


def test_shake_returns_new_vector_in_range():
    rng = np.random.default_rng(3)
    base = rng.random(20)
    snapshot = base.copy()
    out = shake(base, ShakeConfig(), rng)
    assert out is not base
    assert np.array_equal(base, snapshot)
    assert np.all(out >= 0.0) and np.all(out <= KEY_MAX)


def test_shake_single_key_vector():
    # two-index moves are impossible at dimension one but shaking
    # still terminates and stays in range
    rng = np.random.default_rng(5)
    for _ in range(200):
        out = shake(np.array([0.4]), ShakeConfig(beta_min=1.0, beta_max=1.0), rng)
        assert 0.0 <= out[0] <= KEY_MAX


def test_blend_inherit_extremes():
    rng = np.random.default_rng(11)
    a = rng.random(30)
    b = rng.random(30)
    all_a = blend(a, b, BlendConfig(inherit_prob=1.0, mutation_prob=0.0), rng)
    assert np.array_equal(all_a, a)
    all_b = blend(a, b, BlendConfig(inherit_prob=0.0, mutation_prob=0.0), rng)
    assert np.array_equal(all_b, b)


def test_blend_config_validation():
    with pytest.raises(ValueError):
        BlendConfig(inherit_prob=1.2)
    with pytest.raises(ValueError):
        BlendConfig(mutation_prob=-0.1)


def test_blend_mutation_only_is_fresh_uniform():
    rng = np.random.default_rng(13)
    a = np.zeros(1000)
    b = np.zeros(1000)
    out = blend(a, b, BlendConfig(mutation_prob=1.0), rng)
    assert np.all(out >= 0.0) and np.all(out < 1.0)
    assert out.std() > 0.2  # not degenerate


def test_key_distance_is_euclidean():
    a = np.array([0.0, 0.0])
    b = np.array([0.3, 0.4])
    assert key_distance(a, b) == pytest.approx(0.5)


def test_key_distance_matches_linalg_norm_byte_for_byte():
    # The pool picks its victim by these distances; a different rounding
    # would flip near ties.
    rng = np.random.default_rng(14)
    for d in (1, 3, 20, 50, 200):
        for _ in range(200):
            a, b = rng.random(d), rng.random(d) * (rng.random(d) < 0.8)
            assert key_distance(a, b) == float(np.linalg.norm(a - b))


# Key values where a clamp can differ in its bytes: signed zeros, both
# bounds, the values just outside them, and far outside values.
EDGE_KEYS = np.array(
    [-0.0, 0.0, KEY_MAX, 1.0, -0.3, -1e-300, 1.7, np.nextafter(KEY_MAX, 2.0), 0.5]
)


def test_clamps_match_np_clip_byte_for_byte():
    expected = np.clip(EDGE_KEYS, 0.0, KEY_MAX).tobytes()
    assert np.signbit(np.clip(EDGE_KEYS, 0.0, KEY_MAX)[0])  # np.clip keeps -0.0
    assert _in_box(EDGE_KEYS).tobytes() == expected


def reference_shake(keys, config, rng):
    """The move-by-move shake that draws each kind and index with its own
    generator call; the block-drawn ``shake`` must move keys with the
    same distribution."""
    out = np.array(keys, dtype=float, copy=True)
    d = out.shape[0]
    beta = rng.uniform(config.beta_min, config.beta_max)
    for _ in range(math.ceil(beta * d)):
        move = rng.integers(4)
        if move == 0:
            if d < 2:
                continue
            i = int(rng.integers(d))
            j = int(rng.integers(d - 1))
            if j >= i:
                j += 1
            out[i], out[j] = out[j], out[i]
        elif move == 1:
            if d < 2:
                continue
            i = int(rng.integers(d - 1))
            out[i], out[i + 1] = out[i + 1], out[i]
        elif move == 2:
            i = int(rng.integers(d))
            out[i] = min(max(1.0 - out[i], 0.0), KEY_MAX)
        else:
            i = int(rng.integers(d))
            out[i] = rng.random()
    return out


def provenance_frequencies(shaker, d, config, calls, seed):
    """Share of calls in which output position i holds input key j
    (column j), its mirror 1 - key j (column d + j) or a fresh value
    (column 2d).  The inputs are distinct odd multiples of 1/32 below
    1/2, so every key and every mirror is exact and tells its source."""
    keys = (2 * np.arange(d) + 1) / 32
    sources = np.concatenate([keys, 1.0 - keys])
    rng = np.random.default_rng(seed)
    counts = np.zeros((d, 2 * d + 1))
    rows = np.arange(d)
    for _ in range(calls):
        out = shaker(keys, config, rng)
        match = out[:, None] == sources[None, :]
        column = np.where(match.any(axis=1), match.argmax(axis=1), 2 * d)
        counts[rows, column] += 1
    return counts / calls


@pytest.mark.parametrize("config", [ShakeConfig(), ShakeConfig(1.0, 1.0)],
                         ids=["default", "beta1"])
@pytest.mark.parametrize("d", [2, 5])
def test_shake_moves_keys_like_the_move_by_move_reference(d, config):
    # Each cell is a share of 20k independent calls, so the difference of
    # two estimates of a share p has a standard error of
    # sqrt(2 p (1 - p) / 20k), at most 0.005.  Cells may differ by five
    # standard errors (plus 1e-3 for shares near 0 or 1); an index map
    # that is off by one moves some cell by 0.05 or more.
    calls = 20_000
    expected = provenance_frequencies(reference_shake, d, config, calls, seed=21)
    observed = provenance_frequencies(shake, d, config, calls, seed=22)
    p = (expected + observed) / 2
    tolerance = 5 * np.sqrt(2 * p * (1 - p) / calls) + 1e-3
    assert np.all(np.abs(observed - expected) <= tolerance), (
        np.abs(observed - expected) - tolerance
    ).max()


LOW, HIGH = 0.0, float(np.nextafter(1.0, 0.0))
# The lowest and highest uniform that selects each of the four move
# kinds (swap, adjacent swap, mirror, overwrite).
KIND_EDGES = [LOW, float(np.nextafter(0.25, 0.0)), 0.25, float(np.nextafter(0.5, 0.0)),
              0.5, float(np.nextafter(0.75, 0.0)), 0.75, HIGH]


class EdgeRng:
    """Stands in for a Generator in ``shake``: every uniform it returns
    is ``edge``, except that the first row of a block (the move kinds)
    is ``kinds``, repeated to the block's width."""

    def __init__(self, edge, kinds=KIND_EDGES):
        self.edge, self.kinds = edge, kinds

    def random(self, size=None):
        if size is None:
            return self.edge
        block = np.full(size, self.edge)
        block[0] = np.resize(self.kinds, size[1])
        return block


@pytest.mark.parametrize("edge", [LOW, HIGH], ids=["low", "high"])
@pytest.mark.parametrize("d", [1, 2, 3, 50, 64, 200])
def test_shake_edge_uniforms_map_to_valid_indices(d, edge):
    keys = (np.arange(d) + 0.5) / (d + 1)  # distinct, no end key is its mirror
    # beta = 1 gives d moves, each kind at both ends of its quarter.
    out = shake(keys, ShakeConfig(1.0, 1.0), EdgeRng(edge))
    assert out.shape == (d,)
    assert np.all(out >= 0.0) and np.all(out <= KEY_MAX)

    # One move of each kind: the lowest uniform picks the first valid
    # positions, the highest uniform the last ones.
    one_move = ShakeConfig(1e-6, 1e-6)
    swap, adjacent, mirror, overwrite = (
        shake(keys, one_move, EdgeRng(edge, kinds=[kind / 4])) for kind in range(4)
    )
    swapped = keys.copy()
    if d > 1:
        pair = [0, 1] if edge == LOW else [d - 2, d - 1]
        swapped[pair] = keys[pair[::-1]]
    assert np.array_equal(swap, swapped)
    assert np.array_equal(adjacent, swapped)
    i = 0 if edge == LOW else d - 1
    expected = keys.copy()
    expected[i] = 1.0 - keys[i]
    assert np.array_equal(mirror, expected)
    expected[i] = min(edge, KEY_MAX)
    assert np.array_equal(overwrite, expected)


def test_shake_index_needs_no_clamp():
    # shake takes int(v * n) as an index into n positions, with no
    # clamp: for the largest uniform below 1 it is still n - 1.
    u = np.nextafter(1.0, 0.0)
    n = np.arange(1, 2**20 + 1, dtype=float)
    assert np.array_equal(np.floor(u * n), n - 1)


def reference_block_shake(keys, config, rng):
    """The block-drawn shake in its plainest form: the same two draws
    as ``shake``, each kind picked by ``int(u * 4.0)``, each index and
    value clamp a ``min``/``max`` call.  ``shake``, which clamps no
    index, must return its bytes and leave the generator where it
    leaves it."""
    out = np.asarray(keys, dtype=float).tolist()
    d = len(out)
    beta = config.beta_min + (config.beta_max - config.beta_min) * rng.random()
    kinds, firsts, seconds = rng.random((3, math.ceil(beta * d))).tolist()
    last = d - 1
    for u, v, w in zip(kinds, firsts, seconds):
        move = int(u * 4.0)
        if move == 0:
            if d < 2:
                continue
            i = min(int(v * d), last)
            j = min(int(w * last), last - 1)
            if j >= i:
                j += 1
            out[i], out[j] = out[j], out[i]
        elif move == 1:
            if d < 2:
                continue
            i = min(int(v * last), last - 1)
            out[i], out[i + 1] = out[i + 1], out[i]
        elif move == 2:
            i = min(int(v * d), last)
            out[i] = min(max(1.0 - out[i], 0.0), KEY_MAX)
        else:
            out[min(int(v * d), last)] = min(w, KEY_MAX)
    return np.array(out, dtype=float)


SHAKE_CONFIGS = [ShakeConfig(), ShakeConfig(0.5, 1.0), ShakeConfig(1.0, 1.0),
                 ShakeConfig(1e-6, 1e-6)]
SHAKE_CONFIG_IDS = ["default", "half-to-one", "beta1", "one-move"]


EDGE_KEYS_AND_NAN = np.append(EDGE_KEYS, np.nan)


def edge_laden_keys(d, rng):
    """A key vector of length ``d`` in which about half the keys are
    edge values (signed zeros, the bounds and beyond, NaN) and the rest
    uniform, so mirrors and swaps meet them often."""
    keys = rng.random(d)
    picked = rng.random(d) < 0.5
    drawn = rng.integers(len(EDGE_KEYS_AND_NAN), size=picked.sum())
    keys[picked] = EDGE_KEYS_AND_NAN[drawn]
    return keys


@pytest.mark.parametrize("config", SHAKE_CONFIGS, ids=SHAKE_CONFIG_IDS)
@pytest.mark.parametrize("d", [1, 2, 3, 6, 50, 64, 200])
def test_shake_gives_the_reference_bytes_and_draws(d, config):
    for seed in range(120):
        keys = edge_laden_keys(d, np.random.default_rng([seed, d]))
        # The first seeds place each edge value in turn, so that at d = 1
        # each of them is the whole vector once.
        if seed < len(EDGE_KEYS_AND_NAN):
            keys[seed % d] = EDGE_KEYS_AND_NAN[seed]
        snapshot = keys.tobytes()
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        out = shake(keys, config, ours)
        expected = reference_block_shake(keys, config, theirs)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes(), (seed, keys, out, expected)
        assert ours.random() == theirs.random(), seed
        assert keys.tobytes() == snapshot


class KindEdgeRng:
    """Stands in for a Generator in ``shake``: a seeded generator's
    uniforms, except that the first row of a block (the move kinds)
    cycles through ``KIND_EDGES``, so the edge kinds meet indices that
    are not at an edge."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def random(self, size=None):
        block = self.rng.random(size)
        if size is not None:
            block[0] = np.resize(KIND_EDGES, size[1])
        return block


@pytest.mark.parametrize("edge", [LOW, HIGH], ids=["low", "high"])
@pytest.mark.parametrize("config", SHAKE_CONFIGS, ids=SHAKE_CONFIG_IDS)
@pytest.mark.parametrize("d", [1, 2, 3, 6, 50, 64, 200])
def test_shake_gives_the_reference_bytes_at_edge_uniforms(d, config, edge):
    keys = edge_laden_keys(d, np.random.default_rng(d))
    for kinds in (KIND_EDGES, *([kind] for kind in KIND_EDGES)):
        out = shake(keys, config, EdgeRng(edge, kinds))
        expected = reference_block_shake(keys, config, EdgeRng(edge, kinds))
        assert out.tobytes() == expected.tobytes(), (kinds, keys, out, expected)
    for seed in range(10):
        out = shake(keys, config, KindEdgeRng(seed))
        expected = reference_block_shake(keys, config, KindEdgeRng(seed))
        assert out.tobytes() == expected.tobytes(), (seed, keys, out, expected)


def test_shake_takes_what_asarray_takes():
    # Lists and integer arrays are read as float keys, as before.
    for keys in ([0.2, 0.4, 0.6, 0.8], np.array([0, 1, 0, 1]), np.zeros(0)):
        out = shake(keys, ShakeConfig(1.0, 1.0), np.random.default_rng(3))
        expected = reference_block_shake(keys, ShakeConfig(1.0, 1.0),
                                         np.random.default_rng(3))
        assert out.dtype == np.float64
        assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "config",
    [BlendConfig(), BlendConfig(inherit_prob=0.4, mutation_prob=0.3)],
    ids=["default", "mutate"],
)
def test_blend_single_row_stack_gives_the_vector_call_bytes(config):
    parents = np.random.default_rng(30).random((2, 50))
    vector = blend(parents[0], parents[1], config, np.random.default_rng(31))
    stacked = blend(parents[:1], parents[1:], config, np.random.default_rng(31))
    assert stacked.shape == (1, 50)
    assert stacked[0].tobytes() == vector.tobytes()


def test_blend_stacked_parents_stay_in_the_key_box():
    rng = np.random.default_rng(32)
    a = rng.random((85, 50))
    b = rng.random((85, 50))
    b[:, :5] = 0.0  # both ends of the key box
    b[:, 5:10] = KEY_MAX
    config = BlendConfig(inherit_prob=0.3, mutation_prob=0.2)
    out = blend(a, b, config, rng)
    assert out.shape == (85, 50)
    assert np.all(out >= 0.0) and np.all(out <= KEY_MAX)
    assert np.any(out == KEY_MAX)
