import numpy as np
import pytest

from randomkeys import (
    KEY_MAX,
    BlendConfig,
    ShakeConfig,
    blend,
    clip_keys,
    key_distance,
    new_random_vector,
    shake,
)
from randomkeys.localsearch import _in_box


def test_new_random_vector_range_and_determinism():
    rng = np.random.default_rng(7)
    v = new_random_vector(50, rng)
    assert v.shape == (50,)
    assert np.all(v >= 0.0) and np.all(v < 1.0)
    again = new_random_vector(50, np.random.default_rng(7))
    assert np.array_equal(v, again)


def test_clip_keys_folds_out_of_range_values():
    v = np.array([-0.5, 0.0, 0.3, 1.0, 2.7])
    clip_keys(v)
    assert v[0] == 0.0
    assert v[3] == KEY_MAX
    assert v[4] == KEY_MAX
    assert v[2] == 0.3


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


def test_blend_mirror_factor():
    rng = np.random.default_rng(12)
    a = rng.random(30)
    b = rng.random(30)
    cfg = BlendConfig(inherit_prob=0.0, mutation_prob=0.0, factor=-1)
    out = blend(a, b, cfg, rng)
    assert np.allclose(out, np.minimum(1.0 - b, KEY_MAX))


def test_blend_factor_validation():
    with pytest.raises(ValueError):
        BlendConfig(factor=2)
    with pytest.raises(ValueError):
        BlendConfig(inherit_prob=1.2)


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
    assert clip_keys(EDGE_KEYS.copy()).tobytes() == expected
    b = np.concatenate([EDGE_KEYS, 1.0 - EDGE_KEYS])
    mirrored = blend(
        np.full_like(b, 0.5), b, BlendConfig(inherit_prob=0.0, factor=-1),
        np.random.default_rng(1),
    )
    assert mirrored.tobytes() == np.clip(1.0 - b, 0.0, KEY_MAX).tobytes()
