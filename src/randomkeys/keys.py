"""Random-key vectors and the elementary operators on them.

A candidate solution is a numpy vector of "keys", each in the half-open
unit interval [0, 1).  Problem semantics live entirely in decoders; the
operators here (:func:`shake`, :func:`blend`) only rearrange and perturb
keys and are shared by every searcher.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KEY_MAX",
    "ShakeConfig",
    "BlendConfig",
    "new_random_vector",
    "clip_keys",
    "shake",
    "blend",
    "key_distance",
]

# Largest representable key.  Arithmetic that lands on or above 1.0 is
# clamped here so decoded positions built from ceil(key * m) stay in range.
KEY_MAX = 1.0 - 1e-9


@dataclass(frozen=True)
class ShakeConfig:
    """Perturbation strength range for :func:`shake`.

    The applied strength beta is drawn uniformly from
    [beta_min, beta_max] on every call.
    """

    beta_min: float = 0.1
    beta_max: float = 0.3

    def __post_init__(self) -> None:
        if not 0.0 < self.beta_min <= self.beta_max <= 1.0:
            raise ValueError(
                f"need 0 < beta_min <= beta_max <= 1, got "
                f"({self.beta_min}, {self.beta_max})"
            )


@dataclass(frozen=True)
class BlendConfig:
    """Parameters for :func:`blend`.

    Parameters
    ----------
    inherit_prob : float
        Per-key probability of copying from the first parent.
    mutation_prob : float
        Per-key probability of replacing the key with a fresh uniform
        draw, applied before inheritance is considered.
    factor : int
        ``+1`` copies second-parent keys as they are, ``-1`` mirrors
        them through ``1 - key``.
    """

    inherit_prob: float = 0.7
    mutation_prob: float = 0.0
    factor: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.inherit_prob <= 1.0:
            raise ValueError(f"inherit_prob outside [0, 1]: {self.inherit_prob}")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError(f"mutation_prob outside [0, 1]: {self.mutation_prob}")
        if self.factor not in (-1, 1):
            raise ValueError(f"factor must be +1 or -1, got {self.factor}")


def new_random_vector(dimension: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a fresh key vector uniformly from [0, 1)^dimension."""
    if dimension < 1:
        raise ValueError(f"dimension must be positive, got {dimension}")
    return rng.random(dimension)


def clip_keys(keys: np.ndarray) -> np.ndarray:
    """Clamp keys into [0, KEY_MAX] in place and return the array."""
    return keys.clip(0.0, KEY_MAX, out=keys)


def shake(keys: np.ndarray, config: ShakeConfig, rng: np.random.Generator) -> np.ndarray:
    """Perturb a copy of ``keys`` with ceil(beta * dimension) random moves.

    Each move is drawn uniformly from four kinds: swap two distinct
    keys, swap a key with its immediate successor, mirror one key
    through ``1 - key``, or overwrite one key with a fresh uniform
    draw.  Indices are sampled with replacement across moves, so a key
    may be touched more than once.  Moves that need two positions are
    skipped for one-dimensional vectors.

    Returns a new array; the input is not modified.
    """
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


def blend(
    a: np.ndarray,
    b: np.ndarray,
    config: BlendConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Combine two parent vectors key by key.

    Each position independently becomes a fresh uniform draw with
    probability ``mutation_prob``; otherwise it inherits from ``a``
    with probability ``inherit_prob`` and from ``b`` (mirrored when
    ``factor`` is -1) with the remaining probability.
    """
    if a.shape != b.shape:
        raise ValueError(f"parent shapes differ: {a.shape} vs {b.shape}")
    d = a.shape[0]
    base = b if config.factor == 1 else (1.0 - b).clip(0.0, KEY_MAX)
    out = np.where(rng.random(d) < config.inherit_prob, a, base)
    mutate = rng.random(d) < config.mutation_prob
    if mutate.any():
        fresh = rng.random(d)
        out = np.where(mutate, fresh, out)
    return out


def key_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two key vectors of equal dimension."""
    if a.shape != b.shape:
        raise ValueError(f"vector shapes differ: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))
