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
    """

    inherit_prob: float = 0.7
    mutation_prob: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.inherit_prob <= 1.0:
            raise ValueError(f"inherit_prob outside [0, 1]: {self.inherit_prob}")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError(f"mutation_prob outside [0, 1]: {self.mutation_prob}")


def shake(keys: np.ndarray, config: ShakeConfig, rng: np.random.Generator) -> np.ndarray:
    """Perturb a copy of ``keys`` with ceil(beta * dimension) random moves.

    Each move is drawn uniformly from four kinds: swap two distinct
    keys, swap a key with its immediate successor, mirror one key
    through ``1 - key`` (clamped to [0, KEY_MAX]), or overwrite one key
    with a fresh uniform draw (clamped to KEY_MAX).  Indices are
    sampled with replacement across moves, so a key may be touched
    more than once.  Moves that need two positions are skipped for
    one-dimensional vectors.

    The call draws its randomness in two calls: ``beta`` uniformly
    from [beta_min, beta_max], then one ``(3, moves)`` block of
    uniforms holding each move's kind, first index and second index
    or fresh value.  A kind's uniform u picks a swap below 0.25, an
    adjacent swap below 0.5, a mirror below 0.75 and an overwrite
    above; these are the quarters ``int(4 * u)`` names, as multiplying
    by 4 is exact.  An index is the floor of its uniform times the
    number of valid positions, which needs no clamp: for every uniform
    below 1 the product stays below that number, as even
    ``(1 - 2**-53) * n`` never rounds up to ``n``.  The moves are then
    applied in order.  Each value clamp keeps its value unless the
    bound lies strictly beyond it, the rule of ``min`` and ``max``, so a
    NaN key mirrors to NaN.

    Returns a new array; the input is not modified.
    """
    out = np.asarray(keys, dtype=float).tolist()
    d = len(out)
    # The same value as rng.uniform(beta_min, beta_max), without the
    # wrapper's argument handling.
    beta = config.beta_min + (config.beta_max - config.beta_min) * rng.random()
    kinds, firsts, seconds = rng.random((3, math.ceil(beta * d))).tolist()
    moves = zip(kinds, firsts, seconds)
    if d < 2:
        # No two positions to swap: only mirrors and overwrites act.
        moves = [move for move in moves if move[0] >= 0.5]
    last = d - 1
    for u, v, w in moves:
        if u < 0.5:
            if u < 0.25:
                i = int(v * d)
                j = int(w * last)
                if j >= i:
                    j += 1
                out[i], out[j] = out[j], out[i]
            else:
                i = int(v * last)
                out[i], out[i + 1] = out[i + 1], out[i]
        else:
            i = int(v * d)
            if u < 0.75:
                x = 1.0 - out[i]
                if x < 0.0:
                    x = 0.0
                elif KEY_MAX < x:
                    x = KEY_MAX
                out[i] = x
            else:
                out[i] = KEY_MAX if KEY_MAX < w else w
    return np.fromiter(out, float, d)


def blend(
    a: np.ndarray,
    b: np.ndarray,
    config: BlendConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Combine parent vectors key by key.

    Each position independently becomes a fresh uniform draw with
    probability ``mutation_prob``; otherwise it inherits from ``a``
    with probability ``inherit_prob`` and from ``b`` with the remaining
    probability.

    ``a`` and ``b`` are two vectors, or two ``(k, d)`` stacks of
    parents that give one child per row.  The inheritance and mutation
    masks are each drawn as one block of the parents' shape, so a
    ``(1, d)`` stack gives the bytes of the one-dimensional call from
    the same generator.
    """
    if a.shape != b.shape:
        raise ValueError(f"parent shapes differ: {a.shape} vs {b.shape}")
    shape = a.shape
    out = np.where(rng.random(shape) < config.inherit_prob, a, b)
    mutate = rng.random(shape) < config.mutation_prob
    if mutate.any():
        fresh = rng.random(shape)
        out = np.where(mutate, fresh, out)
    return out


def key_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two key vectors of equal dimension.

    It computes what ``np.linalg.norm`` computes for a float vector,
    ``sqrt(d.dot(d))``, byte for byte, without the wrapper's checks:
    the pool calls it once per worse entry on every eviction.
    """
    if a.shape != b.shape:
        raise ValueError(f"vector shapes differ: {a.shape} vs {b.shape}")
    d = a - b
    return math.sqrt(d.dot(d))
