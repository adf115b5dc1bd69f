"""Low-level vector math: unit-sphere geometry, stable softmax machinery,
seeded RNG streams and the finite-loss checks of training.

All arithmetic is float64. The RNG is numpy's counter-based Philox generator,
which produces identical streams for identical seeds on every platform.
l2_normalize is the only code that scales vectors to unit norm, and
softmax_cross_entropy the one softmax kernel (core_learn_linear inlines it
for one row). There is no optimizer object: each training loop writes its
own in-place step.
"""

from contextlib import contextmanager

import numpy as np

from .errors import AdaptclError, DegenerateVector, NonFiniteLoss

EPS_NORM = 1e-8


def require_seed(seed: int, what: str = "seed") -> int:
    """seed if it lies in [0, 2^64), the range of one Philox key word; else a
    ValueError naming what. A seed outside it would alias another modulo 2^64."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"{what} must be in [0, 2^64), got {seed}")
    return seed


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream ids); see require_seed.

    Distinct stream ids give independent substreams of the same seed, so
    components (data generation, init, shuffling) can be reseeded without
    coupling their draw counts.
    """
    mask = 0xFFFFFFFFFFFFFFFF
    word = 0x9E3779B97F4A7C15
    for s in stream:
        # splitmix64-style fold of the stream ids into the second key word
        word = (word + (int(s) & mask)) & mask
        word = ((word ^ (word >> 30)) * 0xBF58476D1CE4E5B9) & mask
        word = ((word ^ (word >> 27)) * 0x94D049BB133111EB) & mask
        word ^= word >> 31
    key = np.array([require_seed(int(seed)), word], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _least(a):
    """The smallest entry of a, NaN if any entry is NaN, inf if a is empty."""
    return np.minimum.reduce(a, axis=None, initial=np.inf)


def _greatest(a):
    """The largest entry of a, NaN if any entry is NaN, -inf if a is empty."""
    return np.maximum.reduce(a, axis=None, initial=-np.inf)


def l2_normalize_with_norm(v):
    """(v scaled to unit Euclidean norm over its last axis, the norms): a
    (d,) vector gives a 0-d norm, (n, d) rows an (n,) one. The norm is
    sqrt((v * v).sum(-1)); one that overflows reads as inf. Raises
    DegenerateVector unless every norm is finite and > EPS_NORM, so for a
    NaN norm too."""
    v = np.asarray(v, dtype=np.float64)
    with np.errstate(over="ignore"):
        norm = np.sqrt(np.add.reduce(v * v, axis=-1))
    # NaN fails both comparisons; the per-row mask is built only to name a bad norm
    if not (_least(norm) > EPS_NORM and _greatest(norm) < np.inf):
        ok = np.isfinite(norm) & (norm > EPS_NORM)
        raise DegenerateVector(f"norm {norm[~ok].flat[0]:g}: need a finite norm > {EPS_NORM:g}")
    return v / norm[..., None], norm


def l2_normalize(v) -> np.ndarray:
    """v scaled to unit Euclidean norm over its last axis; see
    l2_normalize_with_norm, which also returns the norms."""
    return l2_normalize_with_norm(v)[0]


def softmax_cross_entropy(logits, y_idx):
    """(losses, softmax) of (n, C) logits with (n,) true-class columns y_idx:
    per row log(sum(exp(s))) - s[y], with the log-sum-exp shifted by the
    row's max, and the (n, C) softmax exp(s - lse) in a new array."""
    s = np.asarray(logits, dtype=np.float64)
    if s.size == 0:
        raise AdaptclError("softmax cross-entropy of empty logits")
    m = np.maximum.reduce(s, axis=-1, keepdims=True)
    t = s - m
    lse = m[..., 0] + np.log(np.add.reduce(np.exp(t, out=t), axis=-1))
    losses = lse - s[np.arange(len(s)), y_idx]
    return losses, np.exp(np.subtract(s, lse[..., None], out=t), out=t)


def require_finite(losses, what: str) -> None:
    """Raise NonFiniteLoss unless every per-row loss is finite; the one-line
    message names the first non-finite value and how many rows had one."""
    if not (_least(losses) > -np.inf and _greatest(losses) < np.inf):
        bad = ~np.isfinite(losses)
        raise NonFiniteLoss(f"{what}: {losses[bad][0]} in {bad.sum()} of {bad.size} rows")


@contextmanager
def diverged_as(what: str, error=NonFiniteLoss):
    """Run one epoch of a training loop, or the data draws, with
    floating-point overflow and invalid values raising. Either, or a vector
    that can no longer be normalized, ends it as a one-line error (a
    NonFiniteLoss unless given) "<what>: <reason>". A silent inf weight could
    leave tanh embeddings finite and reach a checkpoint that load_checkpoint
    rejects."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, DegenerateVector) as e:
        raise error(f"{what}: {e}") from e

