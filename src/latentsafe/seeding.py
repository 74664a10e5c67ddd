"""Deterministic RNG stream derivation and the one categorical draw.

One root seed governs a run. Independent streams (per episode, per batch)
are derived by mixing an integer key path into a ``numpy`` ``SeedSequence``:
``SeedSequence(entropy=(root_seed, *key))``. The derivation depends only on
the key, never on generation order, so parallel workers produce identical
output to a sequential run. Every categorical sample turns a uniform from
such a stream into a category through ``inverse_cdf``.
"""

from __future__ import annotations

import numpy as np

# A batch of draws never gathers more cumulative entries (8 MB) than this.
_BLOCK_ENTRIES = 1 << 20


def derive_seed_sequence(root_seed: int, *key: int) -> np.random.SeedSequence:
    """Seed sequence for the stream identified by ``key`` under ``root_seed``."""
    return np.random.SeedSequence(entropy=(int(root_seed), *[int(k) for k in key]))


def derive_rng(root_seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by ``key`` under ``root_seed``."""
    return np.random.default_rng(derive_seed_sequence(root_seed, *key))


def derive_seed(root_seed: int, *key: int) -> int:
    """64-bit integer seed for the stream, suitable for recording in datasets."""
    state = derive_seed_sequence(root_seed, *key).generate_state(1, dtype=np.uint64)
    return int(state[0])


def stream_uniforms(seeds, shape: tuple) -> np.ndarray:
    """Uniforms of shape ``shape`` from each stream ``default_rng(seeds[i])``,
    stacked as (len(seeds), *shape): row i holds its stream's first draws in
    C order, the same values as as many scalar ``random()`` calls."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    out = np.empty((len(seeds), *shape))
    for i, seed in enumerate(seeds.tolist()):
        out[i] = np.random.default_rng(seed).random(shape)
    return out


def inverse_cdf(cum: np.ndarray, rows: tuple, u) -> np.ndarray:
    """Categories drawn by the uniforms ``u`` from the cumulative rows
    ``cum[rows]``: the count of row entries <= u, clipped to the last index,
    i.e. ``searchsorted(row, u, side="right")``. ``rows`` indexes the leading
    axes of ``cum`` (``()`` for one row) and broadcasts with ``u``. The last
    entry cannot change the clipped count, so it is never read."""
    u = np.asarray(u)[..., None]
    last = cum.shape[-1] - 1
    width = max(1, _BLOCK_ENTRIES // max(1, u.size))
    count = np.zeros(u.shape[:-1], dtype=np.int64)
    for lo in range(0, last, width):
        count += (cum[rows + (slice(lo, min(lo + width, last)),)] <= u).sum(axis=-1)
    return count
