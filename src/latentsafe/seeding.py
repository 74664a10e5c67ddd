"""Deterministic RNG streams and the one categorical draw.

One root seed governs a command. A stream is ``derive_rng(seed, *key)``,
``SeedSequence(entropy=(seed, *key))``: the Monte Carlo's batch b draws from
key (b,), whatever the worker count. Offline generation and the control loop
draw episode after episode from the stream of no key (``stream_uniforms``):
the first m episodes of a larger run are the same, and ``PCG64.advance`` to
episode i's offset regenerates it alone. Every categorical sample turns a
uniform into a category through one bisection, ``CdfTable.draw``, of a
``cdf_table``: its rows keep only their positive entries when every row has
few (3-4 gathers, not 9, on a driving row).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError

# Episodes whose uniforms are transposed together: the block stays in cache.
_BLOCK_ROWS = 4096


def derive_rng(root_seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by ``key`` under ``root_seed``."""
    entropy = (int(root_seed), *map(int, key))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def stream_uniforms(seed: int, n_episodes: int, shape: tuple) -> np.ndarray:
    """The uniforms of ``n_episodes`` episodes of ``shape`` draws each, from
    ``derive_rng(seed)`` in episode-major C order (episode i's block starts at
    ``i * prod(shape)``), stored draw-major as (*shape, n_episodes): each draw
    over all episodes, which one batched sample reads, is contiguous."""
    n_draws = math.prod(map(int, shape))  # a Python int: it cannot wrap
    if 8 * n_draws * max(n_episodes, 1) > np.iinfo(np.intp).max:  # float64 bytes
        raise ConfigurationError(f"uniforms of shape {shape} need arrays numpy cannot index")
    rng, out = derive_rng(seed), np.empty((n_draws, n_episodes))
    for lo in range(0, n_episodes, _BLOCK_ROWS):
        block = rng.random((min(_BLOCK_ROWS, n_episodes - lo), len(out)))
        out[:, lo : lo + len(block)] = block.T
    return out.reshape(*shape, n_episodes)


class CdfTable(NamedTuple):
    """Cumulative rows of a probability table (last axis), from ``cdf_table``.

    ``support`` is None when ``cum`` is the dense cumulative table. Otherwise
    ``cum[..., i]`` is the cumulative value at the row's i-th positive entry
    and ``support[..., i]`` that entry's column; the slots past a row's
    positives hold ``+inf`` and the last column. Zeros never change a running
    sum, so each short value equals the dense one at its column, and the one
    spare ``+inf`` slot takes a ``u`` at or above a row total a few ulps
    under 1 to the last column, as the dense count's clip does.
    """

    cum: np.ndarray
    support: Optional[np.ndarray]

    def draw(self, rows: tuple, u) -> np.ndarray:
        """Categories drawn by the uniforms ``u`` from the dense cumulative rows
        ``rows`` (an index of the leading axes, ``()`` for one row, broadcast
        with ``u``): each the count of row entries <= u, clipped to the last
        index, i.e. ``searchsorted(row[:-1], u, side="right")``. A branchless
        bisection over the first ``last`` entries of the row of ``cum`` finds
        it, carrying the flat position ``pos = row_base + count``: each of its
        ``last.bit_length()`` steps is one gather from the shifted view
        ``flat[step - 1:]`` at ``pos``, one compare and one multiply-add. The
        first step tests whether the count reaches ``last + 1 - half`` (``half``
        the largest power of two <= ``last``); at most ``half`` values then
        remain, and steps ``half / 2, ..., 1`` settle them within the row. The
        last entry never changes the clipped count, so it is never read. A
        short table then reads the column in ``support`` at ``pos``."""
        u = np.asarray(u)
        last = self.cum.shape[-1] - 1
        base = np.int64(0)
        for size, index in zip(self.cum.shape, (*rows, 0)):  # the row's first entry
            base = base * size + index
        if last < 1:
            pos = base + np.zeros(u.shape, dtype=np.int64)
        else:
            flat = self.cum.reshape(-1)
            half = 1 << (last.bit_length() - 1)
            first = last + 1 - half
            pos = base + (flat[first - 1 :][base] <= u) * first
            step = half >> 1
            while step:
                pos += (flat[step - 1 :][pos] <= u) * step
                step >>= 1
        return pos - base if self.support is None else self.support.reshape(-1)[pos]


class ShortRows(NamedTuple):
    """The nonzero entries of each row of a probability table (last axis,
    ``n`` columns), from ``short_rows``: ``probs[..., i]`` is the row's i-th
    nonzero entry and ``columns[..., i]`` its column, ascending; the slots
    past a row's entries hold probability 0 and column ``n - 1``."""

    columns: np.ndarray
    probs: np.ndarray
    n: int

    def dense(self) -> np.ndarray:
        """The (..., n) table: one ``bincount`` adds each row's entries in
        slot order, onto zeros, so an entry spread over several slots is
        their sequential sum."""
        lead = self.probs.shape[:-1]
        n_rows = math.prod(lead)
        cell = np.arange(n_rows).reshape(*lead, 1) * self.n + self.columns
        dense = np.bincount(cell.reshape(-1), self.probs.reshape(-1), n_rows * self.n)
        return dense.reshape(*lead, self.n)


def short_rows(probs) -> ShortRows:
    """The ``ShortRows`` of the table ``probs``, as wide as its fullest row."""
    probs = np.asarray(probs, dtype=float)
    n = probs.shape[-1]
    flat = probs.reshape(-1, n)
    row, col = np.divmod(np.flatnonzero(flat != 0.0), n)
    counts = np.bincount(row, minlength=len(flat))
    width = int(counts.max(initial=0))
    slot = np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)
    values = np.zeros((len(flat), width))
    values[row, slot] = flat[row, col]
    columns = np.full((len(flat), width), n - 1, dtype=np.int64)
    columns[row, slot] = col
    shape = (*probs.shape[:-1], width)
    return ShortRows(columns.reshape(shape), values.reshape(shape), n)


def cdf_table(probs) -> CdfTable:
    """The ``CdfTable`` of a probability table, dense or ``ShortRows``: dense
    unless the short rows save bisection steps beyond the extra gather
    through ``support``."""
    given_short = isinstance(probs, ShortRows)
    rows = probs if given_short else short_rows(probs)
    n, width = rows.n, rows.probs.shape[-1] + 1
    if (width - 1).bit_length() + 1 >= (n - 1).bit_length():
        dense = rows.dense() if given_short else np.asarray(probs, dtype=float)
        return CdfTable(np.cumsum(dense, axis=-1), None)
    pad = (*rows.probs.shape[:-1], 1)
    values = np.concatenate([rows.probs, np.zeros(pad)], axis=-1)
    counts = np.count_nonzero(rows.probs, axis=-1)[..., None]
    np.put_along_axis(values, counts, np.inf, axis=-1)
    support = np.concatenate([rows.columns, np.full(pad, n - 1, dtype=np.int64)], axis=-1)
    return CdfTable(np.cumsum(values, axis=-1), support)
