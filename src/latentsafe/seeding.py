"""Deterministic RNG stream derivation and the one categorical draw.

One root seed governs a run. Independent streams (per episode, per batch)
are derived by mixing an integer key path into a ``numpy`` ``SeedSequence``:
``SeedSequence(entropy=(root_seed, *key))``. The derivation depends only on
the key, never on generation order, so parallel workers produce identical
output to a sequential run. Every categorical sample turns a uniform from
such a stream into a category through one bisection of the cumulative row,
``CdfTable.draw``: ``(n - 1).bit_length()`` gathers for an n-entry row, each
at the flat position it carries. The samplers draw from a ``cdf_table``,
which keeps only each row's positive entries when every row has few (3-4
gathers, not 9, on a 300-state driving row) and maps the final position to
its column: the dense row's category.

Per-episode streams are computed for all episodes at once: ``derive_seeds``
evaluates ``SeedSequence``'s hash and ``stream_uniforms`` evaluates the
PCG64 generator behind ``default_rng`` as uint32/uint64 array arithmetic,
bit for bit equal to numpy's own (tests/test_seeding.py holds them to it).
Every operand is an explicit numpy unsigned integer, so the wraparound
arithmetic does not depend on numpy's scalar promotion rules. Uniforms are
stored draw-major: one draw over all episodes, one batched sample, is contiguous.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError

# Episodes whose streams are computed together: every limb temporary is a
# (_BLOCK_ROWS,) array.
_BLOCK_ROWS = 16384

# numpy's SeedSequence: pool of 4 uint32 words and its hash constants.
_POOL_SIZE = 4
_INIT_A = np.uint32(0x43B0D7E5)
_MULT_A = np.uint32(0x931E8875)
_INIT_B = np.uint32(0x8B51F9DD)
_MULT_B = np.uint32(0x58F38DED)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_ZERO32 = np.uint32(0)

# PCG64: 128-bit LCG multiplier as (high, low) uint64 limbs, low limb's
# 32-bit halves, and the XSL-RR output's shifts.
_MUL_HI = np.uint64(2549297995355413924)
_MUL_LO = np.uint64(4865540595714422341)
_MUL_LO_0 = _MUL_LO & np.uint64(0xFFFFFFFF)
_MUL_LO_1 = _MUL_LO >> np.uint64(32)
_MASK32 = np.uint64(0xFFFFFFFF)
_ONE, _11, _32, _58, _63, _64 = (np.uint64(v) for v in (1, 11, 32, 58, 63, 64))
_DOUBLE_UNIT = np.float64(2.0**-53)


def derive_rng(root_seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by ``key`` under ``root_seed``."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=(int(root_seed), *[int(k) for k in key]))
    )


def _hash_chain(const: np.uint32, mult: np.uint32):
    """SeedSequence's running hash constant: (before, after) per use, the
    constant multiplied by ``mult`` at every use."""
    while True:
        after = const * mult
        yield const, after
        const = after


def _hashmix(value, chain):
    before, after = next(chain)
    value = (value ^ before) * after
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _generate_state(entropy: list, n_words: int) -> list:
    """``SeedSequence(entropy).generate_state(n_words, uint64)`` for entropy
    words that are uint32 scalars or row arrays, as a list of uint64 words.
    Must run under ``np.errstate(over="ignore")``."""
    chain = _hash_chain(_INIT_A, _MULT_A)
    pool = [
        _hashmix(entropy[i] if i < len(entropy) else _ZERO32, chain)
        for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], chain))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, chain))
    chain = _hash_chain(_INIT_B, _MULT_B)
    out = [_hashmix(pool[i % _POOL_SIZE], chain).astype(np.uint64) for i in range(2 * n_words)]
    return [out[2 * j] | (out[2 * j + 1] << _32) for j in range(n_words)]


def derive_seeds(root_seed: int, n: int) -> np.ndarray:
    """64-bit seeds of the streams (root_seed, i) for i < n, suitable for
    recording in datasets: entry i is
    ``SeedSequence((root_seed, i)).generate_state(1, uint64)[0]``."""
    root_seed = int(root_seed)
    if root_seed < 0:
        raise ValueError("expected non-negative integer")
    # SeedSequence's words of an integer: low word first, 0 is one word
    bits = range(0, root_seed.bit_length() or 1, 32)
    root = [np.uint32(root_seed >> s & 0xFFFFFFFF) for s in bits]
    seeds = np.empty(n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for lo in range(0, n, _BLOCK_ROWS):
            i = np.arange(lo, min(lo + _BLOCK_ROWS, n), dtype=np.uint32)
            seeds[lo : lo + len(i)] = _generate_state([*root, i], 1)[0]
    return seeds


def _pcg_step(hi, lo, inc_hi, inc_lo, scratch) -> None:
    """One PCG64 LCG step in place, state * multiplier + inc mod 2**128, in
    uint64 limbs; the high limb of lo * multiplier's low limb comes from
    32-bit partial products. ``scratch`` is four uint64 arrays and one bool
    array shaped like the limbs."""
    a, b, c, d, carry = scratch
    np.right_shift(lo, _32, out=a)  # lo_1
    np.bitwise_and(lo, _MASK32, out=b)  # lo_0
    # the high limb's terms without a carry out of the low limb
    hi *= _MUL_LO
    hi += np.multiply(lo, _MUL_HI, out=c)
    hi += inc_hi
    hi += np.multiply(a, _MUL_LO_1, out=c)
    np.multiply(a, _MUL_LO_0, out=a)  # p10
    np.multiply(b, _MUL_LO_1, out=c)  # p01
    np.multiply(b, _MUL_LO_0, out=b)  # p00
    b >>= _32  # mid, from p00 >> 32 up
    b += np.bitwise_and(c, _MASK32, out=d)
    b += np.bitwise_and(a, _MASK32, out=d)
    hi += np.right_shift(c, _32, out=c)
    hi += np.right_shift(a, _32, out=a)
    hi += np.right_shift(b, _32, out=b)
    lo *= _MUL_LO
    lo += inc_lo
    hi += np.less(lo, inc_lo, out=carry)


def stream_uniforms(seeds, shape: tuple) -> np.ndarray:
    """Uniforms of shape ``shape`` from each stream ``default_rng(seeds[i])``,
    stacked as (len(seeds), *shape): row i holds its stream's first draws in
    C order, the same values as as many scalar ``random()`` calls, stored
    draw-major (a transposed (n_draws, len(seeds)) buffer): each draw's values
    over the streams, such as ``result[:, t].T[j]``, are contiguous.

    A seed's SeedSequence entropy is its low and high uint32 words; a seed
    below 2**32 has one word, but a zero second word hashes the same as the
    pool's zero padding, so every seed is given two. The PCG64 state is
    seeded as ``pcg_setseq_128_srandom_r`` does, and each draw is one LCG
    step, the XSL-RR output and ``(x >> 11) * 2**-53``, computed in place on
    one block's limbs.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    n_draws = math.prod(map(int, shape))  # a Python int: it cannot wrap
    if 8 * n_draws * max(len(seeds), 1) > np.iinfo(np.intp).max:  # float64 bytes
        raise ConfigurationError(f"uniforms of shape {shape} need arrays numpy cannot index")
    out = np.empty((n_draws, len(seeds)))
    with np.errstate(over="ignore"):
        for lo in range(0, len(seeds), _BLOCK_ROWS):
            block = seeds[lo : lo + _BLOCK_ROWS]
            entropy = [(block & _MASK32).astype(np.uint32), (block >> _32).astype(np.uint32)]
            init_hi, init_lo, seq_hi, seq_lo = _generate_state(entropy, 4)
            inc_hi = (seq_hi << _ONE) | (seq_lo >> _63)
            inc_lo = (seq_lo << _ONE) | _ONE
            # state 0, one step (state = inc), add the initial state, one step
            state_lo = inc_lo + init_lo
            state_hi = inc_hi + init_hi + (state_lo < inc_lo).astype(np.uint64)
            scratch = [np.empty_like(block) for _ in range(4)] + [np.empty(len(block), bool)]
            x, rot, left = scratch[:3]
            _pcg_step(state_hi, state_lo, inc_hi, inc_lo, scratch)
            for d in range(n_draws):
                _pcg_step(state_hi, state_lo, inc_hi, inc_lo, scratch)
                # XSL-RR: x rotated right by rot, then (x >> 11) * 2**-53
                np.bitwise_xor(state_hi, state_lo, out=x)
                np.right_shift(state_hi, _58, out=rot)
                np.subtract(_64, rot, out=left)
                left &= _63
                np.left_shift(x, left, out=left)
                x >>= rot
                x |= left
                x >>= _11
                np.multiply(x, _DOUBLE_UNIT, out=out[d, lo : lo + len(block)])
    return out.T.reshape(len(seeds), *shape)


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


def cdf_table(probs) -> CdfTable:
    """The ``CdfTable`` of ``probs``: dense unless the short rows save
    bisection steps beyond the extra gather through ``support``."""
    probs = np.asarray(probs, dtype=float)
    n = probs.shape[-1]
    flat = probs.reshape(-1, n)
    row, col = np.divmod(np.flatnonzero(flat > 0.0), n)
    counts = np.bincount(row, minlength=len(flat))
    width = int(counts.max(initial=0)) + 1
    if (width - 1).bit_length() + 1 >= (n - 1).bit_length():
        return CdfTable(np.cumsum(probs, axis=-1), None)
    slot = np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)
    values = np.zeros((len(flat), width))
    values[row, slot] = flat[row, col]
    values[np.arange(len(flat)), counts] = np.inf
    support = np.full((len(flat), width), n - 1, dtype=np.int64)
    support[row, slot] = col
    shape = (*probs.shape[:-1], width)
    return CdfTable(np.cumsum(values, axis=1).reshape(shape), support.reshape(shape))
