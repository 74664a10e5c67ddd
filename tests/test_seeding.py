"""The array streams equal numpy's own: ``derive_seeds`` equals one scalar
``SeedSequence`` per episode, and ``stream_uniforms`` equals
``default_rng(seed).random(shape)`` byte for byte."""

from unittest import mock

import numpy as np
import pytest
from conftest import derive_seed
from hypothesis import given, settings
from hypothesis import strategies as st

from latentsafe import seeding
from latentsafe.seeding import derive_seeds, stream_uniforms

# 0 and 2**32 - 1 are one SeedSequence word, 2**32 and 2**64 - 1 two, 2**64
# three, and 2**200 + 3 seven, which takes the mixing of words past the pool
ROOTS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**200 + 3]
# a seed below 2**32 is one entropy word: an episode seed is one about once in
# 2**32 episodes, so only these seeds reach that case
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def reference_uniforms(seeds, shape):
    rows = [np.random.default_rng(int(s)).random(shape) for s in seeds]
    return np.stack(rows) if rows else np.empty((0, *shape))


@pytest.mark.parametrize("root", ROOTS)
def test_derive_seeds_named_roots(root):
    got = derive_seeds(root, 300)
    assert got.dtype == np.uint64
    assert got.tolist() == [derive_seed(root, i) for i in range(300)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**130), st.integers(0, 300))
def test_derive_seeds_random_roots(root, n):
    assert derive_seeds(root, n).tolist() == [derive_seed(root, i) for i in range(n)]


def test_derive_seeds_across_blocks():
    # rows of the second and later blocks get their own episode index
    n = 2 * seeding._BLOCK_ROWS + 5
    got = derive_seeds(7, n)
    for i in (0, seeding._BLOCK_ROWS - 1, seeding._BLOCK_ROWS, n - 1):
        assert int(got[i]) == derive_seed(7, i)


def test_derive_seeds_rejects_negative_root():
    with pytest.raises(ValueError):
        derive_seeds(-1, 3)


@pytest.mark.parametrize("shape", [(3, 3), (4, 4), (0, 3)])
def test_stream_uniforms_named_seeds(shape):
    got = stream_uniforms(SEEDS, shape)
    assert got.shape == (len(SEEDS), *shape)
    assert got.tobytes() == reference_uniforms(SEEDS, shape).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1)), max_size=40),
    st.integers(1, 12),
    st.booleans(),
)
def test_stream_uniforms_random_seeds(seeds, h, mediator):
    # (H, 3) as run-control draws, (H + 1, 4) as mediator data generation
    shape = (h + 1, 4) if mediator else (h, 3)
    got = stream_uniforms(np.array(seeds, dtype=np.uint64), shape)
    assert got.shape == (len(seeds), *shape)
    assert got.tobytes() == reference_uniforms(seeds, shape).tobytes()


def test_stream_uniforms_no_seeds():
    assert stream_uniforms([], (3, 3)).shape == (0, 3, 3)


def test_stream_uniforms_across_blocks():
    seeds = derive_seeds(11, 300)
    with mock.patch.object(seeding, "_BLOCK_ROWS", 64):
        got = stream_uniforms(seeds, (5, 3))
    assert got.tobytes() == reference_uniforms(seeds, (5, 3)).tobytes()


def test_stream_uniforms_reach_every_rotation():
    # XSL-RR rotates by the top 6 bits of the state: 1000 x 64 draws meet
    # every rotation, 0 included, about 1000 times each
    seeds = derive_seeds(3, 1000)
    got = stream_uniforms(seeds, (8, 8))
    assert got.tobytes() == reference_uniforms(seeds, (8, 8)).tobytes()
