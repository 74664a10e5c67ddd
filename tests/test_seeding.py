"""The array streams equal numpy's own: ``derive_seeds`` equals one scalar
``SeedSequence`` per episode, and ``stream_uniforms`` equals
``default_rng(seed).random(shape)`` byte for byte. A ``cdf_table`` draw
equals the draw from the dense cumulative rows, ``CdfTable(cum, None)``."""

from unittest import mock

import numpy as np
import pytest
from conftest import derive_seed
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latentsafe import seeding
from latentsafe.errors import ConfigurationError
from latentsafe.seeding import CdfTable, cdf_table, derive_seeds, stream_uniforms

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


@pytest.mark.parametrize("shape", [(4, 4), (4, 3), (3, 3), (11, 4), (11, 3), (10, 3)])
def test_stream_uniforms_are_draw_major(shape):
    """The (H + 1, 4) and (H + 1, 3) shapes of data generation and the (H, 3)
    of run-control: each draw over all streams, ``uniforms[:, t].T[j]`` as the
    samplers read it, is one contiguous run of the reference values."""
    seeds = derive_seeds(5, 50)
    got = stream_uniforms(seeds, shape)
    expected = reference_uniforms(seeds, shape)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    assert got.strides == (8, 8 * len(seeds) * shape[1], 8 * len(seeds))
    for t in range(shape[0]):
        for j, draw in enumerate(got[:, t].T):
            assert draw.flags.c_contiguous
            assert draw.tobytes() == expected[:, t, j].tobytes()


def test_stream_uniforms_no_seeds():
    assert stream_uniforms([], (3, 3)).shape == (0, 3, 3)


@pytest.mark.parametrize("shape", [(2**62 + 1, 4), (2**31, 2**31, 4)])
def test_stream_uniforms_shape_beyond_index_range_is_named(shape):
    """The draw count is a Python int product: a shape past numpy's index
    range is refused by name, before anything is allocated, rather than
    wrapping to a wrong count (2**64 + 4 and 2**64 draws)."""
    with pytest.raises(ConfigurationError, match=rf"uniforms of shape \({shape[0]}, "):
        stream_uniforms(derive_seeds(3, 3), shape)


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


# every u of a batch set to 0.0, to the largest uniform below 1, or to its
# row's exact cumulative value at a random column
PINNED_U = st.sampled_from([None, 0.0, 1.0 - 2**-53, "cum"])


@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(1, 300),
    lead=st.lists(st.integers(1, 3), max_size=3),
    density=st.sampled_from([0.01, 0.05, 0.3, 1.0]),
    zero_last=st.booleans(),
    tiny=st.booleans(),
    ulps_short=st.integers(0, 4),
    pinned=PINNED_U,
    seed=st.integers(0, 2**32 - 1),
)
@example(300, [3, 2], 0.02, True, False, 0, 0.0, 1)
@example(300, [3, 2], 0.02, True, False, 0, 1.0 - 2**-53, 2)
@example(300, [2, 2, 2], 0.02, False, True, 0, "cum", 3)
# totals below 1 and a zero last entry: a u past the total draws the last
# column, which has no probability
@example(64, [4], 0.1, True, False, 3, 1.0 - 2**-53, 4)
def test_table_draw_equals_dense_inverse_cdf(
    width, lead, density, zero_last, tiny, ulps_short, pinned, seed
):
    """Over 0 to 3 leading axes and rows of 1 to 300 entries: zeros anywhere
    (the last column included), positive entries below an ulp of the running
    sum, and totals a few ulps under 1."""
    rng = np.random.default_rng(seed)
    shape = (*lead, width)
    probs = rng.random(shape) * (rng.random(shape) < density)
    if zero_last:
        probs[..., -1] = 0.0
    totals = probs.sum(axis=-1, keepdims=True)
    probs = np.divide(probs, totals, out=np.zeros(shape), where=totals > 0.0)
    probs *= 1.0 - ulps_short * 2.0**-53
    if tiny:
        probs[..., rng.integers(width)] = 2.0**-70
    cum = np.cumsum(probs, axis=-1)
    batch = 40
    rows = tuple(rng.integers(size, size=batch) for size in lead)
    if pinned == "cum":
        u = cum[(*rows, rng.integers(width, size=batch))]
    elif pinned is None:
        u = rng.random(batch)
    else:
        u = np.full(batch, pinned)
    expected = CdfTable(cum, None).draw(rows, u)
    got = cdf_table(probs).draw(rows, u)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


def test_positive_table_keeps_dense_rows():
    probs = np.random.default_rng(5).dirichlet(np.ones(300), size=(4, 3))
    table = cdf_table(probs)
    assert table.support is None
    assert np.array_equal(table.cum, np.cumsum(probs, axis=-1))


def test_sparse_table_keeps_positive_entries():
    probs = np.zeros((2, 300))
    probs[0, [3, 299]] = 0.5
    probs[1, 7] = 1.0
    table = cdf_table(probs)
    assert table.cum.tolist() == [[0.5, 1.0, np.inf], [1.0, np.inf, np.inf]]
    assert table.support.tolist() == [[3, 299, 299], [7, 299, 299]]
