"""Columnar offline generation, conversion and the inverse-CDF draw equal a
plain per-episode reference on random small confounded MDPs; the JSONL
writer equals ``json.JSONEncoder``, and the bulk loader equals the per-line
loader on valid and corrupted files."""

from unittest import mock

import numpy as np
from conftest import assert_same_episodes, dataset_records, reference_jsonl
from hypothesis import given, settings
from hypothesis import strategies as st

from latentsafe import data, seeding
from latentsafe.data import (
    FORM_CONVERTED,
    FORM_RAW,
    EpisodeDataset,
    convert_dataset,
    generate_offline,
    load_jsonl,
    save_jsonl,
    write_jsonl,
)
from latentsafe.errors import LatentSafeError
from latentsafe.mdp import ConfoundedMdpModel, MediatorModel, TabularPolicy
from latentsafe.seeding import derive_seed, inverse_cdf


def _law(rng, shape, full_support):
    """Random conditional law over the last axis, with some zero entries
    unless ``full_support``."""
    table = rng.random(shape) + 0.05
    if not full_support:
        table *= rng.random(shape) < 0.6
        table[..., rng.integers(shape[-1])] += 0.05  # no row sums to zero
    return table / table.sum(axis=-1, keepdims=True)


@st.composite
def offline_problems(draw):
    """A confounded MDP, with or without a mediator, a full-support
    latent-aware behavioral policy, a start state and a dataset size."""
    n = draw(st.integers(2, 5))
    nu = draw(st.integers(2, 3))
    nw = draw(st.integers(1, 3))
    horizon = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mediator = None
    if draw(st.booleans()):
        nm = draw(st.integers(2, 3))
        mediator = MediatorModel(
            mediator_dist=_law(rng, (n, nu, nm), False),
            mediated_transition=_law(rng, (n, nm, nw, n), False),
        )
        # point-mass rows can sum past 1.0 by one ulp
        transition = np.minimum(
            np.einsum("xum,xmwy->xuwy", mediator.mediator_dist, mediator.mediated_transition),
            1.0,
        )
    else:
        transition = _law(rng, (n, nu, nw, n), False)
    safe = rng.random(n) < 0.6
    safe[rng.integers(n)] = True
    model = ConfoundedMdpModel(
        transition=transition,
        latent_dist=_law(rng, (n, nw), False),
        horizon=horizon,
        safe=safe,
        action_values=tuple(range(nu)),
    )
    behavioral = TabularPolicy(table=_law(rng, (n, nw, nu), True))
    return model, mediator, behavioral, draw(st.integers(0, n - 1)), draw(st.integers(0, 30))


def _category(cum_row, uniform):
    """Scalar inverse CDF, written independently of the package."""
    return min(int(np.searchsorted(cum_row, uniform, side="right")), len(cum_row) - 1)


def _draw(probs, uniform):
    return _category(np.cumsum(probs), uniform)


def reference_episodes(model, behavioral, n_episodes, x0, seed, mediator=None):
    """Episode by episode, step by step, in the documented draw order: per
    step the latent, the action, [the mediator,] the next state."""
    h = model.horizon
    per_step = 4 if mediator is not None else 3
    episodes = []
    for i in range(n_episodes):
        ep_seed = derive_seed(seed, i)
        uniforms = iter(np.random.default_rng(ep_seed).random(per_step * (h + 1)))
        xs, us, ms = [x0], [], []
        for t in range(h + 1):
            x = xs[-1]
            w = _draw(model.latent_dist[x], next(uniforms))
            u = _draw(behavioral.table[x, w], next(uniforms))
            us.append(u)
            if mediator is not None:
                ms.append(_draw(mediator.mediator_dist[x, u], next(uniforms)))
                row = mediator.mediated_transition[x, ms[-1], w]
            else:
                row = model.transition[x, u, w]
            x_next = _draw(row, next(uniforms))
            if t < h:
                xs.append(x_next)
        episodes.append((ep_seed, xs, us, ms if mediator is not None else None))
    return episodes


def reference_convert(xs, safe):
    """Copy the raw states until the first unsafe one, then repeat it."""
    out = [xs[0]]
    for t in range(len(xs) - 1):
        out.append(out[t] if not safe[out[t]] else xs[t + 1])
    return out


@settings(max_examples=100, deadline=None)
@given(offline_problems(), st.integers(0, 2**63 - 1))
def test_columnar_generation_and_conversion_equal_reference(problem, seed):
    model, mediator, behavioral, x0, n_episodes = problem
    raw = generate_offline(model, behavioral, n_episodes, x0, seed, mediator=mediator)
    conv = convert_dataset(raw, model.safe)
    reference = reference_episodes(model, behavioral, n_episodes, x0, seed, mediator)
    assert raw.x.shape == (n_episodes, model.horizon + 1)
    assert raw.seed.tolist() == [ep[0] for ep in reference]
    assert raw.x.tolist() == [ep[1] for ep in reference]
    assert raw.u.tolist() == [ep[2] for ep in reference]
    if mediator is None:
        assert raw.m is None
    else:
        assert raw.m.tolist() == [ep[3] for ep in reference]
    assert conv.x.tolist() == [reference_convert(ep[1], model.safe) for ep in reference]
    assert conv.u is raw.u and conv.seed is raw.seed


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(0, 40),
    st.integers(1, 9),
    st.integers(0, 2**32 - 1),
)
def test_inverse_cdf_equals_searchsorted_in_any_block_size(n, batch, block, seed):
    """Blocks of ``block`` entries give the same categories as whole rows,
    for batches and single draws, including draws that tie with a
    cumulative entry or lie beyond the last one."""
    rng = np.random.default_rng(seed)
    cum = np.cumsum(_law(rng, (3, n), False), axis=-1)
    rows = rng.integers(3, size=batch)
    u = rng.random(batch)
    u[::4] = cum[rows[::4], rng.integers(n)]
    u[1::5] = 1.0
    expected = [_category(cum[r], v) for r, v in zip(rows, u)]
    with mock.patch.object(seeding, "_BLOCK_ENTRIES", block):
        assert inverse_cdf(cum, (rows,), u).tolist() == expected
        assert [int(inverse_cdf(cum[r], (), v)) for r, v in zip(rows, u)] == expected


# ---------------------------------------------------------------------------
# JSONL writer and loader
# ---------------------------------------------------------------------------

SEEDS = st.sampled_from([0, 1, 2**53 + 1, 2**63, 2**64 - 1]) | st.integers(0, 2**64 - 1)
MARGINS = st.sampled_from(
    [-0.0, 0.0, 5e-324, 0.1 + 0.2, 1.0, float("nan"), float("inf"), -float("inf")]
) | st.floats()


@st.composite
def datasets(draw):
    """Random ids and seeds: H in 1..10, with or without mediators, raw or
    converted (the writer does not check the freeze)."""
    h, n = draw(st.integers(1, 10)), draw(st.integers(0, 12))
    seeds = draw(st.lists(SEEDS, min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = lambda: rng.integers(0, draw(st.sampled_from([2, 5, 300])), (n, h + 1))  # noqa: E731
    return EpisodeDataset(
        seed=np.array(seeds, dtype=np.uint64), x=ids(), u=ids(),
        m=ids() if draw(st.booleans()) else None,
        form=draw(st.sampled_from([FORM_RAW, FORM_CONVERTED])),
    )


@settings(max_examples=100, deadline=None)
@given(dataset=datasets())
def test_save_jsonl_equals_encoder_reference(tmp_path_factory, dataset):
    path = tmp_path_factory.getbasetemp() / "save.jsonl"
    save_jsonl(dataset, path)
    assert path.read_bytes() == reference_jsonl(dataset_records(dataset)).encode()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 299), st.integers(0, 4),
                          st.integers(0, 4), MARGINS, st.booleans()), max_size=30))
def test_control_log_equals_encoder_reference(tmp_path_factory, rows):
    """The run-control log's columns: four id columns, the margins (finite or
    not) and the feasibility flags."""
    names = ("t", "x", "u_nominal", "u", "S", "feasible")
    dtypes = (np.int64,) * 4 + (np.float64, bool)
    columns = {
        name: np.array([row[j] for row in rows], dtype=dtype)
        for j, (name, dtype) in enumerate(zip(names, dtypes))
    }
    path = tmp_path_factory.getbasetemp() / "control.jsonl"
    write_jsonl(path, columns)
    assert path.read_bytes() == reference_jsonl(dict(zip(names, row)) for row in rows).encode()


MUTATIONS = ("none", "digit-to-letter", "insert-space", "delete-byte", "leading-zero",
             "duplicate-line", "blank-line", "no-final-newline")


def _mutate(text: bytes, kind: str, pick: int) -> bytes:
    """``text`` with one edit of the given kind, at a place chosen by ``pick``."""
    if kind == "none" or not text:
        return text
    digits = [i for i, c in enumerate(text) if chr(c).isdigit()]
    lines = text.splitlines(keepends=True)
    if kind == "digit-to-letter":
        i = digits[pick % len(digits)]
        return text[:i] + b"a" + text[i + 1:]
    if kind == "insert-space":
        i = pick % (len(text) + 1)
        return text[:i] + b" " + text[i:]
    if kind == "delete-byte":
        i = pick % len(text)
        return text[:i] + text[i + 1:]
    if kind == "leading-zero":
        starts = [i for i in digits if not chr(text[i - 1]).isdigit()]
        i = starts[pick % len(starts)]
        return text[:i] + b"0" + text[i:]
    if kind == "duplicate-line":
        j = pick % len(lines)
        return b"".join(lines[: j + 1] + lines[j:])
    if kind == "blank-line":
        j = pick % (len(lines) + 1)
        return b"".join(lines[:j] + [b"\n"] + lines[j:])
    return text[:-1]  # no final newline


def _outcome(load):
    """The loaded dataset, or the type and text of the error it raised."""
    try:
        return load()
    except LatentSafeError as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=200, deadline=None)
@given(offline_problems(), st.integers(0, 2**63 - 1), st.booleans(),
       st.sampled_from(MUTATIONS), st.integers(0, 2**20))
def test_bulk_loader_equals_per_line_loader(
    tmp_path_factory, problem, seed, converted, mutation, pick
):
    """A file loads to the same arrays, or fails with the same message,
    whether or not the bulk path may take it; the bulk path takes every
    file exactly as save_jsonl wrote it."""
    model, mediator, behavioral, x0, n_episodes = problem
    dataset = generate_offline(model, behavioral, n_episodes, x0, seed, mediator=mediator)
    dataset.seed[::3] = 2**64 - 1
    dataset.seed[1::3] = 0
    if converted:
        dataset = convert_dataset(dataset, model.safe)
    path = tmp_path_factory.getbasetemp() / "load.jsonl"
    save_jsonl(dataset, path)
    path.write_bytes(_mutate(path.read_bytes(), mutation, pick))
    taken, bulk_path = [], data._load_saved

    def spy(*args):
        result = bulk_path(*args)
        taken.append(result is not None)
        return result

    with mock.patch.object(data, "_load_saved", spy):
        either = _outcome(lambda: load_jsonl(path, model, mediator))
    with mock.patch.object(data, "_load_saved", return_value=None):
        per_line = _outcome(lambda: load_jsonl(path, model, mediator))
    if mutation == "none" and n_episodes:
        assert taken == [True]
        assert_same_episodes(either, dataset)
    if isinstance(per_line, str) or isinstance(either, str):
        assert either == per_line
    else:
        assert_same_episodes(either, per_line)
