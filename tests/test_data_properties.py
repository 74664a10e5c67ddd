"""Columnar offline generation, conversion and the inverse-CDF draw equal a
plain per-episode reference on random small confounded MDPs, and the
bincount tables equal ``np.add.at`` scatters; the JSONL writer equals
``json.JSONEncoder``, and the bulk loader equals the per-line loader on
valid and corrupted files and takes valid ones of any digit width."""

import dataclasses
import json
import re
from unittest import mock

import numpy as np
import pytest
from conftest import (
    assert_same_episodes,
    dataset_records,
    derive_seed,
    random_law,
    reference_empirical_offline_tables,
    reference_jsonl,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latentsafe import data
from latentsafe.data import (
    FORM_CONVERTED,
    FORM_RAW,
    EpisodeDataset,
    convert_dataset,
    empirical_offline_tables,
    generate_offline,
    load_jsonl,
    save_jsonl,
    write_jsonl,
)
from latentsafe.envs import build_mediator_toy_env
from latentsafe.errors import LatentSafeError
from latentsafe.mdp import ConfoundedMdpModel, MediatorModel, TabularPolicy
from latentsafe.seeding import CdfTable


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
            mediator_dist=random_law(rng, (n, nu, nm)),
            mediated_transition=random_law(rng, (n, nm, nw, n)),
        )
        # point-mass rows can sum past 1.0 by one ulp
        transition = np.minimum(
            np.einsum("xum,xmwy->xuwy", mediator.mediator_dist, mediator.mediated_transition),
            1.0,
        )
    else:
        transition = random_law(rng, (n, nu, nw, n))
    safe = rng.random(n) < 0.6
    safe[rng.integers(n)] = True
    model = ConfoundedMdpModel(
        transition=transition,
        latent_dist=random_law(rng, (n, nw)),
        horizon=horizon,
        safe=safe,
        action_values=tuple(range(nu)),
    )
    behavioral = TabularPolicy(table=random_law(rng, (n, nw, nu), full_support=True))
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


@st.composite
def converted_datasets(draw):
    """A model, a mediator model or None, and a converted dataset of random
    in-range ids: 0-40 episodes, H = 1..5, mediator sequences with or
    without a mediator model, and none in an empty dataset."""
    n, nu, nm = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(0, 3))
    h, n_episodes = draw(st.integers(1, 5)), draw(st.integers(0, 40) | st.just(0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = ConfoundedMdpModel(
        transition=random_law(rng, (n, nu, 1, n)),
        latent_dist=np.ones((n, 1)),
        horizon=h,
        safe=rng.random(n) < 0.6,
        action_values=tuple(range(nu)),
    )
    mediator = None
    if nm and draw(st.booleans()):
        mediator = MediatorModel(
            mediator_dist=random_law(rng, (n, nu, nm)),
            mediated_transition=random_law(rng, (n, nm, 1, n)),
        )
    ids = [rng.integers(top, size=(n_episodes, h + 1)) for top in (n, nu, max(nm, 1))]
    m = ids[2] if nm and (n_episodes or draw(st.booleans())) else None
    raw = EpisodeDataset(seed=np.zeros(n_episodes, np.uint64), x=ids[0], u=ids[1], m=m,
                         form=FORM_RAW)
    return model, mediator, convert_dataset(raw, model.safe)


@settings(max_examples=200, deadline=None)
@given(converted_datasets())
def test_bincount_tables_equal_add_at_tables_reference(problem):
    model, mediator, converted = problem
    got = empirical_offline_tables(converted, model, mediator)
    expected = reference_empirical_offline_tables(converted, model, mediator)
    for field in dataclasses.fields(expected):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field.name


WIDTHS = st.integers(1, 300) | st.sampled_from(
    sorted({2**k + d for k in range(9) for d in (-1, 0, 1)} - {0})
)


@settings(max_examples=100, deadline=None)
@given(
    WIDTHS,
    st.lists(st.integers(1, 3), max_size=3),
    st.integers(0, 40),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example(10, [2], 12, True, 0)  # tenths: the cumulative row ends at 1 - 2**-53
def test_inverse_cdf_equals_searchsorted(width, lead, batch, uniform_row, seed):
    """Batched and single draws give ``searchsorted(row[:-1], u, "right")``
    for rows of any width, indexed by 0 to 3 leading axes as the samplers
    index them (``()``, ``(x,)``, ``(x, u)``, ``(x, m, w)``): rows with flat
    runs of zero probability and a zero last entry, rows whose cumulative
    sum ends below 1.0 by rounding, and draws of 0.0, 1.0 or tied to an
    entry."""
    rng = np.random.default_rng(seed)
    weights = (rng.random((*lead, width)) + 0.05) * (rng.random((*lead, width)) < 0.7)
    lo, hi = sorted(rng.integers(0, width + 1, size=2))
    weights[..., lo:hi] = 0.0
    if width > 1 and rng.random() < 0.5:
        weights[..., -1] = 0.0
    weights[..., rng.integers(max(1, width - 1))] += 0.05  # no row sums to zero
    if uniform_row:
        weights.reshape(-1, width)[0] = 1.0
    cum = np.cumsum(weights / weights.sum(axis=-1, keepdims=True), axis=-1)
    rows = tuple(rng.integers(size, size=batch) for size in lead)
    row = [cum[tuple(r[i] for r in rows)] for i in range(batch)]
    u = rng.random(batch)
    u[::4] = [row[i][rng.integers(width)] for i in range(0, batch, 4)]
    u[1::5] = 1.0
    u[2::5] = 0.0
    expected = [int(np.searchsorted(row[i][:-1], u[i], side="right")) for i in range(batch)]
    assert CdfTable(cum, None).draw(rows, u).tolist() == expected
    assert [int(CdfTable(row[i], None).draw((), u[i])) for i in range(batch)] == expected


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
@example(rows=[])
@example(rows=[(0, 0, 0, 0, -0.0, True), (1, 0, 0, 0, 0.0, False)])
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


SIGNED = st.sampled_from([0, -1, 9, -10, 2**63 - 1, -(2**63)]) | st.integers(-(2**63), 2**63 - 1)
BLOCK_BYTES = st.integers(1, 400)  # a few rows per block at most


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(SIGNED, MARGINS, st.booleans()), max_size=30), BLOCK_BYTES)
@example(rows=[], block_bytes=1)
@example(rows=[(-5, -0.0, True), (7, 0.0, False), (-(2**63), 0.0, True)], block_bytes=1)
def test_signed_columns_equal_encoder_reference(tmp_path_factory, rows, block_bytes):
    """Negative integers in a 1-D and a 2-D column, floats and bools in both,
    around a list column and past a None column, in blocks of a few rows."""
    ints = np.array([row[0] for row in rows], dtype=np.int64)
    floats = np.array([row[1] for row in rows], dtype=np.float64)
    columns = {
        "i": ints, "pair": np.stack([ints, ~ints], axis=1),
        "k": [2, 1, 0], "none": None,
        "S": floats, "S2": np.stack([floats, -floats], axis=1),
        "ok": np.array([row[2] for row in rows], dtype=bool),
    }
    columns["ok2"] = np.stack([columns["ok"], ~columns["ok"]], axis=1)
    path = tmp_path_factory.getbasetemp() / "signed.jsonl"
    with mock.patch.object(data, "_BLOCK_BYTES", block_bytes):
        write_jsonl(path, columns)
    records = [
        {"i": a, "pair": [a, ~a], "k": [2, 1, 0], "S": s, "S2": [s, -s], "ok": ok, "ok2": [ok, not ok]}
        for a, s, ok in rows
    ]
    assert path.read_bytes() == reference_jsonl(records).encode()


MUTATIONS = ("none", "digit-to-letter", "insert-space", "delete-byte", "leading-zero",
             "duplicate-line", "blank-line", "no-final-newline", "move-digit", "reorder-keys")


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
    if kind == "move-digit":
        # empty one value slot and put its digits where no digit touches them,
        # in a key or between fixed bytes of its line: every byte is kept, and
        # so is the count of digit runs
        runs = [m.span() for m in re.finditer(rb"[0-9]+", text)]
        start, end = runs[pick % len(runs)]
        rest = text[:start] + text[end:]
        first = rest.rfind(b"\n", 0, start) + 1
        gaps = [i for i in range(first, rest.index(b"\n", start) + 1)
                if i != start and not re.search(rb"[0-9]", rest[max(i - 1, first):i + 1])]
        i = gaps[pick // len(runs) % len(gaps)]
        return rest[:i] + text[start:end] + rest[i:]
    if kind == "reorder-keys":
        # u before x on one line: the same episode, so the per-line loader
        # reads it, in bytes the writer never makes
        j = pick % len(lines)
        rec = json.loads(lines[j])
        keys = ["seed", "u", "x", *list(rec)[3:]]
        lines[j] = json.dumps({key: rec[key] for key in keys}, separators=(",", ":")).encode()
        return b"".join(lines[:j] + [lines[j] + b"\n"] + lines[j + 1:])
    return text[:-1]  # no final newline


def _outcome(load):
    """The loaded dataset, or the type and text of the error it raised."""
    try:
        return load()
    except LatentSafeError as exc:
        return f"{type(exc).__name__}: {exc}"


def _both_paths(path, model, mediator):
    """Whether the bulk path took the file, and the outcome of ``load_jsonl``
    with the bulk path allowed and with the per-line loader alone."""
    taken, bulk_path = [], data._load_saved

    def spy(*args):
        result = bulk_path(*args)
        taken.append(result is not None)
        return result

    with mock.patch.object(data, "_load_saved", spy):
        either = _outcome(lambda: load_jsonl(path, model, mediator))
    with mock.patch.object(data, "_load_saved", return_value=None):
        per_line = _outcome(lambda: load_jsonl(path, model, mediator))
    return taken == [True], either, per_line


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
    taken, either, per_line = _both_paths(path, model, mediator)
    if mutation == "none" and n_episodes:
        assert taken
        assert_same_episodes(either, dataset)
    if isinstance(per_line, str) or isinstance(either, str):
        assert either == per_line
    else:
        assert_same_episodes(either, per_line)


@settings(max_examples=100, deadline=None)
@given(offline_problems(), st.integers(0, 2**63 - 1), st.booleans(), BLOCK_BYTES)
def test_small_blocks_equal_encoder_reference(
    tmp_path_factory, problem, seed, converted, block_bytes
):
    """Saved in blocks of a few rows, the first half of the episodes with
    one-digit seeds and the rest with 0 and 2**64 - 1 in turn, a dataset
    is still the encoder's bytes, and the bulk path takes the file."""
    model, mediator, behavioral, x0, n_episodes = problem
    dataset = generate_offline(model, behavioral, n_episodes, x0, seed, mediator=mediator)
    half = n_episodes // 2
    dataset.seed[:half] = np.arange(half) % 10
    dataset.seed[half::2] = 0
    dataset.seed[half + 1 :: 2] = 2**64 - 1
    if converted:
        dataset = convert_dataset(dataset, model.safe)
    path = tmp_path_factory.getbasetemp() / "blocks.jsonl"
    with mock.patch.object(data, "_BLOCK_BYTES", block_bytes):
        save_jsonl(dataset, path)
    assert path.read_bytes() == reference_jsonl(dataset_records(dataset)).encode()
    taken, either, per_line = _both_paths(path, model, mediator)
    if n_episodes:
        assert taken
        assert_same_episodes(either, dataset)
        assert_same_episodes(per_line, dataset)


def _assert_bulk_path_takes(dataset, env, path):
    save_jsonl(dataset, path)
    taken, either, per_line = _both_paths(path, env.model, env.mediator)
    assert taken
    assert_same_episodes(either, dataset)
    assert_same_episodes(per_line, dataset)


def test_bulk_path_takes_two_digit_countdown(tmp_path):
    """Converted mediator-toy data at H = 12: k has two digits, the ids one."""
    env = build_mediator_toy_env(horizon=12)
    raw = generate_offline(env.model, env.behavioral, 200, env.default_x0, 3, mediator=env.mediator)
    converted = convert_dataset(raw, env.model.safe)
    assert max(converted.x.max(), converted.u.max(), converted.m.max()) < 10
    _assert_bulk_path_takes(converted, env, tmp_path / "toy.jsonl")


@pytest.mark.parametrize("converted", [False, True], ids=["raw", "converted"])
def test_bulk_path_takes_three_digit_states(tmp_path, driving, converted):
    """Driving data at H = 10, whose states reach three digits."""
    dataset = generate_offline(driving.model, driving.behavioral, 200, driving.default_x0, 3)
    if converted:
        dataset = convert_dataset(dataset, driving.model.safe)
    assert dataset.x.max() >= 100
    _assert_bulk_path_takes(dataset, driving, tmp_path / "driving.jsonl")


def test_bulk_path_takes_extreme_seeds(tmp_path, mediator_toy):
    """Seeds of 1, 19 and 20 digits, up to 2**64 - 1."""
    dataset = generate_offline(
        mediator_toy.model, mediator_toy.behavioral, 4, 0, 3, mediator=mediator_toy.mediator
    )
    dataset.seed[:] = [0, 10**19 - 1, 10**19, 2**64 - 1]
    _assert_bulk_path_takes(dataset, mediator_toy, tmp_path / "seeds.jsonl")


def test_reordered_keys_load_line_by_line(tmp_path, mediator_toy):
    """A line whose keys come in another order holds the same episode, but
    not the writer's bytes: the per-line loader reads it."""
    dataset = generate_offline(
        mediator_toy.model, mediator_toy.behavioral, 4, 0, 3, mediator=mediator_toy.mediator
    )
    assert (dataset.x[1] != dataset.u[1]).any()
    path = tmp_path / "reordered.jsonl"
    save_jsonl(dataset, path)
    path.write_bytes(_mutate(path.read_bytes(), "reorder-keys", 1))
    taken, either, per_line = _both_paths(path, mediator_toy.model, mediator_toy.mediator)
    assert not taken
    assert_same_episodes(either, dataset)
    assert_same_episodes(per_line, dataset)
