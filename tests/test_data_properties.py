"""Columnar offline generation, conversion and the inverse-CDF draw equal a
plain per-episode reference on random small confounded MDPs; generation and
the control loop take episode i from block i of one stream, so a prefix of
a run is the smaller run and one episode regenerates alone; the
bincount tables equal ``np.add.at`` scatters; the JSONL writer equals
``json.JSONEncoder``, and each bulk parser equals the per-line loader on
valid and corrupted files; the id bounds pick the parser, and the bulk path
takes valid files of any digit width; through the record ``save_jsonl``
returns, a file loads as a parse loads it."""

import dataclasses
import json
import re
from unittest import mock

import numpy as np
import pytest
from conftest import (
    assert_same_episodes,
    dataset_records,
    episode_stream,
    random_law,
    reference_control_episode,
    reference_empirical_offline_tables,
    reference_jsonl,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latentsafe import data
from latentsafe.control import CertificateConfig, certify, run_control
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
from latentsafe.mdp import ConfoundedMdpModel, MediatorModel, TabularPolicy, uniform_policy
from latentsafe.oracle import q_dp
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


def episode_block(model, mediator=None) -> int:
    """Uniforms per generated episode: (H+1) steps of the latent, the
    action, [the mediator,] the next state."""
    return (model.horizon + 1) * (4 if mediator is not None else 3)


def reference_episode(model, behavioral, x0, rng, mediator=None):
    """One episode step by step, one scalar draw of ``rng`` at a time, in the
    documented draw order, as (xs, us, ms)."""
    xs, us, ms = [x0], [], []
    for t in range(model.horizon + 1):
        x = xs[-1]
        w = _draw(model.latent_dist[x], rng.random())
        u = _draw(behavioral.table[x, w], rng.random())
        us.append(u)
        if mediator is not None:
            ms.append(_draw(mediator.mediator_dist[x, u], rng.random()))
            row = mediator.mediated_transition[x, ms[-1], w]
        else:
            row = model.transition[x, u, w]
        x_next = _draw(row, rng.random())
        if t < model.horizon:
            xs.append(x_next)
    return xs, us, ms if mediator is not None else None


def reference_episodes(model, behavioral, n_episodes, x0, seed, mediator=None):
    """Episode by episode, each from its own block of the stream: episode i
    from ``derive_rng(seed)`` advanced past the i blocks before it."""
    block = episode_block(model, mediator)
    return [reference_episode(model, behavioral, x0, episode_stream(seed, i * block), mediator)
            for i in range(n_episodes)]


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
    assert raw.x.tolist() == [ep[0] for ep in reference]
    assert raw.u.tolist() == [ep[1] for ep in reference]
    if mediator is None:
        assert raw.m is None
    else:
        assert raw.m.tolist() == [ep[2] for ep in reference]
    assert conv.x.tolist() == [reference_convert(ep[0], model.safe) for ep in reference]
    assert conv.u is raw.u


@settings(max_examples=50, deadline=None)
@given(offline_problems(), st.integers(0, 2**63 - 1), st.integers(0, 2**32 - 1))
def test_episodes_are_blocks_of_one_stream(problem, seed, pick):
    """The stream contract of ``generate_offline`` and ``run_control``. (a)
    The first m episodes of a run of n > m are the run of m. (b) Episode i
    alone is the scalar reference fed from ``derive_rng(seed)`` advanced past
    the i blocks before it: (H+1) * draws per step each in generation, H * 3
    in control."""
    model, mediator, behavioral, x0, n = problem
    n = max(n, 1)
    rng = np.random.default_rng(pick)
    m, i = int(rng.integers(n)), int(rng.integers(n))
    full, head = (generate_offline(model, behavioral, size, x0, seed, mediator=mediator)
                  for size in (n, m))
    for a, b in ((full.x, head.x), (full.u, head.u), (full.m, head.m)):
        assert (a is None and b is None) or a[:m].tolist() == b.tolist()
    alone = episode_stream(seed, i * episode_block(model, mediator))
    xs, us, ms = reference_episode(model, behavioral, x0, alone, mediator)
    assert (full.x[i].tolist(), full.u[i].tolist()) == (xs, us)
    assert full.m is None or full.m[i].tolist() == ms
    policy = uniform_policy(model.n_states, model.n_actions)
    certificate = certify(q_dp(model, policy), policy, CertificateConfig(0.2), model.action_values)
    full, head = (run_control(model, certificate, policy, x0, size, seed) for size in (n, m))
    for a, b in zip(full, head):
        assert a[:m].tolist() == b.tolist()
    alone = episode_stream(seed, i * model.horizon * 3)
    expected = reference_control_episode(model, certificate, policy, x0, alone)
    assert [column[i].tolist() for column in full] == list(expected)


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
    raw = EpisodeDataset(x=ids[0], u=ids[1], m=m, form=FORM_RAW)
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

MARGINS = st.sampled_from(
    [-0.0, 0.0, 5e-324, 0.1 + 0.2, 1.0, float("nan"), float("inf"), -float("inf")]
) | st.floats()


@st.composite
def datasets(draw):
    """Random ids: H in 1..10, with or without mediators, raw or converted
    (the writer does not check the freeze)."""
    h, n = draw(st.integers(1, 10)), draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = lambda: rng.integers(0, draw(st.sampled_from([2, 5, 300])), (n, h + 1))  # noqa: E731
    return EpisodeDataset(
        x=ids(), u=ids(), m=ids() if draw(st.booleans()) else None,
        form=draw(st.sampled_from([FORM_RAW, FORM_CONVERTED])),
    )


# each side of some digit-count steps of an int64, and 2**63 - 1
BOUNDARY_INTS = [9, 10, 99, 100, 10**18 - 1, 10**18, 2**63 - 1, 1]
# NaN and the infinities, which the encoder spells its own way; -0.0; the least float
NONFINITE_AND_ZEROS = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324]


@settings(max_examples=100, deadline=None)
@given(dataset=datasets())
@example(dataset=EpisodeDataset(
    x=np.array(BOUNDARY_INTS).reshape(4, 2), u=np.ones((4, 2), np.int64), m=None, form=FORM_RAW,
))
def test_save_jsonl_equals_encoder_reference(tmp_path_factory, dataset):
    path = tmp_path_factory.getbasetemp() / "save.jsonl"
    save_jsonl(dataset, path)
    assert path.read_bytes() == reference_jsonl(dataset_records(dataset)).encode()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 299), st.integers(0, 4),
                          st.integers(0, 4), MARGINS, st.booleans()), max_size=30))
@example(rows=[])
@example(rows=[(0, 0, 0, 0, -0.0, True), (1, 0, 0, 0, 0.0, False)])
@example(rows=[(t, 9, 0, 1, 0.25, True) for t in range(4)])  # one float token
@example(rows=[(t, t, 0, 0, s, False) for t, s in enumerate(NONFINITE_AND_ZEROS)])
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
# i never negative, next to pair's ~i: digit-count steps, one float token
@example(rows=[(v, 1.5, True) for v in [0, *BOUNDARY_INTS]], block_bytes=400)
@example(rows=[(-v, s, True) for v, s in enumerate(NONFINITE_AND_ZEROS)], block_bytes=1)
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


def test_float_tokens_take_one_encoder_call(tmp_path):
    """Each float column's distinct tokens come from one ``json.dumps`` call,
    however many distinct values it holds."""
    values = np.linspace(-1.0, 1.0, 50)
    columns = {"S": values, "S2": np.stack([values, values / 3], axis=1)}
    with mock.patch.object(data.json, "dumps", wraps=json.dumps) as dumps:
        write_jsonl(tmp_path / "floats.jsonl", columns)
    assert dumps.call_count == 2
    records = [{"S": s, "S2": [s, s / 3]} for s in values.tolist()]
    assert (tmp_path / "floats.jsonl").read_bytes() == reference_jsonl(records).encode()


MUTATIONS = ("none", "digit-to-letter", "insert-space", "delete-byte", "leading-zero",
             "duplicate-line", "blank-line", "no-final-newline", "move-digit", "reorder-keys",
             "newline-inside-row", "id-past-64-bits", "change-digit", "x-leading-zero",
             "change-state", "leave-freeze")
# the trusted bulk parser load_jsonl tries before the per-line loader
PARSERS = ("_parse_runs",)


def _mutate(text: bytes, kind: str, seed: int) -> bytes:
    """``text`` with one edit of the given kind, at a place drawn uniformly
    from the file's candidates by a generator seeded with ``seed``. A
    ``leave-freeze`` edit is made on the arrays (``_leave_freeze``)."""
    if kind in ("none", "leave-freeze") or not text:
        return text
    rng = np.random.default_rng(seed)
    pick = lambda candidates: candidates[rng.integers(len(candidates))]  # noqa: E731
    digits = [i for i, c in enumerate(text) if chr(c).isdigit()]
    lines = text.splitlines(keepends=True)
    if kind == "digit-to-letter":
        i = pick(digits)
        return text[:i] + b"a" + text[i + 1:]
    if kind == "change-digit":
        # another digit: an id out of range, a converted x leaving its
        # freeze, a wrong k, or just another id
        i = pick(digits)
        digit = (text[i] - ord("0") + pick(range(1, 10))) % 10
        return text[:i] + b"%d" % digit + text[i + 1:]
    if kind == "insert-space":
        i = pick(range(len(text) + 1))
        return text[:i] + b" " + text[i:]
    if kind == "delete-byte":
        i = pick(range(len(text)))
        return text[:i] + text[i + 1:]
    if kind == "leading-zero":
        i = pick([i for i in digits if not chr(text[i - 1]).isdigit()])
        return text[:i] + b"0" + text[i:]
    if kind == "x-leading-zero":
        i = pick([m.end() for m in re.finditer(rb'"x":\[', text)])
        return text[:i] + b"0" + text[i:]
    if kind == "change-state":
        # another of the file's state ids in one x slot: in range, but a
        # converted x may leave its freeze
        run = re.compile(rb"[0-9]+")
        slots = [span.span() for x in re.finditer(rb'"x":\[([0-9,]+)', text)
                 for span in run.finditer(text, x.start(1), x.end(1))]
        start, end = pick(slots)
        states = sorted({text[a:b] for a, b in slots} - {text[start:end]})
        return text[:start] + pick(states) + text[end:] if states else text
    if kind == "duplicate-line":
        j = pick(range(len(lines)))
        return b"".join(lines[: j + 1] + lines[j:])
    if kind == "blank-line":
        j = pick(range(len(lines) + 1))
        return b"".join(lines[:j] + [b"\n"] + lines[j:])
    if kind == "move-digit":
        # empty one value slot and put its digits where no digit touches them,
        # in a key or between fixed bytes of its line: every byte is kept, and
        # so is the count of digit runs
        start, end = pick([m.span() for m in re.finditer(rb"[0-9]+", text)])
        rest = text[:start] + text[end:]
        first = rest.rfind(b"\n", 0, start) + 1
        i = pick([i for i in range(first, rest.index(b"\n", start) + 1)
                  if i != start and not re.search(rb"[0-9]", rest[max(i - 1, first):i + 1])])
        return rest[:i] + text[start:end] + rest[i:]
    if kind == "newline-inside-row":
        i = pick([i for i in range(1, len(text)) if b"\n" not in text[i - 1 : i + 1]])
        return text[:i] + b"\n" + text[i:]
    if kind == "id-past-64-bits":
        # a line's first id: all clamp to 2**64 - 1 in np.fromstring, which
        # reads -1 as an int64: 2**64, another 20-digit value past it, or 21 digits
        j = pick(range(len(lines)))
        value = pick([2**64, 2**64 + pick(range(2**20)), 10**20 + pick(range(2**20))])
        lines[j] = re.sub(rb"[0-9]+", b"%d" % value, lines[j], count=1)
        return b"".join(lines)
    if kind == "reorder-keys":
        # u before x on one line: the same episode, so the per-line loader
        # reads it, in bytes the writer never makes
        j = pick(range(len(lines)))
        rec = json.loads(lines[j])
        keys = ["u", "x", *list(rec)[2:]]
        lines[j] = json.dumps({key: rec[key] for key in keys}, separators=(",", ":")).encode()
        return b"".join(lines[:j] + [lines[j] + b"\n"] + lines[j + 1:])
    return text[:-1]  # no final newline


def _leave_freeze(raw: EpisodeDataset, safe: np.ndarray, seed: int) -> EpisodeDataset:
    """``raw`` converted, with one x after a row's first unsafe state set to
    another state: the writer's bytes of a dataset only the freeze check
    refuses. That row is first sent to an unsafe state before its last
    step, so every drawn problem has a place for the edit."""
    rng = np.random.default_rng(seed)
    n, h = len(safe), raw.horizon
    row, x = rng.integers(raw.n_episodes), raw.x.copy()
    x[row, rng.integers(h)] = rng.choice(np.flatnonzero(~safe))
    x = convert_dataset(dataclasses.replace(raw, x=x), safe).x.copy()
    step = rng.integers(np.argmin(safe[x[row]]) + 1, h + 1)
    x[row, step] = (x[row, step] + rng.integers(1, n)) % n
    return dataclasses.replace(raw, x=x, form=FORM_CONVERTED)


def _outcome(load):
    """The loaded dataset, or the type and text of the error it raised."""
    try:
        return load()
    except LatentSafeError as exc:
        return f"{type(exc).__name__}: {exc}"


def _both_paths(path, model, mediator, bulk="_parse_runs"):
    """Whether the bulk path, ``data._parse_runs`` or the parser named
    ``bulk`` in its place, took the file, and the outcome of ``load_jsonl``
    with that bulk path allowed and with the per-line loader alone."""
    taken, bulk_path = [], getattr(data, bulk)

    def spy(*args):
        result = bulk_path(*args)
        taken.append(result is not None)
        return result

    with mock.patch.object(data, "_parse_runs", spy):
        either = _outcome(lambda: load_jsonl(path, model, mediator))
    with mock.patch.object(data, "_parse_runs", return_value=None):
        per_line = _outcome(lambda: load_jsonl(path, model, mediator))
    return taken == [True], either, per_line


@settings(max_examples=200, deadline=None)
@given(offline_problems(), st.integers(0, 2**63 - 1), st.booleans(),
       st.sampled_from(MUTATIONS), st.integers(0, 2**32 - 1))
def test_bulk_loader_equals_per_line_loader(
    tmp_path_factory, problem, seed, converted, mutation, edit_seed
):
    """A file loads to the same arrays, or fails with the same message,
    whether or not the bulk parser may take it; it takes every file exactly
    as save_jsonl wrote it, these one-digit ids too."""
    model, mediator, behavioral, x0, n_episodes = problem
    if mutation == "leave-freeze":  # an unsafe state and an episode to freeze there
        n_episodes = max(n_episodes, 1)
        if model.safe.all():
            unsafe = (x0 + 1) % model.n_states
            model = dataclasses.replace(model, safe=np.arange(model.n_states) != unsafe)
    dataset = generate_offline(model, behavioral, n_episodes, x0, seed, mediator=mediator)
    if mutation == "leave-freeze":
        dataset = _leave_freeze(dataset, model.safe, edit_seed)
    elif converted:
        dataset = convert_dataset(dataset, model.safe)
    path = tmp_path_factory.getbasetemp() / "load.jsonl"
    save_jsonl(dataset, path)
    path.write_bytes(_mutate(path.read_bytes(), mutation, edit_seed))
    for parser in PARSERS:
        taken, either, per_line = _both_paths(path, model, mediator, parser)
        if mutation == "none" and n_episodes:
            assert taken, parser
            assert_same_episodes(either, dataset)
        if isinstance(per_line, str) or isinstance(either, str):
            assert either == per_line, parser
        else:
            assert_same_episodes(either, per_line)


@settings(max_examples=100, deadline=None)
@given(offline_problems(), st.integers(0, 2**63 - 1), st.booleans(), BLOCK_BYTES)
def test_small_blocks_equal_encoder_reference(
    tmp_path_factory, problem, seed, converted, block_bytes
):
    """Saved in blocks of a few rows, a dataset is still the encoder's
    bytes, and the bulk parser takes the file."""
    model, mediator, behavioral, x0, n_episodes = problem
    dataset = generate_offline(model, behavioral, n_episodes, x0, seed, mediator=mediator)
    if converted:
        dataset = convert_dataset(dataset, model.safe)
    path = tmp_path_factory.getbasetemp() / "blocks.jsonl"
    with mock.patch.object(data, "_BLOCK_BYTES", block_bytes):
        save_jsonl(dataset, path)
    assert path.read_bytes() == reference_jsonl(dataset_records(dataset)).encode()
    for parser in PARSERS:
        taken, either, per_line = _both_paths(path, model, mediator, parser)
        if n_episodes:
            assert taken, parser
            assert_same_episodes(either, dataset)
            assert_same_episodes(per_line, dataset)


def _parsers_run(path, model, mediator):
    """The bulk parsers ``load_jsonl`` ran on the file, and what it loaded."""
    ran = []

    def spy(name):
        parse = getattr(data, name)
        return lambda *args: ran.append(name) or parse(*args)

    with mock.patch.multiple(data, **{name: spy(name) for name in PARSERS}):
        return ran, load_jsonl(path, model, mediator)


def _assert_bulk_path_takes(dataset, env, path, parser):
    """``load_jsonl`` picks ``parser``, which takes the saved file."""
    save_jsonl(dataset, path)
    ran, loaded = _parsers_run(path, env.model, env.mediator)
    assert ran == [parser]
    assert_same_episodes(loaded, dataset)
    taken, either, per_line = _both_paths(path, env.model, env.mediator, parser)
    assert taken
    assert_same_episodes(either, dataset)
    assert_same_episodes(per_line, dataset)


def test_bulk_path_takes_two_digit_countdown(tmp_path):
    """Converted mediator-toy data at H = 12: k has two digits, the ids one."""
    env = build_mediator_toy_env(horizon=12)
    raw = generate_offline(env.model, env.behavioral, 200, env.default_x0, 3, mediator=env.mediator)
    converted = convert_dataset(raw, env.model.safe)
    assert max(converted.x.max(), converted.u.max(), converted.m.max()) < 10
    _assert_bulk_path_takes(converted, env, tmp_path / "toy.jsonl", "_parse_runs")


@pytest.mark.parametrize("converted", [False, True], ids=["raw", "converted"])
def test_bulk_path_takes_three_digit_states(tmp_path, driving, converted):
    """Driving data at H = 10, whose states reach three digits."""
    dataset = generate_offline(driving.model, driving.behavioral, 200, driving.default_x0, 3)
    if converted:
        dataset = convert_dataset(dataset, driving.model.safe)
    assert dataset.x.max() >= 100
    _assert_bulk_path_takes(dataset, driving, tmp_path / "driving.jsonl", "_parse_runs")


def test_bulk_path_takes_extreme_seeds(tmp_path, mediator_toy):
    """Root seeds of 1, 19 and 20 digits, up to 2**64 - 1: each seeds the one
    stream, and the bulk path takes the file of each run."""
    env = mediator_toy
    for seed in (0, 10**19 - 1, 10**19, 2**64 - 1):
        dataset = generate_offline(env.model, env.behavioral, 4, 0, seed, mediator=env.mediator)
        _assert_bulk_path_takes(dataset, env, tmp_path / f"{seed}.jsonl", "_parse_runs")


def test_reordered_keys_load_line_by_line(tmp_path, mediator_toy):
    """A line whose keys come in another order holds the same episode, but
    not the writer's bytes: the per-line loader reads it."""
    dataset = generate_offline(
        mediator_toy.model, mediator_toy.behavioral, 4, 0, 3, mediator=mediator_toy.mediator
    )
    path = tmp_path / "reordered.jsonl"
    save_jsonl(dataset, path)
    text = path.read_bytes()
    path.write_bytes(_mutate(text, "reorder-keys", 1))
    # x and u differ on the reordered line, so reading them swapped shows
    (line,) = set(path.read_bytes().splitlines()) - set(text.splitlines())
    rec = json.loads(line)
    assert rec["x"] != rec["u"]
    taken, either, per_line = _both_paths(path, mediator_toy.model, mediator_toy.mediator)
    assert not taken
    assert_same_episodes(either, dataset)
    assert_same_episodes(per_line, dataset)


# one edit each of a saved converted mediator-toy file, whose episodes all
# start at x = 0: every file is refused by the bulk parser
TEXT_EDITS = {
    # np.fromstring clamps 2**64 to 2**64 - 1, an int64 -1
    "id 2**64": (b'{"x":[0,', b'{"x":[18446744073709551616,'),
    "id 00": (b'{"x":[0,', b'{"x":[00,'),
    "k not counting down": (b'"k":[3,2,1,0]}\n{"x":', b'"k":[3,2,0,0]}\n{"x":'),
    "newline inside a row": (b',"u":', b',\n"u":'),
    # the first x id moved into its key: the same bytes and runs, one empty slot
    "id moved into its key": (b'"x":[0,', b'"x0":[,'),
    # a seed field, as each line carried one before every command drew from
    # one stream: no line may have one, whatever its digits
    "seed 2**64": (b'{"x":', b'{"seed":18446744073709551616,"x":'),
    "seed 3 * 10**19": (b'{"x":', b'{"seed":30000000000000000000,"x":'),
    "seed of 21 digits": (b'{"x":', b'{"seed":118446744073709551615,"x":'),
    "seed 00": (b'{"x":', b'{"seed":00,"x":'),
    "seed of 20 digits with a leading zero": (b'{"x":', b'{"seed":01000000000000000000,"x":'),
}
# the writer's bytes of an invalid dataset: (field, row, new values)
ARRAY_EDITS = {
    "id at its bound": ("m", 1, [2, 0, 0, 0]),
    "x leaves its freeze": ("x", 2, [0, 1, 0, 0]),  # state 1 is unsafe
}


@pytest.mark.parametrize("parser", PARSERS)
@pytest.mark.parametrize("edit", [*TEXT_EDITS, *ARRAY_EDITS])
def test_bulk_parsers_refuse_each_edit(tmp_path, mediator_toy, parser, edit):
    """A file one edit away from the writer's text of a valid dataset goes
    to the per-line loader and fails there."""
    env = mediator_toy
    raw = generate_offline(env.model, env.behavioral, 4, 0, 3, mediator=env.mediator)
    converted = convert_dataset(raw, env.model.safe)
    if edit in ARRAY_EDITS:
        key, row, values = ARRAY_EDITS[edit]
        column = getattr(converted, key).copy()
        column[row] = values
        converted = dataclasses.replace(converted, **{key: column})
    path = tmp_path / "edited.jsonl"
    save_jsonl(converted, path)
    if edit in TEXT_EDITS:
        old, new = TEXT_EDITS[edit]
        text = path.read_bytes()
        path.write_bytes(text.replace(old, new, 1))
        assert path.read_bytes() != text
    taken, either, per_line = _both_paths(path, env.model, env.mediator, parser)
    assert not taken
    assert isinstance(per_line, str) and either == per_line


def test_trailing_byte_is_refused_with_and_without_the_record(tmp_path, mediator_toy):
    """The writer's text and one byte more, neither a digit nor a newline:
    the same runs and rows, so only the length test refuses it, on the bulk
    path and on the hand-over, and the per-line loader names the last line."""
    env = mediator_toy
    raw = generate_offline(env.model, env.behavioral, 4, 0, 3, mediator=env.mediator)
    path = tmp_path / "trailing.jsonl"
    saved = save_jsonl(convert_dataset(raw, env.model.safe), path)
    path.write_bytes(path.read_bytes() + b"x")
    taken, either, per_line = _both_paths(path, env.model, env.mediator)
    assert not taken
    assert either == per_line == "DatasetFormError: line 5: not a JSON object"
    with mock.patch.object(data, "_parse_runs", wraps=data._parse_runs) as parse:
        assert _outcome(lambda: load_jsonl(path, env.model, env.mediator, saved=saved)) == per_line
    assert parse.call_count == 1  # the hand-over refused it too


# ---------------------------------------------------------------------------
# The record save_jsonl returns, handed back to load_jsonl
# ---------------------------------------------------------------------------


@st.composite
def saved_problems(draw):
    """A model, a mediator model or None, and a dataset to save: mostly one
    of an episode or more drawn for the model, raw or converted, and at
    times m without a mediator model; else one of
    ``datasets()``, whose size, horizon, ids and freeze need not fit."""
    if draw(st.integers(0, 3)) == 0:
        model, mediator, _ = draw(converted_datasets())
        return model, mediator, draw(datasets())
    model, mediator, dataset = draw(converted_datasets().filter(lambda p: p[2].n_episodes))
    form = draw(st.sampled_from([FORM_RAW, FORM_CONVERTED]))
    m = dataset.m if mediator is not None or draw(st.booleans()) else None
    return model, mediator, dataclasses.replace(dataset, form=form, m=m)


def _edit(text: bytes, kind: str, seed: int) -> bytes:
    """``_mutate``'s edit, or for ``id-digit`` the same length with the
    first id another digit."""
    if kind != "id-digit" or not text:
        return _mutate(text, kind, seed)
    i = text.index(b",") - 1
    return text[:i] + b"%d" % ((text[i] - ord("0") + 1) % 10) + text[i + 1:]


def _toy_dataset(form=FORM_RAW, n=2, **ids):
    """``n`` mediator-toy episodes at H = 3, ids given by field or all 0."""
    zero = np.zeros((n, 4), np.int64)
    columns = {"x": zero, "u": zero, "m": zero, **ids}
    columns = {k: None if v is None else np.array(v, np.int64) for k, v in columns.items()}
    return EpisodeDataset(form=form, **columns)


TOY = build_mediator_toy_env(horizon=3)  # state 1 is unsafe


@settings(max_examples=80, deadline=None)
@given(saved_problems(), st.sampled_from((*MUTATIONS, "id-digit")), st.integers(0, 2**32 - 1))
@example(problem=(TOY.model, TOY.mediator, _toy_dataset(FORM_CONVERTED, n=0)),
         edit="none", edit_seed=0)  # an empty file loads as raw
@example(problem=(TOY.model, None, _toy_dataset()), edit="none", edit_seed=0)  # m, no mediator
@example(problem=(TOY.model, TOY.mediator, _toy_dataset(x=[[0] * 3] * 2, u=[[0] * 3] * 2, m=None)),
         edit="none", edit_seed=0)  # another horizon
@example(problem=(TOY.model, TOY.mediator, _toy_dataset(x=[[0, 4, 4, 4], [0, 0, 0, 0]])),
         edit="none", edit_seed=0)  # ids past the bounds, as a larger model saves them
@example(problem=(TOY.model, TOY.mediator, _toy_dataset()), edit="id-digit", edit_seed=0)
@example(problem=(TOY.model, TOY.mediator, _toy_dataset(FORM_CONVERTED, x=[[0, 1, 0, 0]] * 2)),
         edit="none", edit_seed=0)  # x leaves its freeze
def test_saved_record_loads_as_the_parse(tmp_path_factory, problem, edit, edit_seed):
    """Through the record ``save_jsonl`` returned, a file loads as a parse
    loads it, as written and after one edit of its bytes or of the saved
    arrays: the same form, dtypes, shapes and values, or the same message.
    A file the parse takes as written, with an episode or more, loads with
    no parse."""
    model, mediator, dataset = problem
    if (edit == "leave-freeze" and dataset.n_episodes and dataset.horizon == model.horizon
            and dataset.x.max() < model.n_states and 1 < model.n_states
            and not model.safe.all()):
        dataset = _leave_freeze(dataclasses.replace(dataset, form=FORM_RAW), model.safe, edit_seed)
    path = tmp_path_factory.getbasetemp() / "saved.jsonl"
    saved = save_jsonl(dataset, path)
    for kind in dict.fromkeys(["none", edit]):
        path.write_bytes(_edit(b"".join(saved.blocks), kind, edit_seed))
        with mock.patch.object(data, "_parse_runs", wraps=data._parse_runs) as parse:
            kept = _outcome(lambda: load_jsonl(path, model, mediator, saved=saved))
        parsed = _outcome(lambda: load_jsonl(path, model, mediator))
        if isinstance(kept, str) or isinstance(parsed, str):
            assert kept == parsed
            continue
        assert_same_episodes(kept, parsed)
        if kind == "none" and parsed.n_episodes:
            assert not parse.called
