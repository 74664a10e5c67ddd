import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from latentsafe.data import (
    EpisodeDataset,
    convert_dataset,
    empirical_offline_tables,
    generate_offline,
)
from latentsafe.envs import build_driving_env, build_mediator_toy_env, build_mismatch_env
from latentsafe.mdp import uniform_policy
from latentsafe.seeding import inverse_cdf

MEDIATOR_SEED = 20250810
MISMATCH_SEED = 424242


@pytest.fixture(scope="session")
def driving():
    return build_driving_env(horizon=10)


@pytest.fixture(scope="session")
def mismatch():
    return build_mismatch_env(horizon=6)


@pytest.fixture(scope="session")
def mediator_toy():
    return build_mediator_toy_env(horizon=3)


@pytest.fixture(scope="session")
def uniform2(mismatch):
    return uniform_policy(mismatch.model.n_states, mismatch.model.n_actions)


@pytest.fixture(scope="session")
def uniform5(driving):
    return uniform_policy(driving.model.n_states, driving.model.n_actions)


@pytest.fixture(scope="session")
def mediator_raw_100k(mediator_toy):
    return generate_offline(
        mediator_toy.model,
        mediator_toy.behavioral,
        100_000,
        x0=0,
        seed=MEDIATOR_SEED,
        mediator=mediator_toy.mediator,
    )


@pytest.fixture(scope="session")
def mediator_converted_100k(mediator_toy, mediator_raw_100k):
    return convert_dataset(mediator_raw_100k, mediator_toy.model.safe)


@pytest.fixture(scope="session")
def mediator_tables_100k(mediator_toy, mediator_converted_100k):
    return empirical_offline_tables(
        mediator_converted_100k, mediator_toy.model, mediator_toy.mediator
    )


@pytest.fixture(scope="session")
def mismatch_h4():
    return build_mismatch_env(horizon=4)


@pytest.fixture(scope="session")
def mismatch_raw_100k(mismatch_h4):
    return generate_offline(
        mismatch_h4.model,
        mismatch_h4.behavioral,
        100_000,
        x0=0,
        seed=MISMATCH_SEED,
    )


@pytest.fixture(scope="session")
def mismatch_converted_100k(mismatch_h4, mismatch_raw_100k):
    return convert_dataset(mismatch_raw_100k, mismatch_h4.model.safe)


def reference_jsonl(rows) -> str:
    """One ``json.JSONEncoder`` line per dict of ``rows``, compact separators:
    the bytes the package's JSONL writer must give for the same rows."""
    encoder = json.JSONEncoder(separators=(",", ":"))
    return "".join(encoder.encode(row) + "\n" for row in rows)


def dataset_records(dataset: EpisodeDataset) -> list:
    """The dataset's episodes as dicts of Python values, in file order."""
    records = []
    for i in range(dataset.n_episodes):
        record = {"seed": int(dataset.seed[i]), "x": dataset.x[i].tolist(),
                  "u": dataset.u[i].tolist()}
        if dataset.m is not None:
            record["m"] = dataset.m[i].tolist()
        if dataset.form == "converted":
            record["k"] = list(range(dataset.horizon, -1, -1))
        records.append(record)
    return records


def three_sigma_match(empirical: float, exact: float, n: int) -> bool:
    """|p_hat - p| within three binomial standard errors (exact for p in {0,1})."""
    se = np.sqrt(exact * (1.0 - exact) / n)
    return abs(empirical - exact) <= 3.0 * se + 1e-12


def episodes(form, x, u, m=None, seed=None) -> EpisodeDataset:
    """Dataset whose row i is episode i of the nested lists (seeds 0 unless given)."""
    x = np.asarray(x, dtype=np.int64)
    seeds = np.zeros(len(x)) if seed is None else seed
    return EpisodeDataset(
        seed=np.asarray(seeds, dtype=np.uint64),
        x=x,
        u=np.asarray(u, dtype=np.int64),
        m=None if m is None else np.asarray(m, dtype=np.int64),
        form=form,
    )


def repeated(dataset: EpisodeDataset, times: int) -> EpisodeDataset:
    """The dataset's episodes listed ``times`` times over, in order."""
    tile = lambda a: None if a is None else np.concatenate([a] * times)  # noqa: E731
    return replace(
        dataset, seed=tile(dataset.seed), x=tile(dataset.x), u=tile(dataset.u), m=tile(dataset.m)
    )


def assert_same_episodes(a: EpisodeDataset, b: EpisodeDataset) -> None:
    """Equal form, seeds and sequences: equality of the episodes, row by row."""
    assert a.form == b.form
    assert (a.m is None) == (b.m is None)
    for name in ("seed", "x", "u", "m"):
        left, right = getattr(a, name), getattr(b, name)
        assert left is None or (left.dtype == right.dtype and np.array_equal(left, right))


def reference_safe_action(margins, action_values, mode, u_nominal):
    """Per-cell certified selection over one margin row, as (action, fallback):
    the reference the array selection of ``control.certify`` must equal.

    ``nearest-nominal`` minimizes |u - u_nominal| over the feasible set (ties:
    larger margin, then smaller action value); ``max-action`` takes the
    largest feasible action value; an empty feasible set falls back to the
    argmax-margin action.
    """
    feasible = np.flatnonzero(margins >= -1e-12)
    if feasible.size == 0:
        return int(np.argmax(margins)), True
    values = np.asarray(action_values, dtype=float)
    if mode == "max-action":
        return int(feasible[np.argmax(values[feasible])]), False
    deviation = np.abs(values[feasible] - values[u_nominal])
    order = sorted(
        range(feasible.size),
        key=lambda i: (deviation[i], -margins[feasible[i]], values[feasible[i]]),
    )
    return int(feasible[order[0]]), False


def reference_control_episode(model, certificate, nominal, x0, seed):
    """One certified episode stepped one scalar draw at a time, as
    (x, u, u_nominal, margins, feasible) lists: the reference row i of
    ``control.run_control`` must equal for seed i. Raises at the first step
    whose (t, x) has no Q row."""
    model.check_state(x0)
    rng = np.random.default_rng(seed)
    xs, us, u_noms, margins, feas = [int(x0)], [], [], [], []
    x = int(x0)
    latent_cum = np.cumsum(model.latent_dist, axis=-1)
    for t in range(model.horizon):
        nominal_cum = np.cumsum(nominal.action_probs(x))
        u_nom = int(inverse_cdf(nominal_cum, (), rng.random()))
        certificate.require(t, x)
        action = int(certificate.action[t, x, u_nom])
        w = int(inverse_cdf(latent_cum, (x,), rng.random()))
        step_cum = np.cumsum(model.transition[x, action, w])
        x_next = int(inverse_cdf(step_cum, (), rng.random()))
        xs.append(x_next)
        us.append(action)
        u_noms.append(u_nom)
        margins.append(float(certificate.margins[t, x, action]))
        feas.append(not certificate.fallback[t, x])
        x = x_next
    return xs, us, u_noms, margins, feas


def read_qm_csv(path, shape, action_values):
    """(values, listed) from a qm.csv of (x, k, u, m, value) rows: the table
    over (k, x, u, m) and the (k, x) cells that have rows."""
    values = np.zeros(shape)
    listed = np.zeros(shape[:2], dtype=bool)
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            x, k, u, m = (int(row[c]) for c in ("x", "k", "u", "m"))
            values[k, x, action_values.index(u), m] = float(row["value"])
            listed[k, x] = True
    return values, listed


def read_curves_csv(path):
    """A curves.csv as {(controller, metric): {column: array over t}}."""
    columns = ("t", "mean", "ci_lo", "ci_hi")
    rows = {}
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            bucket = rows.setdefault((rec["controller"], rec["metric"]), [])
            bucket.append([float(rec[c]) for c in columns])
    return {key: dict(zip(columns, np.array(vals).T)) for key, vals in rows.items()}
