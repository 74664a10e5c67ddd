"""Offline dataset generation, conversion, and empirical tables.

A dataset is columnar: row i of the (N, H+1) integer arrays ``x``, ``u``
and, with a mediator, ``m`` is episode i over t = 0..H, and ``seed[i]``
seeds its random stream. Raw datasets record episodes of the true
confounded system under a latent-aware behavioral policy; the latent itself
is never recorded. Conversion rewrites them into the absorbing auxiliary
form: the visible state freezes at the first safety failure, and column t
has remaining time k = H - t. Empirical tables are maximum-likelihood
conditional frequencies over the converted arrays, stored as dense arrays
with masks that mark the unobserved conditioning cells.

Datasets serialize as JSON-lines, one episode per line, integers only.
Converted episodes also carry their remaining-time sequence k = H..0, which
makes the form self-describing on disk. Loading checks every line against
the environment and names the line and field of the first defect.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from typing import NoReturn, Optional

import numpy as np

from .errors import ConfigurationError, DatasetFormError, ModelError
from .mdp import ConfoundedMdpModel, MediatorModel, TabularPolicy
from .seeding import derive_seed, inverse_cdf, stream_uniforms

FORM_RAW = "raw"
FORM_CONVERTED = "converted"
_JSON = json.JSONEncoder(separators=(",", ":"))


@dataclass(eq=False)
class EpisodeDataset:
    """Episodes in raw or converted form: ``seed`` is (N,) uint64; ``x``,
    ``u`` and the optional mediators ``m`` are (N, H+1) int64."""

    seed: np.ndarray
    x: np.ndarray
    u: np.ndarray
    form: str
    m: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.form not in (FORM_RAW, FORM_CONVERTED):
            raise DatasetFormError(f"unknown dataset form {self.form!r}")
        if (
            self.x.ndim != 2
            or self.x.shape[1] == 0
            or self.seed.shape != self.x.shape[:1]
            or any(a.shape != self.x.shape for a in (self.u, self.m) if a is not None)
        ):
            raise ModelError("episode arrays must share the shape (n_episodes, horizon + 1)")

    @property
    def horizon(self) -> int:
        return self.x.shape[1] - 1

    @property
    def n_episodes(self) -> int:
        return self.x.shape[0]


def generate_offline(
    model: ConfoundedMdpModel,
    behavioral: TabularPolicy,
    n_episodes: int,
    x0: int,
    seed: int,
    mediator: Optional[MediatorModel] = None,
) -> EpisodeDataset:
    """Sample a raw offline dataset under the behavioral policy.

    Each step draws the latent from P(w|x), the action from the behavioral
    policy at (x, w), the mediator (when the environment has one) from
    P(m|x,u), and the next state from the ground-truth kernel. Latent values
    are not recorded. Episode i takes its uniforms, in that order per step,
    from the derived stream (seed, i), so generation order cannot affect the
    output; all episodes then advance together, one step at a time.
    """
    if behavioral.is_blind:
        raise ConfigurationError("offline generation requires a latent-aware behavioral policy")
    model.check_state(x0)
    h = model.horizon
    latent_cum = np.cumsum(model.latent_dist, axis=-1)  # (x, w)
    behav_cum = np.cumsum(behavioral.table, axis=-1)  # (x, w, u)
    if mediator is not None:
        med_cum = np.cumsum(mediator.mediator_dist, axis=-1)  # (x, u, m)
        step_cum = np.cumsum(mediator.mediated_transition, axis=-1)  # (x, m, w, x')
    else:
        step_cum = np.cumsum(model.transition, axis=-1)  # (x, u, w, x')
    # per step: latent, action, [mediator,] next state; the final step draws
    # a next state it never uses, which keeps the layout rectangular
    draws_per_step = 4 if mediator is not None else 3
    seeds = np.array([derive_seed(seed, i) for i in range(n_episodes)], dtype=np.uint64)
    uniforms = stream_uniforms(seeds, (h + 1, draws_per_step))
    x = np.empty((n_episodes, h + 1), dtype=np.int64)
    u = np.empty_like(x)
    m = np.empty_like(x) if mediator is not None else None
    x[:, 0] = x0
    for t in range(h + 1):
        xt, draws = x[:, t], uniforms[:, t].T
        w = inverse_cdf(latent_cum, (xt,), draws[0])
        u[:, t] = inverse_cdf(behav_cum, (xt, w), draws[1])
        via = u[:, t]  # what the next state depends on besides (x, w)
        if m is not None:
            via = m[:, t] = inverse_cdf(med_cum, (xt, u[:, t]), draws[2])
        if t < h:
            x[:, t + 1] = inverse_cdf(step_cum, (xt, via, w), draws[-1])
    return EpisodeDataset(seed=seeds, x=x, u=u, m=m, form=FORM_RAW)


def _freeze(x: np.ndarray, safe: np.ndarray) -> np.ndarray:
    """Each row of states held at its first unsafe entry from then on."""
    first_unsafe = np.logical_and.accumulate(safe[x], axis=1).sum(axis=1)
    source = np.minimum(np.arange(x.shape[1]), first_unsafe[:, None])
    return np.take_along_axis(x, source, axis=1)


def convert_dataset(raw: EpisodeDataset, safe: np.ndarray) -> EpisodeDataset:
    """Rewrite a raw dataset into absorbing auxiliary form.

    The converted visible state tracks the raw one until the first unsafe
    state, then freezes there; column t has remaining time k = H - t.
    Seeds, actions (and mediators) are shared unchanged.
    """
    if raw.form != FORM_RAW:
        raise DatasetFormError("dataset is already in converted form")
    return replace(raw, x=_freeze(raw.x, safe), form=FORM_CONVERTED)


# ---------------------------------------------------------------------------
# Empirical conditional tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OfflineTables:
    """Dense conditional law of the converted offline process.

    Axis 0 is the remaining time k. Each conditional is zero where its
    conditioning cell is unseen; the seen-masks mark the (k, x) state cells,
    (k, x, u) state-action cells and (k, x, u', m) cells that define it.
    No transition leaves k = 0, so ``next_law[0]`` is never read.
    """

    action_law: np.ndarray  # (H+1, n, nu): P_off(u'|y)
    mediator_law: np.ndarray  # (H+1, n, nu, nm): P_off(m|y,u)
    next_law: np.ndarray  # (H+1, n, nu, nm, n): P_off(x'|y,u',m)
    seen_state: np.ndarray  # (H+1, n) bool
    seen_action: np.ndarray  # (H+1, n, nu) bool
    seen_cell: np.ndarray  # (H+1, n, nu, nm) bool

    @property
    def horizon(self) -> int:
        return self.action_law.shape[0] - 1

    @property
    def n_mediators(self) -> int:
        return self.mediator_law.shape[3]


def _ratio(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """counts / totals along the last axis, zero where the total is zero."""
    out = np.zeros(counts.shape)
    np.divide(counts, totals[..., None], out=out, where=totals[..., None] > 0)
    return out


@dataclass(frozen=True)
class EmpiricalTables(OfflineTables):
    """Count-ratio offline law over converted data. Without a mediator model
    the mediator axis has length zero."""

    count_trans: np.ndarray  # (H+1, n, nu, n), indexed by source k >= 1

    def p_action(self, k: int, x: int) -> Optional[np.ndarray]:
        """P_off(u'|x, k), or ``None`` for an unvisited state cell."""
        return self.action_law[k, x] if self.seen_state[k, x] else None


def empirical_offline_tables(
    converted: EpisodeDataset,
    model: ConfoundedMdpModel,
    mediator: Optional[MediatorModel] = None,
) -> EmpiricalTables:
    """Maximum-likelihood conditional tables over a converted dataset."""
    if converted.form != FORM_CONVERTED:
        raise DatasetFormError("empirical tables require a converted dataset")
    h = converted.horizon
    n, nu = model.n_states, model.n_actions
    nm = mediator.n_mediators if mediator is not None else 0
    if nm and converted.n_episodes and converted.m is None:
        raise DatasetFormError("mediated tables require mediator sequences in the data")
    count_state = np.zeros((h + 1, n), dtype=np.int64)
    count_sa = np.zeros((h + 1, n, nu), dtype=np.int64)
    count_trans = np.zeros((h + 1, n, nu, n), dtype=np.int64)
    count_sam = np.zeros((h + 1, n, nu, nm), dtype=np.int64)
    count_trans_m = np.zeros((h + 1, n, nu, nm, n), dtype=np.int64)
    xs, us, ms = converted.x, converted.u, converted.m
    ks = np.broadcast_to(np.arange(h, -1, -1), xs.shape)
    np.add.at(count_state, (ks, xs), 1)
    np.add.at(count_sa, (ks, xs, us), 1)
    src = slice(None, h)
    np.add.at(count_trans, (ks[:, src], xs[:, src], us[:, src], xs[:, 1:]), 1)
    if nm and ms is not None:
        np.add.at(count_sam, (ks, xs, us, ms), 1)
        np.add.at(
            count_trans_m,
            (ks[:, src], xs[:, src], us[:, src], ms[:, src], xs[:, 1:]),
            1,
        )
    return EmpiricalTables(
        action_law=_ratio(count_sa, count_state),
        mediator_law=_ratio(count_sam, count_sa),
        next_law=_ratio(count_trans_m, count_trans_m.sum(axis=-1)),
        seen_state=count_state > 0,
        seen_action=count_sa > 0,
        seen_cell=count_sam > 0,
        count_trans=count_trans,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save_jsonl(dataset: EpisodeDataset, path) -> None:
    """One compact JSON object per episode; converted episodes include k."""
    names = ["seed", "x", "u"]
    columns = [dataset.seed.tolist(), dataset.x.tolist(), dataset.u.tolist()]
    if dataset.m is not None:
        names.append("m")
        columns.append(dataset.m.tolist())
    if dataset.form == FORM_CONVERTED:
        names.append("k")
        columns.append(itertools.repeat(list(range(dataset.horizon, -1, -1))))
    write_jsonl(path, names, columns)


def write_jsonl(path, names: list[str], columns) -> None:
    """One compact JSON object per row: row j maps each name to the j-th
    entry of its column (Python values, e.g. from ``tolist``)."""
    with open(path, "w") as fh:
        for values in zip(*columns):
            fh.write(_JSON.encode(dict(zip(names, values))))
            fh.write("\n")


def load_jsonl(
    path,
    model: ConfoundedMdpModel,
    mediator: Optional[MediatorModel] = None,
) -> EpisodeDataset:
    """Load a JSONL dataset recorded on ``model``; the presence of k marks the
    converted form, and an empty file is an empty raw dataset.

    Every line must carry the fields of the first one: an integer seed, and
    sequences of H + 1 ids in range for the environment. Converted lines must
    also count k down from H to 0 and keep x frozen from the first unsafe
    state on. The first defect raises DatasetFormError naming its line and
    field.
    """
    h = model.horizon
    bounds = {"x": model.n_states, "u": model.n_actions}
    if mediator is not None:
        bounds["m"] = mediator.n_mediators
    countdown = list(range(h, -1, -1))
    keys: Optional[set] = None
    flat: dict[str, list] = {}
    seeds: list[int] = []
    lines: list[int] = []

    def fail(lineno: int, message: str) -> NoReturn:
        raise DatasetFormError(f"line {lineno}: {message}")

    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                rec = None
            if not isinstance(rec, dict):
                fail(lineno, "not a JSON object")
            if keys is None:
                keys, optional = set(rec), {"k", *bounds} - {"x", "u"}
                if not {"seed", "x", "u"} <= keys <= {"seed", "x", "u", *optional}:
                    fail(lineno, f"fields {sorted(keys)} are not seed, x, u and any of "
                                 f"{sorted(optional)}")
                flat = {key: [] for key in bounds if key in keys}
            elif rec.keys() != keys:
                fail(lineno, f"fields {sorted(rec.keys() ^ keys)} differ from the first line")
            if type(rec["seed"]) is not int or not 0 <= rec["seed"] < 2**64:
                fail(lineno, "field 'seed' is not an unsigned 64-bit integer")
            # JSON true/false would load as 1/0. A valid line holds digits and
            # the letters of its keys only, never a 't' or an 'f', so this test
            # spares valid lines a per-value check.
            if "t" in line or "f" in line:
                for key in ("x", "u", "m", "k"):
                    if isinstance(rec.get(key), list) and bool in map(type, rec[key]):
                        fail(lineno, f"field {key!r} holds a boolean, not an integer")
            for key, values in flat.items():
                if not isinstance(rec[key], list) or len(rec[key]) != h + 1:
                    fail(lineno, f"field {key!r} is not a list of {h + 1} ids (horizon {h})")
                values.extend(rec[key])
            if "k" in keys and rec["k"] != countdown:
                fail(lineno, f"field 'k' does not count down from {h} to 0")
            seeds.append(rec["seed"])
            lines.append(lineno)
    if not lines:
        empty = np.zeros((0, h + 1), dtype=np.int64)
        return EpisodeDataset(seed=np.zeros(0, dtype=np.uint64), x=empty, u=empty, form=FORM_RAW)
    columns = {}
    for key, values in flat.items():
        bound = bounds[key]
        try:
            ids = np.array(values)  # int64 when every entry is an int
        except ValueError:  # nested lists of unequal shape
            ids = None
        if ids is None or ids.dtype != np.int64 or ids.min() < 0 or ids.max() >= bound:
            i = next(i for i, v in enumerate(values) if type(v) is not int or not 0 <= v < bound)
            fail(lines[i // (h + 1)], f"field {key!r} holds {values[i]!r}, not an id in "
                                      f"0..{bound - 1}")
        columns[key] = ids.reshape(-1, h + 1)
    form = FORM_CONVERTED if "k" in keys else FORM_RAW
    if form == FORM_CONVERTED:
        moved = (_freeze(columns["x"], model.safe) != columns["x"]).any(axis=1)
        if moved.any():
            fail(lines[moved.argmax()], "field 'x' leaves its first unsafe state")
    seed = np.array(seeds, dtype=np.uint64)
    return EpisodeDataset(seed=seed, form=form, **columns)
