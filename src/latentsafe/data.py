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

Datasets serialize as compact JSON lines, one episode per line, integers
only; converted episodes also carry k = H..0, which makes the form
self-describing. A file exactly as ``save_jsonl`` writes it loads in one
array parse; any other is checked line by line, naming the first defect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import NoReturn, Optional

import numpy as np

from .errors import ConfigurationError, DatasetFormError, ModelError
from .mdp import ConfoundedMdpModel, MediatorModel, TabularPolicy
from .seeding import derive_seed, inverse_cdf, stream_uniforms

FORM_RAW = "raw"
FORM_CONVERTED = "converted"


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


_BLOCK = 4096  # rows per % formatting call
_DIGITS_ONLY = bytes(c if 48 <= c <= 57 else 32 for c in range(256))  # others to spaces


def _render(columns: dict):
    """Yield, one block of rows at a time, the text a compact
    ``json.JSONEncoder`` writes for each row's dict: row j maps each name to
    row j of its array (a number, a bool, or a list for a 2-D array); a list
    column is the same on every row, and a None column is left out."""
    fields, cells = [], []
    for name, col in columns.items():
        if isinstance(col, list):
            fields.append(f'"{name}":' + json.dumps(col, separators=(",", ":")))
        elif col is not None:
            if col.dtype == bool:
                col = np.where(col, "true", "false")
            elif col.dtype.kind == "f" and not np.isfinite(col).all():
                col = np.array([json.dumps(v) for v in col.tolist()])  # NaN, Infinity
            cells.append(col if col.ndim == 2 else col[:, None])
            slots = ",".join(["%s"] * cells[-1].shape[1])
            fields.append(f'"{name}":' + (f"[{slots}]" if col.ndim == 2 else slots))
    row = "{" + ",".join(fields) + "}\n"
    for start in range(0, len(cells[0]), _BLOCK):
        # object cells hold Python ints, so uint64 seeds keep every digit
        block = np.concatenate([c[start : start + _BLOCK] for c in cells], axis=1, dtype=object)
        yield (row * len(block)) % tuple(block.ravel().tolist())


def write_jsonl(path, columns: dict) -> None:
    """One compact JSON object per row of ``columns`` (see ``_render``)."""
    with open(path, "w") as fh:
        fh.writelines(_render(columns))


def _columns(dataset: EpisodeDataset) -> dict:
    k = list(range(dataset.horizon, -1, -1)) if dataset.form == FORM_CONVERTED else None
    return {"seed": dataset.seed, "x": dataset.x, "u": dataset.u, "m": dataset.m, "k": k}


def save_jsonl(dataset: EpisodeDataset, path) -> None:
    """One compact JSON object per episode; converted episodes include k."""
    write_jsonl(path, _columns(dataset))


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
    bounds = {"x": model.n_states, "u": model.n_actions}
    if mediator is not None:
        bounds["m"] = mediator.n_mediators
    with open(path, "rb") as fh:
        data = fh.read()
    dataset = _load_saved(data, model, bounds)
    return dataset if dataset is not None else _load_lines(data, model, bounds)


def _load_saved(data: bytes, model: ConfoundedMdpModel, bounds: dict) -> Optional[EpisodeDataset]:
    """The dataset of a file that is byte for byte what ``save_jsonl`` writes
    for a valid dataset, else None. All digit runs are parsed at once; the
    arrays must render back to the file, which rules out every spelling the
    writer never makes and any number ``np.fromstring`` clamped to 2**64 - 1."""
    h, n, first = model.horizon, data.count(b"\n"), data[: data.find(b"\n")]
    names = [key for key in bounds if key != "m" or b'"m":' in first]
    form = FORM_CONVERTED if b'"k":' in first else FORM_RAW
    values = np.fromstring(data.translate(_DIGITS_ONLY), dtype=np.uint64, sep=" ")
    if n == 0 or values.size != n * (1 + (len(names) + (form == FORM_CONVERTED)) * (h + 1)):
        return None
    rows = values.reshape(n, -1)
    ids = rows[:, 1:].reshape(n, -1, h + 1)  # (episode, field, t)
    if any(ids[:, i].max() >= bounds[key] for i, key in enumerate(names)):
        return None
    ids = ids.view(np.int64)  # in range, so the same values; views spare a copy
    columns = {key: ids[:, i] for i, key in enumerate(names)}
    dataset = EpisodeDataset(seed=rows[:, 0], form=form, **columns)
    if form == FORM_CONVERTED and (_freeze(dataset.x, model.safe) != dataset.x).any():
        return None
    pos = 0
    for text in _render(_columns(dataset)):
        if not data.startswith(text.encode(), pos):
            return None
        pos += len(text)
    return dataset if pos == len(data) else None


def _load_lines(data: bytes, model: ConfoundedMdpModel, bounds: dict) -> EpisodeDataset:
    """``load_jsonl`` one line at a time, naming the first defect."""
    h = model.horizon
    countdown = list(range(h, -1, -1))
    keys: Optional[set] = None
    flat: dict[str, list] = {}
    seeds: list[int] = []
    lines: list[int] = []

    def fail(lineno: int, message: str) -> NoReturn:
        raise DatasetFormError(f"line {lineno}: {message}")

    for lineno, raw_line in enumerate(data.splitlines(), 1):
        try:
            line = raw_line.decode()
        except UnicodeDecodeError:
            fail(lineno, "not UTF-8 text")
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
        for key in ("x", "u", "m", "k"):  # JSON true/false would load as 1/0
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
    for key, values in flat.items():
        top = bounds[key] - 1
        for i, v in enumerate(values):
            if type(v) is not int or not 0 <= v <= top:
                fail(lines[i // (h + 1)], f"field {key!r} holds {v!r}, not an id in 0..{top}")
    columns = {k: np.array(v, dtype=np.int64).reshape(-1, h + 1) for k, v in flat.items()}
    form = FORM_CONVERTED if "k" in keys else FORM_RAW
    if form == FORM_CONVERTED:
        moved = (_freeze(columns["x"], model.safe) != columns["x"]).any(axis=1)
        if moved.any():
            fail(lines[moved.argmax()], "field 'x' leaves its first unsafe state")
    seed = np.array(seeds, dtype=np.uint64)
    return EpisodeDataset(seed=seed, form=form, **columns)
