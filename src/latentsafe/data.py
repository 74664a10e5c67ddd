"""Offline dataset generation, conversion, and empirical tables.

A dataset is columnar: row i of the (N, H+1) integer arrays ``x``, ``u``
and, with a mediator, ``m`` is episode i over t = 0..H. Raw datasets record
episodes of the true confounded system under a latent-aware behavioral
policy; the latent itself is never recorded, and no episode carries a seed:
episode i of a dataset generated under seed s is regenerated from the block
of the stream ``derive_rng(s)`` at offset i * (H+1) * draws per step.
Conversion rewrites them into the absorbing auxiliary form: the visible
state freezes at the first safety failure, and column t has remaining time
k = H - t. Empirical tables are maximum-likelihood conditional frequencies
over the converted arrays, stored as dense arrays with masks that mark the
unobserved conditioning cells.

Datasets serialize as compact JSON lines, one episode per line, integers
only; converted episodes also carry k = H..0, which makes the form
self-describing. The writer renders blocks of rows as fixed-width byte
matrices, with numpy, and drops their padding. The loader skips its
per-line checks for one kind of file alone: byte for byte the writer's text
of a valid dataset, either the one ``save_jsonl`` kept or the one the file's
digit runs give, parsed at once and rendered again. Any other file is
checked line by line, naming the first defect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import NoReturn, Optional

import numpy as np

from .errors import ConfigurationError, DatasetFormError, ModelError
from .mdp import ConfoundedMdpModel, MediatorModel, TabularPolicy, divide_or_zero
from .seeding import cdf_table, stream_uniforms

FORM_RAW = "raw"
FORM_CONVERTED = "converted"


@dataclass(eq=False)
class EpisodeDataset:
    """Episodes in raw or converted form: ``x``, ``u`` and the optional
    mediators ``m`` are (N, H+1) int64."""

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
    from block i of the one stream ``derive_rng(seed)`` (``stream_uniforms``);
    all episodes advance together, one step at a time.
    """
    if behavioral.is_blind:
        raise ConfigurationError("offline generation requires a latent-aware behavioral policy")
    model.check_state(x0)
    h = model.horizon
    latent_cdf = cdf_table(model.latent_dist)  # (x, w)
    behav_cdf = cdf_table(behavioral.table)  # (x, w, u)
    if mediator is not None:
        mediator.check_fits(model)
        med_cdf = cdf_table(mediator.mediator_dist)  # (x, u, m)
        step_cdf = cdf_table(mediator.mediated_transition)  # (x, m, w, x')
    else:
        step_cdf = model.transition_cdf  # (x, u, w, x')
    # per step: latent, action, [mediator,] next state; the final step draws
    # a next state it never uses, which keeps the layout rectangular
    draws_per_step = 4 if mediator is not None else 3
    uniforms = stream_uniforms(seed, n_episodes, (h + 1, draws_per_step))
    x = np.empty((n_episodes, h + 1), dtype=np.int64)
    u = np.empty_like(x)
    m = np.empty_like(x) if mediator is not None else None
    x[:, 0] = x0
    for t in range(h + 1):
        xt, draws = x[:, t], uniforms[t]
        w = latent_cdf.draw((xt,), draws[0])
        u[:, t] = behav_cdf.draw((xt, w), draws[1])
        via = u[:, t]  # what the next state depends on besides (x, w)
        if m is not None:
            via = m[:, t] = med_cdf.draw((xt, u[:, t]), draws[2])
        if t < h:
            x[:, t + 1] = step_cdf.draw((xt, via, w), draws[-1])
    return EpisodeDataset(x=x, u=u, m=m, form=FORM_RAW)


def _freeze(x: np.ndarray, safe: np.ndarray) -> np.ndarray:
    """Each row of states held at its first unsafe entry from then on."""
    first_unsafe = np.logical_and.accumulate(safe[x], axis=1).sum(axis=1)
    source = np.minimum(np.arange(x.shape[1]), first_unsafe[:, None])
    return np.take_along_axis(x, source, axis=1)


def _leaves_freeze(x: np.ndarray, safe: np.ndarray) -> np.ndarray:
    """The (N, H) mask of steps t with x[t] unsafe and x[t+1] != x[t]: a row
    has one iff ``_freeze`` would change it, and no copy of x is built."""
    return ~safe[x[:, :-1]] & (x[:, 1:] != x[:, :-1])


def convert_dataset(raw: EpisodeDataset, safe: np.ndarray) -> EpisodeDataset:
    """Rewrite a raw dataset into absorbing auxiliary form.

    The converted visible state tracks the raw one until the first unsafe
    state, then freezes there; column t has remaining time k = H - t.
    Actions (and mediators) are shared unchanged.
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


@dataclass(frozen=True)
class EmpiricalTables(OfflineTables):
    """Count-ratio offline law over converted data. Without a mediator model
    the mediator axis has length zero. Each count table is one ``bincount``
    of a flat cell code per observation, ``(k * n + x) * nu + u``, then
    ``* nm + m`` for the mediator tables and ``* n + x'`` for transitions."""

    count_trans: np.ndarray  # (H+1, n, nu, n), indexed by source k >= 1

    def p_action(self, k: int, x: int) -> Optional[np.ndarray]:
        """P_off(u'|x, k), or ``None`` for an unvisited state cell."""
        return self.action_law[k, x] if self.seen_state[k, x] else None


def _count(codes: np.ndarray, shape: tuple) -> np.ndarray:
    """The table of ``shape`` counting each flat cell code in ``codes``."""
    return np.bincount(codes.ravel(), minlength=int(np.prod(shape))).reshape(shape)


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
    xs, us, ms = converted.x, converted.u, converted.m
    for key, ids, top in (("x", xs, n), ("u", us, nu), ("m", ms if nm else None, nm)):
        if ids is not None and ids.size and not 0 <= ids.min() <= ids.max() < top:
            raise DatasetFormError(f"field {key!r} holds an id outside 0..{top - 1}")
    code_sa = (np.arange(h, -1, -1) * n + xs) * nu + us  # (k, x, u)
    count_sa = _count(code_sa, (h + 1, n, nu))
    count_state = count_sa.sum(axis=-1)
    count_trans = _count(code_sa[:, :-1] * n + xs[:, 1:], (h + 1, n, nu, n))
    count_sam = np.zeros((h + 1, n, nu, nm), dtype=np.int64)
    count_trans_m = np.zeros((h + 1, n, nu, nm, n), dtype=np.int64)
    if nm and ms is not None:
        code_sam = code_sa * nm + ms  # (k, x, u, m)
        count_sam = _count(code_sam, count_sam.shape)
        count_trans_m = _count(code_sam[:, :-1] * n + xs[:, 1:], count_trans_m.shape)
    return EmpiricalTables(
        action_law=divide_or_zero(count_sa, count_state),
        mediator_law=divide_or_zero(count_sam, count_sa),
        next_law=divide_or_zero(count_trans_m, count_trans_m.sum(axis=-1)),
        seen_state=count_state > 0,
        seen_action=count_sa > 0,
        seen_cell=count_sam > 0,
        count_trans=count_trans,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


_BLOCK_BYTES = 1 << 20  # bytes per rendered block, however wide the rows
_PADDING_SAMPLE, _DENSE_PADDING = 1 << 16, 16  # see _render
_DIGITS_ONLY = bytes(c if 48 <= c <= 57 else 32 for c in range(256))  # others to spaces


def _slab(col: np.ndarray):
    """The slot width of the (N, cells) array ``col``, and a function from a
    row slice to those rows' (rows, cells, width) uint8 text, right-aligned
    and padded on the left with NUL: an integer's digits, after a '-' at the
    left edge if negative; a bool's or float's ``json.dumps`` token. An
    integer's digits come from uint64 ``//`` alone (a uint64 ``%`` costs
    several times more), and a column with no negative value skips the sign.
    A float column's distinct tokens come from one ``json.dumps`` call."""
    if col.dtype.kind in "iu":
        lo, hi = int(col.min(initial=0)), int(col.max(initial=0))
        width = max(len(str(lo)), len(str(hi)))

        def digits(rows):
            rest = col[rows].astype(np.uint64)  # uint64 holds |v| of any int64
            if lo < 0:
                neg = col[rows] < 0
                np.negative(rest, out=rest, where=neg)  # |v|, also for -2**63
            quot = np.empty_like(rest)
            text = np.empty((*rest.shape, width), np.uint8)
            for j in range(width - 1, -1, -1):
                # the units digit always shows; left of the leading digit, NUL
                zero = (rest > 0).view(np.uint8) * np.uint8(48) if j < width - 1 else 48
                np.floor_divide(rest, 10, out=quot)
                # rest - 10 * quot, the digit, in uint8: the wrap-around cancels
                text[..., j] = rest.astype(np.uint8) - quot.astype(np.uint8) * np.uint8(10) + zero
                rest, quot = quot, rest
            if lo < 0:
                text[..., 0][neg] = ord("-")
            return text

        return width, digits
    if col.dtype == bool:
        tokens, index = [b"false", b"true"], col.view(np.uint8)
    else:  # one token per bit pattern, so -0.0 and 0.0 stay apart
        bits, index = np.unique(col.astype(np.float64, copy=False).view(np.uint64),
                                return_inverse=True)
        # the encoder writes a list's floats as it writes each alone
        listed = json.dumps(bits.view(np.float64).tolist())[1:-1].encode()
        tokens = listed.split(b", ") if listed else []
        index = index.reshape(col.shape)
    width = max(map(len, tokens), default=0)
    padded = b"".join(token.rjust(width, b"\0") for token in tokens)
    lookup = np.frombuffer(padded, np.uint8).reshape(len(tokens), width)
    return width, lambda rows: lookup[index[rows]]


def _render(columns: dict):
    """Yield, one block of about ``_BLOCK_BYTES`` at a time, the bytes a
    compact ``json.JSONEncoder`` writes for each row's dict: row j maps each
    name to row j of its array (an integer, a float, a bool, or a list for a
    2-D array); a list column is the same on every row, and a None column is
    left out. A block is a (rows, row width) uint8 matrix: the row's literal
    bytes around one ``_slab`` slot per value. The text holds no NUL byte, so
    deleting the padding from the block's bytes leaves it. ``bytes.replace``
    pays per NUL and ``bytes.translate`` per byte, so the NUL share of the
    file's first ``_PADDING_SAMPLE`` bytes picks one for every block: above
    1 / ``_DENSE_PADDING`` (driving datasets and logs, 7.6-13.3% padding),
    translate; else (toy datasets under 1%, toy logs about 4%), replace."""
    row, slots = bytearray(b"{"), []
    for name, col in columns.items():
        if col is None:
            continue
        row += f'"{name}":'.encode()
        if isinstance(col, list):
            row += json.dumps(col, separators=(",", ":")).encode()
        else:
            n, cells = len(col), col.shape[1] if col.ndim == 2 else 1
            width, text = _slab(col.reshape(n, cells))
            slots.append((len(row) + (col.ndim == 2), cells, width, text))
            values = b",".join([b"\0" * width] * cells)
            row += b"[%s]" % values if col.ndim == 2 else values
        row += b","
    row[-1:] = b"}\n"
    step, dense = max(1, _BLOCK_BYTES // len(row)), None
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        block = np.tile(np.frombuffer(row, np.uint8), (rows.stop - start, 1))
        for pos, cells, width, text in slots:
            # each value's slot and the one separator byte after it
            region = block[:, pos : pos + cells * (width + 1)]
            region.reshape(len(block), cells, width + 1)[..., :width] = text(rows)
        padded = block.tobytes()
        if dense is None:  # a file's rows are alike, so its first bytes pick the method
            sample = min(len(padded), _PADDING_SAMPLE)
            dense = padded.count(b"\0", 0, sample) * _DENSE_PADDING > sample
        yield padded.translate(None, b"\0") if dense else padded.replace(b"\0", b"")


def write_jsonl(path, columns: dict) -> None:
    """One compact JSON object per row of ``columns`` (see ``_render``)."""
    with open(path, "wb") as fh:
        fh.writelines(_render(columns))


def _columns(dataset: EpisodeDataset) -> dict:
    k = list(range(dataset.horizon, -1, -1)) if dataset.form == FORM_CONVERTED else None
    return {"x": dataset.x, "u": dataset.u, "m": dataset.m, "k": k}


@dataclass(frozen=True)
class SavedJsonl:
    """What ``save_jsonl`` wrote: its blocks of bytes, and their dataset."""

    blocks: list
    dataset: EpisodeDataset


def save_jsonl(dataset: EpisodeDataset, path) -> SavedJsonl:
    """One compact JSON object per episode; converted episodes include k. The
    blocks are kept for ``load_jsonl``, and the dataset's arrays made read-only."""
    blocks = list(_render(_columns(dataset)))
    with open(path, "wb") as fh:
        fh.writelines(blocks)
    for ids in (dataset.x, dataset.u, dataset.m):
        if ids is not None:
            ids.flags.writeable = False
    return SavedJsonl(blocks, replace(dataset))


def load_jsonl(
    path,
    model: ConfoundedMdpModel,
    mediator: Optional[MediatorModel] = None,
    saved: Optional[SavedJsonl] = None,
) -> EpisodeDataset:
    """Load a JSONL dataset recorded on ``model``; the presence of k marks the
    converted form, and an empty file is an empty raw dataset.

    Every line must carry the fields of the first one: sequences of H + 1
    ids in range for the environment. Converted lines must also count k down
    from H to 0 and keep x frozen from the first unsafe state on. The first
    defect raises DatasetFormError naming its line and field. A file that is
    byte for byte the writer's text of a dataset ``_trusted`` takes loads as
    that dataset without the per-line checks: given ``saved``, what
    ``save_jsonl`` returned, its (read-only) dataset without a parse; else
    the one ``_parse_runs`` reads.
    """
    bounds = {"x": model.n_states, "u": model.n_actions}
    if mediator is not None:
        bounds["m"] = mediator.n_mediators
    with open(path, "rb") as fh:
        data = fh.read()
    if saved is not None and _trusted(saved.dataset, model, bounds) and _writes(data, saved.blocks):
        return replace(saved.dataset)
    dataset = _parse_runs(data, model, bounds)
    return dataset if dataset is not None else _load_lines(data, model, bounds)


def _trusted(dataset: EpisodeDataset, model: ConfoundedMdpModel, bounds: dict) -> bool:
    """Whether the per-line loader would load the writer's text of
    ``dataset`` as ``dataset``: an episode or more, H + 1 columns, int64 ids
    in range (m only with a mediator), converted rows frozen. The text itself
    fixes k and every spelling."""
    return (
        dataset.n_episodes > 0 and dataset.horizon == model.horizon
        and all(ids is None or (ids.dtype == np.int64 and ids.min() >= 0
                                and ids.max() < bounds.get(key, 0))  # no mediator: no m
                for key, ids in (("x", dataset.x), ("u", dataset.u), ("m", dataset.m)))
        and not (dataset.form == FORM_CONVERTED and _leaves_freeze(dataset.x, model.safe).any())
    )


def _writes(data: bytes, blocks) -> bool:
    """Whether ``data`` is byte for byte the blocks, compared one at a time."""
    pos = 0
    for block in blocks:
        if not data.startswith(block, pos):
            return False
        pos += len(block)
    return pos == len(data)


def _parse_runs(data: bytes, model: ConfoundedMdpModel, bounds: dict) -> Optional[EpisodeDataset]:
    """The dataset of a file that is byte for byte the writer's text of a
    dataset ``_trusted`` takes, else None. The first line names the fields
    and the form; the file's digit runs, parsed at once, fill one row per
    newline. The round trip refuses any other text: leading zeros, a wrong k,
    a run out of its slot."""
    h, first = model.horizon, data[: data.find(b"\n")]
    names = [key for key in bounds if key != "m" or b'"m":' in first]
    form = FORM_CONVERTED if b'"k":' in first else FORM_RAW
    n, fields = data.count(b"\n"), len(names) + (form == FORM_CONVERTED)  # k is the last
    values = np.fromstring(data.translate(_DIGITS_ONLY), dtype=np.uint64, sep=" ")
    if values.size != n * fields * (h + 1):
        return None
    # views spare a copy; an id past 2**63 - 1 reads negative, which _trusted
    # refuses, and so does one past 2**64 - 1, which np.fromstring clamps
    ids = values.reshape(n, fields, h + 1).view(np.int64)
    columns = {key: ids[:, i] for i, key in enumerate(names)}
    dataset = EpisodeDataset(form=form, **columns)
    trusted = _trusted(dataset, model, bounds) and _writes(data, _render(_columns(dataset)))
    return dataset if trusted else None


def _load_lines(data: bytes, model: ConfoundedMdpModel, bounds: dict) -> EpisodeDataset:
    """``load_jsonl`` one line at a time, naming the first defect."""
    h = model.horizon
    countdown = list(range(h, -1, -1))
    keys: Optional[set] = None
    flat: dict[str, list] = {}
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
        except (ValueError, RecursionError):  # nested past the decoder's depth
            rec = None
        if not isinstance(rec, dict):
            fail(lineno, "not a JSON object")
        if keys is None:
            keys, optional = set(rec), {"k", *bounds} - {"x", "u"}
            if not {"x", "u"} <= keys <= {"x", "u", *optional}:
                fail(lineno, f"fields {sorted(keys)} are not x, u and any of {sorted(optional)}")
            flat = {key: [] for key in bounds if key in keys}
        elif rec.keys() != keys:
            fail(lineno, f"fields {sorted(rec.keys() ^ keys)} differ from the first line")
        for key in ("x", "u", "m", "k"):  # JSON true/false would load as 1/0
            if isinstance(rec.get(key), list) and bool in map(type, rec[key]):
                fail(lineno, f"field {key!r} holds a boolean, not an integer")
        for key, values in flat.items():
            if not isinstance(rec[key], list) or len(rec[key]) != h + 1:
                fail(lineno, f"field {key!r} is not a list of {h + 1} ids (horizon {h})")
            values.extend(rec[key])
        if "k" in keys and rec["k"] != countdown:
            fail(lineno, f"field 'k' does not count down from {h} to 0")
        lines.append(lineno)
    if not lines:
        empty = np.zeros((0, h + 1), dtype=np.int64)
        return EpisodeDataset(x=empty, u=empty, form=FORM_RAW)
    for key, values in flat.items():
        top = bounds[key] - 1
        for i, v in enumerate(values):
            if type(v) is not int or not 0 <= v <= top:
                fail(lines[i // (h + 1)], f"field {key!r} holds {v!r}, not an id in 0..{top}")
    columns = {k: np.array(v, dtype=np.int64).reshape(-1, h + 1) for k, v in flat.items()}
    form = FORM_CONVERTED if "k" in keys else FORM_RAW
    if form == FORM_CONVERTED:
        moved = _leaves_freeze(columns["x"], model.safe).any(axis=1)
        if moved.any():
            fail(lines[moved.argmax()], "field 'x' leaves its first unsafe state")
    return EpisodeDataset(form=form, **columns)
