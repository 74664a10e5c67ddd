"""Offline dataset generation, conversion, and empirical tables.

Raw datasets record episodes of the true confounded system under a
latent-aware behavioral policy; the latent itself is never recorded.
Conversion rewrites each episode into the absorbing auxiliary form: the
visible state freezes at the first safety failure and every state is paired
with its remaining time. Empirical tables are maximum-likelihood conditional
frequencies over the converted data, stored as dense arrays with masks that
mark the unobserved conditioning cells.

Datasets serialize as JSON-lines, one episode per line, integers only.
Converted episodes carry their remaining-time sequence, which also makes the
form self-describing on disk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, DatasetFormError, ModelError
from .mdp import ConfoundedMdpModel, MediatorModel, TabularPolicy
from .seeding import derive_seed

FORM_RAW = "raw"
FORM_CONVERTED = "converted"


@dataclass
class Episode:
    """One recorded episode. Sequences x and u span t = 0..H; the remaining-time
    sequence k is present only in converted form."""

    seed: int
    x: list[int]
    u: list[int]
    m: Optional[list[int]] = None
    k: Optional[list[int]] = None


@dataclass
class EpisodeDataset:
    """A collection of episodes in raw or converted form."""

    horizon: int
    form: str
    episodes: list[Episode] = field(default_factory=list)
    env_id: str = ""

    def __post_init__(self):
        if self.form not in (FORM_RAW, FORM_CONVERTED):
            raise DatasetFormError(f"unknown dataset form {self.form!r}")
        for ep in self.episodes:
            if len(ep.x) != self.horizon + 1 or len(ep.u) != self.horizon + 1:
                raise ModelError("episode sequences must have length horizon + 1")
            if ep.m is not None and len(ep.m) != self.horizon + 1:
                raise ModelError("mediator sequence must have length horizon + 1")

    @property
    def n_episodes(self) -> int:
        return len(self.episodes)

    @property
    def has_mediators(self) -> bool:
        return bool(self.episodes) and self.episodes[0].m is not None


def _cumsums(table: np.ndarray) -> np.ndarray:
    return np.cumsum(table, axis=-1)


def _draw(cum_row: np.ndarray, uniform: float) -> int:
    idx = int(np.searchsorted(cum_row, uniform, side="right"))
    return min(idx, len(cum_row) - 1)


def generate_offline(
    model: ConfoundedMdpModel,
    behavioral: TabularPolicy,
    n_episodes: int,
    x0: int,
    seed: int,
    mediator: Optional[MediatorModel] = None,
    env_id: str = "",
) -> EpisodeDataset:
    """Sample a raw offline dataset under the behavioral policy.

    Each step draws the latent from P(w|x), the action from the behavioral
    policy at (x, w), the mediator (when the environment has one) from
    P(m|x,u), and the next state from the ground-truth kernel. Latent values
    are not recorded. Episode i uses the derived stream (seed, i), so
    generation order cannot affect the output.
    """
    if behavioral.is_blind:
        raise ConfigurationError("offline generation requires a latent-aware behavioral policy")
    model.check_state(x0)
    h = model.horizon
    latent_cum = _cumsums(model.latent_dist)
    behav_cum = _cumsums(behavioral.table)  # (x, w, u)
    if mediator is not None:
        med_cum = _cumsums(mediator.mediator_dist)  # (x, u, m)
        step_cum = _cumsums(mediator.mediated_transition)  # (x, m, w, x')
    else:
        trans_cum = _cumsums(model.transition)  # (x, u, w, x')
    draws_per_step = 4 if mediator is not None else 3
    episodes: list[Episode] = []
    for i in range(n_episodes):
        ep_seed = derive_seed(seed, i)
        rng = np.random.default_rng(ep_seed)
        uniforms = rng.random(draws_per_step * (h + 1))
        xs = [int(x0)]
        us: list[int] = []
        ms: list[int] = [] if mediator is not None else None  # type: ignore[assignment]
        x = int(x0)
        pos = 0
        for t in range(h + 1):
            w = _draw(latent_cum[x], uniforms[pos]); pos += 1
            u = _draw(behav_cum[x, w], uniforms[pos]); pos += 1
            us.append(u)
            if mediator is not None:
                m = _draw(med_cum[x, u], uniforms[pos]); pos += 1
                ms.append(m)
            if t < h:
                if mediator is not None:
                    x = _draw(step_cum[x, m, w], uniforms[pos])
                else:
                    x = _draw(trans_cum[x, u, w], uniforms[pos])
                pos += 1
                xs.append(x)
            else:
                pos += 1  # keep the draw layout rectangular
        episodes.append(Episode(seed=ep_seed, x=xs, u=us, m=ms))
    return EpisodeDataset(horizon=h, form=FORM_RAW, episodes=episodes, env_id=env_id)


def convert_dataset(raw: EpisodeDataset, safe: np.ndarray) -> EpisodeDataset:
    """Rewrite a raw dataset into absorbing auxiliary form.

    The converted visible state tracks the raw one until the first unsafe
    state, then freezes there; every state is paired with remaining time
    k = H - t. Actions (and mediators) are copied unchanged.
    """
    if raw.form != FORM_RAW:
        raise DatasetFormError("dataset is already in converted form")
    h = raw.horizon
    ks = list(range(h, -1, -1))
    episodes = []
    for ep in raw.episodes:
        xh = [ep.x[0]]
        for t in range(h):
            xh.append(xh[t] if not safe[xh[t]] else ep.x[t + 1])
        episodes.append(
            Episode(
                seed=ep.seed,
                x=xh,
                u=list(ep.u),
                m=list(ep.m) if ep.m is not None else None,
                k=list(ks),
            )
        )
    return EpisodeDataset(
        horizon=h, form=FORM_CONVERTED, episodes=episodes, env_id=raw.env_id
    )


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

    count_state_action: np.ndarray  # (H+1, n, nu)
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
    if nm and converted.episodes and not converted.has_mediators:
        raise DatasetFormError("mediated tables require mediator sequences in the data")
    count_state = np.zeros((h + 1, n), dtype=np.int64)
    count_sa = np.zeros((h + 1, n, nu), dtype=np.int64)
    count_trans = np.zeros((h + 1, n, nu, n), dtype=np.int64)
    count_sam = np.zeros((h + 1, n, nu, nm), dtype=np.int64)
    count_trans_m = np.zeros((h + 1, n, nu, nm, n), dtype=np.int64)
    if converted.episodes:
        xs = np.array([ep.x for ep in converted.episodes], dtype=np.int64)
        us = np.array([ep.u for ep in converted.episodes], dtype=np.int64)
        ks = np.broadcast_to(np.arange(h, -1, -1, dtype=np.int64), xs.shape)
        np.add.at(count_state, (ks, xs), 1)
        np.add.at(count_sa, (ks, xs, us), 1)
        src = slice(None, h)
        np.add.at(count_trans, (ks[:, src], xs[:, src], us[:, src], xs[:, 1:]), 1)
        if nm:
            ms = np.array([ep.m for ep in converted.episodes], dtype=np.int64)
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
        count_state_action=count_sa,
        count_trans=count_trans,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save_jsonl(dataset: EpisodeDataset, path) -> None:
    """One compact JSON object per episode; converted episodes include k."""
    with open(path, "w") as fh:
        for ep in dataset.episodes:
            record: dict = {"seed": ep.seed, "x": ep.x, "u": ep.u}
            if ep.m is not None:
                record["m"] = ep.m
            if ep.k is not None:
                record["k"] = ep.k
            fh.write(json.dumps(record, separators=(",", ":")))
            fh.write("\n")


def load_jsonl(path, env_id: str = "", horizon: Optional[int] = None) -> EpisodeDataset:
    """Load a JSONL dataset; the presence of k marks the converted form.

    An empty file is a valid empty raw dataset when ``horizon`` is supplied;
    otherwise the horizon cannot be inferred and loading fails.
    """
    episodes: list[Episode] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            episodes.append(
                Episode(
                    seed=rec["seed"],
                    x=rec["x"],
                    u=rec["u"],
                    m=rec.get("m"),
                    k=rec.get("k"),
                )
            )
    if not episodes:
        if horizon is None:
            raise DatasetFormError("cannot infer horizon or form from an empty dataset file")
        return EpisodeDataset(horizon=horizon, form=FORM_RAW, episodes=[], env_id=env_id)
    inferred = len(episodes[0].x) - 1
    form = FORM_CONVERTED if episodes[0].k is not None else FORM_RAW
    return EpisodeDataset(horizon=inferred, form=form, episodes=episodes, env_id=env_id)
