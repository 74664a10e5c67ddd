"""Domain types and kernel algebra for confounded MDPs.

A confounded MDP has a visible state x, a latent state w redrawn each step
from P(w|x), and a transition law P(x'|x,u,w). Deployment-time ("online")
statistics marginalize w independently of the action; logged ("offline")
statistics reweight by a latent-aware behavioral policy, which is what makes
offline frequencies a biased picture of the online system.

On top of the raw kernels this module builds the absorbing auxiliary kernels
used for safety analysis: once the safety predicate fails, the visible state
freezes in place, and a countdown index k tracks remaining time. Augmented
states (x, k) are the working currency of every downstream module.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import EncodingError, ModelError, PositivityError
from .seeding import CdfTable, ShortRows, cdf_table, short_rows

ROW_SUM_ATOL = 1e-9


class AugmentedState(NamedTuple):
    """Visible state paired with the remaining time k in the episode (k = H - t)."""

    x: int
    k: int


def _check_probability_table(table: np.ndarray, name: str) -> None:
    if table.size and (table.min() < 0.0 or table.max() > 1.0):  # NaN fails the sums
        raise ModelError(f"{name} has entries outside [0, 1]")
    sums = table.sum(axis=-1)
    if not np.allclose(sums, 1.0, rtol=0.0, atol=ROW_SUM_ATOL):
        worst = float(np.max(np.abs(sums - 1.0)))
        raise ModelError(f"{name} rows must sum to 1 (worst deviation {worst:.3e})")


def _check_short_rows(successors: np.ndarray, probs: np.ndarray) -> None:
    """Raise :class:`ModelError` unless the short rows of P(x'|x,u,w) name
    states in range, list their nonzero entries first by ascending successor,
    and pass the probability table checks."""
    n = probs.shape[0]
    if successors.size and (successors.min() < 0 or successors.max() >= n):
        raise ModelError(f"transition successor ids outside [0, {n})")
    _check_probability_table(probs, "transition")
    listed = probs != 0.0
    padding_first = listed[..., 1:] > listed[..., :-1]
    descending = (successors[..., 1:] <= successors[..., :-1]) & listed[..., 1:]
    if padding_first.any() or descending.any():
        raise ModelError("transition rows must list their successors first, ascending")


@dataclass(frozen=True, init=False)
class ConfoundedMdpModel:
    """Ground-truth specification of a confounded MDP over integer-encoded states.

    Attributes:
        successors, probs: P(x'|x,u,w) as short rows, int64 and float64 of
            shape (n_states, n_actions, n_latents, s): the positive entries
            of each (x, u, w) row, ``probs[x, u, w, i]`` the probability of
            the i-th successor ``successors[x, u, w, i]``, ascending; a row
            with fewer than s padded with probability 0 and successor
            n_states - 1.
        latent_dist: P(w|x), shape (n_states, n_latents). The latent is redrawn
            from this row at every step, independent of history given x.
        horizon: episode length H (number of transitions).
        safe: boolean safety predicate C(x) per encoded state.
        barrier: the barrier h(x) per encoded state, finite floats, that the
            DTCBF baseline keeps in expectation; 2 * 1{safe} - 1 unless
            given. Its sign need not agree with ``safe``.
        action_values: physical value of each action index (ordered); used for
            deviation penalties and "largest action" selection.
        name: optional identifier for error messages and reports.

    The kernel is given either dense, as ``transition`` of shape (n_states,
    n_actions, n_latents, n_states), which is compressed to short rows
    through ``seeding.short_rows`` and never kept, or as ``successors`` and
    ``probs``. Every array attribute is a read-only copy of its input.
    The online kernel, its absorbing form and the transition's sampling
    table are computed from the short rows once, on first use, read-only;
    so is the dense view ``transition``, which only tests, scalar references
    and the toys' mediator tables read.
    """

    successors: np.ndarray
    probs: np.ndarray
    latent_dist: np.ndarray
    horizon: int
    safe: np.ndarray
    action_values: tuple[int, ...]
    name: str = ""
    barrier: np.ndarray = None

    def __init__(self, transition=None, *, latent_dist, horizon, safe, action_values, name="",
                 successors=None, probs=None, barrier=None):
        if (transition is None) == (successors is None or probs is None):
            raise ModelError("give the transition either dense or as successors and probs")
        if transition is not None:
            transition = np.asarray(transition, dtype=float)
            if transition.ndim != 4:
                raise ModelError("transition must have shape (x, u, w, x')")
            if transition.shape[3] != transition.shape[0]:
                raise ModelError("transition source and destination state axes disagree")
            successors, probs, _ = short_rows(transition)
        successors, probs = np.array(successors, dtype=np.int64), np.array(probs, dtype=float)
        d, s = np.array(latent_dist, dtype=float), np.array(safe, dtype=bool)
        if probs.ndim != 4 or successors.shape != probs.shape:
            raise ModelError("successors and probs must share one (x, u, w, s) shape")
        n, nu, nw, _ = probs.shape
        if d.shape != (n, nw):
            raise ModelError("latent_dist shape must be (n_states, n_latents)")
        if s.shape != (n,):
            raise ModelError("safe mask shape must be (n_states,)")
        h = np.where(s, 1.0, -1.0) if barrier is None else np.array(barrier, dtype=float)
        if h.shape != (n,) or not np.isfinite(h).all():
            raise ModelError("barrier must hold one finite value per state")
        if len(action_values) != nu:
            raise ModelError("action_values length must equal the action axis")
        if horizon < 0:
            raise ModelError("horizon must be nonnegative")
        _check_short_rows(successors, probs)
        _check_probability_table(d, "latent_dist")
        fields = {
            "successors": successors, "probs": probs, "latent_dist": d, "horizon": horizon,
            "safe": s, "action_values": tuple(int(a) for a in action_values), "name": name,
            "barrier": h,
        }
        for key, value in fields.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, key, value)

    @property
    def n_states(self) -> int:
        return self.probs.shape[0]

    @property
    def n_actions(self) -> int:
        return self.probs.shape[1]

    @property
    def n_latents(self) -> int:
        return self.probs.shape[2]

    @cached_property
    def transition(self) -> np.ndarray:
        """The dense P(x'|x,u,w), (n_states, n_actions, n_latents, n_states),
        rebuilt from the short rows on first read."""
        dense = ShortRows(self.successors, self.probs, self.n_states).dense()
        dense.setflags(write=False)
        return dense

    @cached_property
    def _online(self) -> np.ndarray:
        rows = _latent_sum(self, self.latent_dist[:, None, :])
        rows.setflags(write=False)
        return rows

    @cached_property
    def _absorbing_online(self) -> np.ndarray:
        rows = absorbing_rows(self, self._online)
        rows.setflags(write=False)
        return rows

    @cached_property
    def transition_cdf(self) -> CdfTable:
        """``cdf_table`` of the short rows: every sampler of the true
        (x, u, w) -> x' step draws from this one table."""
        table = cdf_table(ShortRows(self.successors, self.probs, self.n_states))
        for part in table:
            if part is not None:
                part.setflags(write=False)
        return table

    def check_state(self, x: int) -> int:
        if not 0 <= x < self.n_states:
            raise EncodingError(f"unknown state id {x} for model {self.name!r}")
        return int(x)

    def check_action(self, u: int) -> int:
        if not 0 <= u < self.n_actions:
            raise EncodingError(f"unknown action id {u} for model {self.name!r}")
        return int(u)


@dataclass(frozen=True)
class MediatorModel:
    """Front-door structure attached to a confounded MDP.

    The action influences the next state only through an observed mediator m:
    m ~ P(m|x,u), then x' ~ P(x'|x,m,w). The base model's direct transition
    must equal the m-marginal of ``mediated_transition``.

    Attributes:
        mediator_dist: P(m|x,u), shape (n_states, n_actions, n_mediators).
        mediated_transition: P(x'|x,m,w), shape (n_states, n_mediators, n_latents, n_states).
    """

    mediator_dist: np.ndarray
    mediated_transition: np.ndarray

    def __post_init__(self):
        md = np.array(self.mediator_dist, dtype=float)
        mt = np.array(self.mediated_transition, dtype=float)
        if md.ndim != 3 or mt.ndim != 4:
            raise ModelError("mediator tables have wrong rank")
        if mt.shape[0] != md.shape[0] or mt.shape[1] != md.shape[2] or mt.shape[3] != mt.shape[0]:
            raise ModelError("mediator table shapes disagree")
        _check_probability_table(md, "mediator_dist")
        _check_probability_table(mt, "mediated_transition")
        md.setflags(write=False)
        mt.setflags(write=False)
        object.__setattr__(self, "mediator_dist", md)
        object.__setattr__(self, "mediated_transition", mt)

    @property
    def n_mediators(self) -> int:
        return self.mediator_dist.shape[2]

    def check_fits(self, model: ConfoundedMdpModel) -> None:
        """Raise :class:`ModelError` unless P(m|x,u) has the model's (x, u)
        axes and P(x'|x,m,w) its (x, w, x') axes; the tables already agree
        on x and m with each other."""
        md, mt = self.mediator_dist.shape, self.mediated_transition.shape
        n, nu, nw = model.n_states, model.n_actions, model.n_latents
        if md[:2] != (n, nu) or mt[2] != nw:
            raise ModelError(
                f"mediator tables of shapes {md} and {mt} do not fit a model of "
                f"transition shape {(n, nu, nw, n)}"
            )


@dataclass(frozen=True)
class TabularPolicy:
    """Finite action distribution table; its shape says what it may see.

    An (n_states, n_actions) table is latent-blind: an online or nominal
    policy. An (n_states, n_latents, n_actions) table is behavioral: a
    logging policy that sees the latent.
    """

    table: np.ndarray

    def __post_init__(self):
        t = np.array(self.table, dtype=float)
        if t.ndim not in (2, 3):
            raise ModelError("policy table must be (x, u) or (x, w, u)")
        _check_probability_table(t, "policy table")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    @property
    def is_blind(self) -> bool:
        return self.table.ndim == 2

    def action_probs(self, x: int) -> np.ndarray:
        """Action row of a latent-blind policy at state x."""
        if not self.is_blind:
            raise ModelError("latent-aware policy requires the latent; index its (x, w, u) table")
        return self.table[x]


def uniform_policy(n_states: int, n_actions: int) -> TabularPolicy:
    """Latent-blind policy playing every action with equal probability."""
    return TabularPolicy(table=np.full((n_states, n_actions), 1.0 / n_actions))


# ---------------------------------------------------------------------------
# Marginalized one-step kernels
# ---------------------------------------------------------------------------


def _latent_sum(model: ConfoundedMdpModel, weight: np.ndarray, cell=()) -> np.ndarray:
    """sum_w weight[x, u, w] P(x'|x,u,w) as dense (x, u, x') rows, or the one
    row of the (x, u) index ``cell``; ``weight`` broadcasts to (x, u, w) or,
    for a cell, is its (w,) row. Each (x, u)'s short rows, weighted and laid
    end to end in w order, are added in that order: every entry is the
    sequential sum over w that ``np.einsum("xuw,xuwy->xuy")`` forms on the
    dense table for two or more states."""
    successors, probs = model.successors[cell], model.probs[cell]
    lead = successors.shape[:-2]
    weighted = (weight[..., None] * probs).reshape(*lead, -1)
    return ShortRows(successors.reshape(*lead, -1), weighted, model.n_states).dense()


def p_online_matrix(model: ConfoundedMdpModel) -> np.ndarray:
    """Online statistics P(x'|x,u): the latent marginalized under P(w|x).
    The model's own read-only array, computed once."""
    return model._online


def p_online(model: ConfoundedMdpModel, x_next: int, x: int, u: int) -> float:
    """Single online transition probability P(x_next | x, u)."""
    model.check_state(x_next)
    model.check_state(x)
    model.check_action(u)
    return float(_latent_sum(model, model.latent_dist[x], (x, u))[x_next])


class OfflineKernel(NamedTuple):
    """Offline rows P(x'|x,u) of logged data with a defined-support mask."""

    rows: np.ndarray  # (n_states, n_actions, n_states)
    defined: np.ndarray  # (n_states, n_actions) bool


def behavioral_weights(model: ConfoundedMdpModel, behavioral: TabularPolicy) -> np.ndarray:
    """weight[x, u, w] = P(w|x) pi_b(u|x,w); its w-sum is the offline action law.

    Raises :class:`ModelError` unless the behavioral policy is latent-aware
    with the model's (x, w, u) axes.
    """
    if behavioral.is_blind:
        raise ModelError("offline statistics require a latent-aware behavioral policy")
    if behavioral.table.shape != (model.n_states, model.n_latents, model.n_actions):
        raise ModelError("behavioral policy table does not match the model dimensions")
    return model.latent_dist[:, None, :] * np.transpose(behavioral.table, (0, 2, 1))


def divide_or_zero(numer: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """numer / totals along the last axis, zero where the total is zero (the
    0/0 of an unsupported conditioning cell)."""
    out = np.zeros(numer.shape)
    np.divide(numer, totals[..., None], out=out, where=totals[..., None] > 0)
    return out


def check_offline_support(model: ConfoundedMdpModel, defined: np.ndarray) -> None:
    """Raise :class:`PositivityError` for the first safe (x, u) cell that the
    behavioral policy never plays: its offline row is undefined."""
    unsupported = np.argwhere(model.safe[:, None] & ~defined)
    if unsupported.size:
        x, u = (int(i) for i in unsupported[0])
        raise PositivityError(f"offline row undefined at safe state {x}, action {u}", cell=(x, u))


def p_offline_matrix(model: ConfoundedMdpModel, behavioral: TabularPolicy) -> OfflineKernel:
    """Offline statistics P(x'|x,u) of data logged under a latent-aware policy.

    ``rows[x, u]`` is the conditional distribution over x' and
    ``defined[x, u]`` flags cells with positive behavioral support.
    Undefined rows are left as zeros; accessing them through
    :func:`p_offline` raises :class:`PositivityError` because the defining
    ratio is 0/0 there.
    """
    weight = behavioral_weights(model, behavioral)
    denom = weight.sum(axis=2)
    defined = denom > 0.0
    # in place; an undefined cell's weights, so its numerators, are all zero
    rows = _latent_sum(model, weight)
    rows /= np.where(defined, denom, 1.0)[..., None]
    return OfflineKernel(rows, defined)


def p_offline(
    model: ConfoundedMdpModel,
    behavioral: TabularPolicy,
    x_next: int,
    x: int,
    u: int,
) -> float:
    """Single offline transition probability P(x_next | x, u) under the behavioral policy."""
    model.check_state(x_next)
    model.check_state(x)
    model.check_action(u)
    weight = behavioral_weights(model, behavioral)[x, u]
    denom = weight.sum()
    if not denom > 0.0:
        raise PositivityError(
            f"action {u} is never taken at state {x} under the behavioral policy",
            cell=(x, u),
        )
    return float(_latent_sum(model, weight, (x, u))[x_next] / denom)


# ---------------------------------------------------------------------------
# Absorbing auxiliary kernels
# ---------------------------------------------------------------------------


def absorbing_rows(model: ConfoundedMdpModel, base_rows: np.ndarray) -> np.ndarray:
    """Apply the freeze-on-failure rule to a (x, u, x') kernel.

    Safe states keep their base rows; unsafe states become point masses on
    themselves, so consumers never special-case the Dirac branch.
    """
    rows = base_rows.copy()
    unsafe = np.flatnonzero(~model.safe)
    rows[unsafe] = 0.0
    rows[unsafe, :, unsafe] = 1.0
    return rows


def absorbing_online_matrix(model: ConfoundedMdpModel) -> np.ndarray:
    """Auxiliary online kernel: online rows at safe states, self-loops
    elsewhere. The model's own read-only array, computed once."""
    return model._absorbing_online


def absorbing_offline_matrix(model: ConfoundedMdpModel, behavioral: TabularPolicy) -> np.ndarray:
    """Auxiliary offline kernel: offline rows at safe states, self-loops elsewhere.

    Raises :class:`PositivityError` if any safe state has an action with zero
    behavioral support, since that offline row is undefined.
    """
    rows, defined = p_offline_matrix(model, behavioral)
    check_offline_support(model, defined)
    return absorbing_rows(model, rows)
