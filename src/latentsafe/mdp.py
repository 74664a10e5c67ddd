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
from .seeding import CdfTable, cdf_table

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


def _owned_frozen(table) -> bool:
    """Whether ``table`` is a float64 ndarray that owns its memory or views
    one, read-only all along its ``.base`` chain: no writable alias exists."""
    if type(table) is not np.ndarray or table.dtype != np.float64:
        return False
    while isinstance(table, np.ndarray):
        if table.flags.writeable:
            return False
        table = table.base
    return table is None


@dataclass(frozen=True)
class ConfoundedMdpModel:
    """Ground-truth specification of a confounded MDP over integer-encoded states.

    Attributes:
        transition: P(x'|x,u,w), shape (n_states, n_actions, n_latents, n_states).
        latent_dist: P(w|x), shape (n_states, n_latents). The latent is redrawn
            from this row at every step, independent of history given x.
        horizon: episode length H (number of transitions).
        safe: boolean safety predicate C(x) per encoded state.
        action_values: physical value of each action index (ordered); used for
            deviation penalties and "largest action" selection.
        name: optional identifier for error messages and reports.

    ``transition`` and ``latent_dist`` are read-only copies, or the input
    itself when it is a float64 array no writable array aliases. The online
    kernel, its absorbing form and the transition's sampling table are
    computed once, on first use, read-only.
    """

    transition: np.ndarray
    latent_dist: np.ndarray
    horizon: int
    safe: np.ndarray
    action_values: tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        # copy unless no writable array can alias the table, so freezing the
        # tables cannot freeze or alias a caller's array
        t, d = (
            table if _owned_frozen(table) else np.array(table, dtype=float)
            for table in (self.transition, self.latent_dist)
        )
        s = np.array(self.safe, dtype=bool)
        if t.ndim != 4:
            raise ModelError("transition must have shape (x, u, w, x')")
        n, nu, nw, n2 = t.shape
        if n2 != n:
            raise ModelError("transition source and destination state axes disagree")
        if d.shape != (n, nw):
            raise ModelError("latent_dist shape must be (n_states, n_latents)")
        if s.shape != (n,):
            raise ModelError("safe mask shape must be (n_states,)")
        if len(self.action_values) != nu:
            raise ModelError("action_values length must equal the action axis")
        if self.horizon < 0:
            raise ModelError("horizon must be nonnegative")
        _check_probability_table(t, "transition")
        _check_probability_table(d, "latent_dist")
        for arr in (t, d, s):
            arr.setflags(write=False)
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "latent_dist", d)
        object.__setattr__(self, "safe", s)
        object.__setattr__(self, "action_values", tuple(int(a) for a in self.action_values))

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transition.shape[1]

    @property
    def n_latents(self) -> int:
        return self.transition.shape[2]

    @cached_property
    def _online(self) -> np.ndarray:
        rows = np.einsum("xw,xuwy->xuy", self.latent_dist, self.transition)
        rows.setflags(write=False)
        return rows

    @cached_property
    def _absorbing_online(self) -> np.ndarray:
        rows = absorbing_rows(self, self._online)
        rows.setflags(write=False)
        return rows

    @cached_property
    def transition_cdf(self) -> CdfTable:
        """``cdf_table(transition)``: every sampler of the true (x, u, w) -> x'
        step draws from this one table."""
        table = cdf_table(self.transition)
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
        if md[:2] != model.transition.shape[:2] or mt[2] != model.n_latents:
            raise ModelError(
                f"mediator tables of shapes {md} and {mt} do not fit a model of "
                f"transition shape {model.transition.shape}"
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


def p_online_matrix(model: ConfoundedMdpModel) -> np.ndarray:
    """Online statistics P(x'|x,u): the latent marginalized under P(w|x).
    The model's own read-only array, computed once."""
    return model._online


def p_online(model: ConfoundedMdpModel, x_next: int, x: int, u: int) -> float:
    """Single online transition probability P(x_next | x, u)."""
    model.check_state(x_next)
    model.check_state(x)
    model.check_action(u)
    return float(model.latent_dist[x] @ model.transition[x, u, :, x_next])


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
    numer = np.einsum("xuw,xuwy->xuy", weight, model.transition)
    return OfflineKernel(divide_or_zero(numer, denom), denom > 0.0)


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
    rows, defined = p_offline_matrix(model, behavioral)
    if not defined[x, u]:
        raise PositivityError(
            f"action {u} is never taken at state {x} under the behavioral policy",
            cell=(x, u),
        )
    return float(rows[x, u, x_next])


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
