"""Safety certificate, certified action selection, online control loop, and
the discrete-time barrier-function baseline.

The certificate is the centered Q margin S(x, u, t) = Q(y, u) - E_{u'~pi} Q(y, u')
at y = (x, H - t). Nonnegativity of S under the executed action keeps the
policy-averaged safe probability from decaying, and the argmax action always
satisfies it, so a feasible action exists at every state and time.

``certify`` tabulates margins and certified actions once, as arrays over every
(t, x) and nominal action. Tabulated controllers are read off that record as
an (H, n) action table; ``Certificate.nominal_law`` gives the (H, n, nu)
action law of the nearest-nominal controller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import CertificateUnavailableError, ConfigurationError, ModelError
from .envs import N_DRIVING_STATES, split_driving
from .mdp import ConfoundedMdpModel, OfflineKernel, TabularPolicy
from .oracle import TabularQ
from .seeding import cdf_table, stream_uniforms

MODE_NEAREST_NOMINAL = "nearest-nominal"
MODE_MAX_ACTION = "max-action"
SELECTION_MODES = (MODE_NEAREST_NOMINAL, MODE_MAX_ACTION)

# An action is feasible when S >= -FEASIBILITY_SLACK: the margins of an exact
# Q carry float dust of a few ulps around zero.
FEASIBILITY_SLACK = 1e-12


@dataclass(frozen=True)
class CertificateConfig:
    """Risk tolerance and selection behavior of the certified controller."""

    epsilon: float
    selection_mode: str = MODE_NEAREST_NOMINAL

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigurationError("epsilon must lie in (0, 1)")
        if self.selection_mode not in SELECTION_MODES:
            raise ConfigurationError(f"unknown selection mode {self.selection_mode!r}")


def _centered(rows: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """S = Q - E_{u~pi} Q along the last axis; ``pi`` broadcasts against ``rows``."""
    baseline = np.matmul(rows[..., None, :], pi[..., :, None])[..., 0]
    return rows - baseline


def margins_row(q: TabularQ, policy: TabularPolicy, x: int, t: int) -> np.ndarray:
    """Certificate values S(x, u, t) for every action at once: one (t, x) row
    of the margins ``certify`` tabulates."""
    k = q.horizon - t
    if k < 1:
        raise ConfigurationError(f"time {t} has no remaining transition (horizon {q.horizon})")
    return _centered(q.q_row(x, k), policy.action_probs(x))


def select_actions(margins: np.ndarray, action_values: np.ndarray, mode: str):
    """The certified action for each nominal action: (..., nu) margins ->
    (..., nu_nominal) actions and a (...) fallback mask.

    ``max-action`` takes the largest feasible action value; ``nearest-nominal``
    minimizes |u - u_nominal| over the feasible set (ties: larger margin, then
    smaller action value). An empty feasible set (possible only with
    estimated Q) falls back to the argmax-S action and flags the event.
    """
    infeasible = margins < -FEASIBILITY_SLACK
    fallback = infeasible.all(axis=-1)
    # keys per (..., u_nominal, u), least significant first; lexsort is stable,
    # so a full tie goes to the smaller action index
    if mode == MODE_MAX_ACTION:
        keys = (-action_values, infeasible[..., None, :])
    else:
        deviation = np.abs(action_values[None, :] - action_values[:, None])
        keys = (action_values, -margins[..., None, :], deviation, infeasible[..., None, :])
    shape = margins.shape + margins.shape[-1:]
    chosen = np.lexsort([np.broadcast_to(key, shape) for key in keys], axis=-1)[..., 0]
    best = np.argmax(margins, axis=-1)[..., None]
    return np.where(fallback[..., None], best, chosen), fallback


@dataclass(frozen=True)
class Certificate:
    """The certificate tabulated over every time t and state x."""

    margins: np.ndarray  # (H, n, nu): S(x, u, t) at k = H - t
    action: np.ndarray  # (H, n, nu_nominal): certified action per nominal action
    fallback: np.ndarray  # (H, n): no action clears the certificate
    available: np.ndarray  # (H, n): the Q source has a row at (x, H - t)

    def require(self, t: int, x: int) -> None:
        """Raise CertificateUnavailableError unless (t, x) has a Q row."""
        if not self.available[t, x]:
            raise CertificateUnavailableError(x, len(self.margins) - t)

    def nominal_law(self, nominal: TabularPolicy) -> np.ndarray:
        """Action law (H, n, nu) of the certified controller when the nominal
        action is drawn from ``nominal``: each nominal probability moves to the
        action certified for it."""
        if not nominal.is_blind:
            raise ModelError("the certificate averages over a latent-blind policy")
        hits = self.action[..., None] == np.arange(self.margins.shape[-1])
        return (nominal.table[..., None] * hits).sum(axis=-2)


def certify(
    q: TabularQ,
    policy: TabularPolicy,
    config: CertificateConfig,
    action_values: tuple[int, ...],
) -> Certificate:
    """Margins and certified actions at every (t, x) and nominal action."""
    if not policy.is_blind:
        raise ModelError("the certificate averages over a latent-blind policy")
    h = q.horizon
    margins = _centered(q.values[h:0:-1], policy.table)
    action, fallback = select_actions(
        margins, np.asarray(action_values, dtype=float), config.selection_mode
    )
    return Certificate(
        margins=margins, action=action, fallback=fallback, available=q.available[h:0:-1]
    )


# ---------------------------------------------------------------------------
# Online control loop
# ---------------------------------------------------------------------------


class ControlRuns(NamedTuple):
    """Closed-loop episodes under the certified controller; row i is episode i."""

    x: np.ndarray  # (N, H+1) states
    u: np.ndarray  # (N, H) executed actions
    u_nominal: np.ndarray  # (N, H) nominal draws
    margins: np.ndarray  # (N, H) S(x, u, t) of the executed action
    feasible: np.ndarray  # (N, H) bool: some action cleared the certificate


def run_control(
    model: ConfoundedMdpModel,
    certificate: Certificate,
    nominal: TabularPolicy,
    x0: int,
    n_episodes: int,
    seed: int,
) -> ControlRuns:
    """Run ``n_episodes`` episodes of the certified online loop on the true
    dynamics, all in lockstep.

    Each step draws a nominal action, looks up the action the certificate
    certifies for it, and advances the true confounded system: the latent is
    redrawn from P(w|x) and never exposed to the controller. Episode i takes
    its three uniforms per step, in that order, from block i of the one
    stream ``derive_rng(seed)`` (``seeding.stream_uniforms``).
    If an episode reaches a (t, x) without a Q row, CertificateUnavailableError
    names the first such step of the lowest such episode, the cell a run of
    the episodes one after another would stop at.
    """
    model.check_state(x0)
    if not nominal.is_blind:
        raise ModelError("the certificate averages over a latent-blind policy")
    h = model.horizon
    nominal_cdf = cdf_table(nominal.table)
    latent_cdf = cdf_table(model.latent_dist)
    step_cdf = model.transition_cdf
    uniforms = stream_uniforms(seed, n_episodes, (h, 3))
    x = np.empty((n_episodes, h + 1), dtype=np.int64)
    u_nominal = np.empty((n_episodes, h), dtype=np.int64)
    u = np.empty_like(u_nominal)
    x[:, 0] = x0
    for t in range(h):
        xt, draws = x[:, t], uniforms[t]
        u_nominal[:, t] = nominal_cdf.draw((xt,), draws[0])
        u[:, t] = certificate.action[t, xt, u_nominal[:, t]]
        w = latent_cdf.draw((xt,), draws[1])
        x[:, t + 1] = step_cdf.draw((xt, u[:, t], w), draws[2])
    t, xs = np.arange(h), x[:, :-1]
    missing = ~certificate.available[t, xs]
    if missing.any():
        # the first missing entry in C order: the lowest episode, its first step
        i, step = divmod(int(missing.argmax()), h)
        certificate.require(step, int(xs[i, step]))
    return ControlRuns(
        x=x,
        u=u,
        u_nominal=u_nominal,
        margins=certificate.margins[t, xs, u],
        feasible=~certificate.fallback[t, xs],
    )


# ---------------------------------------------------------------------------
# Controllers as action tables (for exact propagation and batch rollouts)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeterministicController:
    """Controller realized as a per-(t, x) action table."""

    controller_id: str
    action_table: np.ndarray  # (horizon, n_states) of action indices
    n_actions: int
    fallback_mask: Optional[np.ndarray] = None  # (horizon, n_states) bool

    def action_distribution(self, x: int, t: int) -> np.ndarray:
        return np.eye(self.n_actions)[self.action_table[t, x]]


def proposed_controller(
    model: ConfoundedMdpModel,
    q: TabularQ,
    policy: TabularPolicy,
    config: CertificateConfig,
) -> DeterministicController:
    """Tabulate the certified controller in max-action mode over all (t, x)."""
    if config.selection_mode != MODE_MAX_ACTION:
        raise ConfigurationError("only max-action mode tabulates without a nominal draw")
    certificate = certify(q, policy, config, model.action_values)
    missing = np.argwhere(~certificate.available)
    if missing.size:
        certificate.require(*missing[0])
    return DeterministicController(
        controller_id="proposed-oracle-Q",
        action_table=certificate.action[..., 0],
        n_actions=model.n_actions,
        fallback_mask=certificate.fallback,
    )


# ---------------------------------------------------------------------------
# DTCBF baseline
# ---------------------------------------------------------------------------


def _barrier(position, velocity):
    """A truncated square-wave approximation of the varying speed limit,
    squashed by tanh into (-1, 1); elementwise over arrays."""
    series = sum(
        (4.0 / (n * math.pi)) * np.sin(-(math.pi / 5.0) * n * (position + 0.5))
        for n in (1, 3, 5, 7)
    )
    return np.tanh(4.5 + series - velocity)


@dataclass(frozen=True)
class DtcbfParams:
    """Barrier-condition parameters: E[h(x')] >= alpha * h(x) + delta."""

    alpha: float = 0.01
    delta: float = -0.5


def dtcbf_ok(offline_kernel: OfflineKernel, params: DtcbfParams) -> np.ndarray:
    """(x, u) mask of the barrier condition evaluated under offline statistics
    (the baseline has no access to the debiased online law); an undefined
    offline row never meets it. The barrier reads driving state codes, so a
    kernel over any other state set is a ModelError."""
    n = offline_kernel.rows.shape[0]
    if n != N_DRIVING_STATES:
        raise ModelError(f"the barrier reads the {N_DRIVING_STATES} driving states, not {n}")
    h = _barrier(*split_driving(np.arange(n)))
    expected = offline_kernel.rows @ h  # (x, u)
    return (expected >= params.alpha * h[:, None] + params.delta) & offline_kernel.defined


def dtcbf_controller(
    model: ConfoundedMdpModel,
    offline_kernel: OfflineKernel,
    params: DtcbfParams,
) -> DeterministicController:
    """Tabulate the barrier baseline: the largest action meeting the barrier
    condition, falling back to the smallest action when none does."""
    ok = dtcbf_ok(offline_kernel, params)
    values = np.asarray(model.action_values, dtype=float)
    fallback = ~ok.any(axis=1)
    largest = np.argmax(np.where(ok, values, -np.inf), axis=1)
    per_state = np.where(fallback, np.argmin(values), largest)
    return DeterministicController(
        controller_id="dtcbf",
        action_table=np.tile(per_state, (model.horizon, 1)),
        n_actions=model.n_actions,
        fallback_mask=np.tile(fallback, (model.horizon, 1)),
    )
