"""Safety certificate, safe-action selection, online control loop, and the
discrete-time barrier-function baseline.

The certificate is the centered Q margin S(x, u, t) = Q(y, u) - E_{u'~pi} Q(y, u')
at y = (x, H - t). Nonnegativity of S under the executed action keeps the
policy-averaged safe probability from decaying, and the argmax action always
satisfies it, so a feasible action exists at every state and time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Protocol

import numpy as np

from .errors import ConfigurationError, PositivityError
from .envs import DrivingState, decode_driving
from .mdp import ConfoundedMdpModel, TabularPolicy
from .seeding import inverse_cdf

MODE_NEAREST_NOMINAL = "nearest-nominal"
MODE_MAX_ACTION = "max-action"


class QSource(Protocol):
    """Anything exposing per-augmented-state Q rows (oracle tables, fitted tables)."""

    @property
    def horizon(self) -> int: ...

    def q_row(self, x: int, k: int) -> np.ndarray: ...


@dataclass(frozen=True)
class CertificateConfig:
    """Risk tolerance and selection behavior of the certified controller."""

    epsilon: float
    feasibility_slack: float = 1e-12
    selection_mode: str = MODE_NEAREST_NOMINAL

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigurationError("epsilon must lie in (0, 1)")
        if self.feasibility_slack < 0.0:
            raise ConfigurationError("feasibility_slack must be nonnegative")
        if self.selection_mode not in (MODE_NEAREST_NOMINAL, MODE_MAX_ACTION):
            raise ConfigurationError(f"unknown selection mode {self.selection_mode!r}")


def margins_row(q: QSource, policy: TabularPolicy, x: int, t: int) -> np.ndarray:
    """Certificate values S(x, u, t) for every action at once."""
    k = q.horizon - t
    if k < 1:
        raise ConfigurationError(f"time {t} has no remaining transition (horizon {q.horizon})")
    row = q.q_row(x, k)
    baseline = float(policy.action_probs(x, k) @ row)
    return row - baseline


def safety_margin(q: QSource, policy: TabularPolicy, x: int, u: int, t: int) -> float:
    """Centered Q margin of one action; the certificate requires S >= 0."""
    return float(margins_row(q, policy, x, t)[u])


class SafeActionResult(NamedTuple):
    action: int
    margin: float
    fallback: bool


def safe_action(
    q: QSource,
    policy: TabularPolicy,
    config: CertificateConfig,
    x: int,
    t: int,
    u_nominal: int,
    action_values: tuple[int, ...],
) -> SafeActionResult:
    """Select a certified action.

    ``nearest-nominal`` minimizes |u - u_nominal| over the feasible set
    (ties: larger margin, then smaller action value); ``max-action`` takes
    the largest feasible action value. An empty feasible set (possible only
    with estimated Q) falls back to the argmax-Q action and flags the event.
    """
    margins = margins_row(q, policy, x, t)
    feasible = np.flatnonzero(margins >= -config.feasibility_slack)
    if feasible.size == 0:
        best = int(np.argmax(margins))
        return SafeActionResult(best, float(margins[best]), True)
    values = np.asarray(action_values, dtype=float)
    if config.selection_mode == MODE_MAX_ACTION:
        chosen = int(feasible[np.argmax(values[feasible])])
        return SafeActionResult(chosen, float(margins[chosen]), False)
    deviation = np.abs(values[feasible] - values[u_nominal])
    # lexicographic: min |u - u_n|, then max margin, then min action value
    order = sorted(
        range(feasible.size),
        key=lambda i: (deviation[i], -margins[feasible[i]], values[feasible[i]]),
    )
    chosen = int(feasible[order[0]])
    return SafeActionResult(chosen, float(margins[chosen]), False)


# ---------------------------------------------------------------------------
# Online control loop
# ---------------------------------------------------------------------------


@dataclass
class ControlEpisodeRecord:
    """One closed-loop episode under the certified controller."""

    seed: int
    x: list[int]  # length H + 1
    u: list[int]  # length H
    u_nominal: list[int]
    margins: list[float]
    feasible: list[bool]

    def to_jsonl_lines(self) -> list[str]:
        lines = []
        for t in range(len(self.u)):
            lines.append(
                json.dumps(
                    {
                        "t": t,
                        "x": self.x[t],
                        "u_nominal": self.u_nominal[t],
                        "u": self.u[t],
                        "S": self.margins[t],
                        "feasible": self.feasible[t],
                    },
                    separators=(",", ":"),
                )
            )
        return lines


def run_control_episode(
    model: ConfoundedMdpModel,
    q: QSource,
    policy: TabularPolicy,
    nominal: TabularPolicy,
    config: CertificateConfig,
    x0: int,
    seed: int,
) -> ControlEpisodeRecord:
    """Run one episode of the certified online loop on the true dynamics.

    Each step draws a nominal action, projects it through the certificate,
    and advances the true confounded system: the latent is redrawn from
    P(w|x) and never exposed to the controller.
    """
    model.check_state(x0)
    rng = np.random.default_rng(seed)
    xs = [int(x0)]
    us: list[int] = []
    u_noms: list[int] = []
    margins: list[float] = []
    feas: list[bool] = []
    x = int(x0)
    latent_cum = np.cumsum(model.latent_dist, axis=-1)
    for t in range(model.horizon):
        nominal_cum = np.cumsum(nominal.action_probs(x, model.horizon - t))
        u_nom = int(inverse_cdf(nominal_cum, (), rng.random()))
        result = safe_action(q, policy, config, x, t, u_nom, model.action_values)
        w = int(inverse_cdf(latent_cum, (x,), rng.random()))
        step_cum = np.cumsum(model.transition[x, result.action, w])
        x_next = int(inverse_cdf(step_cum, (), rng.random()))
        xs.append(x_next)
        us.append(result.action)
        u_noms.append(u_nom)
        margins.append(result.margin)
        feas.append(not result.fallback)
        x = x_next
    return ControlEpisodeRecord(
        seed=int(seed), x=xs, u=us, u_nominal=u_noms, margins=margins, feasible=feas
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

    def action(self, x: int, t: int) -> int:
        return int(self.action_table[t, x])

    def action_distribution(self, x: int, t: int) -> np.ndarray:
        dist = np.zeros(self.n_actions)
        dist[self.action(x, t)] = 1.0
        return dist


def proposed_controller(
    model: ConfoundedMdpModel,
    q: QSource,
    policy: TabularPolicy,
    config: CertificateConfig,
) -> DeterministicController:
    """Tabulate the certified controller in max-action mode over all (t, x)."""
    if config.selection_mode != MODE_MAX_ACTION:
        raise ConfigurationError("only max-action mode tabulates without a nominal draw")
    h = model.horizon
    table = np.empty((h, model.n_states), dtype=np.int64)
    fallback = np.zeros((h, model.n_states), dtype=bool)
    for t in range(h):
        for x in range(model.n_states):
            result = safe_action(q, policy, config, x, t, 0, model.action_values)
            table[t, x] = result.action
            fallback[t, x] = result.fallback
    return DeterministicController(
        controller_id="proposed-oracle-Q",
        action_table=table,
        n_actions=model.n_actions,
        fallback_mask=fallback,
    )


@dataclass(frozen=True)
class NearestNominalController:
    """Certified controller in nearest-nominal mode.

    Selection depends on the nominal draw, so the controller is stochastic;
    for exact propagation the draw is marginalized by enumerating every
    nominal action and weighting the projected choice.
    """

    model: ConfoundedMdpModel
    q: QSource
    policy: TabularPolicy
    nominal: TabularPolicy
    config: CertificateConfig
    controller_id: str = "proposed-nearest-nominal"

    def action_distribution(self, x: int, t: int) -> np.ndarray:
        k = self.q.horizon - t
        nominal_row = self.nominal.action_probs(x, k)
        dist = np.zeros(self.model.n_actions)
        for u_nom in np.flatnonzero(nominal_row > 0):
            result = safe_action(
                self.q, self.policy, self.config, x, t, int(u_nom),
                self.model.action_values,
            )
            dist[result.action] += nominal_row[u_nom]
        return dist

    def act(self, x: int, t: int, rng: np.random.Generator) -> SafeActionResult:
        nominal_cum = np.cumsum(self.nominal.action_probs(x, self.q.horizon - t))
        u_nom = int(inverse_cdf(nominal_cum, (), rng.random()))
        return safe_action(
            self.q, self.policy, self.config, x, t, u_nom, self.model.action_values
        )


# ---------------------------------------------------------------------------
# DTCBF baseline
# ---------------------------------------------------------------------------


def dtcbf_h(x: DrivingState) -> float:
    """Barrier over driving states: a truncated square-wave approximation of
    the varying speed limit, squashed by tanh into (-1, 1)."""
    series = sum(
        (4.0 / (n * math.pi)) * math.sin(-(math.pi / 5.0) * n * (x.position + 0.5))
        for n in (1, 3, 5, 7)
    )
    return math.tanh(4.5 + series - x.velocity)


@dataclass(frozen=True)
class DtcbfParams:
    """Barrier-condition parameters: E[h(x')] >= alpha * h(x) + delta."""

    alpha: float = 0.01
    delta: float = -0.5
    h: Callable[[int], float] = field(
        default=lambda code: dtcbf_h(decode_driving(code))
    )

    def h_values(self, n_states: int) -> np.ndarray:
        return np.array([self.h(code) for code in range(n_states)])


class OfflineKernel(NamedTuple):
    """Raw offline rows P(x'|x,u) with a defined-support mask."""

    rows: np.ndarray  # (n_states, n_actions, n_states)
    defined: np.ndarray  # (n_states, n_actions) bool


def dtcbf_condition(
    offline_kernel: OfflineKernel, params: DtcbfParams, x: int, u: int
) -> bool:
    """Barrier condition evaluated under offline statistics (the baseline has
    no access to the debiased online law)."""
    if not offline_kernel.defined[x, u]:
        raise PositivityError(
            f"offline row undefined at state {x}, action {u}", cell=(x, u)
        )
    h_vals = params.h_values(offline_kernel.rows.shape[0])
    expected = float(offline_kernel.rows[x, u] @ h_vals)
    return expected >= params.alpha * h_vals[x] + params.delta


def dtcbf_controller(
    model: ConfoundedMdpModel,
    offline_kernel: OfflineKernel,
    params: DtcbfParams,
) -> DeterministicController:
    """Tabulate the barrier baseline: the largest action meeting the barrier
    condition, falling back to the smallest action when none does."""
    h_vals = params.h_values(model.n_states)
    expected = offline_kernel.rows @ h_vals  # (x, u)
    ok = expected >= params.alpha * h_vals[:, None] + params.delta
    ok &= offline_kernel.defined
    values = np.asarray(model.action_values, dtype=float)
    order_desc = np.argsort(-values, kind="stable")
    min_action = int(np.argmin(values))
    per_state = np.empty(model.n_states, dtype=np.int64)
    fallback = np.zeros(model.n_states, dtype=bool)
    for x in range(model.n_states):
        for ui in order_desc:
            if ok[x, ui]:
                per_state[x] = ui
                break
        else:
            per_state[x] = min_action
            fallback[x] = True
    table = np.tile(per_state, (model.horizon, 1))
    return DeterministicController(
        controller_id="dtcbf",
        action_table=table,
        n_actions=model.n_actions,
        fallback_mask=np.tile(fallback, (model.horizon, 1)),
    )
