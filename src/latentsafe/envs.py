"""Concrete confounded environments.

Three instances ship:

* ``driving``      — a 1-D vehicle on a looped road with a varying speed limit
                     and latent road slipperiness that saps actuation.
* ``mismatch``     — a 2-state system whose offline statistics wildly
                     over-approximate online safety (the canonical bias demo).
* ``mediator-toy`` — the mismatch system extended with an observed mediator
                     that intercepts the action's effect, enabling front-door
                     estimation tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError, EncodingError
from .mdp import ConfoundedMdpModel, MediatorModel, TabularPolicy

# --- driving environment -----------------------------------------------------

DRIVING_ACTIONS = (-3, -2, -1, 0, 1)
DRIVING_LATENTS = (0, 1, 2, 3)
N1_VALUES = (-1, 0, 1)
N2_VALUES = (-2, -1, 0, 1, 2)

# Position is stored modulo 30: the least common period of the mod-10 speed
# limit and the mod-6 slipperiness zones, so the reduction is exact.
POSITION_PERIOD = 30
# Velocity cap: one step from any safe state (v <= 5) adds at most 4, and all
# v > 5 states are unsafe and absorbing in the auxiliary process, so capping
# at 9 changes no safe-probability value.
MAX_VELOCITY = 9


@dataclass(frozen=True)
class DrivingState:
    """Vehicle state: looped position and nonnegative velocity."""

    position: int
    velocity: int

    def __post_init__(self):
        if not 0 <= self.position < POSITION_PERIOD:
            raise EncodingError(f"position {self.position} outside [0, {POSITION_PERIOD})")
        if not 0 <= self.velocity <= MAX_VELOCITY:
            raise EncodingError(f"velocity {self.velocity} outside [0, {MAX_VELOCITY}]")


class DrivingNoise(NamedTuple):
    """Actuation noise n1 and velocity noise n2, each uniform on its range."""

    n1: int
    n2: int


N_DRIVING_STATES = POSITION_PERIOD * (MAX_VELOCITY + 1)


def encode_driving(state: DrivingState) -> int:
    return state.position * (MAX_VELOCITY + 1) + state.velocity


def decode_driving(code: int) -> DrivingState:
    if not 0 <= code < N_DRIVING_STATES:
        raise EncodingError(f"unknown driving state code {code}")
    return DrivingState(code // (MAX_VELOCITY + 1), code % (MAX_VELOCITY + 1))


def driving_safe(state: DrivingState) -> bool:
    """Varying speed limit: 3 on the first four positions of each decade, else 5."""
    if state.position % 10 < 4:
        return state.velocity <= 3
    return state.velocity <= 5


def driving_step(x: DrivingState, u: int, w: int, n: DrivingNoise) -> DrivingState:
    """Deterministic one-step dynamics given action, slipperiness and noise.

    Position advances by the current velocity (mod the road loop). The
    commanded acceleration u + n1 loses |w| of its magnitude to slip, then
    velocity noise n2 is added; velocity clamps to [0, MAX_VELOCITY].
    """
    if u not in DRIVING_ACTIONS:
        raise EncodingError(f"unknown driving action {u}")
    if w not in DRIVING_LATENTS:
        raise EncodingError(f"unknown slipperiness level {w}")
    if n.n1 not in N1_VALUES or n.n2 not in N2_VALUES:
        raise EncodingError(f"noise {tuple(n)} outside its range")
    a = u + n.n1
    traction = int(np.sign(a)) * max(0, abs(a) - w)
    velocity = min(MAX_VELOCITY, max(0, x.velocity + traction + n.n2))
    position = (x.position + x.velocity) % POSITION_PERIOD
    return DrivingState(position, velocity)


def driving_latent_dist(x: DrivingState) -> np.ndarray:
    """Slipperiness distribution: drier on positions 3-5 of each 6-block."""
    if x.position % 6 >= 3:
        return np.array([0.5, 0.5, 0.0, 0.0])
    return np.array([0.0, 1 / 3, 1 / 3, 1 / 3])


# Behavioral action tables: moderate braking for mild slip, heavy braking for
# severe slip, uniform otherwise.
_BRAKE_MODERATE = np.array([0.5, 0.4, 0.05, 0.04, 0.01])
_BRAKE_HEAVY = np.array([0.9, 0.05, 0.03, 0.01, 0.01])
_UNIFORM5 = np.full(5, 0.2)


def behavioral_policy_driving(x: DrivingState, w: int) -> np.ndarray:
    """Latent-aware logging policy over DRIVING_ACTIONS.

    The rule blocks overlap for w = 3; they are evaluated in decreasing
    slipperiness order so the heavy-brake rows dominate, matching a driver
    who brakes hardest on the most slippery road.
    """
    if w not in DRIVING_LATENTS:
        raise EncodingError(f"unknown slipperiness level {w}")
    low_zone = x.position % 10 < 4
    if w >= 3 and ((low_zone and x.velocity >= 2) or (not low_zone and x.velocity >= 4)):
        return _BRAKE_HEAVY.copy()
    if w >= 2 and ((low_zone and x.velocity >= 1) or (not low_zone and x.velocity >= 3)):
        return _BRAKE_MODERATE.copy()
    if w >= 1 and ((low_zone and x.velocity >= 2) or (not low_zone and x.velocity >= 4)):
        return _BRAKE_MODERATE.copy()
    return _UNIFORM5.copy()


def _driving_transition() -> np.ndarray:
    """P(x'|x,u,w) with the noise marginalized, (n, nu, nw, n).

    The dynamics of ``driving_step`` run over every (x, u, w, n1, n2) cell as
    one broadcast; each cell then adds 1/15 to its next state's entry in input
    order, so every entry is the same sum of repeated additions as a loop over
    the noise would give (a count times 1/15 can differ in the last bit).
    """
    n = N_DRIVING_STATES
    nu = len(DRIVING_ACTIONS)
    nw = len(DRIVING_LATENTS)
    position, velocity = np.divmod(np.arange(n), MAX_VELOCITY + 1)
    # axes (x, u, w, n1, n2)
    a = np.reshape(DRIVING_ACTIONS, (nu, 1, 1, 1)) + np.reshape(N1_VALUES, (-1, 1))
    traction = np.sign(a) * np.maximum(0, np.abs(a) - np.reshape(DRIVING_LATENTS, (nw, 1, 1)))
    next_velocity = np.clip(
        velocity.reshape(n, 1, 1, 1, 1) + traction + np.asarray(N2_VALUES), 0, MAX_VELOCITY
    )
    next_position = (position + velocity) % POSITION_PERIOD
    next_code = next_position.reshape(n, 1, 1, 1, 1) * (MAX_VELOCITY + 1) + next_velocity
    cell = np.arange(n * nu * nw).reshape(n, nu, nw, 1, 1) * n + next_code
    noise_p = 1.0 / (len(N1_VALUES) * len(N2_VALUES))
    kernel = np.bincount(
        cell.ravel(), weights=np.full(cell.size, noise_p), minlength=n * nu * nw * n
    )
    # read-only before the reshape, so the model can keep it without a copy
    kernel.setflags(write=False)
    return kernel.reshape(n, nu, nw, n)


def build_driving_env(horizon: int = 10) -> "EnvBundle":
    """Dense-table driving environment with noise marginalized into P(x'|x,u,w)."""
    states = [decode_driving(code) for code in range(N_DRIVING_STATES)]
    model = ConfoundedMdpModel(
        transition=_driving_transition(),
        latent_dist=np.array([driving_latent_dist(state) for state in states]),
        horizon=horizon,
        safe=np.array([driving_safe(state) for state in states]),
        action_values=DRIVING_ACTIONS,
        name="driving",
    )
    behavioral = np.array(
        [[behavioral_policy_driving(state, w) for w in DRIVING_LATENTS] for state in states]
    )
    policy = TabularPolicy(table=behavioral)
    return EnvBundle(
        env_id="driving",
        model=model,
        behavioral=policy,
        mediator=None,
        default_x0=encode_driving(DrivingState(0, 0)),
        encode=lambda pv: encode_driving(DrivingState(*pv)),
        decode=lambda c: (decode_driving(c).position, decode_driving(c).velocity),
    )


# --- mismatch environment -----------------------------------------------------


def build_mismatch_env(horizon: int = 6) -> "EnvBundle":
    """Two-state system where offline data hides the danger of action 1.

    State 0 is safe, state 1 unsafe and self-absorbing. The behavioral policy
    only applies action 1 when the latent makes it harmless, so logged data
    show action 1 as perfectly safe while its online safe probability is 0.55.
    """
    # P(x'=0 | x, u, w). The unsafe state x = 1 is absorbing; its (x=1, w=0)
    # column is unreachable (P(w=0|x=1) = 0) and is kept absorbing too.
    to_zero = np.array([[[0.9, 1.0], [1.0, 0.1]], [[0.0, 0.0], [0.0, 0.0]]])
    transition = np.stack([to_zero, 1.0 - to_zero], axis=-1)  # [x, u, w, x']
    latent = np.array([[0.5, 0.5], [0.0, 1.0]])
    model = ConfoundedMdpModel(
        transition=transition,
        latent_dist=latent,
        horizon=horizon,
        safe=np.array([True, False]),
        action_values=(0, 1),
        name="mismatch",
    )
    # P(u | x, w): at x = 0, action 1 only under w = 0, where it is harmless.
    # The unsafe state is absorbing, so any behavioral row works there;
    # uniform keeps every offline row well-defined.
    behavioral = np.array([[[0.5, 0.5], [1.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]]])
    policy = TabularPolicy(table=behavioral)
    return EnvBundle(
        env_id="mismatch",
        model=model,
        behavioral=policy,
        mediator=None,
        default_x0=0,
    )


# --- mediator toy environment ---------------------------------------------------

MEDIATOR_FOLLOW_PROB = 0.8  # P(m = u); the 0.2 flip keeps the correction nontrivial


def build_mediator_toy_env(horizon: int = 3) -> "EnvBundle":
    """Mismatch system with an observed mediator intercepting the action.

    The mediator copies the action with probability 0.8 and flips it with
    probability 0.2; the next state depends on the action only through the
    mediator. Marginalizing the mediator recovers the mismatch transition
    with u replaced by m, so the base model's direct kernel is the m-marginal.
    """
    base = build_mismatch_env(horizon=horizon)
    follow, flip = MEDIATOR_FOLLOW_PROB, 1.0 - MEDIATOR_FOLLOW_PROB
    mediator_dist = np.broadcast_to([[follow, flip], [flip, follow]], (2, 2, 2))  # [x, u, m]
    # P(x'|x,m,w) reuses the mismatch law with the action slot driven by m.
    mediated_transition = base.model.transition
    mediator = MediatorModel(
        mediator_dist=mediator_dist,
        mediated_transition=mediated_transition,
    )
    direct = np.einsum("xum,xmwy->xuwy", mediator_dist, mediated_transition)
    model = ConfoundedMdpModel(
        transition=direct,
        latent_dist=base.model.latent_dist,
        horizon=horizon,
        safe=base.model.safe,
        action_values=base.model.action_values,
        name="mediator-toy",
    )
    return EnvBundle(
        env_id="mediator-toy",
        model=model,
        behavioral=base.behavioral,
        mediator=mediator,
        default_x0=0,
    )


# --- registry -------------------------------------------------------------------


@dataclass(frozen=True)
class EnvBundle:
    """Everything a pipeline needs about one environment."""

    env_id: str
    model: ConfoundedMdpModel
    behavioral: TabularPolicy
    mediator: Optional[MediatorModel]
    default_x0: int
    encode: Optional[Callable] = None
    decode: Optional[Callable] = None


ENVIRONMENT_BUILDERS: dict[str, Callable[..., EnvBundle]] = {
    "driving": build_driving_env,
    "mismatch": build_mismatch_env,
    "mediator-toy": build_mediator_toy_env,
}


def build_environment(env_id: str, horizon: Optional[int] = None) -> EnvBundle:
    """Build a registered environment, optionally overriding its horizon."""
    if env_id not in ENVIRONMENT_BUILDERS:
        known = ", ".join(sorted(ENVIRONMENT_BUILDERS))
        raise ConfigurationError(f"unknown environment {env_id!r} (known: {known})")
    if horizon is None:
        return ENVIRONMENT_BUILDERS[env_id]()
    return ENVIRONMENT_BUILDERS[env_id](horizon=horizon)
