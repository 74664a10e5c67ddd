"""Concrete confounded environments.

Three instances ship:

* ``driving``      — a 1-D vehicle on a looped road with a varying speed limit
                     and latent road slipperiness that saps actuation. Each
                     rule (speed limit, P(w | x), logging policy, dynamics) is
                     written once, as an array function over every state.
* ``mismatch``     — a 2-state system whose offline statistics wildly
                     over-approximate online safety (the canonical bias demo).
* ``mediator-toy`` — the mismatch system extended with an observed mediator
                     that intercepts the action's effect, enabling front-door
                     estimation tests.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Callable, Optional

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


N_DRIVING_STATES = POSITION_PERIOD * (MAX_VELOCITY + 1)


def split_driving(code):
    """(position, velocity) of a driving state code, elementwise over an array."""
    return divmod(code, MAX_VELOCITY + 1)


def encode_driving(state: DrivingState) -> int:
    return state.position * (MAX_VELOCITY + 1) + state.velocity


def decode_driving(code: int) -> DrivingState:
    if not 0 <= code < N_DRIVING_STATES:
        raise EncodingError(f"unknown driving state code {code}")
    return DrivingState(*split_driving(code))


def _speed_limit(position: np.ndarray) -> np.ndarray:
    """Varying speed limit: 3 on the first four positions of each decade, else 5."""
    return np.where(position % 10 < 4, 3, 5)


def _latent_dist(position: np.ndarray) -> np.ndarray:
    """P(w | x), (n, nw): drier on positions 3-5 of each 6-block."""
    dry = (position % 6 >= 3)[:, None]
    return np.where(dry, [0.5, 0.5, 0.0, 0.0], [0.0, 1 / 3, 1 / 3, 1 / 3])


# Behavioral action rows: uniform, moderate braking, heavy braking.
_LOGGING_ROWS = np.array(
    [[0.2] * 5, [0.5, 0.4, 0.05, 0.04, 0.01], [0.9, 0.05, 0.03, 0.01, 0.01]]
)


def _barrier(position, velocity):
    """A truncated square-wave approximation of the varying speed limit,
    squashed by tanh into (-1, 1); elementwise over arrays."""
    series = sum(
        (4.0 / (n * math.pi)) * np.sin(-(math.pi / 5.0) * n * (position + 0.5))
        for n in (1, 3, 5, 7)
    )
    return np.tanh(4.5 + series - velocity)


def _logging_policy(velocity: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """Latent-aware logging policy P(u | x, w), (n, nw, nu): heavy braking for
    w = 3 within one of the speed limit, moderate braking for w >= 2 within two
    of it or w >= 1 within one, else uniform. The heavy-brake rows come first,
    so they win where the rules overlap (w = 3), as a driver brakes hardest on
    the most slippery road."""
    w = np.asarray(DRIVING_LATENTS)
    near = (velocity >= limit - 1)[:, None]
    close = (velocity >= limit - 2)[:, None]
    row = np.select([(w >= 3) & near, ((w >= 2) & close) | ((w >= 1) & near)], [2, 1], 0)
    return _LOGGING_ROWS[row]


def _driving_transition(
    position: np.ndarray, velocity: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """P(x'|x,u,w) with the noise marginalized, as the model's short rows:
    int64 successors and float64 probabilities, each (n, nu, nw, s).

    The dynamics: position advances by the current velocity (mod the road
    loop); the commanded acceleration u + n1 loses w of its magnitude to slip,
    then velocity noise n2 is added, and velocity clamps to [0, MAX_VELOCITY].
    They run over every (x, u, w, n1, n2) cell as one broadcast, the noise
    uniform on its range. Each (x, u, w) row sorts its cells' next states;
    a run of c equal ones is one successor whose probability is the c-fold
    sequential sum of 1/15, the sum a loop adding 1/15 per cell gives (c
    times 1/15 can differ in the last bit).
    """
    n, nu, nw = position.size, len(DRIVING_ACTIONS), len(DRIVING_LATENTS)
    # axes (x, u, w, n1, n2)
    a = np.reshape(DRIVING_ACTIONS, (nu, 1, 1, 1)) + np.reshape(N1_VALUES, (-1, 1))
    traction = np.sign(a) * np.maximum(0, np.abs(a) - np.reshape(DRIVING_LATENTS, (nw, 1, 1)))
    next_velocity = np.clip(
        velocity.reshape(n, 1, 1, 1, 1) + traction + np.asarray(N2_VALUES), 0, MAX_VELOCITY
    )
    next_position = (position + velocity) % POSITION_PERIOD
    next_code = next_position.reshape(n, 1, 1, 1, 1) * (MAX_VELOCITY + 1) + next_velocity
    cells = len(N1_VALUES) * len(N2_VALUES)
    codes = np.sort(next_code.reshape(n, nu, nw, cells), axis=-1)
    starts = np.ones(codes.shape, dtype=bool)
    starts[..., 1:] = codes[..., 1:] != codes[..., :-1]
    slot = np.cumsum(starts, axis=-1) - 1  # each cell's successor slot
    width = int(slot.max()) + 1
    row_slot = np.arange(n * nu * nw).reshape(n, nu, nw, 1) * width + slot
    run = np.bincount(row_slot.reshape(-1), minlength=n * nu * nw * width)
    successors = np.full((n, nu, nw, width), n - 1, dtype=np.int64)
    np.put_along_axis(successors, slot, codes, axis=-1)
    run_p = np.cumsum([0.0] + [1.0 / cells] * cells)  # c additions of 1/15 onto 0
    return successors, run_p[run.reshape(n, nu, nw, width)]


def build_driving_env(horizon: int = 10) -> "EnvBundle":
    """Driving environment, its noise marginalized into the short rows of
    P(x'|x,u,w): at most 7 successors per (x, u, w), not a dense row of 300."""
    position, velocity = split_driving(np.arange(N_DRIVING_STATES))
    limit = _speed_limit(position)
    successors, probs = _driving_transition(position, velocity)
    model = ConfoundedMdpModel(
        successors=successors,
        probs=probs,
        latent_dist=_latent_dist(position),
        horizon=horizon,
        safe=velocity <= limit,
        action_values=DRIVING_ACTIONS,
        name="driving",
        barrier=_barrier(position, velocity),
    )
    return EnvBundle(
        env_id="driving",
        model=model,
        behavioral=TabularPolicy(table=_logging_policy(velocity, limit)),
        mediator=None,
        default_x0=encode_driving(DrivingState(0, 0)),
        encode=lambda pv: encode_driving(DrivingState(*pv)),
        decode=lambda c: astuple(decode_driving(c)),
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
