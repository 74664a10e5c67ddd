"""Exact ground-truth safety computations.

Backward dynamic programming over the absorbing auxiliary MDP yields the
long-term safe probability as a value function: V(x, k) is the probability
that the system stays safe for the remaining k steps under a given policy.
A brute-force trajectory enumeration of the same probability ships as an
independent oracle for small instances, and a mixed-policy propagator
evaluates the safety of a deployed controller followed by a nominal policy.

The horizon is finite, so every sweep is a single exact pass; there is no
discounting and no iteration to convergence.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    CertificateUnavailableError,
    ConfigurationError,
    EnumerationSizeError,
    UnsupportedEnvironmentError,
)
from .mdp import (
    ConfoundedMdpModel,
    MediatorModel,
    TabularPolicy,
    absorbing_online_matrix,
    absorbing_rows,
    p_online_matrix,
)

BRUTE_FORCE_GUARD = 10**7
_CSV_ROWS = 1024  # rows per chunk of a cell CSV: few live tokens, no added peak RSS


@dataclass(frozen=True)
class TabularV:
    """Value table V(x, k) = long-term safe probability with k steps remaining."""

    values: np.ndarray  # (horizon + 1, n_states)

    def value(self, x: int, k: int) -> float:
        return float(self.values[k, x])


@dataclass(frozen=True)
class TabularQ:
    """Action-value table Q((x, k), u) of the absorbing auxiliary MDP: the
    rows the certificate reads, exact (every row available) or estimated from
    offline data (rows only where the data define them)."""

    values: np.ndarray  # (horizon + 1, n_states, n_actions)
    available: np.ndarray  # (horizon + 1, n_states) bool: the rows that exist

    @property
    def horizon(self) -> int:
        return self.values.shape[0] - 1

    def q_row(self, x: int, k: int) -> np.ndarray:
        if not self.available[k, x]:
            raise CertificateUnavailableError(x, k)
        return self.values[k, x]


@dataclass(frozen=True)
class TabularQm:
    """Mediator-conditioned action-value table Q_M((x, k), u, m)."""

    values: np.ndarray  # (horizon + 1, n_states, n_actions, n_mediators)


def _dp_sweep(
    model: ConfoundedMdpModel, policy: TabularPolicy
) -> tuple[np.ndarray, np.ndarray]:
    """One backward sweep building Q and V together: Q((x,k),u) = E[V(x', k-1)]
    under the absorbing online kernel, V((x,k)) its policy average at safe
    states, and Q((x,0),u) = V((x,0)) = 1{C(x)}."""
    if not policy.is_blind:
        raise ConfigurationError("dynamic programming requires a latent-blind policy")
    if policy.table.shape != (model.n_states, model.n_actions):
        raise ConfigurationError("policy table does not cover all states and actions")
    absorbing = absorbing_online_matrix(model)
    h = model.horizon
    q = np.empty((h + 1, model.n_states, model.n_actions))
    v = np.empty((h + 1, model.n_states))
    v[0] = model.safe.astype(float)
    q[0] = v[0][:, None]
    for k in range(1, h + 1):
        q[k] = absorbing @ v[k - 1]  # (x,u,y) @ (y,) -> (x,u)
        v[k] = _policy_average(model, policy, q[k])
    return q, v


def _policy_average(model: ConfoundedMdpModel, policy: TabularPolicy, q: np.ndarray) -> np.ndarray:
    """V from Q rows (..., n, nu): their policy average at safe states, 0 at unsafe ones."""
    return np.where(model.safe, (policy.table * q).sum(axis=-1), 0.0)


def q_dp(model: ConfoundedMdpModel, policy: TabularPolicy) -> TabularQ:
    """Exact Q by backward DP over the absorbing online kernel."""
    q = _dp_sweep(model, policy)[0]
    return TabularQ(values=q, available=np.ones(q.shape[:2], dtype=bool))


def value_dp(model: ConfoundedMdpModel, policy: TabularPolicy) -> TabularV:
    """Exact V by backward DP: the policy average of the Q of :func:`q_dp`."""
    return TabularV(values=_dp_sweep(model, policy)[1])


def value_from_q(model: ConfoundedMdpModel, policy: TabularPolicy, q: TabularQ) -> TabularV:
    """The V of the Q that :func:`q_dp` gives for ``policy``, without a second
    sweep: the same policy average, and V(x, 0) = 1{C(x)}, so it equals
    :func:`value_dp` byte for byte."""
    v = _policy_average(model, policy, q.values)
    v[0] = model.safe
    return TabularV(values=v)


def qm_dp(
    model: ConfoundedMdpModel, mediator: MediatorModel, policy: TabularPolicy
) -> TabularQm:
    """Exact mediator-conditioned Q under online statistics.

    Conditioning on the mediator screens off the action online, so the rows
    are built from P(x'|x,m) = sum_w P(w|x) P(x'|x,m,w) at safe states and
    the frozen point mass at unsafe ones; the u axis is kept for interface
    parity with estimated tables.
    """
    if mediator is None:
        raise UnsupportedEnvironmentError("environment has no mediator structure")
    mediator.check_fits(model)
    h = model.horizon
    n, nu, nm = model.n_states, model.n_actions, mediator.n_mediators
    # online mediated rows: (x, m, x')
    med_rows = absorbing_rows(
        model, np.einsum("xw,xmwy->xmy", model.latent_dist, mediator.mediated_transition)
    )
    v = value_dp(model, policy).values
    qm = np.empty((h + 1, n, nu, nm))
    qm[0] = model.safe.astype(float)[:, None, None]
    qm[1:] = np.einsum("xmy,ky->kxm", med_rows, v[:-1])[:, :, None, :]
    return TabularQm(values=qm)


def brute_force_psi(
    model: ConfoundedMdpModel, policy: TabularPolicy, x: int, t: int
) -> float:
    """Long-term safe probability by literal trajectory enumeration.

    Sums, over every visible trajectory x_{t:H} of the *raw* online chain
    under ``policy``, the product of one-step probabilities times the
    indicator that every visited state is safe. Independent of the DP path:
    no absorption, no value reuse.
    """
    model.check_state(x)
    if not 0 <= t <= model.horizon:
        raise ConfigurationError(f"time {t} outside the episode [0, {model.horizon}]")
    steps = model.horizon - t
    if model.n_states**steps > BRUTE_FORCE_GUARD:
        raise EnumerationSizeError(
            f"{model.n_states}^{steps} trajectories exceed the enumeration guard"
        )
    if not model.safe[x]:
        return 0.0
    online = p_online_matrix(model)
    total = 0.0
    for tail in itertools.product(range(model.n_states), repeat=steps):
        prob = 1.0
        current = x
        for nxt in tail:
            if not model.safe[nxt]:
                prob = 0.0
                break
            prob *= float(policy.action_probs(current) @ online[current, :, nxt])
            if prob == 0.0:
                break
            current = nxt
        total += prob
    return total


def mixed_policy_long_term_safety(
    model: ConfoundedMdpModel,
    controller: Callable[[int, int], np.ndarray],
    policy: TabularPolicy,
    t: int,
    x0: int,
) -> float:
    """Exact long-term safety when ``controller`` runs for t steps, then ``policy``.

    ``controller(x, t)`` returns the action distribution the deployed
    controller plays at (x, t); deterministic controllers return a point
    mass. The visible-state distribution is propagated through the absorbing
    online kernel for t steps and then dotted with V(x, H - t).
    """
    model.check_state(x0)
    if not 0 <= t <= model.horizon:
        raise ConfigurationError(f"time {t} outside the episode [0, {model.horizon}]")
    v = value_dp(model, policy)
    absorbing = absorbing_online_matrix(model)
    dist = np.zeros(model.n_states)
    dist[x0] = 1.0
    for step in range(t):
        nxt = np.zeros(model.n_states)
        for x in np.flatnonzero(dist > 0.0):
            action_dist = controller(int(x), step)
            nxt += dist[x] * (action_dist @ absorbing[x])
        dist = nxt
    return float(dist @ v.values[model.horizon - t])


def write_cells_csv(
    path, columns: list[str], values: np.ndarray, available=None, action_values=()
) -> None:
    """Write one (x, k, [u, [m,]] value) row per cell of ``values``, whose
    axes are (k, x, u, m), at every available (k, x), in (k, x, u, m) order.
    Action indices are written as their action values.

    The bytes are ``csv.writer``'s: no field needs quoting, ints as ``str``,
    floats as ``repr``. Every field comes from a lookup: an int field with
    its comma from one over its axis, and a value from its bit pattern's
    token (so -0.0 and 0.0 stay apart). The distinct values are spelled by
    one ``json.dumps`` of their list, which writes a finite float as
    ``repr`` does (NaN and the infinities keep ``repr``'s spelling). Rows go
    out ``_CSV_ROWS`` at a time, each chunk one join of a flat token list."""
    if available is None:
        available = np.ones(values.shape[:2], dtype=bool)
    mask = np.broadcast_to(
        available.reshape(available.shape + (1,) * (values.ndim - 2)), values.shape
    )
    floats = values[mask].astype(np.float64, copy=False)
    bits, index = np.unique(floats.view(np.uint64), return_inverse=True)
    distinct = bits.view(np.float64)
    listed = json.dumps(distinct.tolist())[1:-1]
    tokens = listed.split(", ") if listed else []
    for i in np.flatnonzero(~np.isfinite(distinct)):
        tokens[i] = repr(float(distinct[i]))
    n_k, n_x, *_ = values.shape
    labels = [range(n_x), range(n_k), action_values, *map(range, values.shape[3:])]
    lookups = [np.array([f"{v}," for v in label], dtype=object) for label in labels]
    lookups = [*lookups[: values.ndim], np.array(tokens, dtype=object)]
    k, x, *rest = np.argwhere(mask).T
    fields = (x, k, *rest, index)
    width = len(fields) + 1  # a row's tokens: its fields, then CR LF
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        for start in range(0, len(floats), _CSV_ROWS):
            rows = slice(start, start + _CSV_ROWS)
            flat = ["\r\n"] * (len(floats[rows]) * width)
            for j, (field, lookup) in enumerate(zip(fields, lookups)):
                flat[j::width] = lookup[field[rows]].tolist()
            fh.write("".join(flat))


def export_v_csv(v: TabularV, path) -> None:
    """Flat dump of a value table: one (state, k, value) row per entry."""
    write_cells_csv(path, ["x", "k", "value"], v.values)


def export_q_csv(q: TabularQ, action_values: tuple[int, ...], path) -> None:
    """Flat dump of a Q table: one (state, k, action, value) row per entry of
    each available row."""
    write_cells_csv(path, ["x", "k", "u", "value"], q.values, q.available, action_values)
