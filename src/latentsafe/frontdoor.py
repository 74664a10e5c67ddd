"""Front-door estimation of safety values from confounded offline data.

Logged data are biased: the behavioral policy saw the latent, so offline
conditionals P(x'|y,u,m) weight the latent by P(w|x,u) instead of P(w|x).
With a mediator that intercepts the action's causal path, the online law is
still identified: marginalizing the logged action u' under its offline
marginal P_off(u'|y) inside P_off(x'|y,u',m) recovers the online mediated row

    P_onl(x'|y,m) = sum_{u'} P_off(u'|y) P_off(x'|y,u',m),

and pairing it with the (latent-free) mediator law P(m|y,u) yields the
online transition kernel. The fitted-Q evaluation below applies the same
marginalization to its per-cell least-squares targets, one remaining time at
a time, so it recovers the online mediator-conditioned Q function, the object
the safety certificate needs. The offline-conditional backup alone would
give a biased Q; the toolkit never exposes that object.

Tables enter through one dense contract, :class:`~latentsafe.data.OfflineTables`:
arrays over remaining time k for P_off(u'|y), P_off(m|y,u) and
P_off(x'|y,u',m), plus masks of the cells they define. Empirical count
tables and the exact closed-form tables both fill it, so the sampled and
exact-expectation variants share one code path and the exact variant is a
machine-precision oracle for the sampled one. Every step is a contraction
over all states at once; the fit backs up one remaining time k per step.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import OfflineTables
from .errors import (
    ConfigurationError,
    EpisodeEndError,
    FittedQConvergenceError,
    PositivityError,
    UnsupportedEnvironmentError,
)
from .mdp import (
    AugmentedState,
    ConfoundedMdpModel,
    MediatorModel,
    TabularPolicy,
    absorbing_rows,
    behavioral_weights,
    check_offline_support,
    divide_or_zero,
)
from .oracle import TabularQ, write_cells_csv


def exact_offline_tables(
    model: ConfoundedMdpModel,
    mediator: MediatorModel,
    behavioral: TabularPolicy,
) -> OfflineTables:
    """Exact offline tables for a mediator-equipped environment.

    The absorbing auxiliary process is time-homogeneous, so each table is
    one (x, ...) array broadcast over k: at safe states the action marginal
    is sum_w P(w|x) pi_b(u|x,w), the mediator law is P(m|x,u), and
    transitions weight the latent by P(w|x,u); unsafe states freeze in
    place. Every cell counts as seen, which makes these tables the oracle
    counterpart of empirical ones. The weights, support check and zero-guarded
    ratio are those of :func:`~latentsafe.mdp.p_offline_matrix`: a blind or
    mis-shaped behavioral table, like a mediator that does not fit the
    model, raises ``ModelError``, an unplayed safe (x, u) cell
    ``PositivityError``.
    """
    if mediator is None:
        raise UnsupportedEnvironmentError("environment has no mediator structure")
    mediator.check_fits(model)
    n, nu, nm = model.n_states, model.n_actions, mediator.n_mediators
    weight = behavioral_weights(model, behavioral)
    action_marginal = weight.sum(axis=2)
    check_offline_support(model, action_marginal > 0.0)
    latent_given_action = divide_or_zero(weight, action_marginal)
    next_rows = np.einsum("xuw,xmwy->xumy", latent_given_action, mediator.mediated_transition)
    next_rows = absorbing_rows(model, next_rows.reshape(n, nu * nm, n)).reshape(n, nu, nm, n)

    def over_k(table: np.ndarray) -> np.ndarray:
        return np.broadcast_to(table, (model.horizon + 1,) + table.shape)

    return OfflineTables(
        action_law=over_k(action_marginal),
        mediator_law=over_k(mediator.mediator_dist),
        next_law=over_k(next_rows),
        seen_state=over_k(np.ones(n, dtype=bool)),
        seen_action=over_k(np.ones((n, nu), dtype=bool)),
        seen_cell=over_k(np.ones((n, nu, nm), dtype=bool)),
    )


def front_door_online_kernel(
    tables: OfflineTables, y: AugmentedState, u: int
) -> np.ndarray:
    """Online auxiliary transition row over x' (remaining time lands at k - 1).

    Combines three offline conditionals per the front-door adjustment:
    sum_m P_off(m|u,y) sum_{u'} P_off(u'|y) P_off(x'|y,u',m).
    """
    x, k = y
    if k < 1:
        raise EpisodeEndError(f"no transition remains from augmented state {tuple(y)}")
    if not tables.seen_state[k, x]:
        raise PositivityError(f"state cell {tuple(y)} absent from offline tables", cell=tuple(y))
    if not tables.seen_action[k, x, u]:
        raise PositivityError(
            f"action cell (y={tuple(y)}, u={u}) absent from offline tables",
            cell=(tuple(y), u),
        )
    pa, pm = tables.action_law[k, x], tables.mediator_law[k, x, u]
    # (m, u') cells with positive weight in the double sum must be seen
    absent = np.argwhere((pm[:, None] > 0) & (pa[None, :] > 0) & ~tables.seen_cell[k, x].T)
    if absent.size:
        m, u_prime = (int(i) for i in absent[0])
        raise PositivityError(
            f"transition cell (y={tuple(y)}, u'={u_prime}, m={m}) absent "
            "from offline tables",
            cell=(tuple(y), u_prime, m),
        )
    return np.einsum("u,m,umy->y", pa, pm, tables.next_law[k, x])


# ---------------------------------------------------------------------------
# Fitted mediator-Q evaluation, one backward pass
# ---------------------------------------------------------------------------


@dataclass
class FittedQm:
    """Fitted online mediator-conditioned Q with convergence diagnostics."""

    values: np.ndarray  # (H+1, n, nu, nm), zeros at unavailable cells
    available: np.ndarray  # (H+1, n) bool: state cells with any data
    visited: np.ndarray  # (H+1, n, nu, nm) bool: cells observed in the data
    iterations: int  # rows filled, at most H + 1
    residual: float  # largest change one more row would make; 0.0 once complete
    default_cell_warnings: list[tuple[int, int, int, int]]


def _supported_policy(tables: OfflineTables, policy: TabularPolicy) -> np.ndarray:
    """The policy table over (k, x, u); a ``PositivityError`` where the policy
    plays an action at a seen state whose (y, u) cell the tables lack."""
    pi = np.broadcast_to(policy.table, tables.seen_action.shape)
    absent = np.argwhere(tables.seen_state[..., None] & (pi > 0) & ~tables.seen_action)
    if absent.size:
        k, x, u = (int(i) for i in absent[0])
        raise PositivityError(
            f"policy plays action {u} at (x={x}, k={k}) but the "
            "cell is absent from offline tables",
            cell=((x, k), u),
        )
    return pi


def _value_rows(qm: np.ndarray, tables: OfflineTables, pi: np.ndarray, rows: slice) -> np.ndarray:
    """V over the remaining times ``rows``, read from those rows of each table."""
    inner = np.einsum("kxu,kxum->kxm", tables.action_law[rows], qm[rows])
    per_action = np.einsum("kxum,kxm->kxu", tables.mediator_law[rows], inner)
    return np.einsum("kxu,kxu->kx", pi[rows], per_action)


def fitted_qm(
    model: ConfoundedMdpModel,
    policy: TabularPolicy,
    tables: OfflineTables,
    tolerance: float = 1e-10,
    max_iters: int = 1000,
) -> FittedQm:
    """Fit the mediator-Q table in one backward pass over remaining time k.

    Row 0 comes from the safe set and row k from row k - 1 alone, so each row
    is backed up once. The pass fills at most ``max_iters`` rows and stops
    after a row of zeros, as every later row is zero too. ``residual``, the
    largest entry one more row would hold (0.0 once the table is complete),
    must not exceed ``tolerance``."""
    if not policy.is_blind:
        raise ConfigurationError("fitted Q evaluation requires a latent-blind policy")
    if not tables.n_mediators:
        raise UnsupportedEnvironmentError("fitted mediator-Q requires mediated tables")
    pi = _supported_policy(tables, policy)
    qm = np.zeros(tables.seen_cell.shape)
    iterations, residual = 0, 0.0
    # Per-cell least squares gives G(y,u',m) = r(y) + E_off[V(Y')|y,u',m]; marginalizing
    # u' under P_off(u'|y) front-door-corrects the backup, so row k estimates the online
    # mediator-conditioned Q at every action. Unseen (u', m) cells get a conservative zero.
    reached = model.safe[:, None, None]
    for k in range(tables.horizon + 1):
        rows = slice(k, k + 1)
        if k:
            v_prev = _value_rows(qm, tables, pi, slice(k - 1, k))
            reached = np.einsum("kxumy,ky->kxum", tables.next_law[rows], v_prev)
        targets = np.where(tables.seen_cell[rows], reached, 0.0)
        row = np.clip(np.einsum("kxu,kxum->kxm", tables.action_law[rows], targets), 0.0, 1.0)
        if k >= max_iters:  # the change one more row would make
            residual = float(np.max(np.abs(row)))
            break
        qm[rows] = row[:, :, None, :]
        iterations = k + 1
        if not row.any():  # every later row backs up zeros to zeros
            break
    if not residual <= tolerance:  # a NaN residual fails too
        raise FittedQConvergenceError(
            f"fitted-Q did not converge in {iterations} sweeps "
            f"(sup-norm residual {residual:.3e})",
            residual=residual,
            iterations=iterations,
        )
    # cells a backup reads as zero: unseen (u', m) under a supported u'
    defaulted = (
        tables.seen_state[..., None, None]
        & (tables.action_law > 0)[..., None]
        & ~tables.seen_cell
    )
    return FittedQm(
        values=qm,
        available=tables.seen_state,
        visited=tables.seen_cell,
        iterations=iterations,
        residual=residual,
        default_cell_warnings=[tuple(c) for c in np.argwhere(defaulted).tolist()],
    )


def fitted_q_table(fitted: FittedQm, tables: OfflineTables) -> TabularQ:
    """Marginal Q rows from the mediator-conditioned Q, available at fitted
    state cells where every action cell is seen. The mediator law is
    latent-free, so Q(y,u) = sum_m P_off(m|u,y) Q_M(y,u,m)."""
    return TabularQ(
        values=np.einsum("kxum,kxum->kxu", tables.mediator_law, fitted.values),
        available=fitted.available & tables.seen_action.all(axis=2),
    )


# ---------------------------------------------------------------------------
# CSV round-trip for fitted tables
# ---------------------------------------------------------------------------


def export_qm_csv(fitted: FittedQm, action_values: tuple[int, ...], path) -> None:
    """Dump visited fitted cells as (x, k, u, m, value) rows."""
    write_cells_csv(
        path, ["x", "k", "u", "m", "value"], fitted.values, fitted.available, action_values
    )


def load_q_table_csv(
    path, horizon: int, n_states: int, action_values: tuple[int, ...]
) -> TabularQ:
    """Load a reconstructed-Q dump of (x, k, u, value) rows back into a
    certificate source. Each listed (x, k) needs exactly one row per action,
    with a value in [0, 1]; anything else raises ConfigurationError naming
    the cell, and a file that is not CSV text raises one naming the file.

    A file in ``export_q_csv``'s layout that passes every check loads in one
    array parse (``_load_writer_layout``). Any other file is read once, one
    ``csv.reader`` row at a time. Columns are found by the names in the first
    row: a repeated name takes its last column, and a row too short for a
    named column is not a cell row. Blank rows are skipped and every other
    row is checked in turn, so an error names the first bad row by the file
    line it ends on."""
    table = _load_writer_layout(path, horizon, n_states, action_values)
    if table is not None:
        return table
    action_index = {u: i for i, u in enumerate(action_values)}
    shape = (horizon + 1, n_states, len(action_values))
    values = [0.0] * int(np.prod(shape))  # flat over (k, x, action index)
    filled = [False] * len(values)
    ints = {}  # the same few x, k and u texts recur row after row: int() each once
    with open(path, newline="") as fh:
        try:  # the checks raise only ConfigurationError; the reader, the others
            reader = csv.reader(fh)
            column = {name: j for j, name in enumerate(next(reader, []))}
            jx, jk, ju, jv = (column.get(name) for name in ("x", "k", "u", "value"))
            for row in reader:
                if not row:
                    continue
                try:  # a missing column (None) or a short row fails the lookup
                    sx, sk, su = row[jx], row[jk], row[ju]
                    x = ints[sx] if sx in ints else ints.setdefault(sx, int(sx))
                    k = ints[sk] if sk in ints else ints.setdefault(sk, int(sk))
                    u = ints[su] if su in ints else ints.setdefault(su, int(su))
                    value = float(row[jv])
                except (IndexError, TypeError, ValueError):
                    raise ConfigurationError(
                        f"{path}: line {reader.line_num} is not a cell row"
                    ) from None
                if not (0 <= k <= horizon and 0 <= x < n_states):
                    raise ConfigurationError(
                        f"table entry (x={x}, k={k}) does not fit an environment "
                        f"with {n_states} states and horizon {horizon}"
                    )
                i = action_index.get(u)
                if i is None:
                    raise ConfigurationError(
                        f"table entry (x={x}, k={k}, u={u}) names an unknown action"
                    )
                if not 0.0 <= value <= 1.0:
                    raise ConfigurationError(
                        f"table entry (x={x}, k={k}, u={u}) has value {value!r} outside [0, 1]"
                    )
                cell = (k * n_states + x) * len(action_values) + i
                if filled[cell]:
                    raise ConfigurationError(
                        f"{path}: line {reader.line_num} repeats table entry (x={x}, k={k}, u={u})"
                    )
                values[cell], filled[cell] = value, True
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"{path}: not CSV text ({exc})") from None
    values, filled = np.reshape(values, shape), np.reshape(filled, shape)
    available = filled.any(axis=2)
    partial = available & ~filled.all(axis=2)
    if partial.any():
        k, x = np.argwhere(partial)[0]
        u = action_values[np.argmin(filled[k, x])]
        raise ConfigurationError(
            f"table has no entry (x={x}, k={k}, u={u}) though it lists (x={x}, k={k})"
        )
    return TabularQ(values, available)


_WRITER_HEADER = "x,k,u,value\r\n"
_WRITER_BYTES = b"0123456789+-.e,\r\n"  # each byte of a finite value's row
_CELL_ROW = np.dtype([("x", np.int64), ("k", np.int64), ("u", np.int64), ("value", np.float64)])


def _load_writer_layout(
    path, horizon: int, n_states: int, action_values: tuple[int, ...]
) -> Optional[TabularQ]:
    """The table of a file in the writer's layout, or None. The file must
    start with the writer's header, and its rows must hold only the bytes
    the writer writes for finite values: over those, numpy's fields and
    ``int``/``float`` agree (past ASCII, or with its wider whitespace, numpy
    reads fields Python refuses), and both skip blank lines and end lines
    at CR LF or LF. The rows are parsed with one ``np.loadtxt`` and checked
    as arrays at once. A parse error or warning, an empty body or a failed
    check gives None, so that the row loop names the first bad line."""
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    body = text[len(_WRITER_HEADER):]
    if not (text.startswith(_WRITER_HEADER) and action_values):
        return None
    if body.encode().translate(None, _WRITER_BYTES):
        return None
    with warnings.catch_warnings():
        # an empty body only warns, and numpy 1.23 only warns on "3.0" as an int
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(io.StringIO(body), _CELL_ROW, delimiter=",", comments=None, ndmin=1)
        except (ValueError, Warning):
            return None
    x, k, u, value = (rows[name] for name in _CELL_ROW.names)
    order = np.argsort(action_values)
    known = np.asarray(action_values)[order]
    at = np.searchsorted(known, u, side="right") - 1  # -1 below every action value
    if not (
        ((0 <= x) & (x < n_states) & (0 <= k) & (k <= horizon)).all()
        and (known[at] == u).all()
        and ((0.0 <= value) & (value <= 1.0)).all()  # a NaN fails too
    ):
        return None
    shape = (horizon + 1, n_states, len(action_values))
    cell = (k * n_states + x) * len(action_values) + order[at]
    count = np.bincount(cell, minlength=int(np.prod(shape))).reshape(shape)
    available = count.any(axis=2)
    if count.max() > 1 or (count.all(axis=2) != available).any():
        return None
    values = np.zeros(shape)
    values.reshape(-1)[cell] = value
    return TabularQ(values, available)
