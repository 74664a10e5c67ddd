"""Monte Carlo and exact evaluation of deployed controllers.

The harness rolls batches of closed-loop episodes on the true online
dynamics and reports three per-time curves:

* instantaneous safety — fraction of trajectories safe at time t;
* cumulative safety    — fraction safe at every time up to t;
* long-term safety     — probability that the remainder of the episode stays
  safe when the deployed controller runs up to t and the evaluation policy
  takes over, with the state frozen at the first failure (the quantity the
  certificate's induction controls; at t = 0 it is the plain policy value,
  at t = H the cumulative safety of the deployed controller).

Long-term safety is estimated two ways: pure Monte Carlo tail rollouts, and
a hybrid that replaces the tail with the exact value function (zero variance
at t = 0, lower everywhere). The same quantity is also computed exactly by
propagating the state distribution through the absorbing kernel, which is
the reference the Monte Carlo estimates are checked against.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .control import DeterministicController
from .errors import ConfigurationError
from .mdp import (
    ConfoundedMdpModel,
    TabularPolicy,
    absorbing_online_matrix,
    absorbing_rows,
    p_online_matrix,
)
from .oracle import TabularV, value_dp
from .seeding import CdfTable, cdf_table, derive_rng

Z_95 = 1.959963984540054  # two-sided 95% normal quantile
# Uniforms of one block of Monte Carlo batches (1 MB); a block holds at
# least one batch.
_BLOCK_DRAWS = 1 << 17

METRIC_INSTANTANEOUS = "instantaneous"
METRIC_CUMULATIVE = "cumulative"
METRIC_LONGTERM_HYBRID = "longterm_hybrid"
METRIC_LONGTERM_PURE = "longterm_pure"
METRIC_LONGTERM_EXACT = "longterm_exact"


@dataclass(frozen=True)
class CurveStats:
    """Per-time mean and 95% confidence band across simulation batches."""

    mean: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray

    @property
    def half_width(self) -> np.ndarray:
        return (self.ci_hi - self.ci_lo) / 2.0


@dataclass(frozen=True)
class ExperimentResult:
    """Curves and metadata of one controller's evaluation run, immutable.

    ``curves`` holds the four Monte Carlo curves and the exact long-term
    curve (``longterm_exact``, a zero-width band).
    """

    env_id: str
    controller_id: str
    horizon: int
    epsilon: float
    batches: int
    trajs_per_batch: int
    x0: int
    seed: int
    curves: dict[str, CurveStats]


def _block_curves(
    model: ConfoundedMdpModel,
    controller: DeterministicController,
    value: TabularV,
    tail_cdf: CdfTable,
    online_cdf: CdfTable,
    uniforms: np.ndarray,
    x0: int,
) -> dict[str, np.ndarray]:
    """Curves of a block of batches stepped in lockstep, each (batches, H+1).

    ``uniforms`` is (batches, H + H(H+1)/2, trajs): per batch, H rows for
    the rollout, then the tails of H, H-1, ..., 1 steps switched in at
    t = 0, 1, ..., H-1 (the tail at t = H takes none). Means run over the
    contiguous trajectory axis. ``tail_cdf`` keeps an unsafe state where it
    is, so a tail ends safe exactly when every state it visited was safe.
    """
    h = model.horizon
    path = np.empty((len(uniforms), h + 1, uniforms.shape[-1]), dtype=np.int64)
    path[:, 0] = x0
    for t in range(h):
        states = path[:, t]
        actions = controller.action_table[t, states]
        path[:, t + 1] = online_cdf.draw((states, actions), uniforms[:, t])
    safe_path = model.safe[path]
    prefix_safe = np.logical_and.accumulate(safe_path, axis=1)
    remaining = h - np.arange(h + 1)
    hybrid = (prefix_safe * value.values[remaining[:, None], path]).mean(axis=-1)
    # uniform row of tail t's first step; step s moves the tails t < H - s
    first_row = h + np.cumsum(remaining) - remaining
    tail = path.copy()
    for s in range(h):
        live = h - s
        tail[:, :live] = tail_cdf.draw((tail[:, :live],), uniforms[:, first_row[:live] + s])
    return {
        METRIC_INSTANTANEOUS: safe_path.mean(axis=-1),
        METRIC_CUMULATIVE: prefix_safe.mean(axis=-1),
        METRIC_LONGTERM_HYBRID: hybrid,
        METRIC_LONGTERM_PURE: (prefix_safe & model.safe[tail]).mean(axis=-1),
    }


def run_experiment(
    model: ConfoundedMdpModel,
    controller: DeterministicController,
    policy: TabularPolicy,
    x0: int,
    seed: int,
    epsilon: float,
    batches: int = 100,
    trajs_per_batch: int = 100,
    env_id: str = "",
    value: Optional[TabularV] = None,
    max_workers: int = 1,
) -> ExperimentResult:
    """Roll ``batches`` x ``trajs_per_batch`` episodes and aggregate curves;
    the result also carries the exact long-term curve from ``x0``.

    Batch b draws all its uniforms from the derived stream (seed, b) in one
    call. Blocks of batches are stepped in lockstep, run on ``max_workers``
    threads and reduced in block order, so the result is identical for any
    worker count and block size.
    """
    model.check_state(x0)
    if not policy.is_blind:
        raise ConfigurationError("the evaluation policy must be latent-blind")
    for name, size in (("batches", batches), ("trajs_per_batch", trajs_per_batch)):
        if size < 1:
            raise ConfigurationError(f"{name} must be an integer >= 1, got {size!r}")
    if value is None:
        value = value_dp(model, policy)
    exact = exact_long_term_curve(model, controller, policy, x0, value)
    online = p_online_matrix(model)
    online_cdf = cdf_table(online)
    # the tails freeze at an unsafe state, as the DP's absorbing kernel does
    tail_kernel = np.einsum("xu,xuy->xy", policy.table, online)[:, None]
    tail_cdf = cdf_table(absorbing_rows(model, tail_kernel)[:, 0])
    h = model.horizon
    draws = h + h * (h + 1) // 2
    per_block = max(1, _BLOCK_DRAWS // max(1, draws * trajs_per_batch))

    def one_block(lo: int) -> dict[str, np.ndarray]:
        uniforms = np.empty((min(per_block, batches - lo), draws, trajs_per_batch))
        for i, batch_uniforms in enumerate(uniforms):
            derive_rng(seed, lo + i).random(out=batch_uniforms)
        return _block_curves(model, controller, value, tail_cdf, online_cdf, uniforms, x0)

    starts = range(0, batches, per_block)
    if max_workers <= 1:
        results = [one_block(lo) for lo in starts]
    else:
        from concurrent.futures import ThreadPoolExecutor  # only threaded runs pay its import
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(one_block, starts))
    curves = {METRIC_LONGTERM_EXACT: CurveStats(mean=exact, ci_lo=exact, ci_hi=exact)}
    for metric in results[0]:
        stacked = np.concatenate([r[metric] for r in results])  # (batches, h+1)
        mean = stacked.mean(axis=0)
        if batches > 1:
            half = Z_95 * stacked.std(axis=0, ddof=1) / np.sqrt(batches)
        else:
            half = np.zeros_like(mean)
        curves[metric] = CurveStats(mean=mean, ci_lo=mean - half, ci_hi=mean + half)
    return ExperimentResult(
        env_id=env_id,
        controller_id=controller.controller_id,
        horizon=model.horizon,
        epsilon=epsilon,
        batches=batches,
        trajs_per_batch=trajs_per_batch,
        x0=int(x0),
        seed=int(seed),
        curves=curves,
    )


def exact_long_term_curve(
    model: ConfoundedMdpModel,
    controller: DeterministicController,
    policy: TabularPolicy,
    x0: int,
    value: Optional[TabularV] = None,
) -> np.ndarray:
    """Exact long-term safety at every switch time t, no sampling error.

    Propagates the state distribution through the absorbing online kernel,
    each state's row gathered at the action ``controller.action_table``
    plays there, then takes the value of the evaluation policy over the
    remaining time. Equals ``oracle.mixed_policy_long_term_safety`` at
    every t, byte for byte.
    """
    model.check_state(x0)
    if value is None:
        value = value_dp(model, policy)
    absorbing = absorbing_online_matrix(model)
    actions = controller.action_table
    h = model.horizon
    dist = np.zeros(model.n_states)
    dist[x0] = 1.0
    curve = np.empty(h + 1)
    for t in range(h + 1):
        curve[t] = float(dist @ value.values[h - t])
        if t < h:
            # reachable states only; the axis-0 sum adds their rows in index
            # order, the same float result as a running sum over x
            live = np.flatnonzero(dist > 0.0)
            dist = (dist[live, None] * absorbing[live, actions[t, live]]).sum(axis=0)
    return curve


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def emit_report(results: list[ExperimentResult], out_dir, epsilon: float, extra: Optional[dict] = None) -> dict:
    """Write curves.csv and summary.json; returns the summary dictionary.

    The CSV layout is one (t, metric, mean, ci_lo, ci_hi, controller) row per
    curve point, exact curves included with a zero-width band. Field order
    and float formatting are fixed, so identical results produce identical
    bytes.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    curves_path = os.path.join(out_dir, "curves.csv")
    threshold = 1.0 - epsilon
    with open(curves_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "metric", "mean", "ci_lo", "ci_hi", "controller"])
        for result in results:
            for metric in sorted(result.curves):
                stats = result.curves[metric]
                for t in range(len(stats.mean)):
                    writer.writerow(
                        [
                            t,
                            metric,
                            repr(float(stats.mean[t])),
                            repr(float(stats.ci_lo[t])),
                            repr(float(stats.ci_hi[t])),
                            result.controller_id,
                        ]
                    )
    summary: dict = {
        "threshold": threshold,
        "epsilon": epsilon,
        "controllers": {},
    }
    for result in results:
        exact = result.curves[METRIC_LONGTERM_EXACT].mean
        hybrid = result.curves[METRIC_LONGTERM_HYBRID]
        within = np.abs(hybrid.mean - exact) <= hybrid.half_width + 1e-12
        summary["controllers"][result.controller_id] = {
            "env": result.env_id,
            "horizon": result.horizon,
            "batches": result.batches,
            "trajs_per_batch": result.trajs_per_batch,
            "x0": result.x0,
            "seed": result.seed,
            "longterm_exact_min": float(exact.min()),
            "meets_threshold_at_all_t": bool((exact >= threshold).all()),
            "mc_within_ci_of_exact": bool(within.all()),
        }
    if extra:
        summary.update(extra)
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
