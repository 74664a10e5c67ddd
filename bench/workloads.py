"""The three workloads: the CLI commands each runs and the oracle checks
its outputs must pass.

Checks compare outputs with the package's exact oracles (DP, the
mixed-policy propagator) and with properties the pipeline guarantees; none
compares a file hash, so a change of random stream is not a failure.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
import yaml

EXACT_TOL = 1e-12
# Monte Carlo curves must lie within this many 95% CI half-widths of the exact
# curve at every t. Each pass tests 22 points (11 times, 2 controllers); at 2
# half-widths, 3 of 150 seeds failed on correct code, while 3 (5.9 sigma per
# point) keeps the per-seed false-alarm rate below 1e-6.
CI_HALF_WIDTHS = 3
# z-score of the sampling bound on fitted Q; large enough that a correct
# estimate essentially never trips it, while a grossly wrong cell still does.
SAMPLING_Z = 6.0

# Sizes are fixed: a change of size is a change of benchmark.
SIZES = {
    "repro-driving": {"batches": 100, "trajectories": 100},
    "offline-toy": {"episodes": 100_000, "control_episodes": 1000},
    "offline-driving": {"episodes": 20_000, "control_episodes": 2000},
}

ENVS = {
    "repro-driving": ("driving", 10),
    "offline-toy": ("mediator-toy", 3),
    "offline-driving": ("driving", 10),
}


def commands(workload: str, work: str, seed: int, sizes: dict) -> list[list[str]]:
    """The argv of each CLI command of one pass, in order."""
    env, horizon = ENVS[workload]
    settings = {"env": env, "horizon": horizon}
    if workload == "repro-driving":
        settings["evaluation"] = {
            "batches": sizes["batches"], "trajectories": sizes["trajectories"], "max_workers": 1,
        }
    cfg = os.path.join(work, "config.yaml")
    with open(cfg, "w") as fh:
        yaml.safe_dump(settings, fh)
    p = lambda name: os.path.join(work, name)  # noqa: E731
    s = str(seed)
    if workload == "repro-driving":
        return [["reproduce", "--config", cfg, "--seed", s, "--max-workers", "1",
                 "--out", p("reproduce")]]
    n = str(sizes["episodes"])
    episodes = str(sizes["control_episodes"])
    data = [
        ["gen-data", "--config", cfg, "--n", n, "--seed", s, "--out", p("raw.jsonl")],
        ["convert", "--config", cfg, "--input", p("raw.jsonl"), "--output", p("converted.jsonl")],
    ]
    if workload == "offline-toy":
        return data + [
            ["fit-q", "--config", cfg, "--dataset", p("converted.jsonl"), "--out", p("fit-data")],
            ["fit-q", "--config", cfg, "--exact", "--out", p("fit-exact")],
            ["run-control", "--config", cfg, "--q-csv", p("fit-data/q.csv"),
             "--episodes", episodes, "--seed", s, "--out", p("control")],
        ]
    return data + [
        ["export-oracle", "--config", cfg, "--out", p("oracle")],
        ["run-control", "--config", cfg, "--episodes", episodes, "--seed", s,
         "--out", p("control-oracle")],
        ["run-control", "--config", cfg, "--q-csv", p("oracle/oracle_q.csv"),
         "--episodes", episodes, "--seed", s, "--out", p("control-csv")],
    ]


def output_files(workload: str) -> list[str]:
    """Outputs whose hashes are recorded with each result, for information."""
    return {
        "repro-driving": ["reproduce/curves.csv", "reproduce/summary.json"],
        "offline-toy": ["raw.jsonl", "converted.jsonl", "fit-data/q.csv", "fit-data/qm.csv",
                        "fit-exact/q.csv", "fit-exact/qm.csv", "control/trajectories.jsonl"],
        "offline-driving": ["raw.jsonl", "converted.jsonl", "oracle/oracle_q.csv",
                            "oracle/oracle_v.csv", "control-oracle/trajectories.jsonl",
                            "control-csv/trajectories.jsonl"],
    }[workload]


# ---------------------------------------------------------------------------
# Oracles (seed-independent, computed once per run)
# ---------------------------------------------------------------------------


def prepare(workload: str) -> dict:
    from latentsafe.cli import DEFAULT_CONFIG
    from latentsafe.control import (
        MODE_MAX_ACTION, CertificateConfig, DtcbfParams, OfflineKernel,
        dtcbf_controller, proposed_controller,
    )
    from latentsafe.envs import build_environment
    from latentsafe.mdp import p_offline_matrix, uniform_policy
    from latentsafe.oracle import mixed_policy_long_term_safety, q_dp, qm_dp, value_dp

    env_id, horizon = ENVS[workload]
    env = build_environment(env_id, horizon=horizon)
    model = env.model
    policy = uniform_policy(model.n_states, model.n_actions)
    q = q_dp(model, policy)
    value = value_dp(model, policy)
    oracle = {
        "horizon": horizon,
        "safe": model.safe.copy(),
        "action_values": tuple(model.action_values),
        "q": q.values,
        "v": value.values,
    }
    if env.mediator is not None:
        oracle["qm"] = qm_dp(model, env.mediator, policy).values
    if workload == "repro-driving":
        x0 = env.default_x0
        cert = CertificateConfig(epsilon=DEFAULT_CONFIG["epsilon"], selection_mode=MODE_MAX_ACTION)
        params = DtcbfParams(**DEFAULT_CONFIG["dtcbf"])
        controllers = (
            proposed_controller(model, q, policy, cert),
            dtcbf_controller(model, OfflineKernel(*p_offline_matrix(model, env.behavioral)), params),
        )
        oracle["v0"] = value.value(x0, horizon)
        oracle["longterm"] = {
            c.controller_id: np.array([
                mixed_policy_long_term_safety(model, c.action_distribution, policy, t, x0)
                for t in range(horizon + 1)
            ])
            for c in controllers
        }
    return oracle


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------


def read_episodes(path: str) -> dict:
    """A JSONL dataset as (episodes, H+1) arrays, one per recorded field."""
    fields: dict[str, list] = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            for key, val in rec.items():
                fields.setdefault(key, []).append(val)
    # seeds are unsigned 64-bit; every other field is a small index
    return {
        key: np.array(vals, dtype=np.uint64 if key == "seed" else np.int64)
        for key, vals in fields.items()
    }


def read_table(path: str, columns: tuple[str, ...]) -> list[tuple]:
    with open(path, newline="") as fh:
        return [
            tuple(int(row[c]) for c in columns) + (float(row["value"]),)
            for row in csv.DictReader(fh)
        ]


# ---------------------------------------------------------------------------
# Checks: each returns True when the output is right
# ---------------------------------------------------------------------------


def table_matches(path: str, expected: np.ndarray, action_values: tuple) -> bool:
    """Every cell of ``expected`` (k, x, u[, m]) appears once, within EXACT_TOL."""
    columns = ("k", "x", "u", "m")[: expected.ndim]
    action = {u: i for i, u in enumerate(action_values)}
    seen = np.zeros(expected.shape, dtype=np.int64)
    for *idx, value in read_table(path, columns):
        if len(idx) > 2:
            idx[2] = action[idx[2]]
        idx = tuple(idx)
        seen[idx] += 1
        if not abs(value - expected[idx]) <= EXACT_TOL:
            return False
    return bool((seen == 1).all())


def frozen_after_failure(raw: dict, conv: dict, safe: np.ndarray, horizon: int) -> bool:
    """Converted x follows raw x up to the first unsafe state and stays there;
    k runs from H down to 0; seeds, actions and mediators are copied."""
    x = raw["x"]
    if conv["x"].shape != x.shape or x.shape[1] != horizon + 1:
        return False
    if not (conv["k"] == np.arange(horizon, -1, -1)).all():
        return False
    unsafe = ~safe[x]
    first_fail = np.where(unsafe.any(axis=1), unsafe.argmax(axis=1), horizon)
    idx = np.minimum(np.arange(horizon + 1), first_fail[:, None])
    if not (conv["x"] == np.take_along_axis(x, idx, axis=1)).all():
        return False
    return all(
        key in conv and (conv[key] == raw[key]).all() for key in raw if key != "x"
    )


def sampling_bound(conv: dict, safe: np.ndarray, horizon: int, n_actions: int,
                   n_mediators: int) -> np.ndarray:
    """Per remaining time k, a bound on |fitted Q - Q| from the data's cell counts.

    A backup at level j estimates three conditionals (action, mediator and
    next-state laws) from at least n_j samples each, where n_j is the smallest
    count of a (j, x, u', m) cell the backup uses at a safe state. Each adds
    at most SAMPLING_Z * sqrt(1/4n_j) error, and level j also inherits the
    error of level j - 1. A cell left unobserved makes the level vacuous.
    """
    n = safe.size
    counts = np.zeros((horizon + 1, n, n_actions, n_mediators), dtype=np.int64)
    k = np.broadcast_to(np.arange(horizon, -1, -1), conv["x"].shape)
    np.add.at(counts, (k, conv["x"], conv["u"], conv["m"]), 1)
    step = np.zeros(horizon + 1)
    for j in range(1, horizon + 1):
        cells = counts[j][safe & (counts[j].sum(axis=(1, 2)) > 0)]  # (x, u', m)
        used = cells[cells.sum(axis=2) > 0]  # rows of supported u'
        n_j = int(used.min()) if used.size else 0
        step[j] = 3 * SAMPLING_Z * math.sqrt(0.25 / n_j) if n_j else 1.0
    return np.cumsum(step)


def fitted_within_bound(path: str, q: np.ndarray, bound: np.ndarray, action_values) -> bool:
    action = {u: i for i, u in enumerate(action_values)}
    rows = read_table(path, ("k", "x", "u"))
    return bool(rows) and all(
        abs(value - q[k, x, action[u]]) <= bound[k] + EXACT_TOL for k, x, u, value in rows
    )


def feasible_margins_ok(path: str) -> tuple[int, bool]:
    """(line count, every feasible step has S >= -1e-12)."""
    lines = ok = 0
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            lines += 1
            ok += (not rec["feasible"]) or rec["S"] >= -EXACT_TOL
    return lines, ok == lines


def _repro_checks(work: str, oracle: dict) -> dict[str, bool]:
    out = os.path.join(work, "reproduce")
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    curves: dict[tuple[str, str], dict[int, tuple[float, float, float]]] = {}
    with open(os.path.join(out, "curves.csv"), newline="") as fh:
        for row in csv.DictReader(fh):
            curves.setdefault((row["controller"], row["metric"]), {})[int(row["t"])] = (
                float(row["mean"]), float(row["ci_lo"]), float(row["ci_hi"]))
    checks = {"v0_matches_value_dp": abs(summary["v0"] - oracle["v0"]) <= EXACT_TOL}
    ts = range(oracle["horizon"] + 1)
    for cid, expected in oracle["longterm"].items():
        exact = curves.get((cid, "longterm_exact"), {})
        hybrid = curves.get((cid, "longterm_hybrid"), {})
        checks[f"longterm_exact_matches_mixed_policy[{cid}]"] = sorted(exact) == list(ts) and all(
            abs(exact[t][0] - expected[t]) <= EXACT_TOL for t in ts)
        checks[f"longterm_hybrid_within_ci[{cid}]"] = sorted(hybrid) == list(ts) and all(
            abs(hybrid[t][0] - expected[t])
            <= CI_HALF_WIDTHS * (hybrid[t][2] - hybrid[t][1]) / 2 + EXACT_TOL
            for t in ts)
    return checks


def _data_checks(work: str, oracle: dict, sizes: dict) -> tuple[dict[str, bool], dict]:
    raw = read_episodes(os.path.join(work, "raw.jsonl"))
    conv = read_episodes(os.path.join(work, "converted.jsonl"))
    n = sizes["episodes"]
    return {
        "raw_line_count": len(raw["x"]) == n,
        "converted_line_count": len(conv["x"]) == n,
        "converted_frozen_after_failure": frozen_after_failure(
            raw, conv, oracle["safe"], oracle["horizon"]),
    }, conv


def _control_checks(path: str, tag: str, oracle: dict, sizes: dict) -> dict[str, bool]:
    lines, margins_ok = feasible_margins_ok(path)
    return {
        f"trajectory_line_count[{tag}]": lines == sizes["control_episodes"] * oracle["horizon"],
        f"feasible_steps_nonnegative_margin[{tag}]": margins_ok,
    }


def check(workload: str, work: str, oracle: dict, sizes: dict) -> dict[str, bool]:
    """Run every check of the workload on the outputs in ``work``."""
    if workload == "repro-driving":
        return _repro_checks(work, oracle)
    checks, conv = _data_checks(work, oracle, sizes)
    p = lambda name: os.path.join(work, name)  # noqa: E731
    av = oracle["action_values"]
    if workload == "offline-toy":
        nm = oracle["qm"].shape[3]
        bound = sampling_bound(conv, oracle["safe"], oracle["horizon"], len(av), nm)
        checks["exact_q_csv_matches_q_dp"] = table_matches(p("fit-exact/q.csv"), oracle["q"], av)
        checks["exact_qm_csv_matches_qm_dp"] = table_matches(
            p("fit-exact/qm.csv"), oracle["qm"], av)
        checks["fitted_q_csv_within_sampling_bound"] = fitted_within_bound(
            p("fit-data/q.csv"), oracle["q"], bound, av)
        checks.update(_control_checks(p("control/trajectories.jsonl"), "fitted-q", oracle, sizes))
        return checks
    checks["oracle_q_csv_matches_q_dp"] = table_matches(p("oracle/oracle_q.csv"), oracle["q"], av)
    checks["oracle_v_csv_matches_value_dp"] = table_matches(
        p("oracle/oracle_v.csv"), oracle["v"], av)
    for tag in ("oracle", "csv"):
        checks.update(_control_checks(p(f"control-{tag}/trajectories.jsonl"), tag, oracle, sizes))
    with open(p("control-oracle/trajectories.jsonl"), "rb") as a, \
            open(p("control-csv/trajectories.jsonl"), "rb") as b:
        checks["run_control_outputs_identical"] = a.read() == b.read()
    return checks
