"""Config-driven command-line entry point.

Subcommands compose the full pipeline:

    gen-data      sample a raw offline dataset under the behavioral policy
    convert       rewrite a raw dataset into absorbing auxiliary form
    fit-q         front-door fitted-Q estimation from a converted dataset
    run-control   certified closed-loop episodes, trajectory log as JSONL
    reproduce     the driving-scenario experiment: certified controller vs.
                  barrier baseline, Monte Carlo + exact curves, pass/fail
    export-oracle exact value and Q tables as CSV

Directory-producing commands fall back to the config's output_dir when
--out is omitted.

Configuration is one YAML file; every constant of the headline experiment
ships as the default, so ``latentsafe reproduce --out DIR`` runs the whole
comparison. Exit codes: 0 criteria met, 1 criteria violated,
2 configuration or positivity error, or a path that cannot be read or written.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from typing import Optional

import numpy as np
import yaml

from .control import (
    MODE_MAX_ACTION,
    SELECTION_MODES,
    CertificateConfig,
    DtcbfParams,
    OfflineKernel,
    certify,
    dtcbf_controller,
    proposed_controller,
    run_control,
)
from .data import (
    FORM_RAW,
    convert_dataset,
    empirical_offline_tables,
    generate_offline,
    load_jsonl,
    save_jsonl,
    write_jsonl,
)
from .envs import ENVIRONMENT_BUILDERS, EnvBundle, build_environment
from .errors import ConfigurationError, EncodingError, LatentSafeError, PositivityError
from .evaluation import emit_report, exact_long_term_curve, run_experiment
from .frontdoor import (
    exact_offline_tables,
    export_q_table_csv,
    export_qm_csv,
    fitted_q_table,
    fitted_qm,
    load_q_table_csv,
)
from .mdp import p_offline_matrix, uniform_policy
from .oracle import export_q_csv, export_v_csv, q_dp, value_dp
from .seeding import derive_seed

EXIT_OK = 0
EXIT_CRITERIA_VIOLATED = 1
EXIT_CONFIG_ERROR = 2

DEFAULT_CONFIG: dict = {
    "env": "driving",
    "horizon": 10,
    "epsilon": 0.2,
    # null means the environment's default start (the driving default is
    # position 0, velocity 0); driving configs may also give [position, velocity]
    "x0": None,
    "dataset": {"n_episodes": 100_000, "seed": 7},
    "evaluation": {"batches": 100, "trajectories": 100, "seed": 2025, "max_workers": 1},
    "dtcbf": {"alpha": 0.01, "delta": -0.5},
    "control": {"episodes": 10, "seed": 11, "selection_mode": "nearest-nominal"},
    "output_dir": "out",
}


def _deep_merge(base: dict, override: dict, prefix: str = "") -> dict:
    """``override`` laid over ``base``; a key absent from ``base`` is an error."""
    merged = copy.deepcopy(base)
    for key, value in override.items():
        name = f"{prefix}{key}"
        if key not in base:
            raise ConfigurationError(f"unknown config key {name!r}")
        if isinstance(merged[key], dict):
            if not isinstance(value, dict):
                raise ConfigurationError(f"config key {name!r} must be a mapping")
            merged[key] = _deep_merge(merged[key], value, f"{name}.")
        else:
            merged[key] = value
    return merged


def load_config(path: Optional[str], overrides: dict) -> dict:
    """Defaults overlaid with the YAML file at ``path`` (if given), then with
    ``overrides``, a command's flag values by dotted config key (None: the
    flag was not given); validated once, after both."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path, "rb") as fh:  # bytes: PyYAML reports undecodable text
            try:
                loaded = yaml.safe_load(fh) or {}
            except yaml.YAMLError as exc:  # its text names the file and position
                raise ConfigurationError(f"invalid YAML: {' '.join(str(exc).split())}") from exc
        if not isinstance(loaded, dict):
            raise ConfigurationError("config file must contain a mapping")
        config = _deep_merge(config, loaded)
    for name, value in overrides.items():
        if value is not None:
            section, _, key = name.rpartition(".")
            (config[section] if section else config)[key] = value
    _validate_config(config)
    return config


# Integer settings and their least values; booleans do not count as integers.
_INTEGER_KEYS = {
    "horizon": 1,
    "dataset.n_episodes": 0,
    "dataset.seed": 0,
    "evaluation.batches": 1,
    "evaluation.trajectories": 1,
    "evaluation.seed": 0,
    "evaluation.max_workers": 1,
    "control.episodes": 1,
    "control.seed": 0,
}
_NUMBER_KEYS = ("dtcbf.alpha", "dtcbf.delta")


def _lookup(config: dict, name: str):
    section, _, key = name.rpartition(".")
    return config[section][key] if section else config[key]


def _validate_config(config: dict) -> None:
    for name, least in _INTEGER_KEYS.items():
        value = _lookup(config, name)
        if type(value) is not int or value < least:
            raise ConfigurationError(f"{name} must be an integer >= {least}, got {value!r}")
    for name in _NUMBER_KEYS:
        value = _lookup(config, name)
        if type(value) not in (int, float) or not math.isfinite(value):
            raise ConfigurationError(f"{name} must be a number, got {value!r}")
    epsilon = config["epsilon"]
    if type(epsilon) not in (int, float) or not 0.0 < epsilon < 1.0:
        raise ConfigurationError("epsilon must lie in (0, 1)")
    if not isinstance(config["env"], str) or config["env"] not in ENVIRONMENT_BUILDERS:
        raise ConfigurationError(f"unknown environment {config['env']!r}")
    mode = config["control"]["selection_mode"]
    if not isinstance(mode, str) or mode not in SELECTION_MODES:
        raise ConfigurationError(
            f"control.selection_mode must be one of {', '.join(SELECTION_MODES)}, got {mode!r}"
        )
    if not isinstance(config["output_dir"], str):
        raise ConfigurationError(f"output_dir must be a string, got {config['output_dir']!r}")


def _resolve_x0(env: EnvBundle, raw_x0) -> int:
    """The start state config key x0 names: null for the environment's
    default, a state id, or (where the environment encodes states) the list
    of the state's fields."""
    if raw_x0 is None:
        return env.default_x0
    n_fields = 0 if env.decode is None else len(env.decode(env.default_x0))
    is_fields = isinstance(raw_x0, list) and n_fields and len(raw_x0) == n_fields
    try:
        if type(raw_x0) is int:
            return env.model.check_state(raw_x0)
        if is_fields and all(type(v) is int for v in raw_x0):
            return env.model.check_state(env.encode(tuple(raw_x0)))
    except EncodingError as exc:
        raise ConfigurationError(f"x0 {raw_x0!r}: {exc}") from exc
    fields = f" or a list of {n_fields} state fields" if n_fields else ""
    raise ConfigurationError(f"x0 must be null, a state id{fields}, got {raw_x0!r}")


def _out_dir(args, config: dict) -> str:
    return args.out if args.out is not None else config["output_dir"]


def _echo_config(config: dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.yaml"), "w") as fh:
        yaml.safe_dump(config, fh, sort_keys=True)


def _build_env(config: dict) -> EnvBundle:
    return build_environment(config["env"], horizon=config["horizon"])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    config = load_config(
        args.config, {"env": args.env, "dataset.n_episodes": args.n, "dataset.seed": args.seed}
    )
    env = _build_env(config)
    x0 = _resolve_x0(env, config.get("x0"))
    dataset = generate_offline(
        env.model,
        env.behavioral,
        config["dataset"]["n_episodes"],
        x0=x0,
        seed=config["dataset"]["seed"],
        mediator=env.mediator,
    )
    save_jsonl(dataset, args.out)
    print(f"wrote {dataset.n_episodes} episodes to {args.out}")
    return EXIT_OK


def cmd_convert(args) -> int:
    config = load_config(args.config, {"env": args.env})
    env = _build_env(config)
    raw = load_jsonl(args.input, env.model, env.mediator)
    converted = convert_dataset(raw, env.model.safe)
    save_jsonl(converted, args.output)
    print(f"converted {converted.n_episodes} episodes to {args.output}")
    return EXIT_OK


def cmd_fit_q(args) -> int:
    config = load_config(args.config, {"env": args.env})
    env = _build_env(config)
    if env.mediator is None:
        raise ConfigurationError(
            f"environment {env.env_id!r} has no mediator; fitted-Q estimation "
            "needs the front-door structure"
        )
    if args.exact:
        tables = exact_offline_tables(env.model, env.mediator, env.behavioral)
        n_episodes = 0
    else:
        if args.dataset is None:
            raise ConfigurationError("fit-q needs --dataset (or --exact)")
        dataset = load_jsonl(args.dataset, env.model, env.mediator)
        if dataset.form == FORM_RAW:
            dataset = convert_dataset(dataset, env.model.safe)
        if dataset.n_episodes == 0:
            raise PositivityError("empty dataset: no behavioral support anywhere")
        tables = empirical_offline_tables(dataset, env.model, env.mediator)
        n_episodes = dataset.n_episodes
    policy = uniform_policy(env.model.n_states, env.model.n_actions)
    fitted = fitted_qm(env.model, policy, tables)
    out_dir = _out_dir(args, config)
    _echo_config(config, out_dir)
    export_qm_csv(fitted, env.model.action_values, os.path.join(out_dir, "qm.csv"))
    q_table = fitted_q_table(fitted, tables)
    export_q_table_csv(q_table, env.model.action_values, os.path.join(out_dir, "q.csv"))
    meta = {
        "iterations": fitted.iterations,
        "residual": fitted.residual,
        "episodes": n_episodes,
        "exact_tables": bool(args.exact),
        "default_cell_warnings": [list(c) for c in fitted.default_cell_warnings],
    }
    with open(os.path.join(out_dir, "fit_meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"fitted mediator-Q in {fitted.iterations} sweeps "
        f"(residual {fitted.residual:.3e}); tables in {out_dir}"
    )
    return EXIT_OK


def cmd_run_control(args) -> int:
    config = load_config(
        args.config,
        {"env": args.env, "control.episodes": args.episodes, "control.seed": args.seed},
    )
    env = _build_env(config)
    x0 = _resolve_x0(env, config.get("x0"))
    policy = uniform_policy(env.model.n_states, env.model.n_actions)
    if args.q_csv is not None:
        # precomputed certificate (e.g. a fit-q output) instead of the oracle
        q = load_q_table_csv(
            args.q_csv, env.model.horizon, env.model.n_states, env.model.action_values
        )
    else:
        q = q_dp(env.model, policy)
    cert = CertificateConfig(
        epsilon=config["epsilon"],
        selection_mode=config["control"]["selection_mode"],
    )
    certificate = certify(q, policy, cert, env.model.action_values)
    n_episodes = config["control"]["episodes"]
    seeds = [derive_seed(config["control"]["seed"], i) for i in range(n_episodes)]
    # every episode runs before any output exists, so a run that stops at a
    # missing Q row leaves no partial log behind
    runs = run_control(env.model, certificate, policy, x0, seeds)
    out_dir = _out_dir(args, config)
    _echo_config(config, out_dir)
    path = os.path.join(out_dir, "trajectories.jsonl")
    write_jsonl(path, {
        "t": np.tile(np.arange(env.model.horizon), n_episodes),
        "x": runs.x[:, :-1].ravel(),
        "u_nominal": runs.u_nominal.ravel(),
        "u": runs.u.ravel(),
        "S": runs.margins.ravel(),
        "feasible": runs.feasible.ravel(),
    })
    print(f"wrote {n_episodes} certified episodes to {path}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    config = load_config(
        args.config, {"evaluation.seed": args.seed, "evaluation.max_workers": args.max_workers}
    )
    if config["env"] != "driving":
        raise ConfigurationError("reproduce runs the driving scenario only")
    env = _build_env(config)
    model = env.model
    x0 = _resolve_x0(env, config.get("x0"))
    epsilon = config["epsilon"]
    threshold = 1.0 - epsilon

    policy = uniform_policy(model.n_states, model.n_actions)
    value = value_dp(model, policy)
    q = q_dp(model, policy)
    v0 = value.value(x0, model.horizon)

    cert = CertificateConfig(epsilon=epsilon, selection_mode=MODE_MAX_ACTION)
    proposed = proposed_controller(model, q, policy, cert)
    rows, defined = p_offline_matrix(model, env.behavioral)
    params = DtcbfParams(alpha=config["dtcbf"]["alpha"], delta=config["dtcbf"]["delta"])
    baseline = dtcbf_controller(model, OfflineKernel(rows, defined), params)

    eval_cfg = config["evaluation"]
    results = []
    for controller in (proposed, baseline):
        result = run_experiment(
            model, controller, policy, x0=x0, seed=eval_cfg["seed"], epsilon=epsilon,
            batches=eval_cfg["batches"], trajs_per_batch=eval_cfg["trajectories"],
            env_id=env.env_id, value=value, max_workers=eval_cfg["max_workers"],
        )
        result.exact_longterm = exact_long_term_curve(model, controller, policy, x0, value)
        results.append(result)

    out_dir = _out_dir(args, config)
    _echo_config(config, out_dir)
    initial_ok = v0 > threshold
    proposed_exact = results[0].exact_longterm
    dtcbf_exact = results[1].exact_longterm
    proposed_meets = bool((proposed_exact >= threshold).all())
    dtcbf_fails = bool((dtcbf_exact < threshold).any())
    emit_report(results, out_dir, epsilon, extra={
        "v0": float(v0),
        "initial_condition_met": bool(initial_ok),
        "proposed_meets_threshold": proposed_meets,
        "dtcbf_violates_threshold": dtcbf_fails,
    })
    print(f"V(x0, H) = {v0:.6f} (threshold {threshold}); "
          f"initial condition met: {initial_ok}")
    print(f"proposed exact curve min = {proposed_exact.min():.6f}; "
          f"dtcbf exact curve min = {dtcbf_exact.min():.6f}")
    print(f"report written to {out_dir}")
    # The exit gate is the threshold criterion, conditional on the initial
    # value clearing it; the baseline comparison is reported, not gated.
    passed = proposed_meets if initial_ok else True
    return EXIT_OK if passed else EXIT_CRITERIA_VIOLATED


def cmd_export_oracle(args) -> int:
    config = load_config(args.config, {})
    env = _build_env(config)
    policy = uniform_policy(env.model.n_states, env.model.n_actions)
    out_dir = _out_dir(args, config)
    os.makedirs(out_dir, exist_ok=True)
    export_q_csv(q_dp(env.model, policy), env.model.action_values,
                 os.path.join(out_dir, "oracle_q.csv"))
    export_v_csv(value_dp(env.model, policy), os.path.join(out_dir, "oracle_v.csv"))
    print(f"oracle tables written to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentsafe",
        description="Safety certificates for confounded systems: data, estimation, control, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", default=None)
        p.set_defaults(func=func)
        return p

    p = command("gen-data", cmd_gen_data, "sample a raw offline dataset")
    p.add_argument("--env", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    p = command("convert", cmd_convert, "convert a raw dataset to absorbing form")
    p.add_argument("--env", default=None)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = command("fit-q", cmd_fit_q, "front-door fitted-Q from a converted dataset")
    p.add_argument("--env", default=None)
    p.add_argument("--dataset", default=None)
    p.add_argument("--exact", action="store_true",
                   help="fit against exact offline tables instead of a dataset")
    p.add_argument("--out", default=None)

    p = command("run-control", cmd_run_control, "run certified control episodes")
    p.add_argument("--env", default=None)
    p.add_argument("--episodes", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--q-csv", default=None,
                   help="load a precomputed certificate table instead of the oracle")
    p.add_argument("--out", default=None)

    p = command("reproduce", cmd_reproduce, "driving-scenario comparison experiment")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-workers", type=int, default=None)
    p.add_argument("--out", default=None)

    p = command("export-oracle", cmd_export_oracle, "dump exact oracle tables as CSV")
    p.add_argument("--out", default=None)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LatentSafeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
