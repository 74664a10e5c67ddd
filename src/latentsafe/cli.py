"""Config-driven command-line entry point.

Subcommands compose the full pipeline; those that write a directory use
output_dir when --out is omitted. The flags under a command replace the
config keys they name, over the YAML file and before validation:

    gen-data      sample a raw offline dataset under the behavioral policy
                  --env env, --n dataset.n_episodes, --seed dataset.seed
    convert       rewrite a raw dataset into absorbing auxiliary form
                  --env env
    fit-q         front-door fitted-Q estimation from a converted dataset
                  --env env
    run-control   certified closed-loop episodes, trajectory log as JSONL
                  --env env, --episodes control.episodes, --seed control.seed
    reproduce     the headline experiment on any environment: certified
                  controller vs. barrier baseline, Monte Carlo + exact
                  curves, pass/fail
                  --seed evaluation.seed, --max-workers evaluation.max_workers
    export-oracle exact value and Q tables as CSV

Configuration is one YAML file; every constant of the headline experiment
ships as the default, so ``latentsafe reproduce --out DIR`` runs the whole
comparison. Exit codes: 0 criteria met, 1 criteria violated,
2 configuration or positivity error, or a path that cannot be read or written.
Commands run through ``main`` in one process share one environment build per
(env, horizon), its kernels included, and hand a saved dataset to the next command
alone if it reads that path; every output is the same as in a fresh process.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
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
from .evaluation import METRIC_LONGTERM_EXACT, emit_report, run_experiment
from .frontdoor import (
    exact_offline_tables,
    export_qm_csv,
    fitted_q_table,
    fitted_qm,
    load_q_table_csv,
)
from .mdp import p_offline_matrix, uniform_policy
from .oracle import export_q_csv, export_v_csv, q_dp, value_from_q

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
    "dtcbf": dataclasses.asdict(DtcbfParams()),
    "control": {"episodes": 10, "seed": 11, "selection_mode": CertificateConfig.selection_mode},
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
                loaded = yaml.safe_load(fh)
            except yaml.YAMLError as exc:  # its text names the file and position
                raise ConfigurationError(f"invalid YAML: {' '.join(str(exc).split())}") from exc
            except RecursionError as exc:  # the loader recurses once per level of nesting
                raise ConfigurationError(f"invalid YAML: {path!r} nests too deeply") from exc
        if not isinstance(loaded, dict) and loaded is not None:  # None: an empty document
            raise ConfigurationError("config file must contain a mapping")
        config = _deep_merge(config, loaded or {})
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
# Evaluation threads at most: concurrent.futures' own default ceiling.
_MAX_WORKERS = 32
_NUMBER_KEYS = ("dtcbf.alpha", "dtcbf.delta")
# Counts of episodes, batches or trajectories: a command's arrays hold under
# 8 * (horizon + 1)**2 floats per item, so the bound keeps their bytes indexable.
_COUNT_KEYS = ("dataset.n_episodes", "control.episodes", "evaluation.batches",
               "evaluation.trajectories")


def _lookup(config: dict, name: str):
    section, _, key = name.rpartition(".")
    return config[section][key] if section else config[key]


def _validate_config(config: dict) -> None:
    for name, least in _INTEGER_KEYS.items():
        value = _lookup(config, name)
        if type(value) is not int or value < least:
            raise ConfigurationError(f"{name} must be an integer >= {least}, got {value!r}")
    if (workers := config["evaluation"]["max_workers"]) > _MAX_WORKERS:
        raise ConfigurationError(f"evaluation.max_workers must be <= {_MAX_WORKERS}, got {workers}")
    h = config["horizon"]
    for name in _COUNT_KEYS:
        if 64 * (h + 1) ** 2 * max(_lookup(config, name), 1) > np.iinfo(np.intp).max:
            raise ConfigurationError(f"{name} at horizon {h} needs arrays numpy cannot index")
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


# The last 4 (env, horizon) builds, for later commands of this process: a
# bundle is frozen and its arrays read-only, so every command may share it.
@functools.lru_cache(maxsize=4)
def _environment(env_id: str, horizon: int) -> EnvBundle:
    return build_environment(env_id, horizon=horizon)


# path -> record (``data.SavedJsonl``) of the dataset the last command saved,
# one at most: ``main`` takes it out and hands it on if the command reads that path
_saved: dict = {}


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


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(args, config: dict, env: EnvBundle, x0: int) -> int:
    dataset = generate_offline(
        env.model,
        env.behavioral,
        config["dataset"]["n_episodes"],
        x0=x0,
        seed=config["dataset"]["seed"],
        mediator=env.mediator,
    )
    _saved[args.out] = save_jsonl(dataset, args.out)
    print(f"wrote {dataset.n_episodes} episodes to {args.out}")
    return EXIT_OK


def cmd_convert(args, config: dict, env: EnvBundle, x0: int) -> int:
    raw = load_jsonl(args.input, env.model, env.mediator, saved=args.saved)
    converted = convert_dataset(raw, env.model.safe)
    _saved[args.output] = save_jsonl(converted, args.output)
    print(f"converted {converted.n_episodes} episodes to {args.output}")
    return EXIT_OK


def cmd_fit_q(args, config: dict, env: EnvBundle, x0: int) -> int:
    if env.mediator is None:
        raise ConfigurationError(
            f"environment {env.env_id!r} has no mediator; fitted-Q estimation "
            "needs the front-door structure"
        )
    if args.exact:
        tables = exact_offline_tables(env.model, env.mediator, env.behavioral)
        n_episodes = 0
    else:
        dataset = load_jsonl(args.dataset, env.model, env.mediator, saved=args.saved)
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
    export_q_csv(q_table, env.model.action_values, os.path.join(out_dir, "q.csv"))
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


def cmd_run_control(args, config: dict, env: EnvBundle, x0: int) -> int:
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
    # every episode runs before any output exists, so a run that stops at a
    # missing Q row leaves no partial log behind
    runs = run_control(env.model, certificate, policy, x0, n_episodes, config["control"]["seed"])
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


def cmd_reproduce(args, config: dict, env: EnvBundle, x0: int) -> int:
    model = env.model
    epsilon = config["epsilon"]
    threshold = 1.0 - epsilon

    policy = uniform_policy(model.n_states, model.n_actions)
    q = q_dp(model, policy)
    value = value_from_q(model, policy, q)
    v0 = value.value(x0, model.horizon)

    cert = CertificateConfig(epsilon=epsilon, selection_mode=MODE_MAX_ACTION)
    proposed = proposed_controller(model, q, policy, cert)
    params = DtcbfParams(**config["dtcbf"])
    baseline = dtcbf_controller(model, p_offline_matrix(model, env.behavioral), params)

    eval_cfg = config["evaluation"]
    results = [
        run_experiment(
            model, controller, policy, x0=x0, seed=eval_cfg["seed"], epsilon=epsilon,
            batches=eval_cfg["batches"], trajs_per_batch=eval_cfg["trajectories"],
            env_id=env.env_id, value=value, max_workers=eval_cfg["max_workers"],
        )
        for controller in (proposed, baseline)
    ]

    out_dir = _out_dir(args, config)
    _echo_config(config, out_dir)
    initial_ok = v0 > threshold
    proposed_exact, dtcbf_exact = (r.curves[METRIC_LONGTERM_EXACT].mean for r in results)
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


def cmd_export_oracle(args, config: dict, env: EnvBundle, x0: int) -> int:
    policy = uniform_policy(env.model.n_states, env.model.n_actions)
    out_dir = _out_dir(args, config)
    os.makedirs(out_dir, exist_ok=True)
    q = q_dp(env.model, policy)
    export_q_csv(q, env.model.action_values, os.path.join(out_dir, "oracle_q.csv"))
    export_v_csv(value_from_q(env.model, policy, q), os.path.join(out_dir, "oracle_v.csv"))
    print(f"oracle tables written to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentsafe",
        description="Safety certificates for confounded systems: data, estimation, control, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str, *overrides) -> argparse.ArgumentParser:
        """Subcommand ``name`` whose ``overrides``, (flag, config key, type[,
        help]) each, replace config keys; usage names each by its flag."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", default=None)
        for flag, key, kind, *doc in overrides:
            p.add_argument(flag, dest=key, type=kind, metavar=flag[2:].replace("-", "_").upper(),
                           help=doc[0] if doc else None)
        p.set_defaults(func=func, overrides=[key for _, key, *_ in overrides])
        return p

    env = ("--env", "env", str)
    stream = "seed of the one random stream; episode i draws its i-th block"
    p = command("gen-data", cmd_gen_data, "sample a raw offline dataset",
                env, ("--n", "dataset.n_episodes", int), ("--seed", "dataset.seed", int, stream))
    p.add_argument("--out", required=True)

    p = command("convert", cmd_convert, "convert a raw dataset to absorbing form", env)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = command("fit-q", cmd_fit_q, "front-door fitted-Q from a converted dataset", env)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset")
    source.add_argument("--exact", action="store_true",
                        help="fit against exact offline tables instead of a dataset")
    p.add_argument("--out", default=None)

    p = command("run-control", cmd_run_control, "run certified control episodes",
                env, ("--episodes", "control.episodes", int),
                ("--seed", "control.seed", int, stream))
    p.add_argument("--q-csv", default=None,
                   help="load a precomputed certificate table instead of the oracle")
    p.add_argument("--out", default=None)

    p = command("reproduce", cmd_reproduce, "certified-vs-barrier comparison experiment",
                ("--seed", "evaluation.seed", int),
                ("--max-workers", "evaluation.max_workers", int))
    p.add_argument("--out", default=None)

    p = command("export-oracle", cmd_export_oracle, "dump exact oracle tables as CSV")
    p.add_argument("--out", default=None)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    path, saved = _saved.popitem() if _saved else (None, None)
    args = build_parser().parse_args(argv)
    reads = (getattr(args, "input", None), getattr(args, "dataset", None))
    args.saved = saved if path in reads else None
    del saved  # then ``args`` alone holds it, until this command returns
    try:
        config = load_config(args.config, {key: getattr(args, key) for key in args.overrides})
        env = _environment(config["env"], config["horizon"])
        x0 = _resolve_x0(env, config["x0"])  # every command, before any output
        return args.func(args, config, env, x0)
    except (LatentSafeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except MemoryError as exc:  # sizes numpy can index, but not hold
        print(f"error: out of memory for horizon, {', '.join(_COUNT_KEYS)}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
