"""Command-line pipeline: composition, exit codes, determinism."""

import argparse
import copy
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
import yaml

import latentsafe
from conftest import (
    assert_same_episodes,
    read_curves_csv,
    read_qm_csv,
    reference_load_q_table_csv,
)
from latentsafe import cli, data, envs, oracle
from latentsafe.cli import DEFAULT_CONFIG, build_parser, load_config, main
from latentsafe.data import generate_offline, load_jsonl
from latentsafe.envs import build_environment, build_mismatch_env
from latentsafe.frontdoor import load_q_table_csv
from latentsafe.mdp import ConfoundedMdpModel


def write_config(path, **overrides):
    config = {
        "env": "mediator-toy",
        "horizon": 3,
        "epsilon": 0.2,
        "dataset": {"n_episodes": 4000, "seed": 17},
        "evaluation": {"batches": 5, "trajectories": 30, "seed": 3, "max_workers": 1},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(config.get(key), dict):
            config[key].update(value)
        else:
            config[key] = value
    path.write_text(yaml.safe_dump(config))
    return path


@pytest.fixture(scope="module")
def toy_config(tmp_path_factory):
    return write_config(tmp_path_factory.mktemp("config") / "toy.yaml")


class TestGenData:
    def test_zero_episodes_gives_empty_file(self, toy_config, tmp_path):
        out = tmp_path / "empty.jsonl"
        code = main(["gen-data", "--config", str(toy_config), "--n", "0", "--out", str(out)])
        assert code == 0
        assert out.read_text() == ""

    def test_fixed_seed_is_deterministic(self, toy_config, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            assert main([
                "gen-data", "--config", str(toy_config), "--n", "200", "--out", str(path)
            ]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_mismatch_data_hides_risky_action(self, tmp_path):
        config = write_config(
            tmp_path / "mm.yaml", env="mismatch", horizon=4,
            dataset={"n_episodes": 20000, "seed": 3},
        )
        out = tmp_path / "mm.jsonl"
        assert main(["gen-data", "--config", str(config), "--out", str(out)]) == 0
        ds = load_jsonl(out, build_mismatch_env(horizon=4).model)
        cell = (ds.x[:, :-1] == 0) & (ds.u[:, :-1] == 1)
        total = int(cell.sum())
        stay = int((cell & (ds.x[:, 1:] == 0)).sum())
        assert total > 1000 and stay == total


class TestPipelineComposition:
    def test_gen_convert_fit(self, toy_config, mediator_toy, tmp_path):
        raw = tmp_path / "raw.jsonl"
        conv = tmp_path / "conv.jsonl"
        fit_dir = tmp_path / "fit"
        assert main(["gen-data", "--config", str(toy_config), "--out", str(raw)]) == 0
        assert main([
            "convert", "--config", str(toy_config), "--input", str(raw), "--output", str(conv)
        ]) == 0
        loaded = load_jsonl(conv, mediator_toy.model, mediator_toy.mediator)
        assert loaded.form == "converted"
        assert main([
            "fit-q", "--config", str(toy_config), "--dataset", str(conv), "--out", str(fit_dir)
        ]) == 0
        meta = json.loads((fit_dir / "fit_meta.json").read_text())
        assert meta["residual"] <= 1e-10
        assert (fit_dir / "qm.csv").exists() and (fit_dir / "q.csv").exists()
        assert (fit_dir / "config.yaml").exists()

    def test_fit_q_rerun_idempotent(self, toy_config, tmp_path):
        raw = tmp_path / "raw.jsonl"
        conv = tmp_path / "conv.jsonl"
        main(["gen-data", "--config", str(toy_config), "--out", str(raw)])
        main(["convert", "--config", str(toy_config), "--input", str(raw), "--output", str(conv)])
        outs = [tmp_path / "fit1", tmp_path / "fit2"]
        for out in outs:
            assert main([
                "fit-q", "--config", str(toy_config), "--dataset", str(conv), "--out", str(out)
            ]) == 0
        assert (outs[0] / "qm.csv").read_bytes() == (outs[1] / "qm.csv").read_bytes()

    def test_fit_q_accepts_raw_input(self, toy_config, tmp_path):
        raw = tmp_path / "raw.jsonl"
        main(["gen-data", "--config", str(toy_config), "--out", str(raw)])
        assert main([
            "fit-q", "--config", str(toy_config), "--dataset", str(raw),
            "--out", str(tmp_path / "fit"),
        ]) == 0

    def test_fit_q_empty_dataset_is_positivity_error(self, toy_config, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main([
            "fit-q", "--config", str(toy_config), "--dataset", str(empty),
            "--out", str(tmp_path / "fit"),
        ])
        assert code == 2

    def test_fit_q_rejects_mediator_free_env(self, tmp_path):
        config = write_config(tmp_path / "mm.yaml", env="mismatch")
        data = tmp_path / "d.jsonl"
        main(["gen-data", "--config", str(config), "--n", "10", "--out", str(data)])
        code = main([
            "fit-q", "--config", str(config), "--dataset", str(data),
            "--out", str(tmp_path / "fit"),
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "sources", [[], ["--exact", "--dataset", "does-not-exist.jsonl"]], ids=["neither", "both"]
    )
    def test_fit_q_takes_exactly_one_source(self, toy_config, tmp_path, capsys, sources):
        """fit-q reads either a dataset or the exact tables: giving both, or
        neither, is a usage error naming both flags, never a silent choice."""
        with pytest.raises(SystemExit) as exit_info:
            main(["fit-q", "--config", str(toy_config), *sources, "--out", str(tmp_path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--dataset" in err and "--exact" in err
        assert not (tmp_path / "q.csv").exists()

    def test_fit_q_exact_mode_matches_oracle(self, toy_config, tmp_path):
        import numpy as np

        from latentsafe.envs import build_mediator_toy_env
        from latentsafe.mdp import uniform_policy
        from latentsafe.oracle import qm_dp

        out = tmp_path / "fit"
        assert main([
            "fit-q", "--config", str(toy_config), "--exact", "--out", str(out)
        ]) == 0
        env = build_mediator_toy_env(horizon=3)
        oracle = qm_dp(env.model, env.mediator, uniform_policy(2, 2))
        values, _ = read_qm_csv(out / "qm.csv", (4, 2, 2, 2), (0, 1))
        assert np.max(np.abs(values - oracle.values)) < 1e-10


class TestRunControl:
    def test_trajectory_log_fields(self, tmp_path):
        config = write_config(tmp_path / "drv.yaml", env="driving", horizon=5,
                              control={"episodes": 3, "seed": 4})
        out_dir = tmp_path / "control"
        assert main(["run-control", "--config", str(config), "--out", str(out_dir)]) == 0
        lines = (out_dir / "trajectories.jsonl").read_text().splitlines()
        assert len(lines) == 3 * 5
        record = json.loads(lines[0])
        assert lines[0].startswith('{"t":0,')
        assert set(record) == {"t", "x", "u_nominal", "u", "S", "feasible"}
        assert record["feasible"] is True

    def test_loads_precomputed_certificate(self, toy_config, tmp_path):
        raw = tmp_path / "raw.jsonl"
        fit_dir = tmp_path / "fit"
        main(["gen-data", "--config", str(toy_config), "--out", str(raw)])
        main(["fit-q", "--config", str(toy_config), "--dataset", str(raw),
              "--out", str(fit_dir)])
        out_dir = tmp_path / "control"
        code = main([
            "run-control", "--config", str(toy_config), "--episodes", "4",
            "--q-csv", str(fit_dir / "q.csv"), "--out", str(out_dir),
        ])
        assert code == 0
        lines = (out_dir / "trajectories.jsonl").read_text().splitlines()
        assert len(lines) == 4 * 3


@pytest.fixture(scope="module")
def repro_config(tmp_path_factory):
    return write_config(
        tmp_path_factory.mktemp("repro") / "cfg.yaml",
        env="driving", horizon=10,
        evaluation={"batches": 8, "trajectories": 40, "seed": 5, "max_workers": 1},
    )


class TestReproduce:
    def test_outputs_and_exit_code(self, repro_config, tmp_path):
        out = tmp_path / "report"
        code = main(["reproduce", "--config", str(repro_config), "--out", str(out)])
        assert code == 0  # baseline violates the threshold; initial condition reported
        summary = json.loads((out / "summary.json").read_text())
        assert summary["dtcbf_violates_threshold"] is True
        assert summary["initial_condition_met"] is False
        assert abs(summary["v0"] - 0.7365001461905758) < 1e-12
        assert (out / "config.yaml").exists()

    def test_seed_changes_mc_but_not_exact(self, repro_config, tmp_path):
        outs = [tmp_path / "s1", tmp_path / "s2"]
        for out, seed in zip(outs, ("5", "6")):
            assert main([
                "reproduce", "--config", str(repro_config), "--seed", seed, "--out", str(out)
            ]) == 0
        a = read_curves_csv(outs[0] / "curves.csv")
        b = read_curves_csv(outs[1] / "curves.csv")
        key_exact = ("proposed-oracle-Q", "longterm_exact")
        key_mc = ("proposed-oracle-Q", "longterm_hybrid")
        assert np.array_equal(a[key_exact]["mean"], b[key_exact]["mean"])
        assert not np.array_equal(a[key_mc]["mean"][1:], b[key_mc]["mean"][1:])

    def test_trivial_threshold_passes_conditionally(self, tmp_path):
        config = write_config(
            tmp_path / "cfg.yaml", env="driving", horizon=10, epsilon=0.999,
            evaluation={"batches": 4, "trajectories": 20, "seed": 1, "max_workers": 1},
        )
        out = tmp_path / "report"
        code = main(["reproduce", "--config", str(config), "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["initial_condition_met"] is True
        assert summary["proposed_meets_threshold"] is True
        assert code == 0

    def test_mismatch_toy_separates_certificate_from_barrier(self, tmp_path):
        """The canonical bias demo: offline statistics call action 1 perfectly
        safe, so the barrier baseline plays it and decays, while the
        certificate's exact curve rises from V(x0) above the threshold."""
        config = write_config(
            tmp_path / "cfg.yaml", env="mismatch", horizon=6, epsilon=0.85,
            evaluation={"batches": 4, "trajectories": 20, "seed": 1, "max_workers": 1},
        )
        out = tmp_path / "report"
        assert main(["reproduce", "--config", str(config), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["initial_condition_met"] is True
        assert summary["proposed_meets_threshold"] is True
        assert summary["dtcbf_violates_threshold"] is True
        curves = read_curves_csv(out / "curves.csv")
        proposed = curves[("proposed-oracle-Q", "longterm_exact")]["mean"]
        dtcbf = curves[("dtcbf", "longterm_exact")]["mean"]
        assert (np.diff(proposed) >= 0).all()
        assert proposed[0] == 0.177978515625 and proposed[-1] == 0.7350918906249998
        assert (np.diff(dtcbf) < 0).all()
        assert dtcbf[-1] == 0.027680640625000016

    def test_mediator_toy_runs(self, toy_config, tmp_path):
        code = main(["reproduce", "--config", str(toy_config), "--out", str(tmp_path / "r")])
        assert code == 0
        assert (tmp_path / "r" / "summary.json").exists()


class TestConfigErrors:
    def test_bad_epsilon(self, tmp_path):
        config = write_config(tmp_path / "bad.yaml", epsilon=1.5)
        code = main(["gen-data", "--config", str(config), "--out", str(tmp_path / "x.jsonl")])
        assert code == 2

    def test_unknown_env(self, tmp_path):
        config = write_config(tmp_path / "bad.yaml", env="atari")
        code = main(["gen-data", "--config", str(config), "--out", str(tmp_path / "x.jsonl")])
        assert code == 2

    def test_unknown_controller(self, tmp_path):
        config = write_config(tmp_path / "bad.yaml", controller="lqr")
        code = main(["gen-data", "--config", str(config), "--out", str(tmp_path / "x.jsonl")])
        assert code == 2

    @pytest.mark.parametrize(
        "overrides, name",
        [
            ({"controller": "dtcbf"}, "controller"),
            ({"evaluation": {"batchez": 3}}, "evaluation.batchez"),
            ({"fitted_q": {"tolerance": 0.95}}, "fitted_q"),
        ],
    )
    def test_unknown_key_is_named(self, tmp_path, capsys, overrides, name):
        config = write_config(tmp_path / "bad.yaml", **overrides)
        code = main(["gen-data", "--config", str(config), "--out", str(tmp_path / "x.jsonl")])
        assert code == 2
        assert f"unknown config key {name!r}" in capsys.readouterr().err

    def test_yaml_syntax_error_is_named(self, tmp_path, capsys):
        config = tmp_path / "bad.yaml"
        config.write_text("env: [unclosed\n")
        code = main(["gen-data", "--config", str(config), "--out", str(tmp_path / "x.jsonl")])
        assert code == 2
        assert f'in "{config}", line 2, column 1' in capsys.readouterr().err

    @pytest.mark.parametrize("document", ["[" * 700 + "]" * 700,
                                          "env: " + "[" * 700 + "]" * 700 + "\n"],
                             ids=["top-level", "under-env"])
    def test_deeply_nested_document_is_named(self, tmp_path, capsys, document):
        """Nesting past the YAML loader's recursion depth (about 500 levels
        at the default limit; its scanner takes time quadratic in the depth)
        exits 2 naming the file, without a traceback."""
        config = tmp_path / "deep.yaml"
        config.write_text(document)
        code = main(["export-oracle", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == f"error: invalid YAML: {str(config)!r} nests too deeply\n"

    @pytest.mark.parametrize("document", ["false", "0", "[]", "''", "[1]"])
    def test_non_mapping_document_is_refused(self, tmp_path, capsys, document):
        """Only an empty document means the defaults; a false-valued one does not."""
        config = tmp_path / "bad.yaml"
        config.write_text(document + "\n")
        code = main(["gen-data", "--config", str(config), "--out", str(tmp_path / "x.jsonl")])
        assert code == 2
        assert "config file must contain a mapping" in capsys.readouterr().err
        assert not (tmp_path / "x.jsonl").exists()

    @pytest.mark.parametrize("text", ["", "\n", "# no keys\n", "---\n"])
    def test_empty_document_loads_the_defaults(self, tmp_path, text):
        config = tmp_path / "empty.yaml"
        config.write_text(text)
        assert load_config(str(config), {}) == DEFAULT_CONFIG

    def test_missing_config_file(self, tmp_path):
        code = main([
            "gen-data", "--config", str(tmp_path / "absent.yaml"),
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "argv, path",
        [
            (["convert", "--input", "{tmp}/nope.jsonl", "--output", "{tmp}/c.jsonl"],
             "{tmp}/nope.jsonl"),
            (["fit-q", "--dataset", "{tmp}/nope.jsonl"], "{tmp}/nope.jsonl"),
            (["run-control", "--q-csv", "{tmp}/nope.csv"], "{tmp}/nope.csv"),
            (["export-oracle"], ""),  # output_dir "" and no --out
            (["gen-data", "--out", "{tmp}/file/x.jsonl"], "{tmp}/file/x.jsonl"),
            (["convert", "--input", "{tmp}", "--output", "{tmp}/c.jsonl"], "{tmp}"),
        ],
        ids=["missing-input", "missing-dataset", "missing-q-csv", "empty-output-dir",
             "output-under-file", "input-is-directory"],
    )
    def test_unusable_path_is_a_config_error(self, tmp_path, capsys, argv, path):
        """A path that cannot be read or written exits 2 naming it, never
        with a traceback and exit 1, which means "criteria violated"."""
        (tmp_path / "file").write_text("")
        config = write_config(tmp_path / "config.yaml", output_dir="")
        command, *rest = (arg.format(tmp=tmp_path) for arg in argv)
        assert main([command, "--config", str(config), *rest]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(path.format(tmp=tmp_path)) in err


def _reachable_arrays(obj):
    """Every array a bundle holds, through its dataclasses' fields and the
    kernels they have cached."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for value in vars(obj).values():
            yield from _reachable_arrays(value)


class TestEnvironmentCache:
    """Commands run through ``main`` in one process share one build per
    (env, horizon), and write what a fresh build would."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        cli._environment.cache_clear()
        yield
        cli._environment.cache_clear()

    @staticmethod
    def _spy(env_id):
        """The registered builder of ``env_id``, counted."""
        spy = mock.Mock(wraps=envs.ENVIRONMENT_BUILDERS[env_id])
        return spy, mock.patch.dict(envs.ENVIRONMENT_BUILDERS, {env_id: spy})

    PIPELINE = (
        ["export-oracle", "--out", "{out}/oracle"],
        ["run-control", "--out", "{out}/control"],
        ["run-control", "--q-csv", "{out}/oracle/oracle_q.csv", "--out", "{out}/csv"],
    )
    OUTPUTS = (
        "oracle/oracle_q.csv", "oracle/oracle_v.csv", "control/config.yaml",
        "control/trajectories.jsonl", "csv/config.yaml", "csv/trajectories.jsonl",
    )

    def test_pipeline_builds_once_with_unchanged_bytes(self, tmp_path):
        config = write_config(tmp_path / "cfg.yaml", env="driving", horizon=4,
                              control={"episodes": 6, "seed": 5})
        spy, patch = self._spy("driving")
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        with patch:
            for argv in self.PIPELINE:
                command, *rest = (arg.format(out=shared) for arg in argv)
                assert main([command, "--config", str(config), *rest]) == 0
            assert spy.call_count == 1
            for argv in self.PIPELINE:
                cli._environment.cache_clear()
                command, *rest = (arg.format(out=fresh) for arg in argv)
                assert main([command, "--config", str(config), *rest]) == 0
            assert spy.call_count == 1 + len(self.PIPELINE)
        for name in self.OUTPUTS:
            assert (shared / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_each_env_and_horizon_has_its_own_bundle(self):
        driving = cli._environment("driving", 3)
        assert cli._environment("driving", 3) is driving
        longer = cli._environment("driving", 4)
        toy = cli._environment("mediator-toy", 3)
        assert longer is not driving and longer.model.horizon == 4
        assert toy.env_id == "mediator-toy" and toy.model.horizon == 3

    def test_a_miss_builds_through_the_cli_import_site(self, tmp_path):
        """A wrapper put on ``cli.build_environment`` sees every build."""
        with mock.patch.object(cli, "build_environment", wraps=cli.build_environment) as spy:
            for horizon in (2, 3, 2):
                config = write_config(tmp_path / "cfg.yaml", env="mismatch", horizon=horizon)
                assert main(["export-oracle", "--config", str(config),
                             "--out", str(tmp_path / f"h{horizon}")]) == 0
        assert spy.call_args_list == [mock.call("mismatch", horizon=2),
                                      mock.call("mismatch", horizon=3)]

    def test_failures_are_not_cached(self, tmp_path, capsys):
        config = write_config(tmp_path / "bad.yaml", env="atari")
        for _ in range(2):
            assert main(["gen-data", "--config", str(config),
                         "--out", str(tmp_path / "x.jsonl")]) == 2
            assert "unknown environment 'atari'" in capsys.readouterr().err
        spy, patch = self._spy("mismatch")
        spy.side_effect = [MemoryError("no room"), envs.build_mismatch_env(horizon=2)]
        config = write_config(tmp_path / "mm.yaml", env="mismatch", horizon=2)
        argv = ["export-oracle", "--config", str(config), "--out", str(tmp_path / "oracle")]
        with patch:
            assert main(argv) == 2
            assert main(argv) == 0
            assert main(argv) == 0
        assert spy.call_count == 2

    def test_least_recently_used_key_is_built_again(self):
        bound = cli._environment.cache_info().maxsize
        spy, patch = self._spy("mismatch")
        with patch:
            for horizon in range(1, bound + 2):
                cli._environment("mismatch", horizon)
            assert spy.call_count == bound + 1
            cli._environment("mismatch", bound + 1)  # the newest key: kept
            assert spy.call_count == bound + 1
            cli._environment("mismatch", 1)  # the oldest key: dropped
            assert spy.call_count == bound + 2

    @pytest.mark.parametrize("env_id", ["driving", "mediator-toy"])
    def test_every_shared_array_is_read_only(self, tmp_path, env_id):
        config = write_config(tmp_path / "cfg.yaml", env=env_id, horizon=3,
                              control={"episodes": 2, "seed": 1})
        assert main(["run-control", "--config", str(config), "--out", str(tmp_path)]) == 0
        arrays = list(_reachable_arrays(cli._environment(env_id, 3)))
        # successors, probs, latent_dist, safe, barrier, behavioral table,
        # online and absorbing kernels
        assert len(arrays) >= 7
        assert any(a is cli._environment(env_id, 3).model.barrier for a in arrays)
        assert not any(a.flags.writeable for a in arrays)


def test_driving_commands_never_build_the_dense_kernel(tmp_path, monkeypatch):
    """reproduce, gen-data, export-oracle and run-control on driving read the
    model's short rows alone: none builds its dense (x, u, w, x') view."""

    def dense_view(model):
        raise AssertionError("a driving command built the dense transition")

    monkeypatch.setattr(ConfoundedMdpModel, "transition", property(dense_view))
    cli._environment.cache_clear()  # each build runs under the patch
    config = write_config(tmp_path / "cfg.yaml", env="driving", horizon=10,
                          dataset={"n_episodes": 20}, control={"episodes": 4},
                          evaluation={"batches": 2, "trajectories": 10})
    for command, *rest in (
        ["reproduce", "--out", "report"],
        ["gen-data", "--out", "raw.jsonl"],
        ["export-oracle", "--out", "oracle"],
        ["run-control", "--out", "control"],
    ):
        rest[-1] = str(tmp_path / rest[-1])
        assert main([command, "--config", str(config), *rest]) == 0, command
    cli._environment.cache_clear()


class TestSavedDatasetHandover:
    """A dataset one command saves goes to the next command of the process
    alone, if it reads that path, and loads without a parse while the file is
    byte for byte what was written; every output and message is a parse's."""

    @pytest.fixture(autouse=True)
    def no_record(self):
        cli._saved.clear()
        yield
        cli._saved.clear()

    PIPELINE = (
        ["gen-data", "--out", "{out}/raw.jsonl"],
        ["convert", "--input", "{out}/raw.jsonl", "--output", "{out}/converted.jsonl"],
        ["fit-q", "--dataset", "{out}/converted.jsonl", "--out", "{out}/fit"],
    )
    OUTPUTS = ("raw.jsonl", "converted.jsonl", "fit/q.csv", "fit/qm.csv", "fit/fit_meta.json",
               "fit/config.yaml")

    @staticmethod
    def _run(config, *argvs, out="", drop=False):
        """The exit code of each ``main(argv)`` ({out} filled in), and how
        many times ``data._parse_runs`` parsed; ``drop`` drops the record
        before each command."""
        codes = []
        with mock.patch.object(data, "_parse_runs", wraps=data._parse_runs) as parse:
            for argv in argvs:
                if drop:
                    cli._saved.clear()
                command, *rest = (arg.format(out=out) for arg in argv)
                codes.append(main([command, "--config", str(config), *rest]))
        return codes, parse.call_count

    def test_pipeline_parses_nothing_with_unchanged_bytes(self, tmp_path, toy_config):
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        shared.mkdir()
        fresh.mkdir()
        assert self._run(toy_config, *self.PIPELINE, out=shared) == ([0, 0, 0], 0)
        assert self._run(toy_config, *self.PIPELINE, out=fresh, drop=True) == ([0, 0, 0], 2)
        for name in self.OUTPUTS:
            assert (shared / name).read_bytes() == (fresh / name).read_bytes(), name

    # ``main`` on each argv of a JSON list, in a fresh process: one JSON line
    # of exit code and standard error per command
    FRESH_MAINS = """
import contextlib, io, json, sys
from latentsafe.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stderr(io.StringIO()) as err, contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(json.dumps([code, err.getvalue()]))
"""

    def test_edited_file_loads_as_in_a_fresh_process(self, tmp_path, toy_config, capsys):
        """A same-length edit of the first row's first x (to another state)
        or u (to an id out of range) between gen-data and convert: the parse
        runs, with a fresh process's exit code, message and output bytes."""
        here, fresh_argvs = [], []
        for field, digit in (("x", b"1"), ("u", b"7")):
            raw = tmp_path / f"raw-{field}.jsonl"
            assert main(["gen-data", "--config", str(toy_config), "--out", str(raw)]) == 0
            text = raw.read_bytes()
            i = text.index(b'"%s":[' % field.encode()) + 5
            assert text[i:i + 1] != digit
            raw.write_bytes(text[:i] + digit + text[i + 1:])
            capsys.readouterr()
            convert = ["convert", "--input", str(raw), "--output"]
            codes, parses = self._run(toy_config, [*convert, str(tmp_path / f"here-{field}")])
            here.append([*codes, parses, capsys.readouterr().err])
            fresh_argvs.append(["convert", "--config", str(toy_config), *convert[1:],
                                str(tmp_path / f"fresh-{field}")])
        run = _python(self.FRESH_MAINS, json.dumps(fresh_argvs))
        fresh = [json.loads(line) for line in run.stdout.splitlines()]
        assert here == [[code, 1, err] for code, err in fresh]
        assert [code for code, _ in fresh] == [0, 2]
        assert (tmp_path / "here-x").read_bytes() == (tmp_path / "fresh-x").read_bytes()
        assert fresh[1][1] == "error: line 1: field 'u' holds 7, not an id in 0..1\n"

    @pytest.mark.parametrize("between", ["export-oracle", "copy"])
    def test_another_path_drops_the_record(self, tmp_path, toy_config, between):
        """An export-oracle between gen-data and convert, or a convert of a
        copy of the file at another path: the convert parses."""
        raw, source = tmp_path / "raw.jsonl", tmp_path / "raw.jsonl"
        assert main(["gen-data", "--config", str(toy_config), "--out", str(raw)]) == 0
        if between == "export-oracle":
            assert main(["export-oracle", "--config", str(toy_config),
                         "--out", str(tmp_path / "oracle")]) == 0
        else:
            source = tmp_path / "copy.jsonl"
            source.write_bytes(raw.read_bytes())
        convert = ["convert", "--input", str(source), "--output", str(tmp_path / "c.jsonl")]
        assert self._run(toy_config, convert) == ([0], 1)

    @pytest.mark.parametrize("env_id", ["mediator-toy", "mismatch"])
    def test_the_consumer_drops_the_record(self, tmp_path, toy_config, capsys, env_id):
        """Whether the command the record goes to succeeds (fit-q) or exits
        2 (a convert under ``mismatch``, which has no mediator, of a file with
        m), the next read of the same file parses."""
        raw = tmp_path / "raw.jsonl"
        assert main(["gen-data", "--config", str(toy_config), "--out", str(raw)]) == 0
        consumer = write_config(tmp_path / "consumer.yaml", env=env_id)
        if env_id == "mismatch":
            argv = ["convert", "--input", str(raw), "--output", str(tmp_path / "c.jsonl")]
        else:
            argv = ["fit-q", "--dataset", str(raw), "--out", str(tmp_path / "fit")]
        capsys.readouterr()
        expected = ([2], 1) if env_id == "mismatch" else ([0], 0)
        assert self._run(consumer, argv) == expected
        if env_id == "mismatch":  # the per-line loader's message
            assert capsys.readouterr().err == (
                "error: line 1: fields ['m', 'u', 'x'] are not x, u and any of ['k']\n")
        again = ["fit-q", "--dataset", str(raw), "--out", str(tmp_path / "again")]
        assert self._run(toy_config, again) == ([0], 1)

    def test_handed_over_arrays_are_read_only(self, tmp_path, toy_config):
        raw = tmp_path / "raw.jsonl"
        assert main(["gen-data", "--config", str(toy_config), "--out", str(raw)]) == 0
        loaded, load = [], cli.load_jsonl

        def keep(*args, **kwargs):
            loaded.append(load(*args, **kwargs))
            return loaded[-1]

        with mock.patch.object(cli, "load_jsonl", keep):
            convert = ["convert", "--input", str(raw), "--output", str(tmp_path / "c.jsonl")]
            assert self._run(toy_config, convert) == ([0], 0)
        (dataset,) = loaded
        for name in ("x", "u", "m"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(dataset, name)[...] = 0


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """``python -c code args`` in a fresh interpreter that imports this
    checkout's package."""
    src = os.path.dirname(os.path.dirname(latentsafe.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)


def test_cli_import_leaves_out_the_thread_pool():
    """Every command pays ``import latentsafe.cli``; only an evaluation on
    more than one worker needs ``concurrent.futures``."""
    run = _python("import sys, latentsafe.cli; print('concurrent.futures' in sys.modules)")
    assert (run.returncode, run.stdout) == (0, "False\n"), run.stderr


# ``main(argv)`` with the address space capped at 16 GiB, or the hard limit
MAIN_UNDER_16_GIB = """
import resource, sys
_, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = 2**34 if hard == resource.RLIM_INFINITY else min(2**34, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
from latentsafe.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestSizeLimits:
    @pytest.mark.parametrize("horizon", [10**20, 2**63 - 1])
    def test_horizon_beyond_index_range_is_named(self, tmp_path, capsys, horizon):
        config = write_config(tmp_path / "big.yaml", horizon=horizon)
        code = main(["gen-data", "--config", str(config), "--out", str(tmp_path / "x.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"at horizon {horizon} needs arrays numpy cannot index" in err

    @pytest.mark.parametrize(
        "command, overrides, name",
        [
            (["gen-data", "--out", "{tmp}/x.jsonl"], {"dataset": {"n_episodes": 2**40}},
             "dataset.n_episodes"),
            (["run-control", "--out", "{tmp}/control"], {"control": {"episodes": 2**40}},
             "control.episodes"),
        ],
        ids=["gen-data", "run-control"],
    )
    def test_size_beyond_memory_is_named(self, tmp_path, command, overrides, name):
        """2**40 episodes need 8 TiB at the first large allocation. The
        child's address space is capped at 16 GiB, so that allocation fails
        at once whatever the host's overcommit policy."""
        config = write_config(tmp_path / "big.yaml", **overrides)
        command, *rest = (arg.format(tmp=tmp_path) for arg in command)
        run = _python(MAIN_UNDER_16_GIB, command, "--config", str(config), *rest)
        assert run.returncode == 2, run.stderr
        assert run.stderr.startswith("error: out of memory for horizon, ") and name in run.stderr
        assert "Traceback" not in run.stderr


class TestExportOracle:
    def test_tables_written(self, tmp_path):
        config = write_config(tmp_path / "mm.yaml", env="mismatch", horizon=3)
        out = tmp_path / "oracle"
        assert main(["export-oracle", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "oracle_q.csv").exists() and (out / "oracle_v.csv").exists()


class TestPinnedDatasetBytes:
    """gen-data + convert output is pinned byte for byte, so a change of the
    data layer that alters the random stream or the file format shows here.
    The hashes were recorded when each command began to draw from one stream
    and datasets lost their per-episode seed."""

    @pytest.mark.parametrize(
        "env, horizon, n, raw_sha, converted_sha",
        [
            (
                "mediator-toy", 3, 200,
                "bc77074667f27c0fb6c8ef44a8731e050a99efccb078b93f60e68df6cf49f5a1",
                "42414322d348079e9552b10472b4496b2402cf3f36a806907f7010d0a6bc370f",
            ),
            (
                "driving", 10, 50,
                "81ac91f6cf4e564cbe33021629c4f08522639b48d524a0341cbc5d062cf25ba9",
                "09cc6ac7183f10da371b04cc38fd7a016fa46c26a543c6e89ddd786e5401a848",
            ),
        ],
        ids=["mediator-toy", "driving"],
    )
    def test_sha256(self, tmp_path, env, horizon, n, raw_sha, converted_sha):
        config = write_config(
            tmp_path / "cfg.yaml", env=env, horizon=horizon,
            dataset={"n_episodes": n, "seed": 31},
        )
        raw, conv = tmp_path / "raw.jsonl", tmp_path / "conv.jsonl"
        assert main(["gen-data", "--config", str(config), "--out", str(raw)]) == 0
        assert main([
            "convert", "--config", str(config), "--input", str(raw), "--output", str(conv)
        ]) == 0
        assert hashlib.sha256(raw.read_bytes()).hexdigest() == raw_sha
        assert hashlib.sha256(conv.read_bytes()).hexdigest() == converted_sha


class TestPinnedControlBytes:
    """run-control trajectories and the reproduce report are pinned byte for
    byte, so a change of the certificate, the selection rule, the control
    loop or the exact propagation that alters any number shows here. The
    trajectory hashes were recorded when run-control began to draw from one
    stream."""

    def test_driving_nearest_nominal_oracle_q(self, tmp_path):
        config = write_config(tmp_path / "cfg.yaml", env="driving", horizon=10,
                              control={"episodes": 50, "seed": 23})
        out = tmp_path / "control"
        assert main(["run-control", "--config", str(config), "--out", str(out)]) == 0
        assert _sha256(out / "trajectories.jsonl") == (
            "2442be2aab08e25f052d34b6dd8a4fbba53407f3b8ac7fe9a053d786c8d02573"
        )

    def test_mediator_toy_fitted_q_csv(self, toy_config, tmp_path):
        raw, fit_dir, out = tmp_path / "raw.jsonl", tmp_path / "fit", tmp_path / "control"
        assert main(["gen-data", "--config", str(toy_config), "--out", str(raw)]) == 0
        assert main(["fit-q", "--config", str(toy_config), "--dataset", str(raw),
                     "--out", str(fit_dir)]) == 0
        assert main(["run-control", "--config", str(toy_config), "--q-csv",
                     str(fit_dir / "q.csv"), "--episodes", "40", "--seed", "9",
                     "--out", str(out)]) == 0
        assert _sha256(out / "trajectories.jsonl") == (
            "a4e230951f90c56a6e563d670670156c3d1944f96cb7d58566fb5199eb5b8c5c"
        )

    def test_reproduce_report(self, tmp_path):
        """One DP sweep gives both Q and V: the report's bytes are those of
        the commit that ran the sweep once for each."""
        config = write_config(
            tmp_path / "cfg.yaml", env="driving", horizon=10,
            evaluation={"batches": 4, "trajectories": 20, "seed": 8, "max_workers": 1},
        )
        out = tmp_path / "report"
        with mock.patch.object(oracle, "_dp_sweep", wraps=oracle._dp_sweep) as sweep:
            assert main(["reproduce", "--config", str(config), "--out", str(out)]) == 0
        assert sweep.call_count == 1
        assert _sha256(out / "curves.csv") == (
            "bb20c43d6084ad900c7c74bf4e8d0c042460ffc79d416e067b029928040c1e9e"
        )
        assert _sha256(out / "summary.json") == (
            "0475cb2db17f87a70bfec76d2c389b5590353161a41b382e939f4c252e3f6c0b"
        )

    def test_reproduce_report_over_several_blocks(self, tmp_path):
        """45 batches of 100 trajectories fill three Monte Carlo blocks, the
        last one short. The hashes were computed at the commit before blocks
        of batches were stepped in lockstep."""
        config = write_config(
            tmp_path / "cfg.yaml", env="driving", horizon=10,
            evaluation={"batches": 45, "trajectories": 100, "seed": 8, "max_workers": 1},
        )
        out = tmp_path / "report"
        assert main(["reproduce", "--config", str(config), "--out", str(out)]) == 0
        assert _sha256(out / "curves.csv") == (
            "4533a9f423e2a8866686ac42202ca05ecca798b56756c3acdf7f142cf2176f79"
        )
        assert _sha256(out / "summary.json") == (
            "88548c96ed74e80f10ca5fe3da9c49a2353b940d9a89a0cb736c20ceb6bd6337"
        )


class TestPinnedTableBytes:
    """The Q and V tables fit-q and export-oracle write are pinned byte for
    byte, so a change of the table types, the cell writer or the fit that
    alters any number or row shows here. The table hashes were computed at
    the commit before exact and fitted Q rows became one type; the
    ``fit_meta.json`` hashes and the ``fit-q`` report line at the commit
    before the fit became one backward pass, so the fit's diagnostics
    (sweeps, residual, default cells) are pinned too. The ``data/`` table
    hashes were recorded again when gen-data began to draw from one stream."""

    def test_fit_q_tables(self, toy_config, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        assert main(["gen-data", "--config", str(toy_config), "--out", str(raw)]) == 0
        capsys.readouterr()
        for name, source in (("data", ["--dataset", str(raw)]), ("exact", ["--exact"])):
            assert main(["fit-q", "--config", str(toy_config), *source,
                         "--out", str(tmp_path / name)]) == 0
            assert capsys.readouterr().out.startswith(
                "fitted mediator-Q in 4 sweeps (residual 0.000e+00); tables in "
            )
        assert {
            name: _sha256(tmp_path / name)
            for name in ("data/q.csv", "data/qm.csv", "exact/q.csv", "exact/qm.csv",
                         "data/fit_meta.json", "exact/fit_meta.json")
        } == {
            "data/q.csv": "58f7877ff5e3a256013d2d86c72cba108fbdcc76c57ea8e6b47ccee5b3b8672c",
            "data/qm.csv": "e8d8c1161aa82c2f2b820221860f79e60d54435706699dca8112d387d97d9792",
            "exact/q.csv": "63e35b0596b8f5122243e15a24684a4cd6eff1eaeb6784eeefe2482d8d798de6",
            "exact/qm.csv": "b801811072c696677c470491de79adf3e169f74b89dff9df8425388b8924bcf8",
            "data/fit_meta.json":
                "bace94a08f40d206187cd169ff4c0784b2eaa78c876df236986e87c0e324e715",
            "exact/fit_meta.json":
                "b1190c03e8836cc4796fb9d305c77e6aee1f2d03ade527aaaceb13e95faaf011",
        }

    def test_export_oracle_tables(self, tmp_path):
        """Q and V come from one DP sweep, with the bytes of two."""
        config = write_config(tmp_path / "cfg.yaml", env="driving", horizon=10)
        out = tmp_path / "oracle"
        with mock.patch.object(oracle, "_dp_sweep", wraps=oracle._dp_sweep) as sweep:
            assert main(["export-oracle", "--config", str(config), "--out", str(out)]) == 0
        assert sweep.call_count == 1
        assert _sha256(out / "oracle_q.csv") == (
            "52bd0220a307490ba9b9bfe5f6fd2d5ddff2c52cb25b6d2cf891aedd78b31fb8"
        )
        assert _sha256(out / "oracle_v.csv") == (
            "15c6f96259b805dd633630a1ccdee2080da2e5b9f29d76af98859daf5e2486d7"
        )


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def toy_converted_lines(toy_config, tmp_path_factory):
    """The records of a small converted mediator-toy dataset."""
    work = tmp_path_factory.mktemp("bad-data")
    raw, conv = work / "raw.jsonl", work / "conv.jsonl"
    main(["gen-data", "--config", str(toy_config), "--n", "5", "--out", str(raw)])
    main(["convert", "--config", str(toy_config), "--input", str(raw), "--output", str(conv)])
    return [json.loads(line) for line in conv.read_text().splitlines()]


def _set(record, key, index, value):
    record[key][index] = value


# (edit of the 0-based record list, 1-based line named, field named)
BAD_DATASETS = {
    "negative-ids": (lambda r: (_set(r[0], "m", 0, -1), _set(r[0], "u", 1, -1)), 1, "u"),
    "state-out-of-range": (lambda r: _set(r[2], "x", 0, 2), 3, "x"),
    "mediator-out-of-range": (lambda r: _set(r[3], "m", 2, 5), 4, "m"),
    "float-id": (lambda r: _set(r[1], "u", 0, 0.5), 2, "u"),
    "missing-field": (lambda r: r[1].pop("m"), 2, "m"),
    "extra-field": (lambda r: r[4].update(w=[0, 0, 0, 0]), 5, "w"),
    "short-sequence": (lambda r: r[2]["x"].pop(), 3, "x"),
    "horizon-mismatch": (
        lambda r: [rec.update(x=rec["x"] + [0], u=rec["u"] + [0], m=rec["m"] + [0],
                              k=[4, 3, 2, 1, 0]) for rec in r],
        1, "x",
    ),
    "wrong-countdown": (lambda r: r[1].update(k=[0, 1, 2, 3]), 2, "k"),
    "not-frozen": (lambda r: r[3].update(x=[0, 1, 0, 0]), 4, "x"),
    # a line with a seed, as datasets carried one per episode before every
    # command drew from one stream: a field no line may have
    "negative-seed": (lambda r: r[2].update(seed=-1), 3, "seed"),
    "seed-too-large": (lambda r: r[2].update(seed=2**64), 3, "seed"),
    "seed-20-digits": (lambda r: r[4].update(seed=10**20 - 1), 5, "seed"),
    "boolean-state": (lambda r: _set(r[1], "x", 0, False), 2, "x"),
    "boolean-action": (lambda r: _set(r[2], "u", 1, True), 3, "u"),
    "boolean-mediator": (lambda r: _set(r[0], "m", 3, False), 1, "m"),
    "boolean-countdown": (lambda r: _set(r[4], "k", 2, True), 5, "k"),
}


RAW_LINE = b'{"x":[0,0,0,0],"u":[0,0,0,0],"m":[0,0,0,0]}\n'


class TestBadDatasets:
    @pytest.mark.parametrize("case", sorted(BAD_DATASETS))
    def test_rejected_with_line_and_field(
        self, toy_config, toy_converted_lines, tmp_path, capsys, case
    ):
        edit, line, field = BAD_DATASETS[case]
        records = copy.deepcopy(toy_converted_lines)
        edit(records)
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records))
        code = main([
            "fit-q", "--config", str(toy_config), "--dataset", str(path),
            "--out", str(tmp_path / "fit"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert f"line {line}:" in err and repr(field) in err

    @pytest.mark.parametrize("prefix, line", [(b"", 1), (RAW_LINE, 2)], ids=["first", "second"])
    def test_not_utf8_text(self, toy_config, tmp_path, capsys, prefix, line):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(prefix + b"\xff\xfe" + RAW_LINE)
        code = main([
            "convert", "--config", str(toy_config), "--input", str(path),
            "--output", str(tmp_path / "c.jsonl"),
        ])
        assert code == 2
        assert f"line {line}: not UTF-8 text" in capsys.readouterr().err

    def test_invalid_json_line(self, toy_config, toy_converted_lines, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(toy_converted_lines[0]) + "\n{oops\n")
        code = main([
            "convert", "--config", str(toy_config), "--input", str(path),
            "--output", str(tmp_path / "c.jsonl"),
        ])
        assert code == 2
        assert "line 2:" in capsys.readouterr().err

    def test_deeply_nested_line(self, toy_config, tmp_path, capsys):
        """Nesting past the JSON decoder's recursion depth is not a JSON object."""
        path = tmp_path / "deep.jsonl"
        path.write_text("[" * 200_000)
        code = main([
            "convert", "--config", str(toy_config), "--input", str(path),
            "--output", str(tmp_path / "c.jsonl"),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: line 1: not a JSON object\n"


class TestBadCertificateCsv:
    @pytest.fixture()
    def q_rows(self, toy_config, tmp_path):
        out = tmp_path / "fit"
        assert main(["fit-q", "--config", str(toy_config), "--exact", "--out", str(out)]) == 0
        return (out / "q.csv").read_text().splitlines()

    def _run(self, toy_config, tmp_path, lines):
        path = tmp_path / "q_bad.csv"
        path.write_text("\n".join(lines) + "\n")
        return main([
            "run-control", "--config", str(toy_config), "--episodes", "2",
            "--q-csv", str(path), "--out", str(tmp_path / "control"),
        ])

    def test_partial_action_row(self, toy_config, tmp_path, capsys, q_rows):
        # rows for action 0 only: action 1 would silently read Q = 0
        lines = [q_rows[0]] + [r for r in q_rows[1:] if r.split(",")[2] == "0"]
        assert self._run(toy_config, tmp_path, lines) == 2
        assert "(x=0, k=0, u=1)" in capsys.readouterr().err

    def test_value_outside_unit_interval(self, toy_config, tmp_path, capsys, q_rows):
        x, k, u, _ = q_rows[5].split(",")
        lines = q_rows[:5] + [f"{x},{k},{u},1.5"] + q_rows[6:]
        assert self._run(toy_config, tmp_path, lines) == 2
        assert f"(x={x}, k={k}, u={u})" in capsys.readouterr().err

    def test_missing_row_leaves_no_log(self, toy_config, tmp_path, capsys, q_rows):
        # without the (x=1, k=2) rows, some of 50 episodes reach that cell
        lines = [q_rows[0]] + [r for r in q_rows[1:] if r.split(",")[:2] != ["1", "2"]]
        path = tmp_path / "q_missing.csv"
        path.write_text("\n".join(lines) + "\n")
        code = main([
            "run-control", "--config", str(toy_config), "--episodes", "50",
            "--q-csv", str(path), "--out", str(tmp_path / "control"),
        ])
        assert code == 2
        assert "no fitted Q row for augmented state (x=1, k=2)" in capsys.readouterr().err
        assert not (tmp_path / "control" / "trajectories.jsonl").exists()

    def test_unknown_action(self, toy_config, tmp_path, capsys, q_rows):
        lines = q_rows + ["0,1,7,0.5"]
        assert self._run(toy_config, tmp_path, lines) == 2
        assert "(x=0, k=1, u=7)" in capsys.readouterr().err

    def test_duplicate_row(self, toy_config, tmp_path, capsys, q_rows):
        # a later row for a listed cell would silently replace its value
        assert q_rows[5].startswith("0,1,0,")
        lines = q_rows + ["0,1,0,0.0"]
        assert self._run(toy_config, tmp_path, lines) == 2
        assert "repeats table entry (x=0, k=1, u=0)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "tail", [b"\xff\xfe\n", b"0,1,0," + b"9" * 131_073 + b"\n"],
        ids=["not-utf8", "field-over-csv-limit"],
    )
    def test_unreadable_file(self, toy_config, tmp_path, capsys, q_rows, tail):
        # good rows, then bytes the csv module cannot read: exit 2 naming the
        # file, never a traceback with exit 1 ("criteria violated")
        path = tmp_path / "q_bad.csv"
        path.write_bytes("".join(row + "\n" for row in q_rows).encode() + tail)
        code = main([
            "run-control", "--config", str(toy_config), "--episodes", "2",
            "--q-csv", str(path), "--out", str(tmp_path / "control"),
        ])
        assert code == 2
        assert f"error: {path}: not CSV text" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["driving-oracle", "toy-exact", "toy-dataset"])
def test_written_q_csv_equals_the_row_reference(toy_config, tmp_path, source):
    """Every q.csv the pipeline writes loads to the row reference's table."""
    if source == "driving-oracle":  # H = 10, three-digit states
        config = write_config(tmp_path / "cfg.yaml", env="driving", horizon=10)
        assert main(["export-oracle", "--config", str(config), "--out", str(tmp_path)]) == 0
        path = tmp_path / "oracle_q.csv"
    else:
        config, path = toy_config, tmp_path / "q.csv"
        source_args = ["--exact"]
        if source == "toy-dataset":  # the data never reach (x=1, k=3): rows are missing
            raw = tmp_path / "raw.jsonl"
            assert main(["gen-data", "--config", str(config), "--out", str(raw)]) == 0
            source_args = ["--dataset", str(raw)]
        assert main(["fit-q", "--config", str(config), *source_args, "--out", str(tmp_path)]) == 0
    cfg = yaml.safe_load(config.read_text())
    env = build_environment(cfg["env"], horizon=cfg["horizon"])
    args = (path, env.model.horizon, env.model.n_states, env.model.action_values)
    loaded = load_q_table_csv(*args)
    reference = reference_load_q_table_csv(*args)
    assert loaded.values.tobytes() == reference.values.tobytes()
    assert loaded.available.tobytes() == reference.available.tobytes()
    assert loaded.available.all() == (source != "toy-dataset")


def test_swapped_header_is_read_row_by_row(toy_config, tmp_path):
    """A k,x,u,value file is read by column name, never in the writer's
    column order. Only the rows with k <= 1 are kept: on the 2-state toy
    every k then fits the x range and every x the k range, so a reader that
    took the writer's column order would load a transposed table that no
    check rejects."""
    assert main(["fit-q", "--config", str(toy_config), "--exact", "--out", str(tmp_path)]) == 0
    header, *rows = [line.split(",") for line in (tmp_path / "q.csv").read_text().splitlines()]
    path = tmp_path / "q_kx.csv"
    path.write_text("".join(
        f"{k},{x},{u},{value}\n" for x, k, u, value in [header, *rows] if k == "k" or int(k) <= 1
    ))
    assert path.read_text().startswith("k,x,u,value\n0,0,0,")
    model = build_environment("mediator-toy", horizon=3).model
    args = (path, model.horizon, model.n_states, model.action_values)
    loaded, reference = load_q_table_csv(*args), reference_load_q_table_csv(*args)
    assert loaded.values.tobytes() == reference.values.tobytes()
    assert loaded.available.tobytes() == reference.available.tobytes()


class TestConfigTypes:
    @pytest.mark.parametrize(
        "overrides, name",
        [
            ({"horizon": "10"}, "horizon"),
            ({"horizon": True}, "horizon"),
            ({"dataset": {"n_episodes": -1}}, "dataset.n_episodes"),
            ({"dataset": {"n_episodes": 10.0}}, "dataset.n_episodes"),
            ({"evaluation": {"batches": 0}}, "evaluation.batches"),
            ({"evaluation": {"trajectories": False}}, "evaluation.trajectories"),
            ({"evaluation": {"max_workers": 0}}, "evaluation.max_workers"),
            ({"control": {"episodes": "3"}}, "control.episodes"),
            ({"dataset": {"seed": -7}}, "dataset.seed"),
            ({"evaluation": {"seed": "2025"}}, "evaluation.seed"),
            ({"x0": True}, "x0"),
            ({"env": "driving", "horizon": 10, "x0": [0]}, "x0"),
            ({"dtcbf": {"alpha": "a"}}, "dtcbf.alpha"),
            ({"dtcbf": {"delta": float("nan")}}, "dtcbf.delta"),
            ({"output_dir": 5}, "output_dir"),
            ({"control": {"selection_mode": "argmax"}}, "control.selection_mode"),
        ],
    )
    def test_bad_value_is_named(self, tmp_path, capsys, overrides, name):
        config = write_config(tmp_path / "bad.yaml", **overrides)
        code = main(["gen-data", "--config", str(config), "--out", str(tmp_path / "x.jsonl")])
        assert code == 2
        assert f"{name} must be {MUST_BE.get(name, 'an integer')}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, name",
        [("--seed", "-1", "control.seed"), ("--episodes", "-3", "control.episodes")],
    )
    def test_bad_run_control_flag_is_named(self, toy_config, tmp_path, capsys, flag, value, name):
        code = main(["run-control", "--config", str(toy_config), flag, value,
                     "--out", str(tmp_path / "control")])
        assert code == 2
        assert f"{name} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "env, argv",
        [
            ("mediator-toy", ["gen-data", "--out", "{out}/x.jsonl"]),
            ("mediator-toy", ["convert", "--input", "{raw}", "--output", "{out}/c.jsonl"]),
            ("mediator-toy", ["fit-q", "--exact", "--out", "{out}/fit"]),
            ("mediator-toy", ["run-control", "--out", "{out}/control"]),
            ("driving", ["reproduce", "--out", "{out}/report"]),
            ("mediator-toy", ["export-oracle", "--out", "{out}/oracle"]),
        ],
        ids=["gen-data", "convert", "fit-q", "run-control", "reproduce", "export-oracle"],
    )
    def test_unknown_start_state_stops_every_command(
        self, toy_config, tmp_path, capsys, env, argv
    ):
        """x0 names a state the model lacks: every command exits 2 naming
        x0 before it writes anything, whether or not it reads x0."""
        raw = tmp_path / "raw.jsonl"  # a valid input, so convert fails on x0 alone
        assert main(["gen-data", "--config", str(toy_config), "--n", "5", "--out", str(raw)]) == 0
        capsys.readouterr()
        config = write_config(tmp_path / "bad.yaml", env=env,
                              x0=7 if env == "mediator-toy" else 300)
        out = tmp_path / "out"
        out.mkdir()
        command, *rest = (arg.format(out=out, raw=raw) for arg in argv)
        assert main([command, "--config", str(config), *rest]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: x0 ") and "unknown state id" in err
        assert list(out.iterdir()) == []


class TestCommandFrame:
    # each command's override flags and the config keys they replace
    OVERRIDES = {
        "gen-data": {"--env": "env", "--n": "dataset.n_episodes", "--seed": "dataset.seed"},
        "convert": {"--env": "env"},
        "fit-q": {"--env": "env"},
        "run-control": {"--env": "env", "--episodes": "control.episodes",
                        "--seed": "control.seed"},
        "reproduce": {"--seed": "evaluation.seed", "--max-workers": "evaluation.max_workers"},
        "export-oracle": {},
    }

    def test_every_override_flag_names_a_config_key(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(self.OVERRIDES)
        for name, parser in sub.choices.items():
            keys = parser.get_default("overrides")
            flags = {a.option_strings[0]: a.dest for a in parser._actions if a.dest in keys}
            assert flags == self.OVERRIDES[name]
            for key in keys:
                section, _, leaf = key.rpartition(".")
                scope = DEFAULT_CONFIG[section] if section else DEFAULT_CONFIG
                assert leaf in scope and not isinstance(scope[leaf], dict)

    def test_flag_only_pipeline(self, tmp_path):
        """README's offline flow with no config file: every flag reaches its
        key, over the defaults (horizon 10)."""
        raw, conv = tmp_path / "raw.jsonl", tmp_path / "conv.jsonl"
        fit_dir, control_dir = tmp_path / "fit", tmp_path / "control"
        env = ["--env", "mediator-toy"]
        assert main(["gen-data", *env, "--n", "200", "--seed", "7", "--out", str(raw)]) == 0
        assert main(["convert", *env, "--input", str(raw), "--output", str(conv)]) == 0
        assert main(["fit-q", *env, "--dataset", str(conv), "--out", str(fit_dir)]) == 0
        assert main(["run-control", *env, "--q-csv", str(fit_dir / "q.csv"),
                     "--episodes", "3", "--seed", "5", "--out", str(control_dir)]) == 0
        toy = build_environment("mediator-toy", horizon=10)
        dataset = load_jsonl(raw, toy.model, toy.mediator)
        assert dataset.horizon == 10
        expected = generate_offline(toy.model, toy.behavioral, 200, toy.default_x0, 7,
                                    mediator=toy.mediator)
        assert_same_episodes(dataset, expected)
        for out in (fit_dir, control_dir):
            assert yaml.safe_load((out / "config.yaml").read_text())["env"] == "mediator-toy"
        echo = yaml.safe_load((control_dir / "config.yaml").read_text())
        assert echo["control"] == {**DEFAULT_CONFIG["control"], "episodes": 3, "seed": 5}
        log = (control_dir / "trajectories.jsonl").read_text().splitlines()
        assert len(log) == 3 * 10

    @pytest.mark.parametrize("workers", ["100000", "33"])
    def test_max_workers_beyond_cap_is_named(self, tmp_path, capsys, workers):
        """Refused by validation, before any thread pool exists."""
        out = tmp_path / "r"
        assert main(["reproduce", "--max-workers", workers, "--out", str(out)]) == 2
        assert "evaluation.max_workers must be <= 32" in capsys.readouterr().err
        assert not out.exists()


# What the error message says a key must be, where it is not an integer.
MUST_BE = {
    "x0": "null, a state id",
    "dtcbf.alpha": "a number",
    "dtcbf.delta": "a number",
    "output_dir": "a string",
    "control.selection_mode": "one of nearest-nominal, max-action",
}
