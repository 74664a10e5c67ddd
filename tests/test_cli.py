"""Command-line pipeline: composition, exit codes, determinism."""

import json

import numpy as np
import pytest
import yaml

from latentsafe.cli import main
from latentsafe.data import load_jsonl
from latentsafe.evaluation import parse_curves_csv


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
        ds = load_jsonl(out)
        stay = total = 0
        for ep in ds.episodes:
            for t in range(ds.horizon):
                if ep.x[t] == 0 and ep.u[t] == 1:
                    total += 1
                    stay += ep.x[t + 1] == 0
        assert total > 1000 and stay == total


class TestPipelineComposition:
    def test_gen_convert_fit(self, toy_config, tmp_path):
        raw = tmp_path / "raw.jsonl"
        conv = tmp_path / "conv.jsonl"
        fit_dir = tmp_path / "fit"
        assert main(["gen-data", "--config", str(toy_config), "--out", str(raw)]) == 0
        assert main([
            "convert", "--config", str(toy_config), "--input", str(raw), "--output", str(conv)
        ]) == 0
        loaded = load_jsonl(conv)
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

    def test_fit_q_exact_mode_matches_oracle(self, toy_config, tmp_path):
        import numpy as np

        from latentsafe.envs import build_mediator_toy_env
        from latentsafe.frontdoor import import_qm_csv
        from latentsafe.mdp import uniform_policy
        from latentsafe.oracle import qm_dp

        out = tmp_path / "fit"
        assert main([
            "fit-q", "--config", str(toy_config), "--exact", "--out", str(out)
        ]) == 0
        env = build_mediator_toy_env(horizon=3)
        oracle = qm_dp(env.model, env.mediator, uniform_policy(2, 2))
        loaded = import_qm_csv(out / "qm.csv", 3, 2, (0, 1), 2)
        assert np.max(np.abs(loaded.values - oracle.values)) < 1e-10


class TestRunControl:
    def test_trajectory_log_fields(self, tmp_path):
        config = write_config(tmp_path / "drv.yaml", env="driving", horizon=5,
                              control={"episodes": 3, "seed": 4})
        out_dir = tmp_path / "control"
        assert main(["run-control", "--config", str(config), "--out", str(out_dir)]) == 0
        lines = (out_dir / "trajectories.jsonl").read_text().splitlines()
        assert len(lines) == 3 * 5
        record = json.loads(lines[0])
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
        a = parse_curves_csv(outs[0] / "curves.csv")
        b = parse_curves_csv(outs[1] / "curves.csv")
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

    def test_rejects_non_driving_env(self, toy_config, tmp_path):
        code = main(["reproduce", "--config", str(toy_config), "--out", str(tmp_path / "r")])
        assert code == 2


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
        ],
    )
    def test_unknown_key_is_named(self, tmp_path, capsys, overrides, name):
        config = write_config(tmp_path / "bad.yaml", **overrides)
        code = main(["gen-data", "--config", str(config), "--out", str(tmp_path / "x.jsonl")])
        assert code == 2
        assert f"unknown config key {name!r}" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        code = main([
            "gen-data", "--config", str(tmp_path / "absent.yaml"),
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert code == 2


class TestExportOracle:
    def test_tables_written(self, tmp_path):
        config = write_config(tmp_path / "mm.yaml", env="mismatch", horizon=3)
        out = tmp_path / "oracle"
        assert main(["export-oracle", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "oracle_q.csv").exists() and (out / "oracle_v.csv").exists()
