"""Self-test of the benchmark at tiny sizes.

Run from the repository root: python3 -m pytest -q bench
"""

import json
import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "repro-driving": {"batches": 20, "trajectories": 20},
    "offline-toy": {"episodes": 3000, "control_episodes": 20},
    "offline-driving": {"episodes": 200, "control_episodes": 10},
}
SEED = 3

# the workload on which each layer does the most work
HEAVY = {
    "cli.self_s": "offline-driving",
    "envs.build_s": "offline-driving",
    "mdp.kernel_s": "repro-driving",
    "oracle.dp_s": "repro-driving",
    "data.generate_s": "offline-toy",
    "frontdoor.fit_s": "offline-toy",
    "control.tabulate_s": "repro-driving",
    "evaluation.mc_s": "repro-driving",
}


@pytest.fixture(scope="module")
def declared():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        "workloads": [w["name"] for w in spec["workloads"]],
    }


def test_workloads_are_declared(declared):
    assert sorted(declared["workloads"]) == sorted(workloads.SIZES) == sorted(TINY)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_present_with_unit(declared, workload, trace):
    result, record = run.benchmark(workload, SEED, 0, bool(trace), sizes=TINY[workload])
    assert result["correct"], record["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared[trace]
    if trace:
        for metric, heavy in HEAVY.items():
            if heavy == workload:
                assert metrics[metric]["value"] > 0, metric
    else:
        assert all(metrics[k]["value"] > 0 for k in metrics)
    assert record["nproc"] and record["python"] and record["numpy"]
    assert record["sizes"] == TINY[workload] and record["seed"] == SEED
    assert record["output_sha256"]


@pytest.mark.parametrize(
    "workload, table, failing",
    [
        ("offline-toy", "fit-exact/q.csv", "exact_q_csv_matches_q_dp"),
        ("offline-driving", "oracle/oracle_q.csv", "oracle_q_csv_matches_q_dp"),
    ],
)
def test_tampered_q_csv_raises_error_rate(tmp_path, workload, table, failing):
    sizes = TINY[workload]
    oracle = workloads.prepare(workload)
    work = str(tmp_path / "pass")
    report = run.run_pass(workload, SEED, sizes, work, trace=False)
    clean = run.check_pass(workload, work, oracle, sizes, report)
    assert all(clean.values())

    path = os.path.join(work, table)
    with open(path) as fh:
        lines = fh.read().splitlines()
    x, k, u, value = lines[-1].split(",")
    lines[-1] = ",".join([x, k, u, repr(float(value) + 1e-6)])
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    tampered = run.check_pass(workload, work, oracle, sizes, report)
    assert [name for name, ok in tampered.items() if not ok] == [failing]
    assert run.error_rate(list(tampered.items())) > 0


def test_missing_package_source_exits_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "offline-toy", "--seed", "1", "--seconds", "1"]) == 2
