"""The package names the benchmark imports still exist and still run.

The benchmark under ``bench/`` is frozen between its own revisions; this
smoke test builds each workload's oracles so a renamed or removed function
fails here, in the fast suite, rather than only in the slow bench self-test.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


@pytest.mark.parametrize("workload", ["repro-driving", "offline-toy", "offline-driving"])
def test_prepare_builds_oracles(workloads, workload):
    oracle = workloads.prepare(workload)
    horizon = oracle["horizon"]
    assert oracle["q"].shape[0] == oracle["v"].shape[0] == horizon + 1
    if workload == "offline-toy":
        assert oracle["qm"].ndim == 4
    if workload == "repro-driving":
        assert all(len(curve) == horizon + 1 for curve in oracle["longterm"].values())
