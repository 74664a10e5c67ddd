"""The package names the benchmark imports or traces still exist and still run.

The benchmark under ``bench/`` is frozen between its own revisions; these
smoke tests build each workload's oracles and install its tracer, so a
renamed or removed function fails here, in the fast suite, rather than only
in the slow bench self-test or as a bench metric that silently reads 0.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


# Traced spans whose function the package no longer has; the tracer skips
# them and their bench metrics read 0 until the benchmark's next revision.
GONE_SPANS = {
    # the per-episode loop, replaced by the lockstep control.run_control
    "control.run_control_episode",
    # merged into oracle.export_q_csv, which fit-q now calls to write q.csv
    "frontdoor.export_q_table_csv",
}


def _bench_module(name):
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


@pytest.fixture(scope="module")
def workloads():
    return _bench_module("workloads")


@pytest.mark.parametrize("workload", ["repro-driving", "offline-toy", "offline-driving"])
def test_prepare_builds_oracles(workloads, workload):
    oracle = workloads.prepare(workload)
    horizon = oracle["horizon"]
    assert oracle["q"].shape[0] == oracle["v"].shape[0] == horizon + 1
    if workload == "offline-toy":
        assert oracle["qm"].ndim == 4
    if workload == "repro-driving":
        assert all(len(curve) == horizon + 1 for curve in oracle["longterm"].values())


@pytest.fixture()
def package_attributes():
    """The package modules' attributes, restored after the test patches them."""
    importlib.import_module("latentsafe.cli")  # imports every traced layer
    saved = [
        (module, dict(vars(module)))
        for key, module in list(sys.modules.items())
        if key == "latentsafe" or key.startswith("latentsafe.")
    ]
    yield
    for module, attributes in saved:
        vars(module).update(attributes)


def test_every_traced_span_names_a_package_function(package_attributes):
    tracing = _bench_module("tracing")
    tracing.Tracer().install()
    unwrapped = set()
    for spans in tracing.TIME_METRICS.values():
        for name in spans:
            layer, func = name.split(".")
            target = getattr(sys.modules[f"latentsafe.{layer}"], func, None)
            if not callable(getattr(target, "__wrapped__", None)):
                unwrapped.add(name)
    assert unwrapped == GONE_SPANS
