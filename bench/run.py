"""Benchmark of the latentsafe pipeline, driven through its command line.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass runs the workload's CLI commands in one fresh Python process
(bench/child.py), one command after another, and is followed by the
workload's oracle checks. Passes repeat until S seconds have elapsed; the
metrics are medians over passes. ``--trace 0`` reports the end-to-end
metrics of untraced passes. ``--trace 1`` alternates untraced and traced
passes and reports per-layer self times and counts from the traced ones,
plus the tracing overhead.

The last line of standard output is the result object; the line before it
records machine facts, sizes and output hashes. Spans and the full record
are also written under .bench_work/. The exit code is 0 when every command
and check passed, 1 when one failed, 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 160

# what every CLI invocation pays before its command starts
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import latentsafe.cli; print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "cpu_s": "s"}
COMMAND_METRICS = {
    cmd: f"cli.{cmd.replace('-', '_')}_s"
    for cmd in ("reproduce", "gen-data", "convert", "fit-q", "run-control", "export-oracle")
}


def unit(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_us_per_episode"):
        return "us"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "error_rate")):
        return "ratio"
    if ".bytes_" in metric:
        return "B"
    return "count"


def measure_setup() -> list[float]:
    """Import times of fresh interpreters; the first, which may compile
    bytecode, is discarded."""
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        samples.append(float(out.stdout))
    return samples[1:]


def file_hash(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_pass(workload: str, seed: int, sizes: dict, work: str, trace: bool) -> dict:
    """Run one pass in a fresh process; returns its report, or raises
    RuntimeError when the process did not finish."""
    os.makedirs(work)
    spec = {
        "src": str(SRC),
        "commands": workloads.commands(workload, work, seed, sizes),
        "trace": trace,
        "report": os.path.join(work, "report.json"),
    }
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), spec_path],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"pass exceeded {CHILD_TIMEOUT_S} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"pass process exited with {proc.returncode}")
    with open(spec["report"]) as fh:
        return json.load(fh)


def check_pass(workload: str, work: str, oracle: dict, sizes: dict, report: dict) -> dict[str, bool]:
    """Operations of one pass: each CLI invocation, then each output check."""
    ops = {
        f"cli[{i}]:{c['command']}": c["exit"] == 0 for i, c in enumerate(report["commands"])
    }
    try:
        ops.update(workloads.check(workload, work, oracle, sizes))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        print(f"checks could not read the outputs: {exc!r}", file=sys.stderr)
        ops["outputs_readable"] = False
    return ops


def error_rate(ops: list[tuple[str, bool]]) -> float:
    return sum(not ok for _, ok in ops) / len(ops)


def pass_layer_metrics(report: dict) -> dict[str, float]:
    metrics = dict.fromkeys(COMMAND_METRICS.values(), 0.0)
    for c in report["commands"]:
        metrics[COMMAND_METRICS[c["command"]]] += c["s"]
    metrics["cli.commands"] = len(report["commands"])
    metrics["cli.failed"] = sum(c["exit"] != 0 for c in report["commands"])
    metrics.update(tracing.layer_metrics(report["spans"], report["counts"]))
    return metrics


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return out.stdout.strip() or "unknown"


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              sizes: dict | None = None) -> tuple[dict, dict]:
    """Run the benchmark; returns (result, record)."""
    sizes = sizes or workloads.SIZES[workload]
    oracle = workloads.prepare(workload)
    setup = [] if trace else measure_setup()
    WORK_ROOT.mkdir(exist_ok=True)
    base = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    ops: list[tuple[str, bool]] = []
    reports: dict[bool, list[dict]] = {False: [], True: []}
    hashes: dict[str, str] = {}
    modes = (False, True) if trace else (False,)
    start = time.perf_counter()
    try:
        stopped = False
        while not stopped and (not reports[False] or time.perf_counter() - start < seconds):
            for traced in modes:
                work = os.path.join(base, f"pass{sum(map(len, reports.values()))}")
                try:
                    report = run_pass(workload, seed, sizes, work, traced)
                except RuntimeError as exc:
                    print(f"FAILED pass: {exc}", file=sys.stderr)
                    ops.append(("pass_finished", False))
                    stopped = True
                    break
                for name, ok in check_pass(workload, work, oracle, sizes, report).items():
                    ops.append((name, ok))
                    if not ok:
                        print(f"FAILED check {name} (seed {seed})", file=sys.stderr)
                hashes = {
                    name: file_hash(os.path.join(work, name))
                    for name in workloads.output_files(workload)
                    if os.path.exists(os.path.join(work, name))
                }
                reports[traced].append(report)
                shutil.rmtree(work)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    failed = sum(not ok for _, ok in ops)
    median = lambda key, rs: statistics.median(r[key] for r in rs)  # noqa: E731
    if not reports[False]:
        values = {}
    elif trace:
        layers = [pass_layer_metrics(r) for r in reports[True]] or [{}]
        values = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        if reports[True]:
            values["trace.overhead_s"] = median("run_s", reports[True]) - median(
                "run_s", reports[False])
        values["error_rate"] = error_rate(ops)
    else:
        values = {key: median(key, reports[False]) for key in ("run_s", "peak_rss_mb", "cpu_s")}
        values["setup_s"] = statistics.median(setup)
    result = {
        "correct": failed == 0 and bool(values),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            key: {"value": float(values[key]), "unit": unit(key)} for key in sorted(values)
        },
    }
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "sizes": sizes,
        "passes": len(reports[False]) + len(reports[True]),
        "run_s_samples": [r["run_s"] for r in reports[False]],
        "setup_s_samples": setup,
        "failures": sorted({name for name, ok in ops if not ok}),
        "output_sha256": hashes,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit(),
    }
    if reports[True]:
        record["spans"] = reports[True][-1]["spans"]
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "latentsafe" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'latentsafe'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    result, record = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    # the full record, with the spans of the last traced pass, goes to a file;
    # standard output gets the record without spans
    out = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"record": record, "result": result}) + "\n")
    record.pop("spans", None)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
