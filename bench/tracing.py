"""Span tracing of latentsafe's layers, installed from outside the package.

Each traced function is replaced by a wrapper at every import site (every
``latentsafe`` module attribute that refers to it, the defining module
included), so calls between modules and within one module are both seen.
Spans are kept in memory and handed back at the end of the pass; counts
are taken from return values at the same boundaries.

Per-step helpers (``safe_action``, ``margins_row``, the driving dynamics,
seeding) stay unwrapped: their cost lands in the self time of the layer
that calls them, and wrapping them would make the trace measure itself.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# Per-layer time metric -> the "module.function" spans whose self time it sums.
# The traced functions are exactly the ones listed here.
TIME_METRICS = {
    "cli.self_s": (
        "cli.main",
        "cli.cmd_gen_data",
        "cli.cmd_convert",
        "cli.cmd_fit_q",
        "cli.cmd_run_control",
        "cli.cmd_reproduce",
        "cli.cmd_export_oracle",
    ),
    "envs.build_s": ("envs.build_environment",),
    "mdp.kernel_s": (
        "mdp.p_online_matrix",
        "mdp.p_offline_matrix",
        "mdp.absorbing_online_matrix",
    ),
    "oracle.dp_s": ("oracle.q_dp", "oracle.value_dp", "oracle.qm_dp"),
    "oracle.export_s": ("oracle.export_q_csv", "oracle.export_v_csv"),
    "data.generate_s": ("data.generate_offline",),
    "data.convert_s": ("data.convert_dataset",),
    "data.tables_s": ("data.empirical_offline_tables",),
    "data.save_s": ("data.save_jsonl",),
    "data.load_s": ("data.load_jsonl",),
    "frontdoor.fit_s": ("frontdoor.fitted_qm",),
    "frontdoor.exact_tables_s": ("frontdoor.exact_offline_tables",),
    "frontdoor.qtable_s": ("frontdoor.fitted_q_table",),
    "frontdoor.csv_s": (
        "frontdoor.export_qm_csv",
        "frontdoor.export_q_table_csv",
        "frontdoor.load_q_table_csv",
    ),
    "control.tabulate_s": ("control.proposed_controller", "control.dtcbf_controller"),
    "control.episode_s": ("control.run_control_episode",),
    "evaluation.mc_s": ("evaluation.run_experiment",),
    "evaluation.exact_s": ("evaluation.exact_long_term_curve",),
    "evaluation.report_s": ("evaluation.emit_report",),
}


def _path_arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count(counts, key, amount=1):
    counts[key] = counts.get(key, 0) + amount


def _count_kernel(counts, args, kwargs, result):
    _count(counts, "mdp.kernel_calls")


def _count_dp(counts, args, kwargs, result):
    _count(counts, "oracle.dp_sweeps")


def _count_csv_rows(counts, args, kwargs, result):
    _count(counts, "oracle.csv_rows", int(args[0].values.size))


def _count_generate(counts, args, kwargs, result):
    _count(counts, "data.episodes_generated", result.n_episodes)


def _count_save(counts, args, kwargs, result):
    _count(counts, "data.bytes_written", os.path.getsize(_path_arg(args, kwargs, 1, "path")))


def _count_load(counts, args, kwargs, result):
    _count(counts, "data.bytes_read", os.path.getsize(_path_arg(args, kwargs, 0, "path")))


def _count_fit(counts, args, kwargs, result):
    _count(counts, "frontdoor.sweeps", result.iterations)
    _count(counts, "frontdoor.default_cells", len(result.default_cell_warnings))


def _count_qtable(counts, args, kwargs, result):
    _count(counts, "frontdoor.available_cells", int(result.available.sum()))
    _count(counts, "frontdoor.state_cells", int(result.available.size))


def _count_episode(counts, args, kwargs, result):
    _count(counts, "control.episodes")
    _count(counts, "control.steps", len(result.u))
    _count(counts, "control.decisions", len(result.feasible))
    _count(counts, "control.fallbacks", sum(not ok for ok in result.feasible))


def _count_tabulation(counts, args, kwargs, result):
    _count(counts, "control.decisions", int(result.action_table.size))
    _count(counts, "control.fallbacks", int(result.fallback_mask.sum()))


def _count_rollouts(counts, args, kwargs, result):
    _count(counts, "evaluation.rollouts", result.batches * result.trajs_per_batch)


COUNTERS = {
    "envs.build_environment": lambda c, a, k, r: _count(c, "envs.builds"),
    "mdp.p_online_matrix": _count_kernel,
    "mdp.p_offline_matrix": _count_kernel,
    "mdp.absorbing_online_matrix": _count_kernel,
    "oracle.q_dp": _count_dp,
    "oracle.value_dp": _count_dp,
    "oracle.qm_dp": _count_dp,
    "oracle.export_q_csv": _count_csv_rows,
    "oracle.export_v_csv": _count_csv_rows,
    "data.generate_offline": _count_generate,
    "data.save_jsonl": _count_save,
    "data.load_jsonl": _count_load,
    "frontdoor.fitted_qm": _count_fit,
    "frontdoor.fitted_q_table": _count_qtable,
    "control.run_control_episode": _count_episode,
    # dtcbf fallbacks are the barrier's own rule, not certificate fallbacks
    "control.proposed_controller": _count_tabulation,
    "evaluation.run_experiment": _count_rollouts,
}


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.run_id = 0
        # open spans; passes run every command on one thread (max_workers 1)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = {
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": stack[-1] if stack else None,
                "run": tracer.run_id,
            }
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span["end"] = time.perf_counter()
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every traced function at each of its import sites."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "latentsafe" or key.startswith("latentsafe."))
        ]
        for spans in TIME_METRICS.values():
            for name in spans:
                layer, func = name.split(".")
                original = getattr(sys.modules[f"latentsafe.{layer}"], func, None)
                if original is None:  # gone from the package: its metrics read 0
                    continue
                wrapper = self.wrap(name, original)
                for mod in modules:
                    if getattr(mod, func, None) is original:
                        setattr(mod, func, wrapper)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer self times, counts and ratios of one traced pass."""
    by_name: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        by_name[span["name"]] = by_name.get(span["name"], 0.0) + own
    metrics = {
        metric: sum(by_name.get(name, 0.0) for name in names)
        for metric, names in TIME_METRICS.items()
    }
    for key in (
        "envs.builds",
        "mdp.kernel_calls",
        "oracle.dp_sweeps",
        "oracle.csv_rows",
        "data.episodes_generated",
        "data.bytes_written",
        "data.bytes_read",
        "frontdoor.sweeps",
        "frontdoor.default_cells",
        "control.episodes",
        "control.steps",
        "evaluation.rollouts",
    ):
        metrics[key] = counts.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics["data.generate_us_per_episode"] = 1e6 * ratio(
        metrics["data.generate_s"], metrics["data.episodes_generated"]
    )
    metrics["frontdoor.available_ratio"] = ratio(
        counts.get("frontdoor.available_cells", 0), counts.get("frontdoor.state_cells", 0)
    )
    metrics["control.fallback_ratio"] = ratio(
        counts.get("control.fallbacks", 0), counts.get("control.decisions", 0)
    )
    metrics["evaluation.rollouts_per_s"] = ratio(
        metrics["evaluation.rollouts"], metrics["evaluation.mc_s"]
    )
    return metrics
