"""The traced run: per-layer metrics from spans, counts and CLI probes.

Every time is milliseconds per operation of the workload (a layer the
workload never calls reads 0), every count is per operation, except where
the metric says otherwise:

- ``cuts_flows.max_flow_ms`` is the self time of ``min_cut`` (the residual
  max-flow solve; ``min_cut`` does not route through ``max_flow_value``)
  plus all of ``max_flow_value``.
- ``cuts_flows.check_path_set_ms`` is gate work, outside the timed region.
- ``aggregator.pair_use_ratio`` is consumed over generated pairs, and
  ``aggregator.path_len_mean`` the mean hop count over all planned paths.
- ``cli.interp_ms`` and ``cli.import_ms`` come from probe processes
  (``python -c pass`` and ``import qnetcap.cli`` minus that) in every
  traced run. ``cli.proc_ms.<subcommand>`` is the median wall time of
  that subcommand's untraced processes, and ``cli.sweep_points`` the grid
  points per sweep process.
- ``trace.overhead_ms`` is the median over operations of traced minus
  untraced time of the same operation; ``trace.spans`` counts spans per
  operation.
"""

from __future__ import annotations

import statistics
import sys

from workloads import CliMix, Loop, child_env, median_child_ms
from tracer import PHASE_GATE, PHASE_OP, Tracer

LAYERS = ("netmodel", "capacity", "cuts_flows", "aggregator", "qsim_oracle", "cli")
CLI_SUBCOMMANDS = CliMix.SUBCOMMANDS

PER_LAYER_UNITS = {
    "netmodel.parse_ms": "ms",
    "netmodel.bytes_parsed": "count",
    "netmodel.edges": "count",
    "capacity.edge_weights_ms": "ms",
    "cuts_flows.flow_graph_ms": "ms",
    "cuts_flows.max_flow_ms": "ms",
    "cuts_flows.min_cut_ms": "ms",
    "cuts_flows.arcs": "count",
    "cuts_flows.disjoint_paths_ms": "ms",
    "cuts_flows.unit_augmentations": "count",
    "cuts_flows.check_path_set_ms": "ms",
    "aggregator.build_bell_ms": "ms",
    "aggregator.bell_pairs": "count",
    "aggregator.plan_ms": "ms",
    "aggregator.plan_self_ms": "ms",
    "aggregator.sandwich_report_ms": "ms",
    "aggregator.emit_ms": "ms",
    "aggregator.pairs_consumed": "count",
    "aggregator.pairs_idle": "count",
    "aggregator.pair_use_ratio": "ratio",
    "aggregator.path_len_mean": "count",
    "qsim_oracle.verify_ms": "ms",
    "qsim_oracle.swap_chain_ms": "ms",
    "qsim_oracle.links": "count",
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.proc_ms.{sub}": "ms" for sub in CLI_SUBCOMMANDS},
    "cli.sweep_points": "count",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "trace.overhead_ms": "ms",
    "trace.spans": "count",
}


def traced_run(w, seconds: float, workdir):
    """Half the time untraced, half traced over the same operations."""
    w.begin()
    plain = Loop(w)
    plain.for_seconds(seconds / 2)
    proc_s = {sub: list(v) for sub, v in getattr(w, "proc_s", {}).items()}

    w.begin()
    tracer = Tracer()
    w.tracer = tracer
    if not isinstance(w, CliMix):  # CLI processes trace themselves, see child.py
        tracer.install()
    traced = Loop(w, tracer)
    try:
        traced.for_seconds(seconds / 2)
    finally:
        tracer.uninstall()
        w.tracer = None

    env = child_env()
    interp = median_child_ms([sys.executable, "-c", "pass"], workdir, env)
    imported = median_child_ms([sys.executable, "-c", "import qnetcap.cli"], workdir, env)

    n = len(traced.samples)
    # both halves start from operation 0, so operation k ran once each way
    overhead_ms = statistics.median(
        t - p for t, p in zip(traced.samples, plain.samples)) * 1e3
    values = layer_values(tracer, n, w.stats)
    values.update({
        "cli.interp_ms": interp,
        "cli.import_ms": imported - interp,
        "cli.sweep_points": statistics.fmean(w.sweep_points) if getattr(w, "sweep_points", None) else 0.0,
        "trace.overhead_ms": overhead_ms,
        "trace.spans": len(tracer.start) / n,
    })
    for sub in CLI_SUBCOMMANDS:
        times = proc_s.get(sub)
        values[f"cli.proc_ms.{sub}"] = statistics.median(times) * 1e3 if times else 0.0
    metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    return metrics, plain.attempted + traced.attempted, plain.failed + traced.failed


def layer_values(tracer: Tracer, n: int, plan_stats: list[dict]) -> dict:
    totals = tracer.totals()

    def total(name: str, phase: int = PHASE_OP) -> float:
        return totals.get((phase, name), (0.0, 0.0, 0))[0] / n

    def self_ms(name: str) -> float:
        return totals.get((PHASE_OP, name), (0.0, 0.0, 0))[1] / n

    def count(key: str) -> float:
        return tracer.counts.get((PHASE_OP, key), 0) / n

    generated = sum(s["bell_pairs"] for s in plan_stats)
    consumed = sum(s["pairs_consumed"] for s in plan_stats)
    lens = [x for s in plan_stats for x in s["path_lens"]]
    values = {
        "netmodel.parse_ms": total("netmodel.parse_network"),
        "netmodel.bytes_parsed": count("netmodel.bytes_parsed"),
        "netmodel.edges": count("netmodel.edges"),
        "capacity.edge_weights_ms": total("capacity.edge_weight"),
        "cuts_flows.flow_graph_ms": total("cuts_flows.flow_graph_from_network"),
        "cuts_flows.max_flow_ms": self_ms("cuts_flows.min_cut") + total("cuts_flows.max_flow_value"),
        "cuts_flows.min_cut_ms": total("cuts_flows.min_cut"),
        "cuts_flows.arcs": count("cuts_flows.arcs"),
        "cuts_flows.disjoint_paths_ms": total("cuts_flows.max_disjoint_paths"),
        "cuts_flows.unit_augmentations": count("augmentations:cuts_flows.max_disjoint_paths"),
        "cuts_flows.check_path_set_ms": total("cuts_flows.check_path_set", PHASE_GATE),
        "aggregator.build_bell_ms": total("aggregator.build_bell_network"),
        "aggregator.bell_pairs": generated / n,
        "aggregator.plan_ms": total("aggregator.plan"),
        "aggregator.plan_self_ms": self_ms("aggregator.plan"),
        "aggregator.sandwich_report_ms": total("aggregator.sandwich_report"),
        "aggregator.emit_ms": sum(total(f"aggregator.{f}") for f in
                                  ("plan_to_dict", "sandwich_report_to_dict", "json_dumps")),
        "aggregator.pairs_consumed": consumed / n,
        "aggregator.pairs_idle": sum(s["pairs_idle"] for s in plan_stats) / n,
        "aggregator.pair_use_ratio": consumed / generated if generated else 0.0,
        "aggregator.path_len_mean": statistics.fmean(lens) if lens else 0.0,
        "qsim_oracle.verify_ms": total("qsim_oracle.verify_error_chain"),
        "qsim_oracle.swap_chain_ms": total("qsim_oracle.swap_chain"),
        "qsim_oracle.links": count("qsim_oracle.links"),
    }
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = sum(
            acc[1] for (phase, name), acc in totals.items()
            if phase == PHASE_OP and name.startswith(layer + ".")
        ) / n
    return values
