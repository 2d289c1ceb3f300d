"""Two-client capacity bounds and aggregated repeater plans for quantum networks.

The library sandwiches the optimal entanglement / secret-key yield of a
quantum network between the aggregated-repeater lower bound (edge-disjoint
Bell-pair paths) and the weighted min-cut converse bound. The swap-chain
error bookkeeping has a closed form, checked by an exact density-matrix
oracle in ``qnetcap.qsim_oracle``, the one module that needs numpy.

Importing the package loads no submodule. Each public name below is
imported from its home module on first use (PEP 562) and then kept in the
package namespace, so later reads are plain attribute lookups. A CLI
process therefore compiles only the modules its subcommand runs: the
parametric sweep engine, ``qnetcap.sweep``, is loaded by ``sweep`` alone.
A value type, such as ``Regime``, loads only its home, ``qnetcap.values``.
"""

import importlib

# home module -> the public names it exports through the package
_EXPORTS = {
    "aggregator": (
        "AsymptoticQCap", "FixedFraction", "PerEdgeTable", "ProtocolPlan", "RateModel",
        "SandwichReport", "build_bell_network", "lossy_gap_ratio", "pair_count", "plan",
        "plan_to_dict", "plan_to_dot", "resolve_rate", "sandwich_report",
        "sandwich_report_to_dict",
    ),
    "capacity": (
        "WeightKind", "binary_entropy", "check_epsilon", "edge_weight",
        "epsilon_corrected_upper", "lossy_esq_upper", "lossy_q_cap", "werner_chain_report",
    ),
    "cuts_flows": (
        "CapacityKind", "CutResult", "FlowGraph", "PathSet", "check_path_set",
        "flow_graph_from_network", "max_disjoint_paths", "max_flow_value", "min_cut",
        "min_cut_bruteforce",
    ),
    "netmodel": (
        "Network", "NetworkFormatError", "Topology", "crossing_edges", "export_dot",
        "load_network", "parse_network", "serialize_network",
    ),
    "values": (
        "ChannelSpec", "Count", "CustomChannel", "EdgeSpec", "Frequency", "LossyOptical",
        "NodeId", "Rate", "Regime", "UsageBudget",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # the next read skips this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())


__version__ = "0.1.0"
