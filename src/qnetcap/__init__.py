"""Two-client capacity bounds and aggregated repeater plans for quantum networks.

The library sandwiches the optimal entanglement / secret-key yield of a
quantum network between the aggregated-repeater lower bound (edge-disjoint
Bell-pair paths) and the weighted min-cut converse bound. The swap-chain
error bookkeeping has a closed form, checked by an exact density-matrix
oracle in ``qnetcap.qsim_oracle``, the one module that needs numpy.

Importing the package loads no submodule. Each public name below is
imported from its home module on first use (PEP 562) and then kept in the
package namespace, so later reads are plain attribute lookups. Every name
has one home, and the modules are split by role, so a process compiles
only the code it runs:

- ``values``: channels, budgets, regimes and edges;
- ``netmodel``: the network and its JSON reader;
- ``capacity``: weight columns and the finite-error correction;
- ``cuts_flows``: flow graphs, the max-flow solver and minimum cuts;
- ``report``: the sandwich report and its JSON view (``bound``);
- ``routes`` and ``aggregator``: the Bell network, its edge-disjoint
  paths and the protocol plan (``plan``);
- ``export``: JSON and DOT writers (``plan --dot``);
- ``swap``: the Werner closure (``simulate-swap``);
- ``pointwise``: one-edge references and the general edge reader;
- ``sweep``: the parametric sweep engine (``sweep``);
- ``bruteforce``: the exhaustive minimum-cut oracle, for tests.

A value type, such as ``Regime``, loads only its home, ``qnetcap.values``.
"""

import importlib

# home module -> the public names it exports through the package
_EXPORTS = {
    "aggregator": (
        "AsymptoticQCap", "FixedFraction", "PerEdgeTable", "ProtocolPlan", "RateModel",
        "build_bell_network", "plan", "plan_to_dict",
    ),
    "bruteforce": ("min_cut_bruteforce",),
    "capacity": ("WeightKind", "binary_entropy", "check_epsilon", "epsilon_corrected_upper"),
    "cuts_flows": (
        "CapacityKind", "CutResult", "FlowGraph", "flow_graph_from_network", "min_cut",
    ),
    "export": ("export_dot", "plan_to_dot", "serialize_network"),
    "netmodel": ("Network", "NetworkFormatError", "Topology", "load_network", "parse_network"),
    "pointwise": (
        "crossing_edges", "edge_weight", "lossy_esq_upper", "lossy_q_cap", "pair_count",
        "resolve_rate",
    ),
    "report": ("SandwichReport", "lossy_gap_ratio", "sandwich_report", "sandwich_report_to_dict"),
    "routes": ("PathSet", "check_path_set", "max_disjoint_paths"),
    "swap": ("werner_chain_report",),
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
