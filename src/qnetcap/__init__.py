"""Two-client capacity bounds and aggregated repeater plans for quantum networks.

The library sandwiches the optimal entanglement / secret-key yield of a
quantum network between the aggregated-repeater lower bound (edge-disjoint
Bell-pair paths) and the weighted min-cut converse bound. The swap-chain
error bookkeeping has a closed form, checked by an exact density-matrix
oracle in ``qnetcap.qsim_oracle``, the one module that needs numpy.
"""

from .aggregator import (
    AsymptoticQCap,
    FixedFraction,
    PerEdgeTable,
    ProtocolPlan,
    RateModel,
    SandwichReport,
    build_bell_network,
    lossy_gap_ratio,
    pair_count,
    plan,
    plan_to_dict,
    plan_to_dot,
    resolve_rate,
    sandwich_report,
    sandwich_report_to_dict,
)
from .capacity import (
    WeightKind,
    binary_entropy,
    check_epsilon,
    edge_weight,
    epsilon_corrected_upper,
    lossy_esq_upper,
    lossy_q_cap,
    werner_chain_report,
)
from .cuts_flows import (
    CapacityKind,
    CutResult,
    FlowGraph,
    PathSet,
    check_path_set,
    flow_graph_from_network,
    max_disjoint_paths,
    max_flow_value,
    min_cut,
    min_cut_bruteforce,
)
from .netmodel import (
    ChannelSpec,
    Count,
    CustomChannel,
    EdgeSpec,
    Frequency,
    LossyOptical,
    Network,
    NetworkFormatError,
    NodeId,
    Rate,
    Regime,
    Topology,
    UsageBudget,
    crossing_edges,
    export_dot,
    load_network,
    parse_network,
    serialize_network,
)

__version__ = "0.1.0"
