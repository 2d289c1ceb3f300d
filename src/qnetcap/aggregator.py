"""Bell-pair network construction, protocol plans, and sandwich reports.

The aggregated protocol gives each channel edge an integer number of
Bell pairs (floor(floor(l) * R) per edge), extracts the maximum set of
edge-disjoint Alice-Bob paths through the pairs, and swaps along each
path. The Bell network is the network's topology with one integer
capacity per channel, its pair count. The protocol's yield and the
converse cut bound, min-cuts of flow graphs on that one topology,
sandwich the best achievable performance; on all-lossy networks the two
sides differ by at most a factor of two.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Mapping, Optional, Union

from .capacity import (
    WeightKind, check_epsilon, edge_weight, epsilon_corrected_upper, weight_column,
)
from .cuts_flows import (
    CapacityKind, CutResult, FlowGraph, PathSet,
    flow_graph_from_network, max_disjoint_paths, min_cut,
)
from .netmodel import Network, export_dot
from .values import Count, EdgeSpec, Immutable, NodeId, Regime, _require_finite


class AsymptoticQCap(Immutable):
    """Distillation reaches the two-way assisted capacity (R = q_cap)."""

    __slots__ = ()


class FixedFraction(Immutable):
    """Distillation reaches a fixed fraction alpha of q_cap, 0 < alpha <= 1."""

    __slots__ = ("alpha",)

    def __init__(self, alpha: float):
        alpha = _require_finite("alpha", alpha)
        if not (0.0 < alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        object.__setattr__(self, "alpha", alpha)


class PerEdgeTable(Immutable):
    """Explicit per-edge Bell-pair rates, keyed by edge id, in a read-only view."""

    __slots__ = ("rates",)

    def __init__(self, rates: Mapping[str, float]):
        table = {eid: _require_finite(f"rate for edge {eid!r}", r, nonnegative=True)
                 for eid, r in dict(rates).items()}
        object.__setattr__(self, "rates", MappingProxyType(table))

    def __reduce__(self):
        return type(self), (dict(self.rates),)


RateModel = Union[AsymptoticQCap, FixedFraction, PerEdgeTable]


def resolve_rate(edge: EdgeSpec, model: RateModel) -> float:
    """Bell pairs per channel use for one edge under the given rate model."""
    if isinstance(model, AsymptoticQCap):
        return edge_weight(edge, WeightKind.Q_CAP)
    if isinstance(model, FixedFraction):
        return model.alpha * edge_weight(edge, WeightKind.Q_CAP)
    if isinstance(model, PerEdgeTable):
        if edge.id not in model.rates:
            raise ValueError(f"rate table has no entry for edge {edge.id!r}")
        return model.rates[edge.id]
    raise ValueError(f"unknown rate model {model!r}")


def pair_count(edge: EdgeSpec, model: RateModel) -> int:
    """floor(floor(l) * R): the conservative integer reading of the pair stack."""
    if not isinstance(edge.usage, Count):
        raise ValueError(
            f"edge {edge.id!r} carries a {type(edge.usage).__name__} budget; "
            "Bell-pair counts are defined only for Count budgets"
        )
    uses = math.floor(edge.usage.value)
    rate = resolve_rate(edge, model)
    pairs = uses * rate
    if not math.isfinite(pairs):
        raise ValueError(f"edge {edge.id!r}: {uses} uses at {rate} pairs per use overflow a float")
    return math.floor(pairs)


def _rate_column(net: Network, model: RateModel) -> list:
    """resolve_rate of every edge in edge order; None where a table has no entry.

    An unknown model raises resolve_rate's error, on an edgeless network too.
    """
    if isinstance(model, AsymptoticQCap):
        return weight_column(net, WeightKind.Q_CAP)
    if isinstance(model, FixedFraction):
        return [model.alpha * w for w in weight_column(net, WeightKind.Q_CAP)]
    if isinstance(model, PerEdgeTable):
        return [model.rates.get(eid) for eid, _, _ in net.topology.arcs]
    raise ValueError(f"unknown rate model {model!r}")


def build_bell_network(net: Network, rate_model: RateModel = AsymptoticQCap()) -> FlowGraph:
    """The Bell network on the network's topology: each edge's pair_count.

    The counts are computed column-wise with pair_count's arithmetic; where
    that fails, pair_count itself names the first edge at fault. Budgets and
    rates were checked finite and >= 0 where they were read, and a rate
    table is read-only, so the counts are not checked again.
    """
    if net.budget_kind not in (Count, None):
        pair_count(net._edge(0), rate_model)  # raises: pair counts need Count budgets
    rates = _rate_column(net, rate_model)
    try:
        pairs = [math.floor(math.floor(uses) * rate) for uses, rate in zip(net.budgets, rates)]
    except (TypeError, OverflowError):  # a rate missing from a table, or pairs past the floats
        for k in range(len(net.budgets)):
            pair_count(net._edge(k), rate_model)
        raise
    return FlowGraph._from_checked(net.topology, tuple(pairs), CapacityKind.INTEGER)


class ProtocolPlan(Immutable):
    """Executable aggregated-repeater plan: its paths, epsilon and counted edges.

    ``unused_pairs``, read-only, maps each channel id to the pairs it leaves
    idle. The path count ``m``, the swap schedules and the error budget are
    derived from the fields on each read, so they cannot disagree with them.
    """

    __slots__ = ("paths", "epsilon", "counted_edges", "unused_pairs")

    def __init__(self, paths: PathSet, epsilon: float, counted_edges: int,
                 unused_pairs: Mapping[str, int]):
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "counted_edges", counted_edges)
        object.__setattr__(self, "unused_pairs", MappingProxyType(dict(unused_pairs)))

    def __reduce__(self):
        return type(self), (self.paths, self.epsilon, self.counted_edges, dict(self.unused_pairs))

    @property
    def m(self) -> int:
        """The number of edge-disjoint paths."""
        return len(self.paths)

    @property
    def swap_schedules(self) -> tuple[tuple[NodeId, ...], ...]:
        """Per path, the repeaters that swap, in path order: its inner nodes."""
        return tuple([nodes[1:-1] for nodes, _, b, _ in self.paths.routes for _ in range(b)])

    @property
    def error_budget(self) -> float:
        """counted_edges * epsilon: one epsilon per edge that generates pairs."""
        return self.counted_edges * self.epsilon


def plan(
    net: Network,
    epsilon: float = 0.0,
    rate_model: RateModel = AsymptoticQCap(),
    *,
    count_all_edges: bool = False,
) -> ProtocolPlan:
    """Build the aggregated protocol plan for a Count-budgeted network.

    The error budget is epsilon times the number of edges that actually
    generate pairs (edges with zero pairs run no distribution protocol);
    pass count_all_edges=True for the literal every-edge count.
    """
    epsilon = check_epsilon(epsilon)
    bell = build_bell_network(net, rate_model)
    paths = max_disjoint_paths(bell)
    used = paths.pairs_used
    ids = [eid for eid, _, _ in bell.topology.arcs]
    unused = {eid: n - used.get(eid, 0) for eid, n in zip(ids, bell.capacities)}
    counted = len(bell.capacities) if count_all_edges else sum(1 for n in bell.capacities if n > 0)
    return ProtocolPlan(paths, epsilon, counted, unused)


def _check_regime_epsilon(regime: Regime, epsilon: float) -> float:
    """epsilon as a float; ValueError unless regime is a Regime and epsilon is
    finite, >= 0, and positive only in the per-protocol regime."""
    if not isinstance(regime, Regime):
        raise ValueError(f"regime must be a Regime, got {regime!r}")
    epsilon = check_epsilon(epsilon)
    if epsilon > 0 and regime is not Regime.PER_PROTOCOL:
        raise ValueError(
            f"epsilon={epsilon} applies only to the per-protocol regime; "
            f"regime {regime.value!r} takes epsilon to 0"
        )
    return epsilon


class SandwichReport(Immutable):
    """Achievable lower bound and converse upper bounds for one regime.

    ``lower``, ``upper_esq`` and ``upper_eps_corrected`` are derived from
    the two witness cuts and epsilon on each read. The regime and epsilon
    are checked first, by ``sandwich_report``'s rules. A witness cut whose
    value sums past the float range is an error that names its weighting,
    q_cap for the lower witness and esq_upper for the upper one, and the
    edges it crosses; the lower witness is checked first.
    """

    __slots__ = ("regime", "epsilon", "lower_witness", "upper_witness")

    def __init__(self, regime: Regime, epsilon: float, lower_witness: CutResult,
                 upper_witness: CutResult):
        epsilon = _check_regime_epsilon(regime, epsilon)
        for kind, cut in (("q_cap", lower_witness), ("esq_upper", upper_witness)):
            if cut.value == math.inf:
                raise ValueError(f"the {kind}-weighted minimum cut sums past the float range: "
                                 f"it crosses {list(cut.crossing)}")
        object.__setattr__(self, "regime", regime)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "lower_witness", lower_witness)
        object.__setattr__(self, "upper_witness", upper_witness)

    @property
    def lower(self) -> float:
        """The achievable bound: the q_cap-weighted minimum cut's value."""
        return self.lower_witness.value

    @property
    def upper_esq(self) -> float:
        """The converse bound: the esq_upper-weighted minimum cut's value."""
        return self.upper_witness.value

    @property
    def upper_eps_corrected(self) -> Optional[float]:
        """The finite-error converse bound, or None once epsilon >= 1/256 makes it vacuous."""
        return epsilon_corrected_upper(self.upper_esq, self.epsilon)


def sandwich_report(net: Network, regime: Regime, epsilon: float = 0.0) -> SandwichReport:
    """Two-sided bounds on the optimal performance under the given regime.

    The regime must be the one the network's budgets read as. The lower
    bound weights cuts by q_cap (Count budgets floored: the per-protocol
    regime spends whole uses); the upper bound weights them by esq_upper
    with un-floored budgets. Both are built on the network's topology, so
    both solves walk its one residual arc order. The finite-error
    correction applies only to the per-protocol regime; the asymptotic
    regimes take their error to zero, so a positive epsilon there is
    rejected. A minimum cut past the float range fails as SandwichReport says.
    """
    epsilon = _check_regime_epsilon(regime, epsilon)
    kind = net.budget_kind
    if kind is not None and kind.regime is not regime:
        raise ValueError(f"regime {regime.value!r} does not match the network's {kind.__name__} "
                         f"budgets, which read as regime {kind.regime.value!r}")
    lower_cut = min_cut(flow_graph_from_network(net, WeightKind.Q_CAP))
    upper_cut = min_cut(flow_graph_from_network(net, WeightKind.ESQ_UPPER))
    return SandwichReport(regime, epsilon, lower_cut, upper_cut)


def lossy_gap_ratio(report: SandwichReport) -> float:
    """Converse/achievable ratio; at most 2 on all-lossy networks."""
    if report.lower <= 0:
        raise ValueError(
            "gap ratio undefined: lower bound is zero"
            + (" while the upper bound is positive" if report.upper_esq > 0 else "")
        )
    return report.upper_esq / report.lower


def plan_to_dot(net: Network, protocol_plan: ProtocolPlan) -> str:
    """DOT rendering with consumed pair fractions; fully idle edges are dashed."""
    unused = protocol_plan.unused_pairs
    annotations = {
        cid: f"{k}/{k + unused.get(cid, 0)} used"
        for cid, k in protocol_plan.paths.pairs_used.items()
        if k > 0
    }
    return export_dot(net, annotations)


# --- JSON views -------------------------------------------------------------

def cut_to_dict(cut: CutResult) -> dict:
    return {
        "value": cut.value,
        "v_a": sorted(cut.v_a),
        "crossing": list(cut.crossing),
    }


def sandwich_report_to_dict(report: SandwichReport) -> dict:
    corrected = report.upper_eps_corrected
    return {
        "regime": report.regime.value,
        "epsilon": report.epsilon,
        "lower": report.lower,
        "upper_esq": report.upper_esq,
        "upper_eps_corrected": corrected,
        "vacuous": corrected is None,
        "lower_witness": cut_to_dict(report.lower_witness),
        "upper_witness": cut_to_dict(report.upper_witness),
    }


def plan_to_dict(protocol_plan: ProtocolPlan) -> dict:
    """The plan with one entry per unit path; no two of its lists are one object."""
    return {
        "m": protocol_plan.m,
        "epsilon": protocol_plan.epsilon,
        "error_budget": protocol_plan.error_budget,
        "counted_edges": protocol_plan.counted_edges,
        "paths": [{"nodes": list(nodes), "bell_edges": ids} for nodes, ids in protocol_plan.paths],
        "swap_schedules": [list(nodes) for nodes in protocol_plan.swap_schedules],
        "unused_pairs": {k: v for k, v in sorted(protocol_plan.unused_pairs.items())},
    }
