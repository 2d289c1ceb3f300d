"""Bell-pair network construction and the aggregated protocol plan.

The aggregated protocol gives each channel edge an integer number of
Bell pairs (floor(floor(l) * R) per edge), extracts the maximum set of
edge-disjoint Alice-Bob paths through the pairs (``qnetcap.routes``), and
swaps along each path. The Bell network is the network's topology with one
integer capacity per channel, its pair count. The plan's yield and the
converse cut bound of ``qnetcap.report``, min-cuts of flow graphs on that
one topology, sandwich the best achievable performance; on all-lossy
networks the two sides differ by at most a factor of two.

Loaded by ``plan`` and by a sweep of field m.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence, Union

from .capacity import WeightKind, check_epsilon, weight_column
from .cuts_flows import CapacityKind, FlowGraph
from .routes import PathSet, max_disjoint_paths
from .values import Count, Immutable, NodeId, _require_finite

if TYPE_CHECKING:  # annotations only
    from .netmodel import Network


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


def _rate_column(net: Network, model: RateModel) -> list:
    """pointwise.resolve_rate of every edge in edge order; None where a table has no entry.

    An unknown model raises resolve_rate's error, on an edgeless network too.
    """
    if isinstance(model, AsymptoticQCap):
        return weight_column(net.channels, WeightKind.Q_CAP)
    if isinstance(model, FixedFraction):
        return [model.alpha * w for w in weight_column(net.channels, WeightKind.Q_CAP)]
    if isinstance(model, PerEdgeTable):
        return [model.rates.get(eid) for eid, _, _ in net.topology.arcs]
    raise ValueError(f"unknown rate model {model!r}")


def _pair_counts(budgets: Sequence[float], rates: Sequence[float]) -> list[int]:
    """floor(floor(l) * R), pointwise.pair_count's arithmetic, for each Count budget l
    and rate R: TypeError on a rate of None, OverflowError on pairs past the floats."""
    return [math.floor(math.floor(uses) * rate) for uses, rate in zip(budgets, rates)]


def build_bell_network(net: Network, rate_model: RateModel = AsymptoticQCap()) -> FlowGraph:
    """The Bell network on the network's topology: each edge's pointwise.pair_count.

    The counts are the _pair_counts of the budget and rate columns; where
    that fails, pair_count itself names the first edge at fault. Budgets and
    rates were checked finite and >= 0 where they were read, and a rate
    table is read-only, so the counts are not checked again.
    """
    if net.budget_kind not in (Count, None):
        from .pointwise import pair_count

        pair_count(net._edge(0), rate_model)  # raises: pair counts need Count budgets
    rates = _rate_column(net, rate_model)
    try:
        pairs = _pair_counts(net.budgets, rates)
    except (TypeError, OverflowError):  # a rate missing from a table, or pairs past the floats
        from .pointwise import pair_count

        for k in range(len(net.budgets)):
            pair_count(net._edge(k), rate_model)
        raise
    return FlowGraph._from_checked(net.topology, tuple(pairs), CapacityKind.INTEGER)


def _require_count(name: str, value) -> None:
    """ValueError naming value unless it is an int >= 0, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")


class ProtocolPlan(Immutable):
    """Executable aggregated-repeater plan: its paths, epsilon and counted edges.

    ``unused_pairs``, read-only, maps each channel id to the pairs it leaves
    idle. The path count ``m``, the swap schedules and the error budget are
    derived from the fields on each read, so they cannot disagree with them.
    The constructor checks that ``paths`` is a PathSet, epsilon as
    ``check_epsilon`` does, and that ``counted_edges`` and every idle count
    are integers >= 0; ``plan`` builds its plan from checked values.
    """

    __slots__ = ("paths", "epsilon", "counted_edges", "unused_pairs")

    def __init__(self, paths: PathSet, epsilon: float, counted_edges: int,
                 unused_pairs: Mapping[str, int]):
        if not isinstance(paths, PathSet):
            raise ValueError(f"paths must be a PathSet, got {paths!r}")
        epsilon = check_epsilon(epsilon)
        _require_count("counted_edges", counted_edges)
        unused_pairs = dict(unused_pairs)
        for cid, n in unused_pairs.items():
            _require_count(f"unused pairs of {cid!r}", n)
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "counted_edges", counted_edges)
        object.__setattr__(self, "unused_pairs", MappingProxyType(unused_pairs))

    def __reduce__(self):
        return type(self), (self.paths, self.epsilon, self.counted_edges, dict(self.unused_pairs))

    @property
    def m(self) -> int:
        """The number of edge-disjoint paths."""
        return len(self.paths)

    @property
    def swap_schedules(self) -> tuple[tuple[NodeId, ...], ...]:
        """Per path, the repeaters that swap, in path order: its inner nodes."""
        return tuple([nodes[1:-1] for nodes, _, b in self.paths.routes for _ in range(b)])

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
    return ProtocolPlan._from_checked(paths, epsilon, counted, MappingProxyType(unused))


# --- JSON view --------------------------------------------------------------

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
