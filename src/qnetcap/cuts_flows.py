"""Flow graphs, maximum flow and minimum cuts: the solver every bound, plan and sweep runs.

Channels are directed but cuts and Bell pairs are not, so every edge is
modeled as traversable in both directions at its full weight. The solver
is Dinic's max-flow (per phase, one BFS level graph and one blocking flow,
with arcs tried in arc order, the file order of a parsed network, hence
deterministic). Every cut, from a solve here, from ``sweep.ArcSweep`` at
any capacity of its arc or from the brute-force oracle in
``qnetcap.bruteforce``, is reported through one helper that sums the
capacities of the arc rows a side crosses, left to right in arc order.
A solve reports a cut and a net flow, and sums no flow value: every flow
value qnetcap prints is a cut sum. The cut's side is the set the residual
graph reaches from the source, the minimal minimum cut, which is the same
for every maximum flow. A solve reads the cut's crossing rows off the arc
lists of the cut's smaller side, its Alice side or the complement, and
sorts them into arc order; only the brute-force oracle tests each row's
end labels against a side. Only a plan reads the net flow, through
``qnetcap.routes``. The Bell network is a FlowGraph too, with integer
capacities: each channel's capacity is the number of Bell pairs it holds,
so integer flow realizes the edge-disjoint path count m, which equals the
minimum number of Bell pairs crossing any Alice/Bob cut (Menger's
theorem); m is read as that minimum cut.

A FlowGraph is a Topology plus one capacity per arc. The topology holds
the vertices, terminals, arc rows and the solver's residual arc order,
none of which reads a capacity. The q_cap and esq_upper weightings and
the Bell network of one network are all built on its topology, so they
share that arc order. The FlowGraph constructor checks every capacity.
Those three are built from a network's columns, checked once at parse,
and skip it: only a cut weight past the float range goes to the
constructor for its error.
"""

from __future__ import annotations

import math
from enum import Enum
from operator import mul
from typing import AbstractSet, Sequence

from .capacity import WeightKind, weight_column
from .netmodel import Network, Topology, _interleave
from .values import Count, Immutable, NodeId, _require_finite, _sum_in_order


class CapacityKind(Enum):
    REAL = "real"
    INTEGER = "integer"


class FlowGraph(Immutable):
    """Undirected flow instance: a topology and one capacity per arc, in arc order.

    Capacities are finite and >= 0, never booleans, ints on an INTEGER
    graph and floats on a REAL one; capacity_kind is a CapacityKind. The
    constructor checks that, and a REAL graph keeps each capacity as the
    float the check returns; ``_from_checked``, for a capacity tuple
    computed from checked columns, does neither. Two flow graphs share a
    residual arc order exactly when they share a topology object.
    """

    __slots__ = ("topology", "capacities", "capacity_kind")

    def __init__(self, topology: Topology, capacities: tuple[float, ...],
                 capacity_kind: CapacityKind):
        capacities = tuple(capacities)
        if len(capacities) != len(topology.arcs):
            raise ValueError(f"got {len(capacities)} capacities for {len(topology.arcs)} arcs")
        integer = capacity_kind is CapacityKind.INTEGER
        if not integer and capacity_kind is not CapacityKind.REAL:
            raise ValueError(f"capacity_kind must be a CapacityKind, got {capacity_kind!r}")
        checked = []
        for (eid, _, _), cap in zip(topology.arcs, capacities):
            if integer and (isinstance(cap, bool) or not isinstance(cap, int)):
                raise ValueError(f"arc {eid!r}: capacity must be an integer, got {cap!r}")
            checked.append(_require_finite(f"arc {eid!r}: capacity", cap, nonnegative=True))
        if not integer:
            capacities = tuple(checked)
        object.__setattr__(self, "topology", topology)
        object.__setattr__(self, "capacities", capacities)
        object.__setattr__(self, "capacity_kind", capacity_kind)

    @property
    def arcs(self) -> tuple[tuple[str, NodeId, NodeId, float], ...]:
        """The (id, u, v, capacity) row of each arc, in arc order."""
        return tuple([(*row, c) for row, c in zip(self.topology.arcs, self.capacities)])

    @property
    def zero(self) -> float:
        """The empty sum of capacities: 0 on integer graphs, 0.0 on real ones."""
        return 0 if self.capacity_kind is CapacityKind.INTEGER else 0.0


def _cut_weights(budget_kind, budgets: Sequence, channels: Sequence, kind: WeightKind) -> list:
    """The cut weight of each (budget, channel) column entry, with the arithmetic of
    pointwise.edge_capacity: floor(l) x q_cap for a Count budget l in the q_cap
    weighting, which a protocol spends in whole uses, else l x weight."""
    if kind is WeightKind.Q_CAP and budget_kind is Count:
        budgets = map(float, map(math.floor, budgets))
    return list(map(mul, budgets, weight_column(channels, kind)))


def flow_graph_from_network(net: Network, kind: WeightKind) -> FlowGraph:
    """Weighted flow instance on the network's topology: each edge's cut weight.

    The capacities are the _cut_weights of the network's budget and channel
    columns. Both columns were checked as read; a product past the float
    range goes to the constructor, which names its arc.
    """
    capacities = tuple(_cut_weights(net.budget_kind, net.budgets, net.channels, kind))
    build = FlowGraph if math.inf in capacities else FlowGraph._from_checked
    return build(net.topology, capacities, CapacityKind.REAL)


class _ResidualSolver:
    """Dinic's blocking flow on the residual doubling of an undirected multigraph.

    The residual arc order comes from fg's topology and the capacities from
    fg. Both arcs of a row start at the row's full capacity; pushing flow on
    one grows the residual of its partner, which models undirected
    traversal exactly. An arc is open while its residual exceeds
    min(tol, c / 2), c its row's capacity: float dust left on a used arc
    closes it, while an unused arc below the tolerance stays open. tol is
    1e-12 times the total capacity (at least 1e-12), summed with sum() and
    without overflow; it only sets the threshold, so no printed value
    depends on how the interpreter rounds that sum. The threshold is tol but
    on rows with 0 < c and c / 2 < tol, whose arcs the table `low` maps to
    c / 2, so only a residual at or below tol reads it. A zero-capacity row
    never opens, and integer graphs take tol = 0. Each phase runs one BFS
    for the level graph, then pushes a blocking flow along its shortest
    paths by a depth-first search that keeps a current-arc pointer per
    vertex, trying arcs in the topology's order, which is arc order. A
    solve writes only its own cap list and its per-phase level and
    current-arc lists, never the topology. A BFS tests an arc's level
    before its residual, and so does the push, which picks the same arcs
    either way. The last BFS, which fails to reach the sink, keeps its
    level list and the list of vertices it reached; the labels of those are
    `reachable`, the Alice side of a minimum cut, and ``crossing_rows``
    reads the rows that cut crosses off the same two lists. Those and
    ``net_flow`` are what a solve reports: it sums no flow value of its
    own, so a flow's value is read as its cut's. Both arcs of row
    `_unbounded_row`, if given, start at inf.
    """

    def __init__(self, fg: FlowGraph, _unbounded_row: int | None = None):
        self.topology = topology = fg.topology
        self.source, self.sink = topology._terminals
        self.to, self.adj = topology._to, topology._adj
        self.low = {}
        caps = list(fg.capacities)  # floats on a REAL graph, ints on an INTEGER one
        if fg.capacity_kind is CapacityKind.INTEGER:
            self.tol = 0  # min(0, c / 2) is 0 for c >= 0
        else:
            self.tol = tol = 1e-12 * max(1.0, sum(fg.capacities))
            if tol == math.inf:  # the sum is past the float range: scale before summing
                self.tol = tol = sum([1e-12 * c for c in caps])
            # rows below 2 tol are rare: look for them only if the least positive one is
            if min(filter(None, caps), default=math.inf) / 2 < tol:
                for k, c in enumerate(caps):
                    if 0.0 < c and c / 2 < tol:
                        self.low[2 * k] = self.low[2 * k + 1] = c / 2
        self.cap = _interleave(caps, caps)
        if _unbounded_row is not None:
            self.cap[2 * _unbounded_row] = self.cap[2 * _unbounded_row + 1] = math.inf
        self._run()

    def _levels(self) -> tuple[list[int], list[int]]:
        """BFS distance from the source over open arcs, -1 if none, up to the sink's
        level, and the vertices the search reached, in the order it reached them."""
        adj, to, cap, tol, low = self.adj, self.to, self.cap, self.tol, self.low
        sink = self.sink
        level = [-1] * len(adj)
        level[self.source] = 0
        frontier = visited = [self.source]
        depth = 0
        while frontier and level[sink] < 0:
            depth += 1
            found = []
            for u in frontier:
                for i in adj[u]:
                    w = to[i]
                    if level[w] < 0 and (cap[i] > tol or low and cap[i] > low.get(i, tol)):
                        level[w] = depth
                        found.append(w)
            frontier = found
            visited += found
        return level, visited

    def _push_blocking_flow(self, level: list[int]) -> None:
        """Augment along level-increasing paths until none reaches the sink."""
        adj, to, cap, tol, low = self.adj, self.to, self.cap, self.tol, self.low
        source, sink = self.source, self.sink
        current = [0] * len(adj)  # next arc of adj[v] to try
        path: list[int] = []  # arcs from the source to u
        u = source
        while True:
            if u == sink:
                bottleneck = min([cap[i] for i in path])
                for i in path:
                    cap[i] -= bottleneck
                    cap[i ^ 1] += bottleneck
                # resume from the tail of the first arc the push saturated
                k = 0
                for i in path:
                    if not (cap[i] > tol or low and cap[i] > low.get(i, tol)):
                        break
                    k += 1
                del path[k:]
                u = to[path[-1]] if path else source
                continue
            arcs, k, next_level = adj[u], current[u], level[u] + 1
            n = len(arcs)
            while k < n:
                i = arcs[k]
                if (level[to[i]] == next_level
                        and (cap[i] > tol or low and cap[i] > low.get(i, tol))):
                    break
                k += 1
            current[u] = k
            if k < n:
                path.append(arcs[k])
                u = to[arcs[k]]
            elif u == source:
                return
            else:
                # no path to the sink leaves u in this phase: retreat and close u
                level[u] = -1
                path.pop()
                u = to[path[-1]] if path else source

    def _run(self) -> None:
        while True:
            level, visited = self._levels()
            if level[self.sink] < 0:
                self.level, self.visited = level, visited
                self.reachable = frozenset(map(self.topology.vertices.__getitem__, visited))
                return
            self._push_blocking_flow(level)

    def crossing_rows(self) -> list[int]:
        """Indices of the rows the cut with Alice side `reachable` crosses, in arc order.

        A crossing row has one end on each side, so the arcs leaving one side
        find each such row once: the side's own arcs when it holds at most
        half the vertices, else its complement's. Either way the rows are
        sorted into arc order.
        """
        level, adj, to, visited = self.level, self.adj, self.to, self.visited
        if 2 * len(visited) <= len(level):
            rows = [i >> 1 for x in visited for i in adj[x] if level[to[i]] < 0]
        else:
            rows = [i >> 1 for x, d in enumerate(level) if d < 0
                    for i in adj[x] if level[to[i]] >= 0]
        rows.sort()
        return rows

    def net_flow(self) -> dict[str, tuple[NodeId, NodeId, float]]:
        """Map of edge id -> (from, to, amount) for arcs carrying net flow."""
        cap, tol = self.cap, self.tol
        used = {}
        for k, (eid, u, v) in enumerate(self.topology.arcs):
            amount = (cap[2 * k + 1] - cap[2 * k]) / 2  # net flow u->v
            if amount > tol:
                used[eid] = (u, v, amount)
            elif amount < -tol:
                used[eid] = (v, u, -amount)
        return used


class CutResult(Immutable):
    """A cut: its Alice-side labels v_a, its crossing edge ids and their weight sum."""

    __slots__ = ("value", "v_a", "crossing")

    def __init__(self, value: float, v_a: AbstractSet[NodeId], crossing: tuple[str, ...]):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "v_a", frozenset(v_a))
        object.__setattr__(self, "crossing", tuple(crossing))


def _cut(side: AbstractSet[NodeId], crossing: list[tuple], zero: float) -> CutResult:
    """The cut with Alice side `side` and (id, capacity) pairs `crossing`, summed in order."""
    value = _sum_in_order([c for _, c in crossing], zero)
    return CutResult(value, side, tuple([eid for eid, _ in crossing]))


def min_cut(fg: FlowGraph) -> CutResult:
    """Minimum-capacity source/sink cut via max-flow duality.

    The witness side is the residual-reachable set from the source, and
    its crossing rows are read off the solve; the value is summed over
    them rather than taken from the flow, to keep floating-point drift out
    of the reported number.
    """
    solver = _ResidualSolver(fg)
    rows, capacities = fg.topology.arcs, fg.capacities
    return _cut(solver.reachable, [(rows[k][0], capacities[k]) for k in solver.crossing_rows()],
                fg.zero)
