"""Minimum cuts, maximum flow, and edge-disjoint path extraction.

Channels are directed but cuts and Bell pairs are not, so every edge is
modeled as traversable in both directions at its full weight. The fast
path is Dinic's max-flow (per phase, one BFS level graph and one blocking
flow, with arcs tried in lexicographic order, hence deterministic); the
independent oracle enumerates every bipartition. Both report a cut
through one helper that sums the capacities of the arc rows a side
crosses, in arc order. The Bell network is a FlowGraph too, with integer
capacities: each channel's capacity is the number of Bell pairs it holds,
so integer flow realizes the edge-disjoint path count, which equals the
minimum number of Bell pairs crossing any Alice/Bob cut.

A FlowGraph is a Topology plus one capacity per arc. The topology holds
the vertices, terminals, arc rows and the solver's residual arc order,
none of which reads a capacity. The q_cap and esq_upper weightings and
the Bell network of one network are all built on its topology, so they
share that arc order.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from typing import AbstractSet, Mapping

from .capacity import WeightKind, edge_weight
from .netmodel import EdgeSpec, Immutable, Network, NodeId, Topology, _interleave

BRUTEFORCE_MAX_VERTICES = 20
# a plan lists every path, so m beyond this would exhaust time and memory
MAX_PLAN_PATHS = 10**6


class CapacityKind(Enum):
    REAL = "real"
    INTEGER = "integer"


class FlowGraph(Immutable):
    """Undirected flow instance: a topology and one capacity per arc, in arc order.

    Capacities are finite and >= 0, never booleans, and ints on an INTEGER
    graph; capacity_kind is a CapacityKind. Two flow graphs share a
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
        for (eid, _, _), cap in zip(topology.arcs, capacities):
            if isinstance(cap, bool) or (integer and not isinstance(cap, int)):
                kind = "an integer" if integer else "a real number"
                raise ValueError(f"arc {eid!r}: capacity must be {kind}, got {cap!r}")
            if not (math.isfinite(cap) and cap >= 0):
                raise ValueError(f"arc {eid!r}: capacity must be finite and >= 0, got {cap}")
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


def edge_capacity(edge: EdgeSpec, kind: WeightKind, *, floor_budgets: bool = False) -> float:
    """Cut weight of one edge: budget (floored if asked) x per-use weight."""
    value = edge.usage.value
    budget = float(math.floor(value)) if floor_budgets else value
    return budget * edge_weight(edge, kind)


def flow_graph_from_network(
    net: Network, kind: WeightKind, *, floor_budgets: bool = False
) -> FlowGraph:
    """Weighted flow instance on the network's topology: each edge's edge_capacity."""
    capacities = [edge_capacity(e, kind, floor_budgets=floor_budgets) for e in net.edges]
    return FlowGraph(net.topology, capacities, CapacityKind.REAL)


class _ResidualSolver:
    """Dinic's blocking flow on the residual doubling of an undirected multigraph.

    The residual arc order comes from fg's topology and the capacities from
    fg. Both arcs of a row start at the row's full capacity; pushing flow on
    one grows the residual of its partner, which models undirected
    traversal exactly. A residual at or below
    min(tol, capacity / 2) counts as saturated: float dust left on a used
    arc closes it, while an unused arc below the tolerance stays open. Each
    phase runs one BFS for the level graph, then pushes a blocking flow
    along its shortest paths by a depth-first search that keeps a
    current-arc pointer per vertex, trying arcs in the topology's order. A
    solve writes only its own cap list and its per-phase level and
    current-arc lists, never the topology. The level set of the last BFS,
    which fails to reach the sink, is `reachable`, the Alice side of a
    minimum cut.
    """

    def __init__(self, fg: FlowGraph):
        self.topology = topology = fg.topology
        self.source, self.sink = topology._terminals
        self.to, self.adj = topology._to, topology._adj
        if fg.capacity_kind is CapacityKind.INTEGER:
            caps = list(fg.capacities)
            self.tol = 0
            self.threshold = [0] * len(self.to)  # min(0, c / 2) is the int 0 for c >= 0
        else:
            caps = [float(c) for c in fg.capacities]
            self.tol = tol = 1e-12 * max(1.0, sum(fg.capacities))
            # min(tol, c / 2), spelled out: a call per arc costs more than the rest
            thresholds = [h if h < tol else tol for h in [c / 2 for c in caps]]
            self.threshold = _interleave(thresholds, thresholds)
        self.cap = _interleave(caps, caps)
        self.flow_value = fg.zero
        self._run()

    def _levels(self) -> list[int]:
        """BFS distance from the source over open arcs, -1 if none, up to the sink's level."""
        adj, to, cap, threshold = self.adj, self.to, self.cap, self.threshold
        sink = self.sink
        level = [-1] * len(adj)
        level[self.source] = 0
        frontier = [self.source]
        depth = 0
        while frontier and level[sink] < 0:
            depth += 1
            found = []
            for u in frontier:
                for i in adj[u]:
                    w = to[i]
                    if level[w] < 0 and cap[i] > threshold[i]:
                        level[w] = depth
                        found.append(w)
            frontier = found
        return level

    def _push_blocking_flow(self, level: list[int]) -> None:
        """Augment along level-increasing paths until none reaches the sink."""
        adj, to, cap, threshold = self.adj, self.to, self.cap, self.threshold
        source, sink = self.source, self.sink
        current = [0] * len(adj)  # next arc of adj[v] to try
        path: list[int] = []  # arcs from the source to u
        u = source
        while True:
            if u == sink:
                bottleneck = min(cap[i] for i in path)
                for i in path:
                    cap[i] -= bottleneck
                    cap[i ^ 1] += bottleneck
                self.flow_value += bottleneck
                # resume from the tail of the first arc the push saturated
                k = next(k for k, i in enumerate(path) if cap[i] <= threshold[i])
                del path[k:]
                u = to[path[-1]] if path else source
                continue
            arcs, k, next_level = adj[u], current[u], level[u] + 1
            while k < len(arcs):
                i = arcs[k]
                if cap[i] > threshold[i] and level[to[i]] == next_level:
                    break
                k += 1
            current[u] = k
            if k < len(arcs):
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
            level = self._levels()
            if level[self.sink] < 0:
                names = self.topology.vertices
                self.reachable = frozenset(names[k] for k, d in enumerate(level) if d >= 0)
                return
            self._push_blocking_flow(level)

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


def max_flow_value(fg: FlowGraph) -> float:
    """Value of a maximum source-sink flow on the undirected instance."""
    return _ResidualSolver(fg).flow_value


class CutResult(Immutable):
    """A cut: its Alice-side labels v_a, its crossing edge ids and their weight sum."""

    __slots__ = ("value", "v_a", "crossing")

    def __init__(self, value: float, v_a: AbstractSet[NodeId], crossing: tuple[str, ...]):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "v_a", frozenset(v_a))
        object.__setattr__(self, "crossing", crossing)


def _cut(rows: tuple, capacities: tuple, zero: float, side: AbstractSet[NodeId]) -> CutResult:
    """The cut with Alice side `side`: its crossing arcs and their capacity sum.

    Each row starts (id, u, v); capacities pairs with rows, both in arc order.
    """
    crossing = [(row[0], c) for row, c in zip(rows, capacities)
                if (row[1] in side) != (row[2] in side)]
    value = sum((c for _, c in crossing), zero)
    return CutResult(value, side, tuple(eid for eid, _ in crossing))


def min_cut(fg: FlowGraph) -> CutResult:
    """Minimum-capacity source/sink cut via max-flow duality.

    The witness side is the residual-reachable set from the source; the
    value is summed over the crossing arcs rather than taken from the flow,
    to keep floating-point drift out of the reported number.
    """
    side = _ResidualSolver(fg).reachable
    return _cut(fg.topology.arcs, fg.capacities, fg.zero, side)


class ArcSweep:
    """Minimum-cut value of a flow instance as the capacity w of one arc varies.

    Every cut either crosses the arc, at value A + w, or avoids it, at B, so
    the minimum is F(w) = min(F(0) + w, F(inf)). Two max-flows give the Alice
    sides of a minimum cut with the arc at 0 and of a minimum cut among those
    that avoid the arc; at any w the smaller of those two cuts is a minimum
    cut. The second runs with the arc's endpoints merged into one vertex, the
    exact form of an infinite capacity: a large finite one would sit within
    the solver's relative tolerance, or past float precision, of the other
    arcs once they are large. When the arc joins source and sink, every cut
    crosses it and only the first side is kept.
    """

    def __init__(self, fg: FlowGraph, arc_id: str):
        arcs = fg.arcs
        row = next((row for row in arcs if row[0] == arc_id), None)
        if row is None:
            raise KeyError(f"no arc with id {arc_id!r}")
        self.arc_id = arc_id
        self.zero = fg.zero
        topology, kind = fg.topology, fg.capacity_kind
        capacities = [self.zero if eid == arc_id else c for eid, _, _, c in arcs]
        sides = [_ResidualSolver(FlowGraph(topology, capacities, kind)).reachable]
        ends = (topology.source, topology.sink)
        _, u, v, _ = row
        if not (u in ends and v in ends):
            keep, drop = (u, v) if u in ends else (v, u)
            merged = [(eid, keep if a == drop else a, keep if b == drop else b, c)
                      for eid, a, b, c in arcs if {a, b} != {u, v}]
            vertices = [x for x in topology.vertices if x != drop]
            merged_fg = FlowGraph(Topology(vertices, *ends, [arc[:3] for arc in merged]),
                                  [arc[3] for arc in merged], kind)
            side = _ResidualSolver(merged_fg).reachable
            sides.append(side | {drop} if keep in side else side)
        self.crossing = [[row for row in arcs if (row[1] in side) != (row[2] in side)]
                         for side in sides]

    def min_cut_value(self, capacity: float) -> float:
        """F(capacity), summed over the crossing arcs in arc order as min_cut does."""
        return min(
            sum((capacity if eid == self.arc_id else c for eid, _, _, c in rows), self.zero)
            for rows in self.crossing
        )


def _enumerate_min_cut(fg: FlowGraph) -> frozenset[NodeId]:
    """Alice side of the exact minimum over all 2^(|V|-2) bipartitions.

    Ties go to the lexicographically smallest sorted Alice-side label tuple.
    """
    vertices, source, sink = fg.topology.vertices, fg.topology.source, fg.topology.sink
    if len(vertices) > BRUTEFORCE_MAX_VERTICES:
        raise ValueError(
            f"brute-force enumeration capped at {BRUTEFORCE_MAX_VERTICES} vertices, "
            f"got {len(vertices)}"
        )
    intermediates = sorted(v for v in vertices if v not in (source, sink))
    sides = (
        frozenset([source, *(v for i, v in enumerate(intermediates) if mask >> i & 1)])
        for mask in range(1 << len(intermediates))
    )
    arcs, caps, zero = fg.arcs, fg.capacities, fg.zero
    return min(sides, key=lambda side: (_cut(arcs, caps, zero, side).value, sorted(side)))


def min_cut_bruteforce(fg: FlowGraph) -> CutResult:
    """Exhaustive-enumeration oracle for min_cut; exact up to 20 vertices."""
    return _cut(fg.arcs, fg.capacities, fg.zero, _enumerate_min_cut(fg))


class DisjointPath(Immutable):
    """Simple Alice-to-Bob path with the Bell pairs it consumes."""

    __slots__ = ("nodes", "bell_edges")

    def __init__(self, nodes: tuple[NodeId, ...], bell_edges: tuple[str, ...]):
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "bell_edges", bell_edges)


class PathSet(Immutable):
    """Edge-disjoint paths and, per channel id, the Bell pairs they consume."""

    __slots__ = ("paths", "pairs_used")

    def __init__(self, paths: tuple[DisjointPath, ...], pairs_used: Mapping[str, int]):
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "pairs_used", dict(pairs_used))

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)


def max_disjoint_paths(bell: FlowGraph) -> tuple[int, PathSet]:
    """Maximum set of pairwise edge-disjoint Alice-Bob paths in the Bell network.

    Integer max-flow with each channel's capacity equal to its pair count,
    followed by decomposition of the net flow into unit paths; cycles in
    the flow are excised since they contribute nothing end to end. Each
    path takes the next free pair of every channel it crosses, so pair ids
    read '<channel>#<index>'. The count matches the minimum number of Bell
    pairs crossing any cut. More than MAX_PLAN_PATHS paths is an error,
    raised before any path is built.
    """
    if bell.capacity_kind is not CapacityKind.INTEGER:
        raise ValueError("edge-disjoint paths need a Bell network (integer capacities)")
    solver = _ResidualSolver(bell)
    count = int(solver.flow_value)
    if count > MAX_PLAN_PATHS:
        raise ValueError(
            f"m = {count} edge-disjoint paths exceeds the limit of {MAX_PLAN_PATHS} "
            "paths a plan can list"
        )

    # per vertex, sorted [next vertex, channel id, units of flow left]
    source, sink = bell.topology.source, bell.topology.sink
    out: dict[NodeId, list[list]] = {v: [] for v in bell.topology.vertices}
    for cid, (u, v, amount) in solver.net_flow().items():
        out[u].append([v, cid, int(amount)])
    for arcs in out.values():
        arcs.sort()
    cursor = {v: 0 for v in out}

    def next_arc(v: NodeId) -> tuple[NodeId, str]:
        arc = out[v][cursor[v]]
        arc[2] -= 1
        if arc[2] == 0:
            cursor[v] += 1
        return arc[0], arc[1]

    pairs_used: dict[str, int] = {}
    paths = []
    for _ in range(count):
        nodes = [source]
        channels: list[str] = []
        position = {source: 0}
        v = source
        while v != sink:
            w, cid = next_arc(v)
            if w in position:
                # excise the cycle: drop everything after the revisited node
                k = position[w]
                for dropped in nodes[k + 1 :]:
                    del position[dropped]
                nodes = nodes[: k + 1]
                channels = channels[:k]
            else:
                position[w] = len(nodes)
                nodes.append(w)
                channels.append(cid)
            v = w
        bell_ids = []
        for cid in channels:
            index = pairs_used.get(cid, 0)
            pairs_used[cid] = index + 1
            bell_ids.append(f"{cid}#{index}")
        paths.append(DisjointPath(tuple(nodes), tuple(bell_ids)))
    return count, PathSet(tuple(paths), pairs_used)


_PAIR_ID = re.compile(r"(.+)#(0|[1-9][0-9]*)")


def check_path_set(bell: FlowGraph, path_set: PathSet) -> None:
    """Machine check of the path-set invariants; raises ValueError on breach.

    Every pair id must read '<channel>#<index>' with index below the
    channel's pair count, no id may repeat, and the per-channel tallies of
    the ids must equal path_set.pairs_used.
    """
    channels = {cid: (u, v, n) for cid, u, v, n in bell.arcs}
    source, sink = bell.topology.source, bell.topology.sink
    seen: set[str] = set()
    tally: dict[str, int] = {}
    for p in path_set.paths:
        if len(p.nodes) < 2 or p.nodes[0] != source or p.nodes[-1] != sink:
            raise ValueError(f"path {p.nodes} does not run alice -> bob")
        if len(set(p.nodes)) != len(p.nodes):
            raise ValueError(f"path {p.nodes} repeats a vertex")
        if len(p.bell_edges) != len(p.nodes) - 1:
            raise ValueError(f"path {p.nodes} edge count mismatch")
        for (u, v), eid in zip(zip(p.nodes, p.nodes[1:]), p.bell_edges):
            if eid in seen:
                raise ValueError(f"bell edge {eid!r} consumed twice")
            seen.add(eid)
            match = _PAIR_ID.fullmatch(eid)
            row = channels.get(match[1]) if match else None
            if row is None or int(match[2]) >= row[2]:
                raise ValueError(f"unknown bell edge {eid!r}")
            if {u, v} != {row[0], row[1]}:
                raise ValueError(f"bell edge {eid!r} does not join {u!r} and {v!r}")
            tally[match[1]] = tally.get(match[1], 0) + 1
    claimed = {cid: n for cid, n in path_set.pairs_used.items() if n}
    if claimed != tally:
        raise ValueError(f"pairs_used {claimed} does not match the pair ids {tally}")
