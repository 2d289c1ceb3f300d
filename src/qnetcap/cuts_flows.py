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
"""

from __future__ import annotations

import math
import re
from enum import Enum
from typing import AbstractSet, Mapping

from .capacity import WeightKind, edge_weight
from .netmodel import EdgeSpec, Immutable, Network, NodeId

BRUTEFORCE_MAX_VERTICES = 20
# a plan lists every path, so m beyond this would exhaust time and memory
MAX_PLAN_PATHS = 10**6


class CapacityKind(Enum):
    REAL = "real"
    INTEGER = "integer"


class FlowGraph(Immutable):
    """Undirected flow instance: each arc row is traversable both ways.

    Each arc row reads (edge id, u, v, capacity) and joins two distinct
    vertices. Capacities are finite and >= 0, never booleans, and ints on
    an INTEGER graph; source and sink are distinct vertices.
    """

    __slots__ = ("vertices", "source", "sink", "arcs", "capacity_kind")

    def __init__(
        self,
        vertices: tuple[NodeId, ...],
        source: NodeId,
        sink: NodeId,
        arcs: tuple[tuple[str, NodeId, NodeId, float], ...],
        capacity_kind: CapacityKind,
    ):
        names = frozenset(vertices)
        for role, name in (("source", source), ("sink", sink)):
            if name not in names:
                raise ValueError(f"{role} {name!r} is not a vertex")
        if source == sink:
            raise ValueError(f"source and sink are the same vertex {source!r}")
        integer = capacity_kind is CapacityKind.INTEGER
        for eid, u, v, cap in arcs:
            if isinstance(cap, bool) or (integer and not isinstance(cap, int)):
                kind = "an integer" if integer else "a real number"
                raise ValueError(f"arc {eid!r}: capacity must be {kind}, got {cap!r}")
            if not (math.isfinite(cap) and cap >= 0):
                raise ValueError(f"arc {eid!r}: capacity must be finite and >= 0, got {cap}")
            if u == v:
                raise ValueError(f"arc {eid!r}: self-loop at {u!r}")
            if u not in names or v not in names:
                raise ValueError(f"arc {eid!r}: endpoint {u if u not in names else v!r} "
                                 "is not a vertex")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "sink", sink)
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "capacity_kind", capacity_kind)

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
    """Weighted flow instance: one arc row per edge, in edge order, holding edge_capacity."""
    arcs = tuple(
        (e.id, e.tail, e.head, edge_capacity(e, kind, floor_budgets=floor_budgets))
        for e in net.edges
    )
    return FlowGraph(net.nodes, net.alice, net.bob, arcs, CapacityKind.REAL)


class _ResidualSolver:
    """Dinic's blocking flow on the residual doubling of an undirected multigraph.

    Arc 2k runs u->v and arc 2k+1 runs v->u, both at the full capacity;
    pushing flow on one grows the residual of its partner, which models
    undirected traversal exactly. A residual at or below min(tol, capacity / 2)
    counts as saturated: float dust left on a used arc closes it, while an
    unused arc below the tolerance stays open. Each phase runs one BFS for
    the level graph, then pushes a blocking flow along its shortest paths
    by a depth-first search that keeps a current-arc pointer per vertex.
    Arcs are tried in lexicographic head order, so the flow found is
    deterministic. The level set of the last BFS, which fails to reach the
    sink, is `reachable`, the Alice side of a minimum cut. Internally a
    vertex is its position in fg.vertices.
    """

    def __init__(self, fg: FlowGraph):
        self.fg = fg
        index = {v: k for k, v in enumerate(fg.vertices)}
        self.source, self.sink = index[fg.source], index[fg.sink]
        self.to: list[int] = []  # head vertex index of each arc
        self.cap: list[float] = []
        self.eid: list[str] = []
        integer = fg.capacity_kind is CapacityKind.INTEGER
        self.tol = 0 if integer else 1e-12 * max(1.0, sum(c for _, _, _, c in fg.arcs))
        self.threshold: list[float] = []
        adj: list[list[int]] = [[] for _ in fg.vertices]
        for eid, u, v, cap in fg.arcs:
            cap = cap if integer else float(cap)
            threshold = min(self.tol, cap / 2)
            for tail, head in ((index[u], index[v]), (index[v], index[u])):
                adj[tail].append(len(self.to))
                self.to.append(head)
                self.cap.append(cap)
                self.threshold.append(threshold)
                self.eid.append(eid)
        # lexicographic neighbor order, ties broken by arc insertion order
        names = fg.vertices
        self.adj = [sorted(idxs, key=lambda i: (names[self.to[i]], i)) for idxs in adj]
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
                names = self.fg.vertices
                self.reachable = frozenset(names[k] for k, d in enumerate(level) if d >= 0)
                return
            self._push_blocking_flow(level)

    def net_flow(self) -> dict[str, tuple[NodeId, NodeId, float]]:
        """Map of edge id -> (from, to, amount) for arcs carrying net flow."""
        names = self.fg.vertices
        used = {}
        for k in range(0, len(self.to), 2):
            amount = (self.cap[k ^ 1] - self.cap[k]) / 2  # net flow u->v
            if amount > self.tol:
                used[self.eid[k]] = (names[self.to[k ^ 1]], names[self.to[k]], amount)
            elif amount < -self.tol:
                used[self.eid[k]] = (names[self.to[k]], names[self.to[k ^ 1]], -amount)
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


def _crossing_rows(fg: FlowGraph, side: AbstractSet[NodeId]) -> tuple:
    """The arc rows with exactly one end in side, in arc order."""
    return tuple(row for row in fg.arcs if (row[1] in side) != (row[2] in side))


def _cut(fg: FlowGraph, side: AbstractSet[NodeId]) -> CutResult:
    """The cut with Alice side `side`: its crossing arcs and their capacity sum."""
    rows = _crossing_rows(fg, side)
    value = sum((c for _, _, _, c in rows), fg.zero)
    return CutResult(value, side, tuple(eid for eid, _, _, _ in rows))


def min_cut(fg: FlowGraph) -> CutResult:
    """Minimum-capacity source/sink cut via max-flow duality.

    The witness side is the residual-reachable set from the source; the
    value is summed over the crossing arcs rather than taken from the flow,
    to keep floating-point drift out of the reported number.
    """
    return _cut(fg, _ResidualSolver(fg).reachable)


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
        row = next((row for row in fg.arcs if row[0] == arc_id), None)
        if row is None:
            raise KeyError(f"no arc with id {arc_id!r}")
        self.arc_id = arc_id
        self.zero = fg.zero
        arcs = tuple((eid, u, v, self.zero if eid == arc_id else c) for eid, u, v, c in fg.arcs)
        sides = [_ResidualSolver(
            FlowGraph(fg.vertices, fg.source, fg.sink, arcs, fg.capacity_kind)
        ).reachable]
        ends = (fg.source, fg.sink)
        _, u, v, _ = row
        if not (u in ends and v in ends):
            keep, drop = (u, v) if u in ends else (v, u)
            merged = ((eid, keep if a == drop else a, keep if b == drop else b, c)
                      for eid, a, b, c in fg.arcs)
            side = _ResidualSolver(FlowGraph(
                tuple(x for x in fg.vertices if x != drop),
                fg.source,
                fg.sink,
                tuple(arc for arc in merged if arc[1] != arc[2]),
                fg.capacity_kind,
            )).reachable
            sides.append(side | {drop} if keep in side else side)
        self.crossing = [_crossing_rows(fg, side) for side in sides]

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
    if len(fg.vertices) > BRUTEFORCE_MAX_VERTICES:
        raise ValueError(
            f"brute-force enumeration capped at {BRUTEFORCE_MAX_VERTICES} vertices, "
            f"got {len(fg.vertices)}"
        )
    intermediates = sorted(v for v in fg.vertices if v not in (fg.source, fg.sink))
    sides = (
        frozenset([fg.source, *(v for i, v in enumerate(intermediates) if mask >> i & 1)])
        for mask in range(1 << len(intermediates))
    )
    return min(sides, key=lambda side: (_cut(fg, side).value, sorted(side)))


def min_cut_bruteforce(fg: FlowGraph) -> CutResult:
    """Exhaustive-enumeration oracle for min_cut; exact up to 20 vertices."""
    return _cut(fg, _enumerate_min_cut(fg))


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
    out: dict[NodeId, list[list]] = {v: [] for v in bell.vertices}
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
        nodes = [bell.source]
        channels: list[str] = []
        position = {bell.source: 0}
        v = bell.source
        while v != bell.sink:
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
    seen: set[str] = set()
    tally: dict[str, int] = {}
    for p in path_set.paths:
        if len(p.nodes) < 2 or p.nodes[0] != bell.source or p.nodes[-1] != bell.sink:
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
