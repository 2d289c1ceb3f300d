"""Minimum cuts, maximum flow, and edge-disjoint path extraction.

Channels are directed but cuts and Bell pairs are not, so every edge is
modeled as traversable in both directions at its full weight. The fast
path is Dinic's max-flow (per phase, one BFS level graph and one blocking
flow, with arcs tried in arc order, the file order of a parsed network,
hence deterministic); the independent oracle enumerates every
bipartition. Both, and ArcSweep at every capacity of its arc, report a
cut through one helper that sums the capacities of the arc rows a side
crosses, left to right in arc order.
The side a solve reports is the set its residual graph reaches from the
source, the minimal minimum cut, which is the same for every maximum
flow; only a plan reads the flow itself. The Bell network is a FlowGraph
too, with integer capacities: each channel's capacity is the number of Bell pairs it holds,
so integer flow realizes the edge-disjoint path count, which equals the
minimum number of Bell pairs crossing any Alice/Bob cut.

That integer flow decomposes into routes, simple Alice-Bob paths that
each carry a multiplicity b of unit paths (see PathSet). Each route
empties an arc of the flow, so there are at most as many routes as arcs
carrying flow, however many pairs there are (Ahuja, Magnanti and Orlin,
Network Flows, 1993, section 3.5): the decomposition walks once per
route, not once per pair.

A FlowGraph is a Topology plus one capacity per arc. The topology holds
the vertices, terminals, arc rows and the solver's residual arc order,
none of which reads a capacity. The q_cap and esq_upper weightings and
the Bell network of one network are all built on its topology, so they
share that arc order; so do ArcSweep's two solves. The FlowGraph
constructor checks every capacity. Those three are built from a
network's columns, checked once at parse, and skip it: only a cut weight
past the float range goes to the constructor for its error. ArcSweep's
solves reuse checked capacities the same way.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from types import MappingProxyType
from typing import AbstractSet, Iterator, Mapping

from .capacity import WeightKind, weight_column
from .netmodel import Network, Topology, _interleave
from .values import Count, Immutable, NodeId, _require_finite, _sum_in_order

BRUTEFORCE_MAX_VERTICES = 20
# a plan lists every path, so m beyond this would exhaust time and memory
MAX_PLAN_PATHS = 10**6


class CapacityKind(Enum):
    REAL = "real"
    INTEGER = "integer"


class FlowGraph(Immutable):
    """Undirected flow instance: a topology and one capacity per arc, in arc order.

    Capacities are finite and >= 0, never booleans, and ints on an INTEGER
    graph; capacity_kind is a CapacityKind. The constructor checks that;
    ``_from_checked``, for a capacity tuple computed from checked columns,
    does not. Two flow graphs share a residual arc order exactly when they
    share a topology object.
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
            if integer and (isinstance(cap, bool) or not isinstance(cap, int)):
                raise ValueError(f"arc {eid!r}: capacity must be an integer, got {cap!r}")
            _require_finite(f"arc {eid!r}: capacity", cap, nonnegative=True)
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


def flow_graph_from_network(net: Network, kind: WeightKind) -> FlowGraph:
    """Weighted flow instance on the network's topology: each edge's edge_capacity.

    The capacities are computed column-wise, from the network's budget
    column and weight_column, with the arithmetic of edge_capacity: floor(l)
    x q_cap for a Count budget l, else l x weight. Both columns were checked
    as read; a product past the float range goes to the constructor, which names its arc.
    """
    budgets = net.budgets
    if kind is WeightKind.Q_CAP and net.budget_kind is Count:
        budgets = [float(math.floor(b)) for b in budgets]
    capacities = tuple([b * w for b, w in zip(budgets, weight_column(net, kind))])
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
    current-arc lists, never the topology. The level set of the last BFS,
    which fails to reach the sink, is `reachable`, the Alice side of a
    minimum cut. Both arcs of row `_unbounded_row`, if given, start at inf.
    """

    def __init__(self, fg: FlowGraph, _unbounded_row: int | None = None):
        self.topology = topology = fg.topology
        self.source, self.sink = topology._terminals
        self.to, self.adj = topology._to, topology._adj
        self.low = {}
        if fg.capacity_kind is CapacityKind.INTEGER:
            caps = list(fg.capacities)
            self.tol = 0  # min(0, c / 2) is 0 for c >= 0
        else:
            caps = [float(c) for c in fg.capacities]
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
        self.flow_value = fg.zero
        self._run()

    def _levels(self) -> list[int]:
        """BFS distance from the source over open arcs, -1 if none, up to the sink's level."""
        adj, to, cap, tol, low = self.adj, self.to, self.cap, self.tol, self.low
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
                    if level[w] < 0 and (cap[i] > tol or low and cap[i] > low.get(i, tol)):
                        level[w] = depth
                        found.append(w)
            frontier = found
        return level

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
                self.flow_value += bottleneck
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
                if ((cap[i] > tol or low and cap[i] > low.get(i, tol))
                        and level[to[i]] == next_level):
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
        object.__setattr__(self, "crossing", tuple(crossing))


def _crossing(rows: tuple, capacities: tuple, side: AbstractSet[NodeId]) -> list[tuple]:
    """(id, capacity) of each (id, u, v) row the cut with Alice side `side` crosses."""
    return [(row[0], c) for row, c in zip(rows, capacities)
            if (row[1] in side) != (row[2] in side)]


def _cut(side: AbstractSet[NodeId], crossing: list[tuple], zero: float) -> CutResult:
    """The cut with Alice side `side` and (id, capacity) pairs `crossing`, summed in order."""
    value = _sum_in_order([c for _, c in crossing], zero)
    return CutResult(value, side, tuple([eid for eid, _ in crossing]))


def _side_cut(fg: FlowGraph, side: AbstractSet[NodeId]) -> CutResult:
    """The cut of fg with Alice side `side`."""
    return _cut(side, _crossing(fg.topology.arcs, fg.capacities, side), fg.zero)


def min_cut(fg: FlowGraph) -> CutResult:
    """Minimum-capacity source/sink cut via max-flow duality.

    The witness side is the residual-reachable set from the source; the
    value is summed over the crossing arcs rather than taken from the flow,
    to keep floating-point drift out of the reported number.
    """
    return _side_cut(fg, _ResidualSolver(fg).reachable)


class ArcSweep:
    """Minimum cut of a flow instance as the capacity w of one arc varies.

    Every cut either crosses the arc, at value A + w, or avoids it, at B, so
    the minimum is F(w) = min(F(0) + w, F(inf)). Two max-flows give the Alice
    sides of a minimum cut with the arc at 0 and of a minimum cut among those
    that avoid the arc; at any w the smaller of those two cuts is a minimum
    cut. Both solve the arc-at-zero graph on fg's topology; the second gives
    the arc's two residual arcs an infinite capacity, which no cut crosses
    (Ford and Fulkerson, 1956). A large finite stand-in would sit within the
    solver's relative tolerance, or past float precision, of the other arcs
    once they are large. When the arc joins source and sink, every cut
    crosses it and only the first side is kept.
    """

    def __init__(self, fg: FlowGraph, arc_id: str):
        rows, capacities = fg.topology.arcs, fg.capacities
        k = next((k for k, row in enumerate(rows) if row[0] == arc_id), None)
        if k is None:
            raise KeyError(f"no arc with id {arc_id!r}")
        self.arc_id = arc_id
        self.zero = fg.zero
        at_zero = FlowGraph._from_checked(
            fg.topology, capacities[:k] + (self.zero,) + capacities[k + 1:], fg.capacity_kind)
        sides = [_ResidualSolver(at_zero).reachable]
        ends = (fg.topology.source, fg.topology.sink)
        _, u, v = rows[k]
        if not (u in ends and v in ends):
            sides.append(_ResidualSolver(at_zero, k).reachable)
        # a side crosses the same rows at every w: only the swept arc's capacity changes
        self.sides = [(side, _crossing(rows, capacities, side)) for side in sides]

    def min_cut(self, capacity: float) -> CutResult:
        """A minimum cut with the arc at `capacity`: the smaller side's, the first on a tie."""
        cuts = [_cut(side, [(eid, capacity if eid == self.arc_id else c) for eid, c in pairs],
                     self.zero)
                for side, pairs in self.sides]
        return min(cuts, key=lambda cut: cut.value)


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
    return min(sides, key=lambda side: (_side_cut(fg, side).value, sorted(side)))


def min_cut_bruteforce(fg: FlowGraph) -> CutResult:
    """Exhaustive-enumeration oracle for min_cut; exact up to 20 vertices."""
    return _side_cut(fg, _enumerate_min_cut(fg))


class PathSet(Immutable):
    """Edge-disjoint paths as routes and a read-only map: channel id -> pairs consumed.

    A route is a plain tuple (nodes, channels, b, firsts): a simple
    Alice-to-Bob path, the channel ids of its hops, the multiplicity b of
    unit paths that run along it, and per channel the index of the first
    pair they take. A simple path crosses a channel at most once, so the
    route's pair ids on a channel form one contiguous range: its j-th unit
    path, 0 <= j < b, takes pair '<channel>#<first + j>'. len() is the sum
    of the multiplicities. Iteration lists the unit paths, route by route,
    as (nodes, pair ids), with a fresh list of pair ids per unit path.
    """

    __slots__ = ("routes", "pairs_used")

    def __init__(self, routes: tuple[tuple, ...], pairs_used: Mapping[str, int]):
        object.__setattr__(self, "routes", routes)
        object.__setattr__(self, "pairs_used", MappingProxyType(dict(pairs_used)))

    def __reduce__(self):
        return type(self), (self.routes, dict(self.pairs_used))

    def __len__(self) -> int:
        return sum([route[2] for route in self.routes])

    def __iter__(self) -> Iterator[tuple[tuple[NodeId, ...], list[str]]]:
        for nodes, channels, b, firsts in self.routes:
            for j in range(b):
                yield nodes, [f"{cid}#{first + j}" for cid, first in zip(channels, firsts)]


def max_disjoint_paths(bell: FlowGraph) -> PathSet:
    """Maximum set of pairwise edge-disjoint Alice-Bob paths in the Bell network, as routes.

    Integer max-flow with each channel's capacity equal to its pair count,
    then decomposition of the net flow by walks from Alice: each vertex
    leaves by its first arc, in sorted order, with units left, and a cycle
    in the walk is excised, since it contributes nothing end to end. A walk
    that empties no arc never revisits a vertex (the revisit would repeat
    forever), so every later walk would repeat it until its least arc is
    empty: it is taken that many times at once, as one route. A walk that
    empties an arc is taken once. Each route takes the next free pairs of
    every channel it crosses, so pair ids read '<channel>#<index>'. The
    path count, len() of the PathSet, matches the minimum number of Bell
    pairs crossing any cut. Every route empties an arc, so there are at
    most as many routes as arcs carrying flow. More than MAX_PLAN_PATHS
    paths is an error, raised before any walk.
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

    pairs_used: dict[str, int] = {}
    routes = []
    taken = 0
    while taken < count:
        nodes = [source]
        used: list[list] = []  # the arc leaving each node of the walk
        position = {source: 0}
        emptied = False
        v = source
        while v != sink:
            arc = out[v][cursor[v]]
            arc[2] -= 1
            if arc[2] == 0:
                cursor[v] += 1
                emptied = True
            w = arc[0]
            if w in position:
                # excise the cycle: drop everything after the revisited node
                k = position[w]
                for dropped in nodes[k + 1 :]:
                    del position[dropped]
                nodes = nodes[: k + 1]
                used = used[:k]
            else:
                position[w] = len(nodes)
                nodes.append(w)
                used.append(arc)
            v = w
        b = 1
        if not emptied:
            b = 1 + min([arc[2] for arc in used])
            for tail, arc in zip(nodes, used):
                arc[2] -= b - 1
                if arc[2] == 0:
                    cursor[tail] += 1
        channels = tuple([arc[1] for arc in used])
        firsts = tuple([pairs_used.get(cid, 0) for cid in channels])
        for cid, first in zip(channels, firsts):
            pairs_used[cid] = first + b
        routes.append((tuple(nodes), channels, b, firsts))
        taken += b
    return PathSet(tuple(routes), pairs_used)


_PAIR_ID = re.compile(r"(.+)#(0|[1-9][0-9]*)")


def check_path_set(bell: FlowGraph, path_set: PathSet) -> None:
    """Machine check of the path-set invariants; raises ValueError on breach.

    Every route must run at least once, every pair id must read
    '<channel>#<index>' with index below the channel's pair count, no id
    may repeat, the per-channel tallies of the ids must equal
    path_set.pairs_used, and len(path_set), a plan's m, must count the unit
    paths listed. Beyond each route's multiplicity it reads only the unit
    listing, the path set's iteration, and trusts nothing the routes claim
    about it.
    """
    for route in path_set.routes:
        b = route[2]
        if type(b) is not int or b < 1:
            raise ValueError(f"route {route[0]} has multiplicity {b!r}; it must be at least 1")
    channels = {cid: (u, v, n) for (cid, u, v), n in zip(bell.topology.arcs, bell.capacities)}
    source, sink = bell.topology.source, bell.topology.sink
    seen: set[str] = set()
    tally: dict[str, int] = {}
    listed = 0
    for nodes, pair_ids in path_set:
        listed += 1
        if len(nodes) < 2 or nodes[0] != source or nodes[-1] != sink:
            raise ValueError(f"path {nodes} does not run alice -> bob")
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"path {nodes} repeats a vertex")
        if len(pair_ids) != len(nodes) - 1:
            raise ValueError(f"path {nodes} edge count mismatch")
        for (u, v), eid in zip(zip(nodes, nodes[1:]), pair_ids):
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
    if len(path_set) != listed:
        raise ValueError(f"len() is {len(path_set)} but {listed} unit paths are listed")
