"""The routes of a plan: edge-disjoint Alice-Bob paths through the Bell pairs, and their check.

An integer maximum flow on the Bell network decomposes into routes, simple
Alice-Bob paths that each carry a multiplicity b of unit paths (see
PathSet). Each route empties an arc of the flow, so there are at most as
many routes as arcs carrying flow, however many pairs there are (Ahuja,
Magnanti and Orlin, Network Flows, 1993, section 3.5): the decomposition
walks once per route, not once per pair. ``check_path_set`` checks a path
set against the Bell network from its unit listing alone.

Loaded with ``qnetcap.aggregator``: by ``plan`` and by a sweep of field m.
"""

from __future__ import annotations

import re
from types import MappingProxyType
from typing import Iterator, Mapping

from . import cuts_flows
from .cuts_flows import CapacityKind, FlowGraph
from .values import Immutable, NodeId

# a plan lists every path, so m beyond this would exhaust time and memory
MAX_PLAN_PATHS = 10**6


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
    solver = cuts_flows._ResidualSolver(bell)
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
