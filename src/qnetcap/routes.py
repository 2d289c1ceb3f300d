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
    """Edge-disjoint paths as routes, each a simple path and the unit paths along it.

    A route is a plain tuple (nodes, channels, b): a simple Alice-to-Bob
    path, the channel ids of its hops, and the multiplicity b of unit paths
    that run along it. Pairs are numbered in route order: per channel, the
    routes that cross it take its pairs in turn, b each, and a simple path
    crosses a channel at most once. So the j-th unit path of a route,
    0 <= j < b, takes pair '<channel>#<first + j>', where first counts the
    pairs the channel's earlier routes took. len() is the sum of the
    multiplicities. Iteration lists the unit paths, route by route, as
    (nodes, pair ids), with a fresh list of pair ids per unit path;
    ``pairs_used`` is derived from the routes on each read.
    """

    __slots__ = ("routes",)

    def __init__(self, routes: tuple[tuple, ...]):
        object.__setattr__(self, "routes", tuple(routes))

    @property
    def pairs_used(self) -> Mapping[str, int]:
        """Read-only map: channel id -> pairs its routes consume."""
        used: dict[str, int] = {}
        for _, channels, b in self.routes:
            for cid in channels:
                used[cid] = used.get(cid, 0) + b
        return MappingProxyType(used)

    def __len__(self) -> int:
        return sum([route[2] for route in self.routes])

    def __iter__(self) -> Iterator[tuple[tuple[NodeId, ...], list[str]]]:
        next_pair: dict[str, int] = {}
        for nodes, channels, b in self.routes:
            firsts = [next_pair.get(cid, 0) for cid in channels]
            for cid, first in zip(channels, firsts):
                next_pair[cid] = first + b
            for j in range(b):
                yield nodes, [f"{cid}#{first + j}" for cid, first in zip(channels, firsts)]


def max_disjoint_paths(bell: FlowGraph) -> PathSet:
    """Maximum set of pairwise edge-disjoint Alice-Bob paths in the Bell network, as routes.

    Integer max-flow with each channel's capacity equal to its pair count,
    then the textbook decomposition of the net flow by walks from Alice:
    each vertex leaves by its cursor arc, the first in sorted order with
    units left. A walk that closes a cycle cancels it by its least arc, as
    the cycle carries nothing end to end, and walks on from the revisited
    node. A walk that reaches Bob is taken as often as its least arc
    allows, as one route. Either way the least arc empties, so there are
    at most as many routes as arcs carrying flow. The path count m, len()
    of the PathSet, is the Bell network's minimum cut: the sum of the pair
    counts on the solve's crossing rows, an exact integer, so the walks
    stop once m paths are taken. More than MAX_PLAN_PATHS paths is an
    error, raised before any walk.
    """
    if bell.capacity_kind is not CapacityKind.INTEGER:
        raise ValueError("edge-disjoint paths need a Bell network (integer capacities)")
    solver = cuts_flows._ResidualSolver(bell)
    count = sum([bell.capacities[k] for k in solver.crossing_rows()])
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

    def take(tails: list, arcs: list[list]) -> int:
        """Take the least arc's units off every arc, moving past those emptied."""
        b = min([arc[2] for arc in arcs])
        for tail, arc in zip(tails, arcs):
            arc[2] -= b
            if arc[2] == 0:
                cursor[tail] += 1
        return b

    routes = []
    taken = 0
    while taken < count:
        nodes = [source]
        used: list[list] = []  # the arc leaving each node of the walk
        position = {source: 0}
        v = source
        while v != sink:
            arc = out[v][cursor[v]]
            used.append(arc)
            v = arc[0]
            if v in position:
                k = position[v]
                take(nodes[k:], used[k:])  # cancel the cycle back to v
                for dropped in nodes[k + 1 :]:
                    del position[dropped]
                nodes = nodes[: k + 1]
                used = used[:k]
            else:
                position[v] = len(nodes)
                nodes.append(v)
        b = take(nodes, used)
        routes.append((tuple(nodes), tuple([arc[1] for arc in used]), b))
        taken += b
    return PathSet(routes)


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
