"""Routes against the per-unit path decomposition they replaced.

``max_disjoint_paths`` walks the net flow once per route or cancelled
cycle, and takes each path as often as its least arc allows. The reference
below is the decomposition it replaced, which walks once per Bell pair;
both must give the same unit paths, pair ids and pair tallies, and the
same plan JSON byte for byte.
"""

import json
import random

import pytest

from qnetcap import (
    CapacityKind, FlowGraph, PathSet, Topology, build_bell_network, check_path_set, load_network,
    max_disjoint_paths, parse_network, plan, plan_to_dict,
)
from qnetcap.cuts_flows import _ResidualSolver
from qnetcap.generators import random_count_network

from conftest import DATA_DIR, NETWORKS_DIR, grid_network

EPSILON = 1e-3


def reference_unit_paths(bell):
    """One walk per Bell pair: the unit paths as (nodes, pair ids), and pairs_used."""
    solver = _ResidualSolver(bell)
    source, sink = bell.topology.source, bell.topology.sink
    out = {v: [] for v in bell.topology.vertices}
    for cid, (u, v, amount) in solver.net_flow().items():
        out[u].append([v, cid, int(amount)])
    count = sum([arc[2] for arc in out[source]])  # the flow leaving Alice; none enters it
    for arcs in out.values():
        arcs.sort()
    cursor = {v: 0 for v in out}

    def next_arc(v):
        arc = out[v][cursor[v]]
        arc[2] -= 1
        if arc[2] == 0:
            cursor[v] += 1
        return arc[0], arc[1]

    pairs_used = {}
    paths = []
    for _ in range(count):
        nodes = [source]
        channels = []
        position = {source: 0}
        v = source
        while v != sink:
            w, cid = next_arc(v)
            if w in position:
                k = position[w]
                for dropped in nodes[k + 1:]:
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
        paths.append((tuple(nodes), tuple(bell_ids)))
    return paths, pairs_used


def reference_plan_json(net, epsilon):
    """The plan JSON the per-unit decomposition gave, dumped as the CLI dumps it."""
    bell = build_bell_network(net)
    paths, used = reference_unit_paths(bell)
    ids = [eid for eid, _, _ in bell.topology.arcs]
    counted = sum(1 for n in bell.capacities if n > 0)
    doc = {
        "m": len(paths),
        "epsilon": epsilon,
        "error_budget": counted * epsilon,
        "counted_edges": counted,
        "paths": [{"nodes": list(nodes), "bell_edges": list(bells)} for nodes, bells in paths],
        "swap_schedules": [list(nodes[1:-1]) for nodes, _ in paths],
        "unused_pairs": dict(sorted(
            (eid, n - used.get(eid, 0)) for eid, n in zip(ids, bell.capacities)
        )),
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def assert_matches_reference(net):
    bell = build_bell_network(net)
    routes = max_disjoint_paths(bell)
    paths, used = reference_unit_paths(bell)
    assert [(nodes, tuple(ids)) for nodes, ids in routes] == paths
    assert routes.pairs_used == used
    assert len(routes) == len(paths)
    for nodes, channels, b in routes.routes:
        assert b >= 1 and len(set(nodes)) == len(nodes) == len(channels) + 1
    # every route empties an arc of the flow
    assert len(routes.routes) <= len(_ResidualSolver(bell).net_flow())
    out = json.dumps(plan_to_dict(plan(net, EPSILON)), indent=2, sort_keys=True, allow_nan=False)
    assert out == reference_plan_json(net, EPSILON)
    return len(routes.routes), len(paths)


def test_routes_match_the_unit_decomposition_on_random_count_networks():
    rng = random.Random(1616)
    routes = units = 0
    # small stacks, then stacks of up to 1000 pairs per channel
    for max_count in [6] * 1300 + [1000] * 200:
        net = random_count_network(rng, max_nodes=10, max_edges=16, max_count=max_count)
        r, u = assert_matches_reference(net)
        routes, units = routes + r, units + u
    assert routes < units  # the routes are shared by many unit paths


@pytest.mark.parametrize("side, cmax", [(3, 10**4), (5, 10), (6, 10**4), (8, 100), (10, 10**3)])
def test_routes_match_the_unit_decomposition_on_count_grids(side, cmax):
    rng = random.Random(f"grid/{side}/{cmax}")
    for _ in range(3):
        assert_matches_reference(grid_network(rng, side, "count", max_count=cmax))


def _count_network_files():
    files = []
    for path in sorted([*NETWORKS_DIR.glob("*.json"), *DATA_DIR.glob("*.json")]):
        doc = json.loads(path.read_text())
        if isinstance(doc, dict) and "edges" in doc and all(
            "count" in e["usage"] for e in doc["edges"]
        ):
            files.append(path)
    return files


def test_every_sample_count_network_is_held_to_the_reference():
    names = [p.name for p in _count_network_files()]
    assert names == [
        "fig2_analog.json", "triangle_counts.json", "count_cyclic_flow.json", "grid12_counts.json",
    ]
    for path in _count_network_files():
        assert_matches_reference(parse_network(path.read_text()))


def test_a_cyclic_flow_is_cancelled_and_held_to_the_reference():
    # the Dinic flow of this network runs a 2-cycle over the parallel channels
    # e6 and e8; the walk cancels it and still lists the reference's unit paths
    net = load_network(DATA_DIR / "count_cyclic_flow.json")
    bell = build_bell_network(net)
    flow = _ResidualSolver(bell).net_flow()
    assert (flow["e6"][:2], flow["e8"][:2]) == (("C1", "C0"), ("C0", "C1"))
    assert assert_matches_reference(net) == (10, 16)
    check_path_set(bell, max_disjoint_paths(bell))


def test_a_cycle_closed_twice_at_one_node_is_cancelled_twice(monkeypatch):
    # a circulation M -> N -> M over channels mn (2 units), nm1 and nm2 (1 each)
    # rides on the flow S -> M -> T: the walk closes the cycle at M twice, and
    # must know M and S as visited after each cancel, before it leaves for T
    rows = (("sm", "S", "M"), ("mt", "M", "T"), ("mn", "M", "N"), ("nm1", "N", "M"),
            ("nm2", "N", "M"))
    bell = FlowGraph(Topology(("S", "M", "N", "T"), "S", "T", rows), (1, 1, 2, 1, 1),
                     CapacityKind.INTEGER)
    net_flow = _ResidualSolver.net_flow
    circulation = {"mn": ("M", "N", 2.0), "nm1": ("N", "M", 1.0), "nm2": ("N", "M", 1.0)}
    monkeypatch.setattr(_ResidualSolver, "net_flow",
                        lambda self: {**net_flow(self), **circulation})
    routes = max_disjoint_paths(bell)
    assert routes.routes == ((("S", "M", "T"), ("sm", "mt"), 1),)
    paths, used = reference_unit_paths(bell)
    assert [(nodes, tuple(ids)) for nodes, ids in routes] == paths
    assert routes.pairs_used == used
    check_path_set(bell, routes)


def test_only_the_json_and_the_checker_expand_the_routes(monkeypatch):
    expansions = []
    unit_listing = PathSet.__iter__

    def counting_iter(self):
        expansions.append(self)
        return unit_listing(self)

    monkeypatch.setattr(PathSet, "__iter__", counting_iter)
    net = grid_network(random.Random(10), 10, "count", max_count=100)
    p = plan(net, EPSILON)
    assert len(p.paths) == p.m > len(p.paths.routes)
    assert len(p.swap_schedules) == p.m
    assert expansions == []
    doc = plan_to_dict(p)
    assert doc["m"] == len(doc["paths"]) == len(doc["swap_schedules"]) == p.m
    assert expansions == [p.paths]
    check_path_set(build_bell_network(net), p.paths)
    assert expansions == [p.paths, p.paths]


def test_plan_json_holds_no_shared_lists():
    doc = plan_to_dict(plan(grid_network(random.Random(3), 4, "count", max_count=50), EPSILON))
    lists = [p["nodes"] for p in doc["paths"]] + [p["bell_edges"] for p in doc["paths"]]
    lists += doc["swap_schedules"]
    assert len(lists) > 3 and len({id(x) for x in lists}) == len(lists)
