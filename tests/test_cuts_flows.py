import random

import pytest

from qnetcap import (
    CapacityKind,
    Count,
    CustomChannel,
    EdgeSpec,
    FlowGraph,
    Frequency,
    LossyOptical,
    Network,
    Topology,
    WeightKind,
    build_bell_network,
    check_path_set,
    crossing_edges,
    flow_graph_from_network,
    max_disjoint_paths,
    max_flow_value,
    min_cut,
    min_cut_bruteforce,
)
from qnetcap import cuts_flows
from qnetcap.cuts_flows import edge_capacity
from qnetcap.generators import random_bell_network, random_custom_network, random_lossy_network

from conftest import edge_with, network_with


DIAMOND_LOWER = 3.3219280948873623479
DIAMOND_UPPER = 4.7548875021634685444


def unit_edge(eid, u, v, w=1.0, budget=None):
    return EdgeSpec(eid, u, v, CustomChannel(w, w), budget or Frequency(1.0))


def bell_from_counts(counts):
    """counts: {(u, v): n} -> Bell network via a Count-budgeted helper network."""
    nodes = sorted({x for pair in counts for x in pair})
    edges = tuple(
        EdgeSpec(f"{u}-{v}", u, v, LossyOptical(0.5), Count(n))
        for (u, v), n in counts.items()
    )
    return build_bell_network(Network(tuple(nodes), "A", "B", edges))


def test_min_cut_single_edge():
    net = Network(
        ("A", "B"),
        "A",
        "B",
        (EdgeSpec("e1", "A", "B", LossyOptical(0.5), Frequency(1.0)),),
    )
    cut = min_cut(flow_graph_from_network(net, WeightKind.Q_CAP))
    assert cut.value == pytest.approx(1.0, abs=1e-12)
    assert type(cut.v_a) is frozenset
    assert tuple(sorted(cut.v_a)) == ("A",)
    assert cut.crossing == ("e1",)


def test_min_cut_diamond(diamond_net):
    lower = min_cut(flow_graph_from_network(diamond_net, WeightKind.Q_CAP))
    upper = min_cut(flow_graph_from_network(diamond_net, WeightKind.ESQ_UPPER))
    assert lower.value == pytest.approx(DIAMOND_LOWER, abs=1e-9)
    assert upper.value == pytest.approx(DIAMOND_UPPER, abs=1e-9)
    assert tuple(sorted(lower.v_a)) == ("A", "C1")
    assert set(lower.crossing) == {"e2", "e3"}


def test_min_cut_isolated_alice():
    net = Network(
        ("A", "C", "B"),
        "A",
        "B",
        (EdgeSpec("e1", "C", "B", LossyOptical(0.5), Frequency(1.0)),),
    )
    cut = min_cut(flow_graph_from_network(net, WeightKind.Q_CAP))
    assert cut.value == 0.0
    assert cut.crossing == ()


def test_bruteforce_matches_fast_path_on_diamond(diamond_net):
    for kind in WeightKind:
        fast = min_cut(flow_graph_from_network(diamond_net, kind))
        brute = min_cut_bruteforce(flow_graph_from_network(diamond_net, kind))
        assert fast.value == pytest.approx(brute.value, abs=1e-9)
        assert tuple(sorted(brute.v_a)) == ("A", "C1")  # lexicographic tie-break


def test_bruteforce_complete_graph_unit_weights():
    nodes = ("A", "B", "C", "D")
    edges = []
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            edges.append(unit_edge(f"{u}{v}", u, v))
    net = Network(nodes, "A", "B", tuple(edges))
    cut = min_cut_bruteforce(flow_graph_from_network(net, WeightKind.Q_CAP))
    assert cut.value == pytest.approx(3.0)
    assert tuple(sorted(cut.v_a)) == ("A",)


def test_bruteforce_single_edge_weight_passthrough():
    net = Network(("A", "B"), "A", "B", (unit_edge("e", "A", "B", w=2.75),))
    cut = min_cut_bruteforce(flow_graph_from_network(net, WeightKind.Q_CAP))
    assert cut.value == pytest.approx(2.75)


def test_bruteforce_rejects_oversized_networks():
    nodes = tuple(["A", "B"] + [f"C{i}" for i in range(19)])  # 21 vertices
    net = Network(nodes, "A", "B", (unit_edge("e", "A", "B"),))
    with pytest.raises(ValueError, match="capped"):
        min_cut_bruteforce(flow_graph_from_network(net, WeightKind.Q_CAP))


def test_max_disjoint_paths_triangle():
    bell = bell_from_counts({("A", "C"): 3, ("C", "B"): 2, ("A", "B"): 1})
    count, paths = max_disjoint_paths(bell)
    assert count == 3
    node_seqs = sorted(p.nodes for p in paths)
    assert node_seqs == [("A", "B"), ("A", "C", "B"), ("A", "C", "B")]
    check_path_set(bell, paths)
    # one A-C pair is left unused
    idle = {cid: n - paths.pairs_used.get(cid, 0) for cid, _, _, n in bell.arcs}
    assert idle == {"A-C": 1, "C-B": 0, "A-B": 0}


def test_max_disjoint_paths_bottleneck_chain():
    bell = bell_from_counts({("A", "C"): 5, ("C", "B"): 2})
    count, paths = max_disjoint_paths(bell)
    assert count == 2
    assert all(p.nodes == ("A", "C", "B") for p in paths)


def test_max_disjoint_paths_empty_network():
    bell = bell_from_counts({("A", "C"): 0, ("C", "B"): 0})
    count, paths = max_disjoint_paths(bell)
    assert count == 0
    assert len(paths) == 0


def test_max_disjoint_paths_deterministic():
    rng = random.Random(5)
    bell = random_bell_network(rng, max_nodes=8, max_pairs=20)
    first = max_disjoint_paths(bell)
    second = max_disjoint_paths(bell)
    assert first == second


def test_menger_equality_on_random_multigraphs():
    rng = random.Random(101)
    for _ in range(200):
        bell = random_bell_network(rng, max_nodes=10, max_pairs=30)
        count, paths = max_disjoint_paths(bell)
        brute = min_cut_bruteforce(bell)
        assert count == brute.value
        check_path_set(bell, paths)


def test_min_cut_agrees_with_bruteforce_on_random_weighted_networks():
    rng = random.Random(202)
    for i in range(200):
        maker = random_custom_network if i % 2 else random_lossy_network
        net = maker(rng, max_nodes=10, max_edges=18)
        for kind in WeightKind:
            fast = min_cut(flow_graph_from_network(net, kind))
            brute = min_cut_bruteforce(flow_graph_from_network(net, kind))
            scale = max(1.0, brute.value)
            assert abs(fast.value - brute.value) <= 1e-9 * scale


def test_flow_equals_cut_duality():
    rng = random.Random(303)
    for _ in range(60):
        net = random_lossy_network(rng, max_nodes=8, max_edges=14)
        fg = flow_graph_from_network(net, WeightKind.Q_CAP)
        flow = max_flow_value(fg)
        cut = min_cut(flow_graph_from_network(net, WeightKind.Q_CAP))
        assert flow == pytest.approx(cut.value, abs=1e-9 * max(1.0, cut.value))
    for _ in range(60):
        bell = random_bell_network(rng, max_nodes=8, max_pairs=20)
        flow = max_flow_value(bell)
        assert flow == min_cut_bruteforce(bell).value  # integers, exact


def test_adding_an_edge_never_decreases_the_cut():
    rng = random.Random(404)
    for _ in range(60):
        net = random_lossy_network(rng, max_nodes=8, max_edges=12)
        base = min_cut(flow_graph_from_network(net, WeightKind.Q_CAP)).value
        tail, head = rng.sample(net.nodes, 2)
        extra = EdgeSpec("extra", tail, head, LossyOptical(rng.uniform(0.1, 0.9)), Frequency(1.0))
        grown = Network(net.nodes, "A", "B", net.edges + (extra,))
        assert min_cut(flow_graph_from_network(grown, WeightKind.Q_CAP)).value >= base - 1e-9


def test_path_set_checker_catches_violations():
    bell = bell_from_counts({("A", "C"): 1, ("C", "B"): 1})
    _, paths = max_disjoint_paths(bell)
    check_path_set(bell, paths)
    from qnetcap import DisjointPath, PathSet

    bad = PathSet((DisjointPath(("A", "B"), ("A-C#0",)),), {"A-C": 1})
    with pytest.raises(ValueError):
        check_path_set(bell, bad)
    doubled = PathSet(tuple(paths) + tuple(paths), paths.pairs_used)
    with pytest.raises(ValueError, match="twice"):
        check_path_set(bell, doubled)
    hop = DisjointPath(("A", "C", "B"), ("A-C#0", "C-B#0"))
    for ids in (("A-C#1", "C-B#0"), ("A-C#00", "C-B#0"), ("X#0", "C-B#0")):
        forged = PathSet((DisjointPath(hop.nodes, ids),), {"A-C": 1, "C-B": 1})
        with pytest.raises(ValueError, match="unknown"):
            check_path_set(bell, forged)
    miscounted = PathSet((hop,), {"A-C": 1, "C-B": 2})
    with pytest.raises(ValueError, match="pairs_used"):
        check_path_set(bell, miscounted)


def test_flow_graph_from_network_rejects_a_kind_that_is_not_a_weight_kind(diamond_net):
    # a string kind must not pass for either weighting
    with pytest.raises(ValueError, match=r"^kind must be a WeightKind, got 'qcap'$"):
        flow_graph_from_network(diamond_net, "qcap")


def test_max_disjoint_paths_needs_integer_capacities(diamond_net):
    with pytest.raises(ValueError, match="integer"):
        max_disjoint_paths(flow_graph_from_network(diamond_net, WeightKind.Q_CAP))


AB = Topology(("A", "B"), "A", "B", (("e", "A", "B"),))


def test_flow_graph_rejects_a_fractional_capacity_on_an_integer_graph():
    # read as 2 by the solver but summed as 2.5 by the cut, it would break duality
    with pytest.raises(ValueError, match=r"^arc 'e': capacity must be an integer, got 2\.5$"):
        FlowGraph(AB, (2.5,), CapacityKind.INTEGER)
    fg = FlowGraph(AB, (2,), CapacityKind.INTEGER)
    assert min_cut(fg).value == max_flow_value(fg) == len(max_disjoint_paths(fg)[1]) == 2


@pytest.mark.parametrize("kind", list(CapacityKind))
def test_flow_graph_rejects_a_boolean_capacity(kind):
    word = "an integer" if kind is CapacityKind.INTEGER else "a real number"
    with pytest.raises(ValueError, match=f"^arc 'e': capacity must be {word}, got True$"):
        FlowGraph(AB, (True,), kind)


def test_flow_graph_rejects_a_capacity_kind_that_is_not_a_capacity_kind():
    # a string kind must not pass for a real graph
    message = r"^capacity_kind must be a CapacityKind, got 'integer'$"
    with pytest.raises(ValueError, match=message):
        FlowGraph(AB, (2,), "integer")


@pytest.mark.parametrize("capacities", [(), (1, 1)], ids=["none", "two"])
def test_flow_graph_needs_one_capacity_per_arc(capacities):
    for kind in CapacityKind:
        with pytest.raises(ValueError) as err:
            FlowGraph(AB, capacities, kind)
        assert str(err.value) == f"got {len(capacities)} capacities for 1 arcs"


# a flow graph's vertices, terminals and arcs are checked by its Topology
@pytest.mark.parametrize(
    "source, sink, arc, message",
    [
        ("A", "B", ("e", "A", "Z"), "edge 'e' references undeclared node 'Z'"),
        ("A", "B", ("e", "Z", "B"), "edge 'e' references undeclared node 'Z'"),
        ("Z", "B", ("e", "A", "B"), "source 'Z' is not a vertex"),
        ("A", "Z", ("e", "A", "B"), "sink 'Z' is not a vertex"),
        ("A", "B", ("e", ["A"], "B"), "edge 'e' references undeclared node ['A']"),
    ],
    ids=["head", "tail", "source", "sink", "unhashable-tail"],
)
def test_flow_graph_rejects_an_unknown_vertex(source, sink, arc, message):
    with pytest.raises(ValueError) as err:
        Topology(("A", "B"), source, sink, (arc,))
    assert str(err.value) == message


def test_flow_graph_rejects_a_source_that_is_the_sink():
    with pytest.raises(ValueError, match="^source and sink are the same vertex 'A'$"):
        Topology(("A", "B"), "A", "A", (("e", "A", "B"),))


@pytest.mark.parametrize(
    "vertices, arcs",
    [
        (("A", "B"), (("e", "A", "B"), ("e", "A", "B"))),
        (("A", "C", "B"), (("e", "A", "C"), ("e", "C", "B"))),
    ],
    ids=["parallel", "chain"],
)
def test_topology_rejects_a_repeated_arc_id(vertices, arcs):
    # flow is keyed by arc id, so a repeated id would merge two arcs' flows
    with pytest.raises(ValueError) as err:
        Topology(vertices, "A", "B", arcs)
    assert str(err.value) == "duplicate edge id 'e'"


# a Topology checks its labels itself, so direct callers get the messages Network gives
@pytest.mark.parametrize(
    "vertices, source, sink, arcs, message",
    [
        (("A", 7, "B"), "A", "B", (), "node label must be a non-empty string, got 7"),
        (("A", "C", "A", "B"), "A", "B", (("e", "A", "C"), ("f", "C", "B")),
         "duplicate node label 'A'"),
        (("A", "B"), ["A"], "B", (),
         "source must be a non-empty string node label, got ['A']"),
        (("A", "B"), "A", "B", ((5, "A", "B"),), "edge id must be a non-empty string, got 5"),
        (("A", "B"), "A", "B", (("", "A", "B"),), "edge id must be a non-empty string, got ''"),
    ],
    ids=["label-not-a-string", "repeated-label", "unhashable-source", "int-arc-id",
         "empty-arc-id"],
)
def test_topology_rejects_a_malformed_label(vertices, source, sink, arcs, message):
    with pytest.raises(ValueError) as err:
        Topology(vertices, source, sink, arcs)
    assert str(err.value) == message


def test_every_flow_graph_of_a_network_shares_its_topology(triangle_net):
    for fg in (flow_graph_from_network(triangle_net, WeightKind.Q_CAP),
               flow_graph_from_network(triangle_net, WeightKind.ESQ_UPPER),
               build_bell_network(triangle_net)):
        assert fg.topology is triangle_net.topology


def sub_tolerance_net(freq):
    """A -> C at the given budget; nothing reaches B."""
    edge = EdgeSpec("ac", "A", "C", LossyOptical(0.5), Frequency(freq))
    return Network(("A", "B", "C"), "A", "B", (edge,))


@pytest.mark.parametrize("freq", [1e-13, 4.1e-306])
def test_arc_below_the_solver_tolerance_is_not_cut_needlessly(freq):
    # 1e-13 lies below the solver's 1e-12 x max(1, total) saturation tolerance
    for kind in WeightKind:
        fg = flow_graph_from_network(sub_tolerance_net(freq), kind)
        cut = min_cut(fg)
        assert cut.value == 0.0 and cut.crossing == ()
        assert tuple(sorted(cut.v_a)) == ("A", "C")
        assert cut == min_cut_bruteforce(fg)


def multi_scale_network(rng):
    """Random lossy or custom network whose budgets span 1e-320 to 1e16."""
    maker = random_custom_network if rng.random() < 0.5 else random_lossy_network
    net = maker(rng, max_nodes=7, max_edges=10)
    edges = tuple(
        edge_with(e, usage=Frequency(
            0.0 if rng.random() < 0.1 else rng.uniform(1, 10) * 10.0 ** rng.randint(-320, 15)
        ))
        for e in net.edges
    )
    return network_with(net, edges)


def test_min_cut_is_zero_exactly_when_bruteforce_is_zero_at_every_scale():
    rng = random.Random(505)
    for _ in range(400):
        net = multi_scale_network(rng)
        for kind in WeightKind:
            fg = flow_graph_from_network(net, kind)
            assert (min_cut(fg).value == 0) == (min_cut_bruteforce(fg).value == 0)


@pytest.mark.parametrize("kind", list(WeightKind))
def test_min_cut_witness_is_the_network_cut_it_names(kind):
    # an independent referee of the row sum: crossing_edges and edge_capacity
    rng = random.Random(606)
    for i in range(150):
        if i % 3 == 2:
            net = multi_scale_network(rng)
        else:
            maker = random_custom_network if i % 3 else random_lossy_network
            net = maker(rng, max_nodes=9, max_edges=16)
        for floor in (False, True):
            cut = min_cut(flow_graph_from_network(net, kind, floor_budgets=floor))
            edges = crossing_edges(net, cut.v_a)
            assert cut.crossing == tuple(e.id for e in edges)
            assert cut.value == sum(edge_capacity(e, kind, floor_budgets=floor) for e in edges)


def lossy_grid(rng, side, fixed_ends):
    """Seeded side x side grid of lossy edges with per-use budgets.

    With fixed_ends Alice and Bob sit at opposite corners; otherwise at two
    distinct random vertices, so the minimum cut may surround an inner one.
    """
    nodes = tuple(f"n{r}_{c}" for r in range(side) for c in range(side))
    edges = []
    for r in range(side):
        for c in range(side):
            for r2, c2 in ((r, c + 1), (r + 1, c)):
                if r2 < side and c2 < side:
                    edges.append(EdgeSpec(
                        f"e{len(edges)}", f"n{r}_{c}", f"n{r2}_{c2}",
                        LossyOptical(rng.uniform(0.05, 0.95)), Frequency(rng.uniform(0.2, 5.0)),
                    ))
    alice, bob = (nodes[0], nodes[-1]) if fixed_ends else rng.sample(nodes, 2)
    return Network(nodes, alice, bob, tuple(edges))


def dumbbell(rng, side, bridges):
    """Two strong grids joined by weak bridge edges, Alice in one, Bob in the other."""
    halves = [lossy_grid(rng, side, fixed_ends=True) for _ in range(2)]
    strong = [
        EdgeSpec(f"{h}{e.id}", f"{h}{e.tail}", f"{h}{e.head}",
                 LossyOptical(0.5 + e.channel.eta / 2), Frequency(1.0 + e.usage.value))
        for h, half in zip("LR", halves) for e in half.edges
    ]
    weak = [
        EdgeSpec(f"bridge{k}", f"Ln{rng.randrange(side)}_{side - 1}", f"Rn{rng.randrange(side)}_0",
                 LossyOptical(0.1), Frequency(0.5))
        for k in range(bridges)
    ]
    nodes = tuple(f"{h}{v}" for h, half in zip("LR", halves) for v in half.nodes)
    return Network(nodes, nodes[0], nodes[-1], tuple(strong + weak))


def networkx_min_cut_value(net, kind):
    """Undirected minimum cut by networkx's Boykov-Kolmogorov max-flow; parallel edges add up."""
    import networkx as nx
    from networkx.algorithms.flow import boykov_kolmogorov

    g = nx.Graph()
    g.add_nodes_from(net.nodes)
    for e in net.edges:
        c = edge_capacity(e, kind)
        if g.has_edge(e.tail, e.head):
            g[e.tail][e.head]["capacity"] += c
        else:
            g.add_edge(e.tail, e.head, capacity=c)
    return nx.maximum_flow_value(g, net.alice, net.bob, flow_func=boykov_kolmogorov)


def check_against_networkx(net, kind):
    cut = min_cut(flow_graph_from_network(net, kind))
    assert cut.value == pytest.approx(networkx_min_cut_value(net, kind), rel=1e-9)
    assert type(cut.v_a) is frozenset
    edges = crossing_edges(net, cut.v_a)  # checks the side: alice in, bob out, no unknown node
    assert cut.crossing == tuple(e.id for e in edges)
    assert cut.value == sum(edge_capacity(e, kind) for e in edges)
    return cut


@pytest.mark.parametrize("side", [20, 40, 80])
@pytest.mark.parametrize("fixed_ends", [True, False])
def test_min_cut_matches_networkx_on_large_grids(side, fixed_ends):
    # brute force stops at 20 vertices; networkx referees the larger graphs
    net = lossy_grid(random.Random(side * 2 + fixed_ends), side, fixed_ends)
    for kind in WeightKind:
        check_against_networkx(net, kind)


def test_min_cut_of_a_dumbbell_is_its_bridges():
    net = dumbbell(random.Random(707), 15, bridges=3)
    for kind in WeightKind:
        cut = check_against_networkx(net, kind)
        assert cut.crossing == ("bridge0", "bridge1", "bridge2")


def reference_adjacency(topology):
    """Per-vertex arc lists of the residual doubling, each sorted by (head label, arc index)."""
    names = topology.vertices
    index = {v: k for k, v in enumerate(names)}
    to, adj = [], [[] for _ in names]
    for _, u, v in topology.arcs:
        for tail, head in ((index[u], index[v]), (index[v], index[u])):
            adj[tail].append(len(to))
            to.append(head)
    return [sorted(arcs, key=lambda i: (names[to[i]], i)) for arcs in adj]


def random_multigraph(rng, kind):
    """Labels declared in shuffled order, so n10 and n2 do not sit in label order,
    with parallel arcs and a share of zero capacities."""
    inner = [f"n{k}" for k in range(rng.randint(0, 14))]
    vertices = ["A", "B", *inner]
    rng.shuffle(vertices)
    pairs = [tuple(rng.sample(vertices, 2)) for _ in range(rng.randint(1, 8))]
    arcs, caps = [], []
    for j in range(rng.randint(1, 40)):
        u, v = rng.choice(pairs)  # few endpoint pairs, so many parallel arcs
        if rng.random() < 0.2:
            cap = 0 if kind is CapacityKind.INTEGER else 0.0
        elif kind is CapacityKind.INTEGER:
            cap = rng.randint(1, 5)
        else:
            cap = rng.uniform(0.0, 3.0)
        arcs.append((f"e{j}", u, v))
        caps.append(cap)
    return FlowGraph(Topology(vertices, "A", "B", arcs), caps, kind)


@pytest.mark.parametrize("kind", list(CapacityKind))
def test_layout_arc_order_is_the_label_sort(kind):
    rng = random.Random(f"layout/{kind.value}")
    for _ in range(300):
        fg = random_multigraph(rng, kind)
        assert fg.topology._adj == reference_adjacency(fg.topology)
        solver = cuts_flows._ResidualSolver(fg)
        # tolerance and thresholds as the per-arc construction made them, types included
        caps = [c if kind is CapacityKind.INTEGER else float(c) for _, _, _, c in fg.arcs]
        tol = 0 if kind is CapacityKind.INTEGER else 1e-12 * max(
            1.0, sum(c for _, _, _, c in fg.arcs))
        want = [min(tol, c / 2) for c in caps for _ in range(2)]
        assert (solver.tol, type(solver.tol)) == (tol, type(tol))
        assert [(t, type(t)) for t in solver.threshold] == [(t, type(t)) for t in want]
