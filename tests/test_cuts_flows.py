import json
import math
import random
from functools import reduce
from operator import add

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
    PathSet,
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
    plan,
)
from qnetcap import cuts_flows
from qnetcap.pointwise import edge_capacity
from qnetcap.cli import main
from qnetcap.generators import (
    random_count_network, random_custom_network, random_lossy_network,
)
from qnetcap.sweep import sweep_csv

from conftest import bell_shapes, edge_with, network_with


def in_order_sum(values):
    """The float sum rounded left to right, as cut values are summed on every Python;
    sum() compensates its rounding from 3.12 on."""
    return reduce(add, values, 0.0)


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
        assert tuple(sorted(brute.v_a)) == ("A", "C1")  # the inclusion-minimal minimum cut


def test_bruteforce_breaks_ties_toward_the_smallest_side():
    # A - 0 - B with unit weights: {A} and {0, A} both cut 1, and "0" < "A",
    # so a lexicographic tie-break would pick {0, A} where min_cut picks {A}
    edges = (unit_edge("a", "A", "0"), unit_edge("b", "0", "B"))
    net = Network(("A", "0", "B"), "A", "B", edges)
    for kind in WeightKind:
        fg = flow_graph_from_network(net, kind)
        assert min_cut(fg).v_a == min_cut_bruteforce(fg).v_a == frozenset({"A"})
        sides = (frozenset({"A"}), frozenset({"0", "A"}))
        assert [cuts_flows._side_cut(fg, side).value for side in sides] == [1, 1]
        assert min(sides, key=sorted) == sides[1]  # the old, lexicographic tie-break


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
    paths = max_disjoint_paths(bell)
    assert len(paths) == 3
    node_seqs = sorted(nodes for nodes, _ in paths)
    assert node_seqs == [("A", "B"), ("A", "C", "B"), ("A", "C", "B")]
    check_path_set(bell, paths)
    # one A-C pair is left unused
    idle = {cid: n - paths.pairs_used.get(cid, 0)
            for (cid, _, _), n in zip(bell.topology.arcs, bell.capacities)}
    assert idle == {"A-C": 1, "C-B": 0, "A-B": 0}


def test_max_disjoint_paths_bottleneck_chain():
    bell = bell_from_counts({("A", "C"): 5, ("C", "B"): 2})
    paths = max_disjoint_paths(bell)
    assert len(paths) == 2
    assert all(nodes == ("A", "C", "B") for nodes, _ in paths)


def test_max_disjoint_paths_empty_network():
    bell = bell_from_counts({("A", "C"): 0, ("C", "B"): 0})
    assert len(max_disjoint_paths(bell)) == 0


def test_max_disjoint_paths_deterministic():
    rng = random.Random(5)
    bell = build_bell_network(random_count_network(rng, max_nodes=8, max_edges=12))
    first = max_disjoint_paths(bell)
    second = max_disjoint_paths(bell)
    assert first == second


def test_menger_equality_on_random_multigraphs():
    rng = random.Random(101)
    shapes = set()
    for _ in range(200):
        bell = build_bell_network(random_count_network(rng, max_nodes=10, max_edges=20))
        paths = max_disjoint_paths(bell)
        brute = min_cut_bruteforce(bell)
        assert len(paths) == brute.value
        assert min_cut(bell).v_a == brute.v_a
        check_path_set(bell, paths)
        shapes |= bell_shapes(bell)
    assert shapes == {"parallel", "zero"}  # parallel channels and zero-pair rows both occur


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
        bell = build_bell_network(random_count_network(rng, max_nodes=8, max_edges=12))
        flow = max_flow_value(bell)
        brute = min_cut_bruteforce(bell)
        assert flow == brute.value  # integers, exact
        assert min_cut(bell).v_a == brute.v_a  # ties are exact too


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
    paths = max_disjoint_paths(bell)
    check_path_set(bell, paths)

    # a route is (nodes, channels, multiplicity)
    bad = PathSet(((("A", "B"), ("A-C",), 1),))
    with pytest.raises(ValueError, match="does not join"):
        check_path_set(bell, bad)
    stops_short = PathSet(((("A", "C"), ("A-C",), 1),))
    with pytest.raises(ValueError, match="does not run alice -> bob"):
        check_path_set(bell, stops_short)
    loops = PathSet(((("A", "C", "A", "C", "B"), ("A-C", "A-C", "A-C", "C-B"), 1),))
    with pytest.raises(ValueError, match="repeats a vertex"):
        check_path_set(bell, loops)
    one_hop_short = PathSet(((("A", "C", "B"), ("A-C",), 1),))
    with pytest.raises(ValueError, match="edge count mismatch"):
        check_path_set(bell, one_hop_short)
    # a doubled route numbers A-C#1 and C-B#1, past each channel's one pair
    doubled = PathSet(paths.routes + paths.routes)
    with pytest.raises(ValueError, match="unknown"):
        check_path_set(bell, doubled)
    forged = PathSet(((("A", "C", "B"), ("X", "C-B"), 1),))  # no such channel
    with pytest.raises(ValueError, match="unknown"):
        check_path_set(bell, forged)
    twice = PathSet(((("A", "C", "B"), ("A-C", "A-C"), 1),))  # one channel for both hops
    with pytest.raises(ValueError, match="twice"):
        check_path_set(bell, twice)


@pytest.mark.parametrize("b", [-1, 0, -7, True, 1.0, 2.5])
def test_path_set_checker_rejects_a_multiplicity_below_one_or_not_an_integer(b):
    # at b = -1 the second route cancels the first: len() reads 0 while one
    # unit path is listed, and every pair id that is listed checks out
    bell = bell_from_counts({("A", "B"): 1})
    bad = (("A", "B"), ("A-B",), b)
    for routes in ((bad,), ((("A", "B"), ("A-B",), 1), bad)):
        with pytest.raises(ValueError, match=f"multiplicity {b!r}"):
            check_path_set(bell, PathSet(routes))


@pytest.mark.parametrize("shift", [-1, 1])
def test_path_set_checker_holds_len_to_the_unit_listing(monkeypatch, shift):
    # mutant path sets whose len(), and so a plan's m, miscounts the listed unit paths
    bell = bell_from_counts({("A", "C"): 2, ("C", "B"): 2, ("A", "B"): 1})
    paths = max_disjoint_paths(bell)
    assert len(paths) == 3
    check_path_set(bell, paths)
    counted = PathSet.__len__
    monkeypatch.setattr(PathSet, "__len__", lambda self: counted(self) + shift)
    with pytest.raises(ValueError, match=f"len\\(\\) is {3 + shift} but 3 unit paths are listed"):
        check_path_set(bell, paths)


def test_path_set_checker_holds_pairs_used_to_the_unit_listing(monkeypatch):
    # a mutant path set whose pair tallies disagree with the pair ids it lists
    bell = bell_from_counts({("A", "C"): 1, ("C", "B"): 1})
    paths = max_disjoint_paths(bell)
    check_path_set(bell, paths)
    monkeypatch.setattr(PathSet, "pairs_used", property(lambda self: {"A-C": 1, "C-B": 2}))
    with pytest.raises(ValueError, match="pairs_used"):
        check_path_set(bell, paths)


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
    assert min_cut(fg).value == max_flow_value(fg) == len(max_disjoint_paths(fg)) == 2


@pytest.mark.parametrize("kind", list(CapacityKind))
def test_flow_graph_rejects_a_boolean_capacity(kind):
    word = "an integer" if kind is CapacityKind.INTEGER else "a real number"
    with pytest.raises(ValueError, match=f"^arc 'e': capacity must be {word}, got True$"):
        FlowGraph(AB, (True,), kind)


NOT_FINITE = "capacity must be finite and >= 0, got"


@pytest.mark.parametrize(
    "cap, kind, message",
    [
        ("2", CapacityKind.REAL, "capacity must be a real number, got '2'"),
        (None, CapacityKind.REAL, "capacity must be a real number, got None"),
        ("2", CapacityKind.INTEGER, "capacity must be an integer, got '2'"),
        (10**400, CapacityKind.REAL, f"{NOT_FINITE} an integer of 1329 bits"),
        (10**400, CapacityKind.INTEGER, f"{NOT_FINITE} an integer of 1329 bits"),
        (math.inf, CapacityKind.REAL, f"{NOT_FINITE} inf"),
        (math.nan, CapacityKind.REAL, f"{NOT_FINITE} nan"),
        (-0.5, CapacityKind.REAL, f"{NOT_FINITE} -0.5"),
    ],
    ids=["str", "none", "str-integer", "huge-int", "huge-int-integer", "inf", "nan", "negative"],
)
def test_flow_graph_rejects_a_bad_capacity_with_a_value_error_naming_the_arc(cap, kind, message):
    with pytest.raises(ValueError) as err:
        FlowGraph(AB, (cap,), kind)
    assert str(err.value) == f"arc 'e': {message}"


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
        # the arc rows are checked before the labels
        (("A", 7, "B"), "A", "B", (("", "A", "B"),),
         "edge id must be a non-empty string, got ''"),
        (("A", "B"), "A", "B", (5,), "arc row #0 must be an (id, u, v) triple, got 5"),
        (("A", "B"), "A", "B", (("e", "A", "B"), ("f", "A")),
         "arc row #1 must be an (id, u, v) triple, got ('f', 'A')"),
        (("A", "B"), "A", "B", (("e", "A", "A"),), "edge 'e': self-loop at 'A' rejected"),
    ],
    ids=["label-not-a-string", "repeated-label", "unhashable-source", "int-arc-id",
         "empty-arc-id", "arc-row-before-label", "arc-row-not-iterable", "arc-row-of-two",
         "self-loop"],
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


@pytest.mark.parametrize("freq", [1e-13, 4.1e-306, 5e-324])
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
        # its Count twin: fractional counts, floored on the q_cap side
        counted = network_with(net, (edge_with(e, usage=Count(e.usage.value)) for e in net.edges))
        for each in (net, counted):
            cut = min_cut(flow_graph_from_network(each, kind))
            edges = crossing_edges(each, cut.v_a)
            assert cut.crossing == tuple(e.id for e in edges)
            assert cut.value == in_order_sum([edge_capacity(e, kind) for e in edges])


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
    assert cut.value == in_order_sum([edge_capacity(e, kind) for e in edges])
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
    """Per-vertex arc lists of the residual doubling in arc order: row k's arc 2k
    leaves its tail and arc 2k+1 its head."""
    index = {v: k for k, v in enumerate(topology.vertices)}
    adj = [[] for _ in topology.vertices]
    for k, (_, u, v) in enumerate(topology.arcs):
        adj[index[u]].append(2 * k)
        adj[index[v]].append(2 * k + 1)
    return adj


# real capacities at or below twice the solver's 1e-12 tolerance, down to the
# smallest subnormal, whose half rounds to 0.0
SUB_TOLERANCE = (5e-324, 4.1e-306, 1e-13, 1e-12, 2e-12)


def random_multigraph(rng, kind):
    """Labels declared in shuffled order, so n10 and n2 do not sit in label order,
    with parallel arcs, a share of zero capacities and, on real graphs, a share
    below the solver's tolerance."""
    inner = [f"n{k}" for k in range(rng.randint(0, 14))]
    vertices = ["A", "B", *inner]
    rng.shuffle(vertices)
    pairs = [tuple(rng.sample(vertices, 2)) for _ in range(rng.randint(1, 8))]
    arcs, caps = [], []
    for j in range(rng.randint(1, 40)):
        u, v = rng.choice(pairs)  # few endpoint pairs, so many parallel arcs
        draw = rng.random()
        if draw < 0.2:
            cap = 0 if kind is CapacityKind.INTEGER else 0.0
        elif kind is CapacityKind.INTEGER:
            cap = rng.randint(1, 5)
        elif draw < 0.35:
            cap = rng.choice(SUB_TOLERANCE)
        else:
            cap = rng.uniform(0.0, 3.0)
        arcs.append((f"e{j}", u, v))
        caps.append(cap)
    return FlowGraph(Topology(vertices, "A", "B", arcs), caps, kind)


def reachable_by_the_rule(fg, cap, tol):
    """Labels a BFS from the source reaches over arcs whose residual in `cap`
    exceeds min(tol, c / 2), c the capacity of the arc's row."""
    topology, adj = fg.topology, reference_adjacency(fg.topology)
    threshold = [min(tol, c / 2) for c in fg.capacities for _ in range(2)]
    seen, frontier = {topology._terminals[0]}, [topology._terminals[0]]
    while frontier:
        found = []
        for x in frontier:
            for i in adj[x]:
                w = topology._to[i]
                if w not in seen and cap[i] > threshold[i]:
                    seen.add(w)
                    found.append(w)
        frontier = found
    return frozenset(topology.vertices[k] for k in seen)


@pytest.mark.parametrize("kind", list(CapacityKind))
def test_layout_arc_order_is_the_file_order(kind):
    rng = random.Random(f"layout/{kind.value}")
    tables = 0
    for _ in range(300):
        fg = random_multigraph(rng, kind)
        topology = fg.topology
        assert topology._adj == reference_adjacency(topology)
        assert topology._to == [topology.vertices.index(w) for _, u, v in topology.arcs
                                for w in (v, u)]
        rows = [k for k, (_, u, v) in enumerate(topology.arcs)
                if {u, v} != {topology.source, topology.sink}]
        unbounded = rng.choice(rows) if rows and rng.random() < 0.3 else None
        solver = cuts_flows._ResidualSolver(fg, unbounded)
        # the tolerance as the per-arc construction made it, type included
        caps = [c if kind is CapacityKind.INTEGER else float(c) for c in fg.capacities]
        tol = 0 if kind is CapacityKind.INTEGER else 1e-12 * max(1.0, sum(fg.capacities))
        assert (solver.tol, type(solver.tol)) == (tol, type(tol))
        tables += bool(solver.low)
        for i, c in enumerate(c for c in caps for _ in range(2)):
            want = min(tol, c / 2)
            threshold = solver.low.get(i, solver.tol)
            if c > 0:  # the threshold itself, bit for bit
                assert (threshold, type(threshold)) == (want, type(want))
            else:  # a zero row never opens: its residual stays 0, or inf when unbounded
                assert i not in solver.low
                assert solver.cap[i] == (math.inf if i // 2 == unbounded else 0)
                assert (solver.cap[i] > threshold) == (solver.cap[i] > want)
        assert solver.reachable == reachable_by_the_rule(fg, solver.cap, tol)
    assert tables > 0 if kind is CapacityKind.REAL else tables == 0


def test_library_code_reads_the_topology_not_the_arc_rows(monkeypatch):
    # FlowGraph.arcs builds a row tuple on every read; the solvers, ArcSweep and
    # the oracles read fg.topology.arcs and fg.capacities instead
    rng = random.Random(22)
    nets = [random_count_network(rng, max_nodes=7, max_count=20) for _ in range(8)]

    def outcomes():
        found = []
        for net in nets:
            bell = build_bell_network(net)
            paths = plan(net).paths
            check_path_set(bell, paths)
            sweep = sweep_csv(net, "eta", [0.0, 0.3, 0.9], ["lower", "upper_esq", "m"],
                              edge=net.edges[-1].id)
            lossy = flow_graph_from_network(net, WeightKind.ESQ_UPPER)
            found.append((sweep, list(paths), min_cut_bruteforce(bell),
                           min_cut_bruteforce(lossy), min_cut(lossy)))
        return found

    expected = outcomes()

    def no_rows(fg):
        raise AssertionError("FlowGraph.arcs was read")

    monkeypatch.setattr(FlowGraph, "arcs", property(no_rows))
    assert outcomes() == expected


HUGE_CAPACITIES = (0.0, 1e-300, 1.0, 3e307, 5e307, 1e308, 1.7e308)


def huge_capacity_graph(rng):
    """A random multigraph on 3 to 5 vertices whose capacities may sum past the floats."""
    vertices = ("A", "B", *(f"C{k}" for k in range(rng.randint(1, 3))))
    arcs = []
    for k in range(rng.randint(1, 7)):
        u, v = rng.sample(vertices, 2)
        arcs.append((f"e{k}", u, v))
    capacities = tuple(rng.choice(HUGE_CAPACITIES) for _ in arcs)
    return FlowGraph(Topology(vertices, "A", "B", tuple(arcs)), capacities, CapacityKind.REAL)


def test_min_cut_agrees_with_bruteforce_when_the_capacities_sum_past_the_floats():
    # the solver's tolerance, 1e-12 x the total capacity, must not overflow to inf
    rng = random.Random(606)
    for _ in range(3000):
        fg = huge_capacity_graph(rng)
        fast, brute = min_cut(fg), min_cut_bruteforce(fg)
        if brute.value < math.inf:  # else every cut sums past the floats, as does fast's
            assert abs(fast.value - brute.value) <= 1e-9 * max(1.0, brute.value), fg
        else:
            assert fast.value == math.inf, fg


def test_bound_reports_the_minimum_cut_when_the_budgets_sum_past_the_floats(tmp_path, capsys):
    edges = [("e0", "C0", "A", 1e308), ("e1", "B", "A", 5e307), ("e2", "B", "C0", 5e307)]
    for channel in ({"type": "custom", "q_cap": 1.0, "esq_upper": 1.0},
                    {"type": "lossy", "eta": 0.5}):
        doc = {"nodes": ["A", "B", "C0"], "alice": "A", "bob": "B", "edges": [
            {"id": eid, "tail": u, "head": v, "channel": channel, "usage": {"freq": freq}}
            for eid, u, v, freq in edges]}
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        assert main(["bound", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lower"] == 1e308
        for witness in ("lower_witness", "upper_witness"):
            assert report[witness]["v_a"] == ["A", "C0"]
            assert report[witness]["crossing"] == ["e1", "e2"]
