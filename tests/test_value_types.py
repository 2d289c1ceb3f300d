"""The value-type contract: every public value type is slotted, immutable and
compared, hashed, shown, pickled and copied by value."""

import copy
import pickle

import pytest

from qnetcap import (
    AsymptoticQCap,
    CapacityKind,
    Count,
    CustomChannel,
    CutResult,
    EdgeSpec,
    FixedFraction,
    FlowGraph,
    Frequency,
    LossyOptical,
    Network,
    PathSet,
    PerEdgeTable,
    ProtocolPlan,
    Rate,
    Regime,
    Topology,
    UsageBudget,
    max_disjoint_paths,
    parse_network,
    plan,
    plan_to_dict,
    sandwich_report,
    serialize_network,
)
from qnetcap.netmodel import Immutable

from conftest import load_sample

TRIANGLE = load_sample("triangle_counts.json")
DIAMOND = load_sample("diamond.json")
CHAIN = Topology(("A", "C", "B"), "A", "B", (("ac", "A", "C"), ("cb", "C", "B")))
BELL = FlowGraph(CHAIN, (2, 1), CapacityKind.INTEGER)
SAMPLES = [
    LossyOptical(0.5),
    CustomChannel(1.0, 2.0),
    UsageBudget(1.0),
    Count(3),
    Frequency(0.25),
    Rate(7.5),
    TRIANGLE.edges[0],
    TRIANGLE,
    CHAIN,
    BELL,
    CutResult(1, frozenset({"A", "C"}), ("cb",)),
    max_disjoint_paths(BELL),
    AsymptoticQCap(),
    FixedFraction(0.5),
    PerEdgeTable({"ac": 1.0, "cb": 2.0}),
    plan(TRIANGLE, 1e-3),
    sandwich_report(DIAMOND, Regime.PER_CHANNEL_USE),
]
# types with a mapping field compare by value but cannot be hashed
UNHASHABLE = (PerEdgeTable, ProtocolPlan)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _ids(sample):
    return type(sample).__name__


def test_samples_cover_every_value_type():
    assert {type(s) for s in SAMPLES} == set(_subclasses(Immutable))


@pytest.mark.parametrize("sample", SAMPLES, ids=_ids)
def test_fields_cannot_be_assigned_or_deleted(sample):
    assert not hasattr(sample, "__dict__")
    for name in sample._fields:
        with pytest.raises(AttributeError):
            setattr(sample, name, getattr(sample, name))
        with pytest.raises(AttributeError):
            delattr(sample, name)
    with pytest.raises(AttributeError):
        sample.extra = 1


def test_budget_class_attributes_cannot_be_shadowed():
    # a Count that claimed key "freq" would serialize as a freq budget
    budget = TRIANGLE.edges[0].usage
    with pytest.raises(AttributeError):
        budget.key = "freq"
    with pytest.raises(AttributeError):
        budget.regime = Regime.PER_CHANNEL_USE
    assert '"count"' in serialize_network(TRIANGLE)
    assert parse_network(serialize_network(TRIANGLE)) == TRIANGLE


@pytest.mark.parametrize("sample", SAMPLES, ids=_ids)
def test_pickle_and_copies_round_trip_equal(sample):
    for clone in (
        pickle.loads(pickle.dumps(sample)), copy.copy(sample), copy.deepcopy(sample)
    ):
        assert type(clone) is type(sample)
        assert clone == sample and not clone != sample
        if not isinstance(sample, UNHASHABLE):
            assert hash(clone) == hash(sample)


@pytest.mark.parametrize("sample", SAMPLES, ids=_ids)
def test_hashable_unless_a_field_is_a_dict(sample):
    if isinstance(sample, UNHASHABLE):
        with pytest.raises(TypeError):
            hash(sample)
    else:
        hash(sample)


def test_no_field_holds_a_container_that_can_be_changed():
    protocol_plan = plan(TRIANGLE, 1e-3)
    with pytest.raises(TypeError):
        protocol_plan.unused_pairs["ab"] = 99
    assert plan_to_dict(protocol_plan)["unused_pairs"]["ab"] == 0
    with pytest.raises(AttributeError):
        protocol_plan.paths.pairs_used.clear()
    assert protocol_plan.paths.pairs_used == {"ab": 1, "ac": 2, "cb": 2}
    routes = [(("A", "C"), ("ac",), 1)]
    paths = PathSet(routes)
    routes.append((("A", "C"), ("ac",), 1))  # the constructor kept a copy
    assert paths.routes == ((("A", "C"), ("ac",), 1),)
    assert paths.pairs_used == {"ac": 1}
    crossing = ["e"]
    cut = CutResult(1.0, {"A"}, crossing)
    crossing.append("x")
    assert cut.crossing == ("e",)
    with pytest.raises(AttributeError):
        cut.crossing.append("x")
    assert hash(cut) == hash(CutResult(1.0, {"A"}, ("e",)))


def test_equality_is_by_exact_type_and_value():
    assert Count(3) == Count(3.0)
    assert Count(3) != Count(4)
    assert Count(3) != Frequency(3)
    assert Count(3) != UsageBudget(3)
    assert AsymptoticQCap() == AsymptoticQCap()
    assert AsymptoticQCap() != FixedFraction(1.0)
    assert LossyOptical(0.5) != CustomChannel(0.5, 0.5)
    assert LossyOptical(0.5) != 0.5
    assert PerEdgeTable({"e": 1}) == PerEdgeTable({"e": 1.0})
    assert len({LossyOptical(0.5), LossyOptical(0.5), Count(3), Frequency(3)}) == 3
    assert EdgeSpec("e", "A", "B", LossyOptical(0.5), Count(1)) != EdgeSpec(
        "e", "B", "A", LossyOptical(0.5), Count(1)
    )


EDGES = (EdgeSpec("ac", "A", "C", LossyOptical(0.5), Count(3)),
         EdgeSpec("cb", "C", "B", CustomChannel(0.5, 0.5), Count(2)))


def _edges_with(k, **change):
    fields = dict(zip(EdgeSpec._fields, EDGES[k]._values()), **change)
    return EDGES[:k] + (EdgeSpec(**fields),) + EDGES[k + 1:]


@pytest.mark.parametrize("nodes, alice, bob, edges", [
    (("C", "A", "B"), "A", "B", EDGES),
    (("A", "C", "B"), "B", "A", EDGES),
    (("A", "C", "B"), "A", "B", _edges_with(0, id="ax")),
    (("A", "C", "B"), "A", "B", _edges_with(0, tail="C", head="A")),
    (("A", "C", "B"), "A", "B", _edges_with(0, channel=CustomChannel(0.5, 0.5))),
    (("A", "C", "B"), "A", "B", tuple(EdgeSpec(*e._values()[:4], Frequency(e.usage.value))
                                      for e in EDGES)),
    (("A", "C", "B"), "A", "B", _edges_with(1, usage=Count(4))),
], ids=["node-order", "alice-bob", "edge-id", "ends-reversed", "lossy-vs-custom",
        "count-vs-frequency", "budget-value"])
def test_network_equality_reads_every_column(nodes, alice, bob, edges):
    base = Network(("A", "C", "B"), "A", "B", EDGES)
    assert Network(nodes, alice, bob, edges) != base


def test_a_parsed_network_equals_its_edge_spec_twin():
    parsed = parse_network(serialize_network(Network(("A", "C", "B"), "A", "B", EDGES)))
    built = Network(parsed.nodes, parsed.alice, parsed.bob, EDGES)
    assert parsed == built and hash(parsed) == hash(built)
    assert parsed._scaled(1.0) == parsed
    assert type(parsed.channels) is tuple and type(parsed.budgets) is tuple
    assert parsed.channels == (0.5, (0.5, 0.5)) and parsed.budgets == (3.0, 2.0)


def test_repr_names_each_field():
    assert repr(LossyOptical(0.5)) == "LossyOptical(eta=0.5)"
    assert repr(Count(3)) == "Count(value=3.0)"
    assert repr(AsymptoticQCap()) == "AsymptoticQCap()"
    assert repr(CustomChannel(1, 2)) == "CustomChannel(q_cap=1.0, esq_upper=2.0)"
    assert repr(TRIANGLE.edges[0]) == (
        "EdgeSpec(id='ac', tail='A', head='C', channel=LossyOptical(eta=0.5), "
        "usage=Count(value=3.0))"
    )
    one_edge = Network(("A", "B"), "A", "B",
                       (EdgeSpec("e", "A", "B", LossyOptical(0.5), Count(3)),))
    assert repr(one_edge) == (
        "Network(topology=Topology(vertices=('A', 'B'), source='A', sink='B', "
        "arcs=(('e', 'A', 'B'),)), "
        "budget_kind=<class 'qnetcap.values.Count'>, channels=(0.5,), budgets=(3.0,))"
    )


def test_nodes_alice_and_bob_are_read_only_views_of_the_topology():
    assert Network._fields == ("topology", "budget_kind", "channels", "budgets")
    for net in (TRIANGLE, Network(("A", "C", "B"), "A", "B", EDGES)):
        topology = net.topology
        assert net.nodes is topology.vertices
        assert net.alice is topology.source and net.bob is topology.sink
        for name in ("nodes", "alice", "bob"):
            with pytest.raises(AttributeError):
                setattr(net, name, getattr(net, name))
            with pytest.raises(AttributeError):
                delattr(net, name)
        for clone in (pickle.loads(pickle.dumps(net)), copy.copy(net), copy.deepcopy(net)):
            assert clone == net and hash(clone) == hash(net)
            assert (clone.nodes, clone.alice, clone.bob) == (net.nodes, net.alice, net.bob)
            assert clone.nodes is clone.topology.vertices

