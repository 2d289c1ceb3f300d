import gc
import json
import random

import pytest

from qnetcap import (
    Count,
    EdgeSpec,
    Frequency,
    LossyOptical,
    Network,
    NetworkFormatError,
    Rate,
    UsageBudget,
    crossing_edges,
    export_dot,
    load_network,
    parse_network,
    serialize_network,
)
from qnetcap.generators import random_lossy_network

from conftest import DATA_DIR, NETWORKS_DIR

MINIMAL = """
{"nodes": ["A", "B"], "alice": "A", "bob": "B",
 "edges": [{"id": "e1", "tail": "A", "head": "B",
            "channel": {"type": "lossy", "eta": 0.5},
            "usage": {"count": 10}}]}
"""


def chain_net(budget=Frequency(1.0)):
    edges = (
        EdgeSpec("e1", "A", "C", LossyOptical(0.5), budget),
        EdgeSpec("e2", "C", "B", LossyOptical(0.5), budget),
    )
    return Network(("A", "C", "B"), "A", "B", edges)


def test_parse_minimal_network():
    net = parse_network(MINIMAL)
    assert len(net.nodes) == 2
    assert len(net.edges) == 1
    assert net.alice == "A" and net.bob == "B"
    assert net.edges[0].channel == LossyOptical(0.5)
    assert net.edges[0].usage == Count(10)


def test_parse_rejects_undeclared_endpoint():
    doc = MINIMAL.replace('"head": "B"', '"head": "C9"')
    with pytest.raises(NetworkFormatError, match="C9"):
        parse_network(doc)


def test_parse_syntax_error_reports_position():
    with pytest.raises(NetworkFormatError, match="line"):
        parse_network('{"nodes": ["A", "B",]}')


def test_parse_rejects_a_budget_past_the_float_range():
    huge = MINIMAL.replace('"count": 10', '"count": 1' + "0" * 400)
    with pytest.raises(NetworkFormatError, match="edge 'e1': count must be finite"):
        parse_network(huge)
    longer = MINIMAL.replace('"count": 10', '"count": 1' + "0" * 5000)
    with pytest.raises(NetworkFormatError, match="integer too long to parse"):
        parse_network(longer)


def test_parse_rejects_deep_nesting():
    with pytest.raises(NetworkFormatError, match="nests too deeply"):
        parse_network("[" * 10**5)


def test_parse_rejects_eta_one():
    doc = MINIMAL.replace('"eta": 0.5', '"eta": 1.0')
    with pytest.raises(NetworkFormatError, match=r"eta must be in \[0, 1\)"):
        parse_network(doc)


def test_eta_zero_is_a_legal_dead_edge():
    doc = MINIMAL.replace('"eta": 0.5', '"eta": 0.0')
    assert parse_network(doc).edges[0].channel.eta == 0.0


def test_parse_rejects_self_loop():
    doc = MINIMAL.replace('"head": "B"', '"head": "A"')
    with pytest.raises(NetworkFormatError, match="self-loop"):
        parse_network(doc)


def test_parse_rejects_mixed_budget_variants():
    doc = """
    {"nodes": ["A", "B"], "alice": "A", "bob": "B",
     "edges": [
       {"id": "e1", "tail": "A", "head": "B",
        "channel": {"type": "lossy", "eta": 0.5}, "usage": {"count": 1}},
       {"id": "e2", "tail": "A", "head": "B",
        "channel": {"type": "lossy", "eta": 0.5}, "usage": {"freq": 1.0}}]}
    """
    with pytest.raises(NetworkFormatError, match="mixed usage budget"):
        parse_network(doc)


def test_parse_rejects_duplicate_edge_id():
    doc = """
    {"nodes": ["A", "B"], "alice": "A", "bob": "B",
     "edges": [
       {"id": "e1", "tail": "A", "head": "B",
        "channel": {"type": "lossy", "eta": 0.5}, "usage": {"count": 1}},
       {"id": "e1", "tail": "B", "head": "A",
        "channel": {"type": "lossy", "eta": 0.5}, "usage": {"count": 1}}]}
    """
    with pytest.raises(NetworkFormatError, match="duplicate edge id"):
        parse_network(doc)


def test_parallel_edges_are_allowed():
    doc = """
    {"nodes": ["A", "B"], "alice": "A", "bob": "B",
     "edges": [
       {"id": "e1", "tail": "A", "head": "B",
        "channel": {"type": "lossy", "eta": 0.5}, "usage": {"count": 1}},
       {"id": "e2", "tail": "A", "head": "B",
        "channel": {"type": "lossy", "eta": 0.6}, "usage": {"count": 2}}]}
    """
    assert len(parse_network(doc).edges) == 2


SANDWICH_VIOLATION = MINIMAL.replace(
    '{"type": "lossy", "eta": 0.5}',
    '{"type": "custom", "q_cap": 1.7, "esq_upper": 1.2}',
)


def test_custom_channel_sandwich_violation_is_flagged_and_warned():
    with pytest.warns(UserWarning, match="sandwich") as record:
        parse_network(SANDWICH_VIOLATION)
    assert [w.filename for w in record] == [__file__]  # the warning names the caller


def test_sandwich_warning_names_the_caller_of_parse_and_of_load(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(SANDWICH_VIOLATION)
    for read, source in ((parse_network, SANDWICH_VIOLATION), (load_network, path)):
        with pytest.warns(UserWarning, match="q_cap=1.7 exceeds esq_upper=1.2") as record:
            read(source)
        assert [w.filename for w in record] == [__file__], read.__name__


BAD_DOCUMENT = next(entry["document"] for entry in json.loads(
    (DATA_DIR / "bad_networks.json").read_text(encoding="utf-8")
) if entry["name"] == "alice-undeclared")


@pytest.mark.parametrize("document, raises", [(MINIMAL, False), (BAD_DOCUMENT, True)],
                         ids=["valid", "invalid"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_parse_restores_the_collector_state(document, raises, enabled):
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        try:
            parse_network(document)
        except NetworkFormatError:
            assert raises
        else:
            assert not raises
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("edges, message", [
    ([1], "edge #0 must be an EdgeSpec, got 1"),
    ([EdgeSpec("e", "A", "B", LossyOptical(0.5), Count(1)), ("f", "A", "B")],
     "edge #1 must be an EdgeSpec, got ('f', 'A', 'B')"),
], ids=["int", "row-tuple"])
def test_network_names_an_edge_that_is_not_an_edge_spec(edges, message):
    with pytest.raises(ValueError) as err:
        Network(("A", "B"), "A", "B", edges)
    assert str(err.value) == message


def test_alice_and_bob_must_be_distinct_declared_nodes():
    with pytest.raises(ValueError, match="distinct"):
        Network(("A", "B"), "A", "A", ())
    with pytest.raises(ValueError, match="not declared"):
        Network(("A", "B"), "A", "Z", ())


@pytest.mark.parametrize(
    "old, new, named",
    [('"tail": "A"', '"tail": ["A"]', "edge 'e1': tail"),
     ('"head": "B"', '"head": null', "edge 'e1': head"),
     ('"alice": "A"', '"alice": ["A"]', "alice"),
     ('"bob": "B"', '"bob": {"B": 1}', "bob")],
)
def test_parse_rejects_non_string_node_references(old, new, named):
    with pytest.raises(NetworkFormatError, match=f"^{named} must be a non-empty string"):
        parse_network(MINIMAL.replace(old, new))


def test_round_trip_identity_on_fig1_sample():
    original = (NETWORKS_DIR / "fig1_sample.json").read_text()
    net = parse_network(original)
    again = parse_network(serialize_network(net))
    assert again == net
    # serialization itself is a fixed point
    assert serialize_network(again) == serialize_network(net)


def test_round_trip_identity_on_all_shipped_samples():
    for path in sorted(NETWORKS_DIR.glob("*.json")):
        net = parse_network(path.read_text())
        assert parse_network(serialize_network(net)) == net


def test_crossing_edges_single_crossing():
    net = chain_net()
    crossing = crossing_edges(net, frozenset({"A"}))
    assert [e.id for e in crossing] == ["e1"]


def test_crossing_edges_counts_both_directions():
    edges = (
        EdgeSpec("e1", "A", "C", LossyOptical(0.5), Frequency(1.0)),
        EdgeSpec("e2", "C", "B", LossyOptical(0.5), Frequency(1.0)),
        EdgeSpec("e3", "B", "C", LossyOptical(0.5), Frequency(1.0)),
    )
    net = Network(("A", "C", "B"), "A", "B", edges)
    crossing = crossing_edges(net, frozenset({"A", "C"}))
    assert [e.id for e in crossing] == ["e2", "e3"]


def test_crossing_edges_triangle():
    edges = (
        EdgeSpec("e1", "A", "C", LossyOptical(0.5), Frequency(1.0)),
        EdgeSpec("e2", "C", "B", LossyOptical(0.5), Frequency(1.0)),
        EdgeSpec("e3", "A", "B", LossyOptical(0.5), Frequency(1.0)),
    )
    net = Network(("A", "C", "B"), "A", "B", edges)
    crossing = crossing_edges(net, frozenset({"A", "C"}))
    assert [e.id for e in crossing] == ["e2", "e3"]


def test_bipartition_validation():
    net = chain_net()
    with pytest.raises(ValueError, match=r"^bipartition must contain alice \('A'\)$"):
        crossing_edges(net, frozenset({"C"}))
    with pytest.raises(ValueError, match=r"^bipartition must not contain bob \('B'\)$"):
        crossing_edges(net, frozenset({"A", "B"}))
    with pytest.raises(ValueError, match=r"^bipartition contains unknown nodes \['Y', 'Z'\]$"):
        crossing_edges(net, frozenset({"A", "Z", "Y"}))


def test_crossing_and_non_crossing_partition_all_edges():
    rng = random.Random(11)
    for _ in range(50):
        net = random_lossy_network(rng, max_nodes=7, max_edges=12)
        intermediates = [n for n in net.nodes if n not in ("A", "B")]
        side = frozenset(["A"] + [n for n in intermediates if rng.random() < 0.5])
        crossing = crossing_edges(net, side)
        crossing_ids = {e.id for e in crossing}
        for e in net.edges:
            straddles = (e.tail in side) != (e.head in side)
            assert (e.id in crossing_ids) == straddles


def test_crossing_set_is_side_symmetric():
    # the crossing set depends only on the unordered bipartition
    rng = random.Random(12)
    for _ in range(25):
        net = random_lossy_network(rng, max_nodes=7, max_edges=12)
        intermediates = [n for n in net.nodes if n not in ("A", "B")]
        chosen = [n for n in intermediates if rng.random() < 0.5]
        side = frozenset(["A"] + chosen)
        complement = frozenset(net.nodes) - side
        from_side = {e.id for e in crossing_edges(net, side)}
        from_complement = {
            e.id for e in net.edges if (e.tail in complement) != (e.head in complement)
        }
        assert from_side == from_complement


def test_export_dot_minimal_has_one_edge_statement():
    net = parse_network(MINIMAL)
    dot = export_dot(net)
    assert dot.count("->") == 1
    assert dot.startswith("digraph")


def test_export_dot_annotations_control_style():
    edges = (
        EdgeSpec("e1", "A", "C", LossyOptical(0.5), Frequency(1.0)),
        EdgeSpec("e2", "C", "B", LossyOptical(0.5), Frequency(1.0)),
        EdgeSpec("e3", "A", "B", LossyOptical(0.5), Frequency(1.0)),
    )
    net = Network(("A", "C", "B"), "A", "B", edges)
    dot = export_dot(net, {"e1": "used", "e2": "used"})
    assert dot.count("style=solid") == 2
    assert dot.count("style=dashed") == 1


def test_export_dot_is_deterministic(diamond_net):
    assert export_dot(diamond_net) == export_dot(diamond_net)


def test_negative_budget_rejected():
    with pytest.raises(ValueError, match=">= 0"):
        Count(-1.0)
    with pytest.raises(ValueError, match="finite"):
        Rate(float("inf"))


def test_edge_spec_rejects_bare_usage_budget():
    with pytest.raises(ValueError, match="unknown usage budget"):
        EdgeSpec("e1", "A", "B", LossyOptical(0.5), UsageBudget(1.0))


@pytest.mark.parametrize(
    "eid, channel, message",
    [
        ("", LossyOptical(0.5), "edge id must be a non-empty string, got ''"),
        (7, LossyOptical(0.5), "edge id must be a non-empty string, got 7"),
        ("e1", 0.5, "edge 'e1': unknown channel spec 0.5"),
    ],
    ids=["empty-id", "int-id", "bare-eta"],
)
def test_edge_spec_rejects_a_bad_id_or_channel(eid, channel, message):
    with pytest.raises(ValueError) as err:
        EdgeSpec(eid, "A", "B", channel, Count(1.0))
    assert str(err.value) == message


def test_edge_by_id(diamond_net):
    assert diamond_net.edge_by_id("e2").head == "B"
    with pytest.raises(KeyError):
        diamond_net.edge_by_id("nope")
