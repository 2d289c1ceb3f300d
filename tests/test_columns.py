"""A network held as columns against the EdgeSpec path and the pointwise code.

parse_network fills a network's columns without building an EdgeSpec, and
the cut weights and the Bell network are computed column-wise. Here the
parsed network is held to the EdgeSpec-built one it serializes, output for
output, and the column arithmetic to the pointwise edge_weight,
edge_capacity and pair_count it replaced, bit for bit. A fuzz holds the
parser's type guards to NetworkFormatError. The rarer valid edge shapes
are held to the EdgeSpec-built network, and the columns of the inline
edge checks to the general edge readers, bit for bit. Two structural
guards keep per-edge objects off the parse, report, plan, validate and
budget-scale sweep paths, and second checks off the parse, report, plan
and eta sweep paths; a third keeps library code off the ``edges`` view.
"""

import copy
import json
import math
import random
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qnetcap import (
    AsymptoticQCap,
    Count,
    CustomChannel,
    EdgeSpec,
    Frequency,
    LossyOptical,
    Network,
    NetworkFormatError,
    PerEdgeTable,
    Rate,
    Regime,
    WeightKind,
    build_bell_network,
    cli,
    crossing_edges,
    edge_weight,
    export_dot,
    flow_graph_from_network,
    pair_count,
    parse_network,
    plan,
    plan_to_dict,
    plan_to_dot,
    sandwich_report,
    sandwich_report_to_dict,
    serialize_network,
)
from qnetcap import netmodel, pointwise
from qnetcap.capacity import weight_column
from qnetcap.pointwise import edge_capacity
from qnetcap.generators import random_count_network, random_custom_network, random_lossy_network
from qnetcap.sweep import sweep_csv
from qnetcap.pointwise import _read_channel, _read_usage

from conftest import BUDGETS, NETWORKS_DIR, edge_with, grid_network, network_with

NETWORKS_PER_KIND = 1000
def _grid(rng):
    # one grid in ten is wide enough for labels that sort out of declaration order
    side = rng.choice((11, 12)) if rng.random() < 0.1 else rng.randint(2, 7)
    return grid_network(rng, side, rng.choice(sorted(BUDGETS)))


def _fractional_count(rng):
    # random_count_network's counts are whole, where floor is the identity
    net = random_lossy_network(rng)
    return network_with(net, (edge_with(e, usage=Count(e.usage.value)) for e in net.edges))


GENERATORS = {
    "lossy": random_lossy_network,
    "custom": random_custom_network,
    "count": random_count_network,
    "count-fractional": _fractional_count,
    "grid": _grid,
}


def _outputs(net: Network) -> dict:
    regime = net.budget_kind.regime if net.budget_kind else Regime.PER_CHANNEL_USE
    epsilon = 1e-4 if regime is Regime.PER_PROTOCOL else 0.0
    out = {
        "report": sandwich_report_to_dict(sandwich_report(net, regime, epsilon)),
        "dot": export_dot(net),
    }
    if net.budget_kind is Count:
        p = plan(net, 1e-3)
        out["plan"] = plan_to_dict(p)
        out["plan_dot"] = plan_to_dot(net, p)
    return out


def _pointwise_capacities(net: Network) -> dict:
    """Every cut weighting and the Bell network, one EdgeSpec at a time."""
    edges = net.edges
    caps = {kind: tuple(edge_capacity(e, kind) for e in edges) for kind in WeightKind}
    if net.budget_kind is Count:
        caps["bell"] = tuple(pair_count(e, AsymptoticQCap()) for e in edges)
    return caps


def _column_capacities(net: Network) -> dict:
    caps = {kind: flow_graph_from_network(net, kind).capacities for kind in WeightKind}
    if net.budget_kind is Count:
        caps["bell"] = build_bell_network(net).capacities
    return caps


@pytest.mark.parametrize("budget", [Count, Frequency, Rate], ids=lambda b: b.__name__)
@pytest.mark.parametrize("kind", list(WeightKind))
def test_only_the_q_cap_capacity_of_a_count_budget_is_floored(budget, kind):
    edge = EdgeSpec("e", "A", "B", LossyOptical(0.5), budget(2.5))
    net = Network(("A", "B"), "A", "B", (edge,))
    uses = 2.0 if budget is Count and kind is WeightKind.Q_CAP else 2.5
    want = uses * edge_weight(edge, kind)
    assert edge_capacity(edge, kind) == want
    assert flow_graph_from_network(net, kind).capacities == (want,)


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_parsed_network_matches_the_edge_spec_network(kind):
    rng = random.Random(f"columns/{kind}")
    make = GENERATORS[kind]
    for _ in range(NETWORKS_PER_KIND):
        built = make(rng)
        text = serialize_network(built)
        parsed = parse_network(text)
        assert parsed == built
        assert serialize_network(parsed) == text
        assert _outputs(parsed) == _outputs(built)
        assert _column_capacities(parsed) == _pointwise_capacities(built)


def test_grids_reach_labels_that_sort_out_of_declaration_order():
    net = grid_network(random.Random(3), 12, "count")
    assert "n10_0" in net.nodes and sorted(net.nodes) != list(net.nodes)


etas = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
weights = st.floats(min_value=0.0, allow_infinity=False, allow_nan=False)


@given(st.lists(st.one_of(etas.map(LossyOptical),
                          st.tuples(weights, weights).map(lambda qe: CustomChannel(*qe))),
                max_size=12))
def test_weight_columns_equal_edge_weight_bit_for_bit(channels):
    edges = [EdgeSpec(f"e{k}", "A", "B", ch, Frequency(1.0)) for k, ch in enumerate(channels)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # q_cap > esq_upper is flagged, and allowed
        net = Network(("A", "B"), "A", "B", edges)
    for kind in WeightKind:
        got = weight_column(net.channels, kind)
        expected = [edge_weight(e, kind) for e in edges]
        # == alone would let 0.0 stand for -0.0
        assert [(w, math.copysign(1.0, w)) for w in got] == [
            (w, math.copysign(1.0, w)) for w in expected]


def test_weight_column_rejects_a_kind_that_is_not_a_weight_kind(diamond_net):
    with pytest.raises(ValueError, match="^kind must be a WeightKind, got 'qcap'$"):
        weight_column(diamond_net.channels, "qcap")


# --- fuzz of the parser's type guards -------------------------------------------

BASE = json.loads((NETWORKS_DIR / "diamond.json").read_text())
DELETE = object()
EDGE_KEYS = ("id", "tail", "head", "channel", "usage", "note")
SITES = [
    ("nodes",), ("alice",), ("bob",), ("edges",), ("extra",),
    *[("edges", k, key) for k in range(len(BASE["edges"])) for key in EDGE_KEYS],
    *[("edges", k, "channel", key) for k in range(len(BASE["edges"]))
      for key in ("type", "eta", "q_cap", "esq_upper")],
    *[("edges", k, "usage", key) for k in range(len(BASE["edges"]))
      for key in ("count", "freq", "rate", "uses")],
]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=10**308, max_value=10**400)
    | st.floats() | st.text(max_size=4) | st.sampled_from(["A", "B", "C1", "lossy", "custom"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)
values = st.one_of(st.just(DELETE), json_values, st.sampled_from([
    {"type": "custom", "q_cap": 1, "esq_upper": 2.5}, {"count": 3}, {"rate": 0.5}]))


def _apply(doc: dict, site: tuple, value) -> None:
    """Set or delete doc at site, if an earlier change left a path to it."""
    *parents, key = site
    for step in parents:
        if not isinstance(doc, (dict, list)) or step not in (doc if isinstance(doc, dict)
                                                             else range(len(doc))):
            return
        doc = doc[step]
    if isinstance(doc, dict):
        if value is DELETE:
            doc.pop(key, None)
        else:
            doc[key] = value


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.sampled_from(SITES), values), min_size=1, max_size=4))
def test_any_document_parses_or_raises_network_format_error(changes):
    doc = copy.deepcopy(BASE)
    for site, value in changes:
        _apply(doc, site, value if value is DELETE else copy.deepcopy(value))
    text = json.dumps(doc)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # q_cap > esq_upper is flagged, and allowed
        try:
            net = parse_network(text)
        except NetworkFormatError:
            return
    assert parse_network(serialize_network(net)) == net


# --- the rarer valid edge shapes ---------------------------------------------------

def _e2(channel, usage):
    return EdgeSpec("e2", "C1", "B", channel, usage)


# (name, change to e2's JSON object, e2 as an EdgeSpec)
VALID_SHAPES = [
    ("eta-minus-zero", {"channel": {"type": "lossy", "eta": -0.0}},
     _e2(LossyOptical(-0.0), Frequency(1.0))),
    ("eta-integer", {"channel": {"type": "lossy", "eta": 0}},
     _e2(LossyOptical(0), Frequency(1.0))),
    ("edge-extra-key", {"note": {"spare": [1]}},
     _e2(LossyOptical(0.8), Frequency(1.0))),
    ("channel-extra-key", {"channel": {"type": "lossy", "eta": 0.8, "note": "x"}},
     _e2(LossyOptical(0.8), Frequency(1.0))),
    ("usage-unknown-extra-key", {"usage": {"uses": "many", "freq": 2.5}},
     _e2(LossyOptical(0.8), Frequency(2.5))),
    ("budget-minus-zero", {"usage": {"freq": -0.0}},
     _e2(LossyOptical(0.8), Frequency(-0.0))),
    ("budget-integer", {"usage": {"freq": 3}},
     _e2(LossyOptical(0.8), Frequency(3))),
    ("custom-integers", {"channel": {"type": "custom", "q_cap": 1, "esq_upper": 2}},
     _e2(CustomChannel(1, 2), Frequency(1.0))),
    ("custom-minus-zero", {"channel": {"type": "custom", "q_cap": -0.0, "esq_upper": -0.0}},
     _e2(CustomChannel(-0.0, -0.0), Frequency(1.0))),
]


@pytest.mark.parametrize("change, e2", [case[1:] for case in VALID_SHAPES],
                         ids=[case[0] for case in VALID_SHAPES])
def test_rarer_valid_edge_shapes_parse_to_the_edge_spec_network(change, e2):
    doc = copy.deepcopy(BASE)
    doc["edges"][1].update(change)
    parsed = parse_network(json.dumps(doc))
    base = parse_network(json.dumps(BASE))
    built = Network(base.nodes, base.alice, base.bob, (base.edges[0], e2, *base.edges[2:]))
    assert parsed == built
    assert serialize_network(parsed) == serialize_network(built)
    # repr tells -0.0 from 0.0 and 1 from 1.0, where == does not
    assert repr(parsed.channels) == repr(built.channels)
    assert repr(parsed.budgets) == repr(built.budgets)
    assert _outputs(parsed) == _outputs(built)
    assert repr(_column_capacities(parsed)) == repr(_pointwise_capacities(built))


# --- the inline edge checks against the general ones ------------------------------

def _with_extra(strategy, key):
    """An object from strategy, now and then with one more key that no reader uses."""
    return st.tuples(strategy, st.booleans()).map(
        lambda pair: {**pair[0], key: [0]} if pair[1] else pair[0])


nonnegative = (st.floats(min_value=0.0, max_value=sys.float_info.max) | st.just(-0.0)
               | st.integers(min_value=0, max_value=10**308))
json_channels = (
    _with_extra(st.builds(lambda eta: {"type": "lossy", "eta": eta},
                          etas | st.just(-0.0) | st.just(0)), "note")
    | _with_extra(st.builds(lambda q, e: {"type": "custom", "q_cap": q, "esq_upper": e},
                            nonnegative, nonnegative), "note")
)
ENDS = [("A", "C1"), ("C1", "B"), ("A", "C2"), ("C2", "B"), ("A", "B"), ("C2", "C1")]


@st.composite
def valid_documents(draw):
    key = draw(st.sampled_from(sorted(BUDGETS)))
    edges = []
    for k in range(draw(st.integers(min_value=1, max_value=8))):
        tail, head = draw(st.sampled_from(ENDS))
        usage = draw(_with_extra(st.builds(lambda v: {key: v}, nonnegative), "uses"))
        edges.append(draw(_with_extra(st.just(
            {"id": f"e{k}", "tail": tail, "head": head,
             "channel": draw(json_channels), "usage": usage}), "note")))
    return {"nodes": ["A", "C1", "C2", "B"], "alice": "A", "bob": "B", "edges": edges}


@settings(max_examples=300, deadline=None)
@given(valid_documents())
def test_parsed_columns_equal_the_general_edge_readers_bit_for_bit(doc):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # q_cap > esq_upper is flagged, and allowed
        net = parse_network(json.dumps(doc))
    for k, edge in enumerate(doc["edges"]):
        kind, budget = _read_usage(edge["usage"])
        assert net.budget_kind is kind
        # repr tells -0.0 from 0.0 and 1 from 1.0, where == does not
        assert repr(net.budgets[k]) == repr(budget)
        assert repr(net.channels[k]) == repr(_read_channel(edge["channel"]))


# --- no per-edge objects on the column paths -------------------------------------

def _refuse(*args, **kwargs):
    raise AssertionError("a per-edge object or pointwise weight on a column path")


def test_parse_report_plan_validate_and_sweep_build_no_per_edge_objects(monkeypatch, tmp_path):
    rng = random.Random(17)
    lossy_text = serialize_network(grid_network(rng, 12, "freq"))
    count_text = serialize_network(grid_network(rng, 12, "count"))
    path = tmp_path / "counts.json"
    path.write_text(count_text)
    derived = []
    derive = netmodel.Topology._derive
    monkeypatch.setattr(netmodel.Topology, "_derive",
                        lambda self, *args: derived.append(1) or derive(self, *args))
    sweeps = {"budget-scale": ["--values", "0.5,1,2", "--epsilon", "1e-4"],
              "epsilon": ["--values", "0,1e-4"],
              "eta": ["--edge", "e40", "--values", "0.1,0.5,0.9", "--epsilon", "1e-4"]}

    def sweep_derives_one_topology(param):
        for fields in ("lower,upper_esq", "lower,upper_esq,m"):
            derived.clear()
            assert cli.main(["sweep", str(path), "--param", param, *sweeps[param],
                             "--fields", fields]) == 0
            assert derived == [1]  # the parse's topology, shared by every solve

    with monkeypatch.context() as strict:
        strict.setattr(EdgeSpec, "__init__", _refuse)
        strict.setattr(pointwise, "edge_weight", _refuse)  # where edge_weight is called
        sandwich_report(parse_network(lossy_text), Regime.PER_CHANNEL_USE)
        net = parse_network(count_text)
        plan_to_dot(net, plan(net, 1e-3))
        assert cli.main(["validate", str(path)]) == 0
        sweep_derives_one_topology("budget-scale")
        sweep_derives_one_topology("epsilon")
    # an eta sweep looks its swept edge up once, as an EdgeSpec
    sweep_derives_one_topology("eta")


def _check_again(*args, **kwargs):
    raise AssertionError("a value checked a second time on the parse-to-solve path")


def test_parse_report_plan_and_eta_sweep_check_each_edge_once(monkeypatch, tmp_path, capsys):
    rng = random.Random(29)
    lossy_text = serialize_network(grid_network(rng, 12, "freq"))
    count_text = serialize_network(grid_network(rng, 12, "count"))
    path = tmp_path / "counts.json"
    path.write_text(count_text)
    sweep = ["sweep", str(path), "--param", "eta", "--edge", "e40", "--values", "0.1,0.5,0.9",
             "--fields", "lower,upper_esq,m", "--epsilon", "1e-4"]
    assert cli.main(sweep) == 0
    expected = capsys.readouterr().out
    # the public FlowGraph constructor and the general edge readers
    for target in ("qnetcap.cuts_flows.FlowGraph.__init__", "qnetcap.pointwise._read_channel",
                   "qnetcap.pointwise._read_usage"):
        monkeypatch.setattr(target, _check_again)

    sandwich_report(parse_network(lossy_text), Regime.PER_CHANNEL_USE)
    plan(parse_network(count_text), 1e-3)
    assert cli.main(sweep) == 0
    assert capsys.readouterr().out == expected


def test_library_code_reads_the_columns_not_the_edge_view(monkeypatch, tmp_path, capsys):
    # Network.edges builds an EdgeSpec, channel and budget per edge on each read;
    # library code reads the columns, and only a caller who asks builds the view
    rng = random.Random(27)
    count_text = serialize_network(grid_network(rng, 6, "count"))
    lossy_text = serialize_network(grid_network(rng, 6, "freq"))
    path = tmp_path / "counts.json"
    path.write_text(count_text)
    sweeps = {"eta": ([0.1, 0.5, 0.9], {"edge": "e7", "epsilon": 1e-4}),
              "epsilon": ([0.0, 1e-4], {}),
              "budget-scale": ([0.5, 1.0, 2.0], {"epsilon": 1e-4})}

    def outcomes():
        count, lossy = parse_network(count_text), parse_network(lossy_text)
        report = sandwich_report(lossy, Regime.PER_CHANNEL_USE)
        protocol = plan(count, 1e-3)
        found = [count == parse_network(count_text), count == lossy, hash(count), hash(lossy),
                 report, protocol, plan_to_dot(count, protocol),
                 crossing_edges(lossy, report.upper_witness.v_a),
                 serialize_network(count), export_dot(lossy),
                 cli.main(["validate", str(path)]), capsys.readouterr()]
        found += [sweep_csv(count, param, grid, ["lower", "upper_esq", "m"], **flags)
                  for param, (grid, flags) in sweeps.items()]
        with pytest.raises(ValueError) as err:  # the table has no rate for edge e1
            build_bell_network(count, PerEdgeTable({"e0": 1.0}))
        return found + [str(err.value)]

    expected = outcomes()
    assert expected[-1] == "rate table has no entry for edge 'e1'"

    def no_view(net):
        raise AssertionError("Network.edges was read")

    monkeypatch.setattr(Network, "edges", property(no_view))
    assert outcomes() == expected
