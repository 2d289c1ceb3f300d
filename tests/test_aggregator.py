import pickle
import random
import re
from types import MappingProxyType

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
    PerEdgeTable,
    ProtocolPlan,
    Rate,
    Regime,
    SandwichReport,
    WeightKind,
    build_bell_network,
    check_path_set,
    epsilon_corrected_upper,
    flow_graph_from_network,
    lossy_gap_ratio,
    max_disjoint_paths,
    min_cut,
    min_cut_bruteforce,
    pair_count,
    parse_network,
    plan,
    plan_to_dict,
    plan_to_dot,
    resolve_rate,
    sandwich_report,
)
from qnetcap import routes
from qnetcap.generators import random_count_network, random_custom_network, random_lossy_network

from conftest import DATA_DIR, edge_with, network_with


DIAMOND_LOWER = 3.3219280948873623479
DIAMOND_UPPER = 4.7548875021634685444
DIAMOND_RATIO = 1.4313637641589873119
# direct evaluations of the closed-form ratio esq/q at fixed eta
RATIO_ETA_001 = 1.9900495862236765404
RATIO_ETA_099 = 1.1494265382048533251


def count_edge(eid, u, v, l_bar, eta=0.5):
    return EdgeSpec(eid, u, v, LossyOptical(eta), Count(l_bar))


def test_pair_count_asymptotic():
    edge = count_edge("e", "A", "B", 10)  # eta 0.5 -> q_cap exactly 1
    assert pair_count(edge, AsymptoticQCap()) == 10


def test_pair_count_fixed_fraction():
    edge = count_edge("e", "A", "B", 10)
    assert pair_count(edge, FixedFraction(0.75)) == 7


def test_pair_count_zero_budget():
    assert pair_count(count_edge("e", "A", "B", 0), AsymptoticQCap()) == 0


def test_pair_count_floors_fractional_budgets():
    # floor(floor(2.9) * 1.0) = 2
    assert pair_count(count_edge("e", "A", "B", 2.9), AsymptoticQCap()) == 2


def test_pair_count_requires_count_budgets():
    edge = EdgeSpec("e", "A", "B", LossyOptical(0.5), Frequency(1.0))
    with pytest.raises(ValueError, match="Count"):
        pair_count(edge, AsymptoticQCap())


@pytest.mark.parametrize(
    "edge, model",
    [(count_edge("big", "A", "B", 10), PerEdgeTable({"big": 1e308})),
     (count_edge("big", "A", "B", 1e308, eta=0.875), AsymptoticQCap())],  # 3 pairs per use
)
def test_pair_count_overflow_names_the_edge(edge, model):
    with pytest.raises(ValueError, match="edge 'big': .* overflow a float"):
        pair_count(edge, model)


def test_rate_table_cannot_change_after_it_was_checked(triangle_net):
    table = PerEdgeTable({"ac": 1.0, "cb": 1.0, "ab": 1.0})
    before = build_bell_network(triangle_net, table)
    for rate in (-2.0, float("nan")):
        with pytest.raises(TypeError):
            table.rates["ab"] = rate
    assert table.rates == {"ac": 1.0, "cb": 1.0, "ab": 1.0}
    assert build_bell_network(triangle_net, table) == before


def test_resolve_rate_table_missing_edge():
    edge = count_edge("e", "A", "B", 1)
    with pytest.raises(ValueError, match="no entry"):
        resolve_rate(edge, PerEdgeTable({"other": 1.0}))
    assert resolve_rate(edge, PerEdgeTable({"e": 2.5})) == 2.5


@pytest.mark.parametrize("edges", [[], [count_edge("ab", "A", "B", 2)]], ids=["edgeless", "edge"])
@pytest.mark.parametrize("model", ["bogus", object()], ids=["str", "object"])
def test_unknown_rate_model_is_rejected_on_every_network(edges, model):
    # no edge asks for a rate on an edgeless network; the model is rejected all the same
    net = Network(("A", "B"), "A", "B", edges)
    message = f"^unknown rate model {re.escape(repr(model))}$"
    with pytest.raises(ValueError, match=message):
        build_bell_network(net, model)
    with pytest.raises(ValueError, match=message):
        plan(net, 0.0, model)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: FixedFraction(True), "alpha must be a real number, got True"),
        (lambda: FixedFraction("0.5"), "alpha must be a real number, got '0.5'"),
        (lambda: FixedFraction(float("nan")), "alpha must be finite, got nan"),
        (lambda: FixedFraction(1.5), r"alpha must be in \(0, 1\], got 1.5"),
        (lambda: FixedFraction(0), r"alpha must be in \(0, 1\], got 0.0"),
        (lambda: PerEdgeTable({"e": True}), "rate for edge 'e' must be a real number, got True"),
        (lambda: PerEdgeTable({"e": "x"}), "rate for edge 'e' must be a real number, got 'x'"),
        (lambda: PerEdgeTable({"e": 10**400}),
         "rate for edge 'e' must be finite and >= 0, got an integer"),
        (lambda: PerEdgeTable({"e": -1}), "rate for edge 'e' must be finite and >= 0, got -1.0"),
    ],
    ids=["alpha-bool", "alpha-str", "alpha-nan", "alpha-above-one", "alpha-zero",
         "rate-bool", "rate-str", "rate-huge-int", "rate-negative"],
)
def test_rate_models_reject_non_numbers_with_a_message(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_rate_models_store_floats():
    alpha = FixedFraction(1).alpha
    rate = PerEdgeTable({"e": 2}).rates["e"]
    assert type(alpha) is float and alpha == 1.0
    assert type(rate) is float and rate == 2.0


def test_build_bell_network_ids_are_deterministic(triangle_net):
    bell = build_bell_network(triangle_net)
    arcs = (("ac", "A", "C", 3), ("cb", "C", "B", 2), ("ab", "A", "B", 1))
    assert bell == FlowGraph(triangle_net.topology, (3, 2, 1), CapacityKind.INTEGER)
    assert bell.arcs == arcs
    # pair ids are '<channel>#<index>', numbered per channel in path order
    paths = max_disjoint_paths(bell)
    assert [eid for _, ids in paths for eid in ids] == [
        "ab#0", "ac#0", "cb#0", "ac#1", "cb#1",
    ]
    assert paths.pairs_used == {"ab": 1, "ac": 2, "cb": 2}


def test_plan_triangle_via_per_edge_table():
    # unit budgets with an explicit rate table: floor(1 * r) pairs per edge
    edges = (
        count_edge("ac", "A", "C", 1),
        count_edge("cb", "C", "B", 1),
        count_edge("ab", "A", "B", 1),
    )
    net = Network(("A", "C", "B"), "A", "B", edges)
    table = PerEdgeTable({"ac": 3.0, "cb": 2.0, "ab": 1.0})
    result = plan(net, 0.01, table)
    assert result.m == 3
    assert sorted(result.swap_schedules) == [(), ("C",), ("C",)]
    assert result.error_budget == pytest.approx(3 * 0.01)
    assert result.unused_pairs == {"ac": 1, "cb": 0, "ab": 0}


def test_plan_triangle_counts(triangle_net):
    result = plan(triangle_net, 0.001)
    assert result.m == 3
    assert result.error_budget == pytest.approx(3 * 0.001)
    assert sorted(result.swap_schedules) == [(), ("C",), ("C",)]


def test_plan_disconnected_network():
    edges = (count_edge("ac", "A", "C", 2),)
    net = Network(("A", "C", "B"), "A", "B", edges)
    result = plan(net, 0.01)
    assert result.m == 0
    assert len(result.paths) == 0
    assert result.counted_edges == 1  # the A-C edge still distributes pairs
    assert result.error_budget == pytest.approx(0.01)
    assert result.unused_pairs == {"ac": 2}


def test_plan_error_budget_flag_restores_literal_edge_count():
    edges = (count_edge("ac", "A", "C", 2), count_edge("cb", "C", "B", 0))
    net = Network(("A", "C", "B"), "A", "B", edges)
    tightened = plan(net, 0.1)
    assert tightened.counted_edges == 1
    literal = plan(net, 0.1, count_all_edges=True)
    assert literal.counted_edges == 2
    assert literal.error_budget == pytest.approx(0.2)


def test_plan_parallel_edges_no_swaps():
    net = Network(("A", "B"), "A", "B", (count_edge("ab", "A", "B", 5),))
    result = plan(net, 0.0)
    assert result.m == 5
    assert all(s == () for s in result.swap_schedules)
    assert all(nodes == ("A", "B") for nodes, _ in result.paths)


def test_pair_conservation(triangle_net):
    result = plan(triangle_net, 0.0)
    bell = build_bell_network(triangle_net)
    consumed = {}
    for _, ids in result.paths:
        for bid in ids:
            parent = bid.rsplit("#", 1)[0]
            consumed[parent] = consumed.get(parent, 0) + 1
    for (parent, _, _), total in zip(bell.topology.arcs, bell.capacities):
        assert consumed.get(parent, 0) + result.unused_pairs[parent] == total


def test_sandwich_report_diamond(diamond_net):
    report = sandwich_report(diamond_net, Regime.PER_CHANNEL_USE)
    assert report.lower == pytest.approx(DIAMOND_LOWER, abs=1e-9)
    assert report.upper_esq == pytest.approx(DIAMOND_UPPER, abs=1e-9)
    assert report.upper_eps_corrected == report.upper_esq  # asymptotic regime
    assert lossy_gap_ratio(report) == pytest.approx(DIAMOND_RATIO, abs=1e-6)
    assert lossy_gap_ratio(report) <= 2.0


def test_sandwich_report_single_edge(single_edge_net):
    report = sandwich_report(single_edge_net, Regime.PER_CHANNEL_USE)
    assert report.lower == pytest.approx(1.0, abs=1e-12)
    assert report.upper_esq == pytest.approx(1.5849625007211562, abs=1e-9)


def test_sandwich_report_regime_mismatch(diamond_net):
    with pytest.raises(ValueError, match="regime"):
        sandwich_report(diamond_net, Regime.PER_PROTOCOL)


def test_sandwich_report_rejects_a_regime_that_is_not_a_regime(diamond_net):
    # the regime's value is read for messages and JSON, so only a Regime will do
    with pytest.raises(ValueError, match=r"^regime must be a Regime, got 'per-use'$"):
        sandwich_report(diamond_net, "per-use")


def test_plan_and_report_derive_their_counts_from_their_fields(triangle_net, diamond_net):
    result = plan(triangle_net, 0.01)
    assert ProtocolPlan._fields == ("paths", "epsilon", "counted_edges", "unused_pairs")
    assert result.m == len(result.paths) == 3
    assert result.swap_schedules == tuple(nodes[1:-1] for nodes, _ in result.paths)
    assert result.error_budget == result.counted_edges * result.epsilon
    report = sandwich_report(diamond_net, Regime.PER_CHANNEL_USE)
    assert "lower" not in SandwichReport._fields and "upper_esq" not in SandwichReport._fields
    assert report.lower == report.lower_witness.value
    assert report.upper_esq == report.upper_witness.value
    assert SandwichReport._fields == ("regime", "epsilon", "lower_witness", "upper_witness")
    assert report.upper_eps_corrected == epsilon_corrected_upper(report.upper_esq, 0.0)
    corrected = sandwich_report(triangle_net, Regime.PER_PROTOCOL, epsilon=1e-4)
    assert corrected.upper_eps_corrected == epsilon_corrected_upper(corrected.upper_esq, 1e-4)
    assert corrected.upper_eps_corrected > corrected.upper_esq


@pytest.mark.parametrize("field, value, message", [
    ("epsilon", float("nan"), "epsilon must be finite and >= 0, got nan"),
    ("epsilon", -0.1, "epsilon must be finite and >= 0, got -0.1"),
    ("counted_edges", -3, "counted_edges must be an integer >= 0, got -3"),
    ("counted_edges", True, "counted_edges must be an integer >= 0, got True"),
    ("counted_edges", 2.5, "counted_edges must be an integer >= 0, got 2.5"),
    ("unused_pairs", {"ab": -1}, "unused pairs of 'ab' must be an integer >= 0, got -1"),
    ("unused_pairs", {"ab": True}, "unused pairs of 'ab' must be an integer >= 0, got True"),
    ("unused_pairs", {"ab": 2.5}, "unused pairs of 'ab' must be an integer >= 0, got 2.5"),
    ("paths", [], "paths must be a PathSet, got []"),
])
def test_a_protocol_plan_checks_its_fields(triangle_net, field, value, message):
    fields = dict(zip(ProtocolPlan._fields, plan(triangle_net)._values()))
    fields[field] = value
    with pytest.raises(ValueError) as built:
        ProtocolPlan(**fields)
    assert str(built.value) == message


def test_a_protocol_plan_from_the_constructor_equals_the_planned_one(triangle_net):
    # the repro of an unchecked constructor: NaN epsilon, negative edge count
    p = plan(triangle_net, 0.01)
    with pytest.raises(ValueError, match="^epsilon must be finite and >= 0, got nan$"):
        ProtocolPlan(p.paths, float("nan"), -3, p.unused_pairs)
    rebuilt = ProtocolPlan(p.paths, p.epsilon, p.counted_edges, p.unused_pairs)
    assert rebuilt == p and plan_to_dict(rebuilt) == plan_to_dict(p)
    assert pickle.loads(pickle.dumps(p)) == p
    assert type(p.unused_pairs) is MappingProxyType
    zero = ProtocolPlan(p.paths, 0, 0, {})
    assert (zero.epsilon, type(zero.epsilon), zero.error_budget) == (0.0, float, 0.0)


def test_sandwich_report_rejects_epsilon_outside_per_protocol(diamond_net):
    with pytest.raises(ValueError, match="epsilon=0.3.*'per-use'"):
        sandwich_report(diamond_net, Regime.PER_CHANNEL_USE, epsilon=0.3)
    timed = network_with(
        diamond_net, (edge_with(e, usage=Rate(e.usage.value)) for e in diamond_net.edges)
    )
    with pytest.raises(ValueError, match="'per-time'"):
        sandwich_report(timed, Regime.PER_TIME, epsilon=1e-4)
    assert sandwich_report(timed, Regime.PER_TIME, epsilon=0.0).epsilon == 0.0


@pytest.mark.parametrize("regime, epsilon, message", [
    (Regime.PER_TIME, 0.3,
     "epsilon=0.3 applies only to the per-protocol regime; regime 'per-time' takes epsilon to 0"),
    ("x", float("nan"), "regime must be a Regime, got 'x'"),
    (Regime.PER_PROTOCOL, float("nan"), "epsilon must be finite and >= 0, got nan"),
])
def test_a_sandwich_report_checks_its_regime_and_epsilon(diamond_net, regime, epsilon, message):
    cut = CutResult(1.0, {"A"}, ("e",))
    with pytest.raises(ValueError) as built:
        SandwichReport(regime, epsilon, cut, cut)
    assert str(built.value) == message
    budget = Rate if regime is Regime.PER_TIME else Count  # the regime the budgets read as
    net = network_with(
        diamond_net, (edge_with(e, usage=budget(e.usage.value)) for e in diamond_net.edges))
    with pytest.raises(ValueError) as reported:
        sandwich_report(net, regime, epsilon)
    assert str(reported.value) == message
    report = SandwichReport(Regime.PER_PROTOCOL, 0, cut, cut)
    assert (report.epsilon, type(report.epsilon)) == (0.0, float)


def test_sandwich_report_zero_budgets():
    edges = (
        EdgeSpec("e", "A", "B", LossyOptical(0.9), Frequency(0.0)),
    )
    net = Network(("A", "B"), "A", "B", edges)
    report = sandwich_report(net, Regime.PER_CHANNEL_USE)
    assert report.lower == 0.0
    assert report.upper_esq == 0.0
    with pytest.raises(ValueError, match="undefined"):
        lossy_gap_ratio(report)


def test_per_protocol_floors_only_the_lower_bound():
    edges = (
        EdgeSpec("e", "A", "B", CustomChannel(1.0, 1.5), Count(2.7)),
    )
    net = Network(("A", "B"), "A", "B", edges)
    report = sandwich_report(net, Regime.PER_PROTOCOL, epsilon=0.0)
    assert report.lower == pytest.approx(2.0)  # floor(2.7) * 1.0
    assert report.upper_esq == pytest.approx(2.7 * 1.5)  # un-floored
    assert report.upper_eps_corrected == report.upper_esq  # eps = 0


def test_per_protocol_epsilon_correction_applies():
    edges = (count_edge("e", "A", "B", 4),)
    net = Network(("A", "B"), "A", "B", edges)
    report = sandwich_report(net, Regime.PER_PROTOCOL, epsilon=1e-4)
    expected = (report.upper_esq + 4 * 0.14144054254182064515) / 0.84
    assert report.upper_eps_corrected == pytest.approx(expected, abs=1e-9)
    vacuous = sandwich_report(net, Regime.PER_PROTOCOL, epsilon=0.01)
    assert vacuous.upper_eps_corrected is None


def test_gap_ratio_closed_form_extremes():
    for eta, expected in ((0.01, RATIO_ETA_001), (0.99, RATIO_ETA_099)):
        net = Network(
            ("A", "B"),
            "A",
            "B",
            (EdgeSpec("e", "A", "B", LossyOptical(eta), Frequency(1.0)),),
        )
        report = sandwich_report(net, Regime.PER_CHANNEL_USE)
        ratio = lossy_gap_ratio(report)
        assert ratio == pytest.approx(expected, abs=1e-6)
        assert ratio <= 2.0


def test_factor_two_sandwich_on_random_lossy_networks():
    rng = random.Random(31)
    for _ in range(200):
        net = random_lossy_network(rng, max_nodes=10, max_edges=25)
        report = sandwich_report(net, Regime.PER_CHANNEL_USE)
        assert report.lower <= report.upper_esq + 1e-9
        assert report.upper_esq <= 2 * report.lower + 1e-9


def test_sandwich_order_on_custom_weight_networks():
    # q_cap <= esq_upper on every edge implies lower <= upper_esq (no factor-2 claim)
    from qnetcap.generators import random_custom_network

    rng = random.Random(35)
    for _ in range(100):
        net = random_custom_network(rng, max_nodes=9, max_edges=16)
        report = sandwich_report(net, Regime.PER_CHANNEL_USE)
        assert report.lower <= report.upper_esq + 1e-9


def test_plan_m_matches_bruteforce_cut_on_random_count_networks():
    rng = random.Random(32)
    # small stacks, then stacks of up to 1000 pairs per channel
    for max_count in [4] * 80 + [1000] * 40:
        net = random_count_network(rng, max_nodes=9, max_edges=10, max_count=max_count)
        result = plan(net, 0.0)
        bell = build_bell_network(net)
        brute = min_cut_bruteforce(bell)
        assert result.m == brute.value
        assert min_cut(bell).v_a == brute.v_a
        check_path_set(bell, result.paths)
        # and conservation holds exactly, in total and per channel
        consumed = sum(len(ids) for _, ids in result.paths)
        generated = {cid: n for (cid, _, _), n in zip(bell.topology.arcs, bell.capacities)}
        assert consumed + sum(result.unused_pairs.values()) == sum(generated.values())
        for cid, n in generated.items():
            assert result.paths.pairs_used.get(cid, 0) + result.unused_pairs[cid] == n


def _assert_plan_yield_within_the_bound(net, model, alpha):
    # m <= alpha * lower, the Bell cut S being at most the q_cap cut; and since each
    # channel of S loses less than one pair to the floors, alpha * lower - m < |S|
    lower = sandwich_report(net, Regime.PER_PROTOCOL).lower
    cut = min_cut(build_bell_network(net, model))
    m = plan(net, 0.0, model).m
    if not cut.crossing:
        assert lower == m == 0
        return
    bound = alpha * lower
    assert m <= bound * (1 + 1e-9)
    assert bound - m < len(cut.crossing) + 1e-9 * bound


YIELD_MODELS = [(AsymptoticQCap(), 1.0), (FixedFraction(0.3), 0.3), (FixedFraction(0.77), 0.77)]


@pytest.mark.parametrize("model, alpha", YIELD_MODELS)
def test_plan_yield_is_within_one_pair_per_cut_edge_of_the_lower_bound(model, alpha):
    rng = random.Random(36)
    for _ in range(150):
        net = random_count_network(rng, max_nodes=9, max_edges=20, max_count=50)
        _assert_plan_yield_within_the_bound(net, model, alpha)
        # the same topology at random etas and fractional counts
        net = network_with(net, (
            edge_with(e, channel=LossyOptical(rng.uniform(0, 0.99)),
                      usage=Count(rng.uniform(0, 50))) for e in net.edges))
        _assert_plan_yield_within_the_bound(net, model, alpha)
    grid = parse_network((DATA_DIR / "grid12_counts.json").read_text())  # a bench-size grid
    _assert_plan_yield_within_the_bound(grid, model, alpha)


def test_budget_scaling_covariance():
    rng = random.Random(33)
    for _ in range(40):
        net = random_lossy_network(rng, max_nodes=8, max_edges=14)
        c = rng.uniform(0.25, 4.0)
        scaled = network_with(
            net, (edge_with(e, usage=Frequency(e.usage.value * c)) for e in net.edges)
        )
        base = sandwich_report(net, Regime.PER_CHANNEL_USE)
        grown = sandwich_report(scaled, Regime.PER_CHANNEL_USE)
        assert grown.lower == pytest.approx(c * base.lower, rel=1e-9, abs=1e-12)
        assert grown.upper_esq == pytest.approx(c * base.upper_esq, rel=1e-9, abs=1e-12)
        # uniform scaling leaves the witness bipartitions unchanged
        assert grown.lower_witness.v_a == base.lower_witness.v_a
        assert grown.upper_witness.v_a == base.upper_witness.v_a


def test_per_time_report_scales_like_per_use():
    rng = random.Random(34)
    c = 1000.0
    for _ in range(20):
        net = random_lossy_network(rng, max_nodes=8, max_edges=12)
        timed = network_with(
            net, (edge_with(e, usage=Rate(e.usage.value * c)) for e in net.edges)
        )
        per_use = sandwich_report(net, Regime.PER_CHANNEL_USE)
        per_time = sandwich_report(timed, Regime.PER_TIME)
        assert per_time.lower == pytest.approx(c * per_use.lower, rel=1e-9, abs=1e-9)
        assert per_time.upper_esq == pytest.approx(c * per_use.upper_esq, rel=1e-9, abs=1e-9)


def test_plan_to_dot_marks_unused_edges_dashed(triangle_net):
    result = plan(triangle_net, 0.0)
    dot = plan_to_dot(triangle_net, result)
    # all three parents carry consumed pairs here, so all are solid
    assert dot.count("style=solid") == 3
    assert "2/3 used" in dot  # ac consumes 2 of 3
    lonely = Network(
        ("A", "C", "B"),
        "A",
        "B",
        (count_edge("ac", "A", "C", 2), count_edge("cb", "C", "B", 1)),
    )
    lonely_plan = plan(lonely, 0.0)
    lonely_dot = plan_to_dot(lonely, lonely_plan)
    assert lonely_dot.count("style=solid") == 2
    assert "1/2 used" in lonely_dot


def test_fig2_analog_plan(fig2_net):
    result = plan(fig2_net, 0.001)
    bell = build_bell_network(fig2_net)
    brute = min_cut_bruteforce(bell)
    assert result.m == brute.value == 7
    witness = set(brute.v_a)
    assert witness == {"A", "C1", "C3"} == set(min_cut(bell).v_a)
    # weighted per-protocol cut agrees with the bell-graph cut here
    weighted = min_cut_bruteforce(flow_graph_from_network(fig2_net, WeightKind.Q_CAP))
    assert weighted.value == pytest.approx(7.0)


def test_plan_rejects_more_paths_than_it_can_list(monkeypatch):
    huge = Network(("A", "B"), "A", "B", (count_edge("ab", "A", "B", 1e300),))
    limit = r"m = \d{301} edge-disjoint paths exceeds the limit of 1000000 paths"
    with pytest.raises(ValueError, match=limit):
        plan(huge)
    # the cut side never lists paths, so it is unaffected
    assert sandwich_report(huge, Regime.PER_PROTOCOL).lower == 1e300
    # the limit itself is inclusive
    monkeypatch.setattr(routes, "MAX_PLAN_PATHS", 3)
    assert plan(Network(("A", "B"), "A", "B", (count_edge("ab", "A", "B", 3),))).m == 3
    with pytest.raises(ValueError, match="m = 4 edge-disjoint paths exceeds the limit of 3"):
        plan(Network(("A", "B"), "A", "B", (count_edge("ab", "A", "B", 4),)))


def with_budgets(net, budget):
    return network_with(net, (edge_with(e, usage=budget(e.usage.value)) for e in net.edges))


ORDER_GENERATORS = {
    "lossy": random_lossy_network,
    "custom": random_custom_network,
    "count": lambda rng: random_count_network(rng, max_edges=25, max_count=20),
}


@pytest.mark.parametrize("kind", sorted(ORDER_GENERATORS))
def test_reports_and_plans_do_not_depend_on_the_edge_order(kind):
    """Shuffling the edges reorders the solver's arcs, which it tries in file order.

    The witness side is the residual-reachable one, the same for every
    maximum flow, so both reports agree but for the order of the summands;
    a plan may list other paths, but as many, and they pass the check.
    """
    rng = random.Random(f"edge-order/{kind}")
    for k in range(1000):
        net = ORDER_GENERATORS[kind](rng)
        edges = list(net.edges)
        rng.shuffle(edges)
        shuffled = network_with(net, edges)
        regime = net.default_regime
        report, other = sandwich_report(net, regime), sandwich_report(shuffled, regime)
        for cut, twin in ((report.lower_witness, other.lower_witness),
                          (report.upper_witness, other.upper_witness)):
            assert cut.v_a == twin.v_a, k
            assert set(cut.crossing) == set(twin.crossing), k
            assert twin.value == pytest.approx(cut.value, rel=1e-12, abs=0), k
        if kind == "count":
            protocol = plan(shuffled)
            assert protocol.m == plan(net).m, k
            check_path_set(build_bell_network(shuffled), protocol.paths)


def test_shared_layout_report_matches_separate_cuts():
    """Both report cuts equal a min_cut of each weighting built on its own.

    Fractional Count budgets below 1 floor to zero capacity on the lower side.
    """
    rng = random.Random(20160109)
    generators = (random_lossy_network, random_custom_network, random_count_network)
    for k in range(1002):
        net = generators[k % 3](rng, max_nodes=14)
        for budget in (Count, Frequency, Rate):
            point = with_budgets(net, budget)
            report = sandwich_report(point, budget.regime)
            lower = min_cut(flow_graph_from_network(point, WeightKind.Q_CAP))
            upper = min_cut(flow_graph_from_network(point, WeightKind.ESQ_UPPER))
            assert (report.lower_witness, report.upper_witness) == (lower, upper), (k, budget)
            assert (report.lower, report.upper_esq) == (lower.value, upper.value)
