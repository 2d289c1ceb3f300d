"""The parametric sweep against the pointwise one it replaced, byte for byte.

The oracle below is the sweep as the CLI used to compute it: one
sandwich_report, and one plan for field m, per grid point. The brute-force
cut enumeration referees ArcSweep itself on small networks.
"""

import json
import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qnetcap import (
    CustomChannel,
    Count,
    EdgeSpec,
    FlowGraph,
    Frequency,
    LossyOptical,
    Network,
    Rate,
    Regime,
    WeightKind,
    build_bell_network,
    flow_graph_from_network,
    lossy_gap_ratio,
    min_cut,
    min_cut_bruteforce,
    parse_network,
    plan,
    sandwich_report,
)
from qnetcap.sweep import SWEEP_FIELDS
from qnetcap.sweep import sweep_csv
from qnetcap import cuts_flows
from qnetcap.pointwise import edge_capacity
from qnetcap.report import _check_regime_epsilon
from qnetcap.cli import main
from qnetcap.sweep import ArcSweep
from qnetcap.generators import random_count_network, random_lossy_network

from conftest import NETWORKS_DIR, edge_with, network_with


LOSSY_FIELDS = [f for f in SWEEP_FIELDS if f != "m"]


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _network_at(net, param, edge_id, value):
    if param == "eta":
        target = net.edge_by_id(edge_id)
        if not isinstance(target.channel, LossyOptical):
            raise ValueError(f"edge {edge_id!r} is not a lossy channel")
        new_edges = tuple(
            edge_with(e, channel=LossyOptical(value)) if e.id == edge_id else e
            for e in net.edges
        )
        return network_with(net, new_edges)
    if param == "budget-scale":
        if value < 0:
            raise ValueError(f"budget scale must be finite and >= 0, got {value}")
        new_edges = tuple(
            edge_with(e, usage=type(e.usage)(e.usage.value * value))
            for e in net.edges
        )
        return network_with(net, new_edges)
    return net


def _pointwise_row(net, param, edge_id, epsilon, fields, value):
    epsilon = value if param == "epsilon" else epsilon
    point_net = _network_at(net, param, edge_id, value)
    kind = point_net.budget_kind
    regime = kind.regime if kind is not None else Regime.PER_CHANNEL_USE
    report = sandwich_report(point_net, regime, epsilon)
    row = [_fmt(value)]
    for name in fields:
        if name == "lower":
            row.append(_fmt(report.lower))
        elif name == "upper_esq":
            row.append(_fmt(report.upper_esq))
        elif name == "upper_eps_corrected":
            corrected = report.upper_eps_corrected
            row.append("vacuous" if corrected is None else _fmt(corrected))
        elif name == "ratio":
            row.append(_fmt(lossy_gap_ratio(report)) if report.lower > 0 else "nan")
        elif name == "m":
            row.append(str(plan(point_net, epsilon).m))
    return ",".join(row)


def pointwise_sweep_csv(net, param, grid, fields, *, edge=None, epsilon=0.0) -> str:
    lines = [",".join([param, *fields])]
    lines.extend(_pointwise_row(net, param, edge, epsilon, fields, v) for v in grid)
    return "\r\n".join(lines) + "\r\n"


def _outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except (ValueError, KeyError) as err:
        return "error", type(err).__name__, str(err)


# --- random sweeps ---------------------------------------------------------------

def _zero_or(lo: float, hi: float):
    # Max-flow treats a residual below 1e-12 x (total capacity) as saturated,
    # so a cut it reports may exceed the minimum by less than that. Values
    # are 0 or far above that tolerance, where both sweeps find exact minima.
    return st.just(0.0) | st.floats(lo, hi)


BUDGETS = {Count: st.integers(0, 8).map(float) | _zero_or(1e-3, 8),
           Frequency: _zero_or(1e-3, 3),
           Rate: _zero_or(1e-3, 3)}


@st.composite
def sweep_cases(draw):
    budget = draw(st.sampled_from([Count, Frequency, Rate]))
    nodes = ["A", "B"] + [f"C{i}" for i in range(draw(st.integers(0, 5)))]
    n_edges = draw(st.integers(1, 12))
    swept = draw(st.integers(0, n_edges - 1))
    direct = draw(st.booleans())  # the swept edge joins Alice and Bob
    edges = []
    for i in range(n_edges):
        if i == swept and direct:
            tail, head = draw(st.permutations(["A", "B"]))
        else:
            tail, head = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2,
                                       unique=True))
        if i != swept and draw(st.integers(0, 5)) == 0:
            q_cap = draw(_zero_or(1e-3, 3))
            channel = CustomChannel(q_cap, q_cap + draw(_zero_or(1e-3, 3)))
        else:
            channel = LossyOptical(draw(_zero_or(1e-3, 0.95)))
        edges.append(EdgeSpec(f"e{i}", tail, head, channel, budget(draw(BUDGETS[budget]))))
    net = Network(tuple(nodes), "A", "B", tuple(edges))

    param = draw(st.sampled_from(["eta", "eta", "epsilon", "budget-scale"]))
    if param == "eta":
        values = _zero_or(1e-3, 0.99)
        grid = {0.0}
    elif param == "epsilon":
        # positive epsilon is an error outside the per-protocol regime
        values = st.sampled_from([0.0, 1e-6, 1e-4, 1e-3, 0.0039, 1 / 256, 0.01, -1e-3])
        grid = set()
    else:
        values = _zero_or(1e-3, 4) | st.just(-1.0)
        grid = set()
    grid = sorted(grid | set(draw(st.lists(values, min_size=1, max_size=6))))
    fields = list(SWEEP_FIELDS if budget is Count else LOSSY_FIELDS)
    fields = draw(st.permutations(fields))[: draw(st.integers(1, len(fields)))]
    epsilon = draw(st.sampled_from([0.0, 1e-4, 0.01])) if budget is Count else 0.0
    return net, param, grid, fields, f"e{swept}", epsilon


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sweep_cases())
def test_parametric_sweep_matches_pointwise_bytes(case):
    net, param, grid, fields, edge, epsilon = case
    expected = _outcome(pointwise_sweep_csv, net, param, grid, fields, edge=edge, epsilon=epsilon)
    assert _outcome(sweep_csv, net, param, grid, fields, edge=edge, epsilon=epsilon) == expected


def test_parametric_sweep_matches_pointwise_on_generated_networks():
    rng = random.Random(1601)
    for _ in range(40):
        for net, fields in ((random_lossy_network(rng), LOSSY_FIELDS),
                            (random_count_network(rng), list(SWEEP_FIELDS))):
            edge = rng.choice(net.edges).id
            grid = sorted({0.0, *(round(rng.uniform(0, 0.95), 3) for _ in range(5))})
            assert sweep_csv(net, "eta", grid, fields, edge=edge) == pointwise_sweep_csv(
                net, "eta", grid, fields, edge=edge
            )


@pytest.mark.parametrize("budget", [Frequency, Count])
def test_an_eta_sweep_never_weighs_the_swept_edge_at_the_files_eta(budget):
    # 1e308 uses of e overflow its capacities at eta 0.999, but at no grid point
    net = Network(("A", "B"), "A", "B", (
        EdgeSpec("e", "A", "B", LossyOptical(0.999), budget(1e308)),
        EdgeSpec("f", "A", "B", LossyOptical(0.5), budget(1.0)),
    ))
    grid = [0.1, 0.2]
    assert sweep_csv(net, "eta", grid, LOSSY_FIELDS, edge="e") == pointwise_sweep_csv(
        net, "eta", grid, LOSSY_FIELDS, edge="e")
    if budget is Count:  # m is past what a plan lists: compare it with the Bell cut
        rows = sweep_csv(net, "eta", grid, ["lower", "m"], edge="e").split("\r\n")[1:-1]
        assert [row.split(",")[2] for row in rows] == [
            str(min_cut(build_bell_network(_network_at(net, "eta", "e", eta))).value)
            for eta in grid]


# --- ArcSweep against the brute-force cut oracle ---------------------------------

def _with_eta(net, edge_id, eta):
    return network_with(net, (
        edge_with(e, channel=LossyOptical(eta)) if e.id == edge_id else e
        for e in net.edges
    ))


def _sweep_cut(sweep, topology, capacity):
    """sweep.min_cut(capacity), checked to cross exactly the rows its Alice side splits."""
    cut = sweep.min_cut(capacity)
    side = cut.v_a
    assert cut.crossing == tuple(eid for eid, u, v in topology.arcs if (u in side) != (v in side))
    return cut


@pytest.mark.parametrize("kind", list(WeightKind))
def test_arc_sweep_matches_bruteforce_weighted_cut(kind):
    rng = random.Random(20)
    for _ in range(60):
        net = random_lossy_network(rng, max_nodes=7, max_edges=12)
        edge = rng.choice(net.edges)
        sweep = ArcSweep(flow_graph_from_network(net, kind), edge.id)
        for eta in (0.0, rng.uniform(0, 0.5), rng.uniform(0.5, 0.99)):
            point_net = _with_eta(net, edge.id, eta)
            capacity = edge_capacity(point_net.edge_by_id(edge.id), kind)
            expected = min_cut_bruteforce(flow_graph_from_network(point_net, kind)).value
            cut = _sweep_cut(sweep, net.topology, capacity)
            assert cut.value == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_arc_sweep_matches_bruteforce_bell_cut():
    rng = random.Random(21)
    for _ in range(60):
        net = random_count_network(rng, max_nodes=7, max_count=20)
        bell = build_bell_network(net)
        cid = rng.choice(bell.topology.arcs)[0]
        sweep = ArcSweep(bell, cid)
        for pairs in (0, 1, rng.randint(2, 60)):
            caps = [pairs if c == cid else n
                    for (c, _, _), n in zip(bell.topology.arcs, bell.capacities)]
            expected = min_cut_bruteforce(FlowGraph(bell.topology, caps, bell.capacity_kind))
            cut = _sweep_cut(sweep, bell.topology, pairs)
            assert cut.value == expected.value and isinstance(cut.value, int)
            assert cut.v_a == expected.v_a  # the oracle's side is the one min_cut prints


def test_arc_sweep_breaks_a_tie_to_the_side_min_cut_prints():
    # at e1 = 11 both candidate sides cost 15: {A} cuts e0 and e2, {A, C1} cuts e1 and e2
    net = Network(("A", "B", "C1"), "A", "B", (
        EdgeSpec("e0", "A", "C1", LossyOptical(0.5), Count(11)),  # q_cap 1: 11 pairs
        EdgeSpec("e1", "C1", "B", LossyOptical(0.5), Count(11)),
        EdgeSpec("e2", "A", "B", LossyOptical(0.5), Count(4)),
    ))
    bell = build_bell_network(net)
    assert bell.capacities == (11, 11, 4)
    cut = _sweep_cut(ArcSweep(bell, "e1"), bell.topology, 11)
    assert cut == cuts_flows.min_cut(bell)
    assert (cut.value, cut.v_a) == (15, {"A"})


def test_arc_sweep_direct_edge_is_crossed_by_every_cut():
    net = Network(("A", "C", "B"), "A", "B", (
        EdgeSpec("ab", "A", "B", LossyOptical(0.5), Frequency(1.0)),
        EdgeSpec("ac", "A", "C", LossyOptical(0.5), Frequency(2.0)),
        EdgeSpec("cb", "C", "B", LossyOptical(0.75), Frequency(1.0)),
    ))
    sweep = ArcSweep(flow_graph_from_network(net, WeightKind.Q_CAP), "ab")
    # F(0) = min(2, 2) = 2 through C; the direct edge adds its full capacity
    for w in (0.0, 0.5, 3.0, 100.0):
        assert sweep.min_cut(w).value == 2.0 + w
    with pytest.raises(KeyError, match="nope"):
        ArcSweep(flow_graph_from_network(net, WeightKind.Q_CAP), "nope")


def _refuse(*args, **kwargs):
    raise AssertionError("a one-edge reference on the eta sweep's path")


@pytest.mark.parametrize("points", [1, 10, 100])
def test_an_eta_sweep_looks_its_edge_up_once_and_weighs_no_edge_on_its_own(
        monkeypatch, triangle_net, points):
    made = []
    init = EdgeSpec.__init__

    def counting_init(self, *args):
        made.append(args[0])
        init(self, *args)

    monkeypatch.setattr(EdgeSpec, "__init__", counting_init)
    for name in ("edge_weight", "edge_capacity", "pair_count", "resolve_rate"):
        monkeypatch.setattr(f"qnetcap.pointwise.{name}", _refuse)
    grid = [0.9 * i / points for i in range(points)]
    for fields in (LOSSY_FIELDS, list(SWEEP_FIELDS)):
        made.clear()
        csv = sweep_csv(triangle_net, "eta", grid, fields, edge="cb", epsilon=1e-4)
        assert csv.count("\r\n") == points + 1
        assert made == ["cb"]  # edge_by_id's view of the swept edge


# --- large capacities -----------------------------------------------------------

def _big_chain(scale):
    # the swept edge A-C holds ten times what the rest of the network does
    return Network(("A", "C", "B"), "A", "B", (
        EdgeSpec("e0", "A", "C", LossyOptical(0.5), Rate(10 * scale)),
        EdgeSpec("e1", "C", "B", LossyOptical(0.5), Rate(scale)),
    ))


@pytest.mark.parametrize("scale", [1e12, 1e16, 1e300])
def test_arc_sweep_avoiding_side_holds_at_large_capacities(scale):
    net = _big_chain(scale)
    for kind in WeightKind:
        sweep = ArcSweep(flow_graph_from_network(net, kind), "e0")
        rest = edge_capacity(net.edge_by_id("e1"), kind)
        for w in (0.0, rest / 2, rest, edge_capacity(net.edge_by_id("e0"), kind)):
            assert sweep.min_cut(w).value == min(w, rest)
    csv = "eta,lower\r\n0.5,%s\r\n" % _fmt(scale)
    assert sweep_csv(net, "eta", [0.5], ["lower"], edge="e0") == csv


@pytest.mark.parametrize("max_budget", [5e12, 5e16])
def test_parametric_sweep_matches_pointwise_at_large_budgets(max_budget):
    rng = random.Random(1603)
    for _ in range(30):
        net = random_lossy_network(rng, max_nodes=7, max_edges=12, max_budget=max_budget)
        # the swept edge outweighs the rest, so cuts that avoid it are the small ones
        swept = rng.choice(net.edges)
        edge = edge_with(swept, usage=Frequency(20 * max_budget))
        net = network_with(net, (edge if e.id == edge.id else e for e in net.edges))
        grid = sorted({0.0, *(round(rng.uniform(0, 0.95), 3) for _ in range(4))})
        assert sweep_csv(net, "eta", grid, LOSSY_FIELDS, edge=edge.id) == pointwise_sweep_csv(
            net, "eta", grid, LOSSY_FIELDS, edge=edge.id
        )
        sweep = ArcSweep(flow_graph_from_network(net, WeightKind.Q_CAP), edge.id)
        for eta in grid:
            point_net = _with_eta(net, edge.id, eta)
            capacity = edge_capacity(point_net.edge_by_id(edge.id), WeightKind.Q_CAP)
            point = flow_graph_from_network(point_net, WeightKind.Q_CAP)
            expected = min_cut_bruteforce(point).value
            cut = _sweep_cut(sweep, net.topology, capacity)
            assert cut.value == pytest.approx(expected, rel=1e-12)


# --- how many max-flows each computation runs -------------------------------------

@pytest.fixture
def solves(monkeypatch):
    """A list that gains one entry per residual solver built, that is per max-flow."""
    made = []

    class CountingSolver(cuts_flows._ResidualSolver):
        def __init__(self, *args, **kwargs):
            made.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cuts_flows, "_ResidualSolver", CountingSolver)
    return made


def test_a_report_solves_twice_and_a_plan_once(solves, triangle_net):
    sandwich_report(triangle_net, Regime.PER_PROTOCOL)
    assert len(solves) == 2
    plan(triangle_net)
    assert len(solves) == 3


# each param's grid of n points
SOLVE_GRIDS = {"eta": lambda n: [0.9 * i / n for i in range(n)],
               "epsilon": lambda n: [1e-3 * i / n for i in range(n)],
               "budget-scale": lambda n: [1.0 + i for i in range(n)]}
# name: param, swept edge, max-flows without m and with it (per point for budget-scale)
SOLVE_COUNTS = {
    "eta-ac": ("eta", "ac", 4, 6),
    "eta-cb": ("eta", "cb", 4, 6),
    # ab joins Alice and Bob: every cut crosses it, so one side is solved per kind
    "eta-ab": ("eta", "ab", 2, 3),
    "epsilon": ("epsilon", None, 2, 3),
    "budget-scale": ("budget-scale", None, 2, 3),
}


@pytest.mark.parametrize("points", [1, 10, 100])
@pytest.mark.parametrize("name", sorted(SOLVE_COUNTS))
def test_sweep_solve_counts(solves, triangle_net, name, points):
    param, edge, without_m, with_m = SOLVE_COUNTS[name]
    grid = SOLVE_GRIDS[param](points)
    per = points if param == "budget-scale" else 1
    sweep_csv(triangle_net, param, grid, ["lower", "upper_esq"], edge=edge)
    assert len(solves) == without_m * per
    solves.clear()
    sweep_csv(triangle_net, param, grid, ["lower", "m"], edge=edge)
    assert len(solves) == with_m * per


def test_an_epsilon_sweep_checks_each_grid_epsilon_once(monkeypatch, triangle_net):
    checked = []

    def counting(regime, epsilon):
        checked.append(epsilon)
        return check(regime, epsilon)

    check = _check_regime_epsilon
    for module in ("qnetcap.report", "qnetcap.sweep"):
        monkeypatch.setattr(f"{module}._check_regime_epsilon", counting)
    grid = [1e-3 * (i + 1) for i in range(10)]
    sweep_csv(triangle_net, "epsilon", grid, ["lower", "upper_eps_corrected"])
    assert all(checked.count(epsilon) == 1 for epsilon in grid), checked


# --- the sweep's rules, checked before any cut ----------------------------------

def _no_max_flow(*args, **kwargs):
    raise AssertionError("a max-flow ran before the sweep's checks")


FIELDS_FAULT = ("sweep fields must be one or more of "
                "['lower', 'upper_esq', 'upper_eps_corrected', 'ratio', 'm'], got")
ETA_FAULT = "eta must be in [0, 1), got"
M_FAULT = "field 'm' needs Count budgets (protocol plans)"
SCALE_FAULT = "budget scale must be finite and >= 0, got"


def _diamond_with_huge_e1() -> str:
    # e1 at eta 0.1 with 1e308 uses: both its cut weights are finite, but not at eta 0.9
    doc = json.loads((NETWORKS_DIR / "diamond.json").read_text())
    doc["edges"][0]["channel"]["eta"] = 0.1
    doc["edges"][0]["usage"] = {"freq": 1e308}
    return json.dumps(doc)


# the rules' networks that are not files under networks/, by name
MADE_NETWORKS = {"diamond-huge-e1": _diamond_with_huge_e1}
SWEEP_RULES = {
    # name: network file, param, grid, fields, edge, message, CLI flags (None: unreachable)
    "unknown-param": ("triangle_counts", "eps", [0.0, 2.0], ["lower"], None,
                      "unknown sweep param 'eps'; choose from ['eta', 'epsilon', 'budget-scale']",
                      None),
    "no-fields": ("triangle_counts", "epsilon", [0.0], [], None, f"{FIELDS_FAULT} []",
                  ("--fields", ",")),
    "unknown-field": ("diamond", "budget-scale", [1.0, 2.0], ["lower", "bogus"], None,
                      f"{FIELDS_FAULT} ['lower', 'bogus']", ("--fields", "lower,bogus")),
    "eta-without-edge": ("diamond", "eta", [0.5], ["lower"], None,
                         "an eta sweep needs the id of the swept edge", ()),
    "eta-above-one": ("diamond", "eta", [0.2, 0.5, 1.5], ["lower"], "e1",
                      f"{ETA_FAULT} 1.5", ("--edge", "e1")),
    "eta-negative": ("triangle_counts", "eta", [-0.1, 0.5], ["lower", "m"], "ab",
                     f"{ETA_FAULT} -0.1", ("--edge", "ab")),
    "eta-nan": ("diamond", "eta", [0.5, math.nan], ["lower"], "e1",
                "eta must be finite, got nan", None),
    "eta-capacity-overflow": ("diamond-huge-e1", "eta", [0.1, 0.9], ["lower"], "e1",
                              "arc 'e1': capacity must be finite and >= 0, got inf",
                              ("--edge", "e1")),
    "negative-scale": ("diamond", "budget-scale", [2.0, -1.0], ["lower"], None,
                       f"{SCALE_FAULT} -1.0", ()),
    "nan-scale": ("diamond", "budget-scale", [1.0, 2.0, math.nan], ["lower"], None,
                  f"{SCALE_FAULT} nan", None),
    "inf-scale": ("diamond", "budget-scale", [1.0, math.inf], ["lower"], None,
                  f"{SCALE_FAULT} inf", ()),
    "eta-lone-nan": ("diamond", "eta", [math.nan], ["lower"], "e1",
                     "eta must be finite, got nan", ("--edge", "e1")),
    "inf-epsilon": ("triangle_counts", "epsilon", [math.inf], ["lower"], None,
                    "epsilon must be finite and >= 0, got inf", ()),
    "bool-scale": ("diamond", "budget-scale", [1.0, True], ["lower"], None,
                   "budget scale must be a real number, got True", None),
    "str-scale": ("diamond", "budget-scale", [1.0, "2"], ["lower"], None,
                  "budget scale must be a real number, got '2'", None),
    "scale-overflow": ("diamond-huge-e1", "budget-scale", [1.0, 10.0], ["lower"], None,
                       "edge 'e1': freq 1e+308 scaled by 10 is past the float range", ()),
    "m-freq-eta": ("diamond", "eta", [0.5], ["lower", "m"], "e1", M_FAULT, ("--edge", "e1")),
    "m-freq-epsilon": ("diamond", "epsilon", [0.0], ["m"], None, M_FAULT, ()),
    "m-freq-budget-scale": ("diamond", "budget-scale", [1.0, 2.0], ["m"], None, M_FAULT, ()),
}


@pytest.mark.parametrize("name", sorted(SWEEP_RULES))
def test_sweep_rules_fail_before_any_cut_with_the_message_the_cli_prints(
        monkeypatch, capsys, tmp_path, name):
    network, param, grid, fields, edge, message, flags = SWEEP_RULES[name]
    path = NETWORKS_DIR / f"{network}.json"
    if network in MADE_NETWORKS:
        path = tmp_path / f"{network}.json"
        path.write_text(MADE_NETWORKS[network]())
    net = parse_network(path.read_text())
    monkeypatch.setattr(cuts_flows, "_ResidualSolver", _no_max_flow)
    with pytest.raises(ValueError) as err:
        sweep_csv(net, param, grid, fields, edge=edge)
    assert str(err.value) == message
    if flags is not None:
        values = ",".join(repr(v) for v in grid)
        assert main(["sweep", str(path), "--param", param, f"--values={values}",
                     "--fields", ",".join(fields), *flags]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_sweep_that_passes_its_rules_runs_its_cuts(monkeypatch, diamond_net):
    # the guard above would catch a cut: each param reaches one
    monkeypatch.setattr(cuts_flows, "_ResidualSolver", _no_max_flow)
    for param, edge in (("eta", "e1"), ("epsilon", None), ("budget-scale", None)):
        with pytest.raises(AssertionError, match="a max-flow ran"):
            sweep_csv(diamond_net, param, [0.0], ["lower"], edge=edge)
