"""Parametric sweeps: the sandwich report's fields over a grid of one parameter.

``sweep_csv`` checks every rule of a sweep at each grid value; the
grid's own shape (non-empty, strictly monotone) is a rule of the CLI's
``sweep``, which also sorts the grid, so a library caller gets one row
per given value, in the given order, and the header alone for an empty
grid. The swept parameter is the transmittance eta of one lossy edge,
the error budget epsilon, or a common scale of every budget. Each reads
its regime from the network's budget variant, as ``bound`` does.

An eta sweep cuts every point from two ``ArcSweep`` solves per weight
kind of the network with the swept edge at eta 0, where its weights and
pairs are 0: the file's own eta reaches no row. Its grid is a column of
the swept edge's channel, weighed with the rules that weigh a network for
``bound`` and ``plan``: ``capacity.weight_column``,
``cuts_flows._cut_weights`` and ``aggregator._pair_counts``, one call each
over the whole grid, so no point builds an edge of its own. Field m is
the Bell network's minimum cut at every point, as for a plan. The plan
modules, ``qnetcap.aggregator`` and ``qnetcap.routes``, load only for
field m.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import cuts_flows
from .capacity import WeightKind, weight_column
from .cuts_flows import CutResult, FlowGraph, _cut, _cut_weights, flow_graph_from_network, min_cut
from .netmodel import Network
from .report import SandwichReport, _check_regime_epsilon, lossy_gap_ratio, sandwich_report
from .values import Count, LossyOptical, _require_finite


class ArcSweep:
    """Minimum cut of a flow instance as the capacity w of one arc varies.

    Every cut either crosses the arc, at value A + w, or avoids it, at B, so
    the minimum is F(w) = min(F(0) + w, F(inf)). Two max-flows give the Alice
    sides of a minimum cut with the arc at 0 and of a minimum cut among those
    that avoid the arc; at any w the smaller of those two cuts is a minimum
    cut. Both solve the arc-at-zero graph on fg's topology; the second gives
    the arc's two residual arcs an infinite capacity, which no cut crosses
    (Ford and Fulkerson, 1956). A large finite stand-in would sit within the
    solver's relative tolerance, or past float precision, of the other arcs
    once they are large. When the arc joins source and sink, every cut
    crosses it and only the first side is kept.
    """

    def __init__(self, fg: FlowGraph, arc_id: str):
        rows, capacities = fg.topology.arcs, fg.capacities
        k = next((k for k, row in enumerate(rows) if row[0] == arc_id), None)
        if k is None:
            raise KeyError(f"no arc with id {arc_id!r}")
        self.arc_id = arc_id
        self.zero = fg.zero
        at_zero = FlowGraph._from_checked(
            fg.topology, capacities[:k] + (self.zero,) + capacities[k + 1:], fg.capacity_kind)
        solvers = [cuts_flows._ResidualSolver(at_zero)]
        ends = (fg.topology.source, fg.topology.sink)
        _, u, v = rows[k]
        if not (u in ends and v in ends):
            solvers.append(cuts_flows._ResidualSolver(at_zero, k))
        # a side crosses the same rows at every w: only the swept arc's capacity changes
        self.sides = [(solver.reachable,
                       [(rows[j][0], capacities[j]) for j in solver.crossing_rows()])
                      for solver in solvers]

    def min_cut(self, capacity: float) -> CutResult:
        """A minimum cut with the arc at `capacity`, the side min_cut prints.

        The smaller of the two cuts; on a tie, the one with fewer Alice-side
        vertices, as the inclusion-minimal minimum cut is then one of the
        two sides and lies inside the other.
        """
        cuts = [_cut(side, [(eid, capacity if eid == self.arc_id else c) for eid, c in pairs],
                     self.zero)
                for side, pairs in self.sides]
        return min(cuts, key=lambda cut: (cut.value, len(cut.v_a)))


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _eta_points(net: Network, grid: Sequence[float], want_m: bool, edge_id: Optional[str],
                epsilon: float):
    """Two max-flows per weight kind (and two for m), whatever the grid size.

    Only the swept edge's capacity changes from point to point, so each
    cut comes from an ArcSweep over the network with that edge at eta 0,
    whose capacities there are 0: only the other edges' capacities are
    read, at the file's values. The grid is a column of the swept edge's
    channel: every point's capacities (and pairs) come from the column
    rules that weigh the network, and each capacity is checked, as
    ``bound`` checks it, before any cut.
    """
    if edge_id is None:
        raise ValueError("an eta sweep needs the id of the swept edge")
    edge = net.edge_by_id(edge_id)
    if not isinstance(edge.channel, LossyOptical):
        raise ValueError(f"edge {edge_id!r} is not a lossy channel")
    etas = [LossyOptical(value).eta for value in grid]  # each eta in [0, 1)
    regime = net.default_regime
    epsilon = _check_regime_epsilon(regime, epsilon)
    budgets = [edge.usage.value] * len(etas)
    kinds = (WeightKind.Q_CAP, WeightKind.ESQ_UPPER)
    q_caps, esq_uppers = [_cut_weights(net.budget_kind, budgets, etas, kind) for kind in kinds]
    # a finite budget times a finite weight fails only as inf: each failure reads the same
    for capacity in q_caps + esq_uppers:
        _require_finite(f"arc {edge_id!r}: capacity", capacity, nonnegative=True)
    channels = [0.0 if row[0] == edge_id else c
                for row, c in zip(net.topology.arcs, net.channels)]
    base = Network._from_checked(net.topology, net.budget_kind, tuple(channels), net.budgets)
    lower, upper = [ArcSweep(flow_graph_from_network(base, kind), edge_id) for kind in kinds]
    if want_m:  # the pairs are the q_cap capacities floored, so they fit a float too
        from .aggregator import _pair_counts, build_bell_network

        pairs = ArcSweep(build_bell_network(base), edge_id)
        counts = _pair_counts(budgets, weight_column(etas, WeightKind.Q_CAP))
    for k, value in enumerate(grid):
        report = SandwichReport(regime, epsilon, lower.min_cut(q_caps[k]),
                                upper.min_cut(esq_uppers[k]))
        yield value, report, pairs.min_cut(counts[k]).value if want_m else None


def _epsilon_points(net: Network, grid: Sequence[float], want_m: bool, **_):
    """One report (and one m): only the epsilon correction varies. Each epsilon
    is checked once, before any cut, and the report checked both witnesses,
    so each point's report is built unchecked."""
    if want_m:
        from .aggregator import build_bell_network
    regime = net.default_regime
    epsilons = [_check_regime_epsilon(regime, value) for value in grid]
    report = sandwich_report(net, regime)
    m = min_cut(build_bell_network(net)).value if want_m else None
    lower, upper = report.lower_witness, report.upper_witness
    for value, epsilon in zip(grid, epsilons):
        yield value, SandwichReport._from_checked(regime, epsilon, lower, upper), m


def _budget_scale_points(net: Network, grid: Sequence[float], want_m: bool, epsilon: float, **_):
    """One report per point: scaling changes every capacity, and the
    per-protocol floors make the cut non-linear in the scale. Each point
    network scales the budget column on the network's own topology; the
    largest scale goes first, so a budget overflow fails before any cut."""
    if want_m:
        from .aggregator import build_bell_network
    grid = [_require_finite("budget scale", value, nonnegative=True) for value in grid]
    regime = net.default_regime
    _check_regime_epsilon(regime, epsilon)
    if grid:
        net._scaled(max(grid))
    for value in grid:
        point_net = net._scaled(value)
        report = sandwich_report(point_net, regime, epsilon)
        m = min_cut(build_bell_network(point_net)).value if want_m else None
        yield value, report, m


_POINTS = {"eta": _eta_points, "epsilon": _epsilon_points, "budget-scale": _budget_scale_points}

# each field's cell at a point, from its SandwichReport and m
_CELLS = {
    "lower": lambda report, m: _fmt(report.lower),
    "upper_esq": lambda report, m: _fmt(report.upper_esq),
    "upper_eps_corrected": lambda report, m: (
        "vacuous" if (corrected := report.upper_eps_corrected) is None else _fmt(corrected)),
    "ratio": lambda report, m: _fmt(lossy_gap_ratio(report)) if report.lower > 0 else "nan",
    "m": lambda report, m: str(m),
}
SWEEP_FIELDS = tuple(_CELLS)


def sweep_csv(
    net: Network,
    param: str,
    grid: Sequence[float],
    fields: Sequence[str],
    *,
    edge: Optional[str] = None,
    epsilon: float = 0.0,
) -> str:
    """CSV of the report fields at each grid value, in grid order.

    Rules: ``param`` is eta, epsilon or budget-scale; ``fields`` is one or
    more of SWEEP_FIELDS; eta needs ``edge``, a lossy edge's id, and values
    in [0, 1) at which its capacities stay within the float range; scales
    are finite real numbers >= 0 that keep every budget within the float
    range; epsilon, swept or fixed, is finite, >= 0, and > 0 only on
    Count budgets; ``m`` needs Count budgets or no edges. All three params
    check every rule at every point before any cut, so an error (a
    KeyError for an unknown edge, else ValueError) leaves no output. Each
    row is a SandwichReport, so a minimum cut past the float range, known
    only once the cuts ran, fails as ``bound`` fails and leaves none either.
    ``edge`` and ``epsilon`` are ignored where moot. The grid is taken as
    given: one row per value, in its order, repeats included, and the
    header alone for an empty grid; the CLI rejects an empty or not
    strictly monotone grid and sorts the rest.
    """
    points = _POINTS.get(param)
    if points is None:
        raise ValueError(f"unknown sweep param {param!r}; choose from {list(_POINTS)}")
    if not fields or not _CELLS.keys() >= set(fields):
        raise ValueError(f"sweep fields must be one or more of {list(SWEEP_FIELDS)}, "
                         f"got {list(fields)}")
    want_m = "m" in fields
    if want_m and net.budget_kind not in (Count, None):
        raise ValueError("field 'm' needs Count budgets (protocol plans)")
    lines = [",".join([param, *fields])]
    lines.extend(",".join([_fmt(value)] + [_CELLS[name](report, m) for name in fields])
                 for value, report, m in points(net, grid, want_m, edge_id=edge, epsilon=epsilon))
    return "\r\n".join(lines) + "\r\n"
