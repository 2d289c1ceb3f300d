"""Parametric sweeps: the sandwich report's fields over a grid of one parameter.

``sweep_csv`` checks every rule of a sweep; the CLI's ``sweep`` only reads
its flags. The swept parameter is the transmittance eta of one lossy
edge, the error budget epsilon, or a common scale of every budget. Each
reads its regime from the network's budget variant, as ``bound`` does.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .aggregator import (
    AsymptoticQCap, SandwichReport, _check_regime_epsilon, build_bell_network, lossy_gap_ratio,
    pair_count, sandwich_report,
)
from .capacity import WeightKind, edge_capacity
from .cuts_flows import ArcSweep, flow_graph_from_network, max_flow_value
from .netmodel import Network
from .values import Count, EdgeSpec, LossyOptical, _require_finite


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _eta_points(net: Network, grid: Sequence[float], want_m: bool, edge_id: Optional[str],
                epsilon: float):
    """Two max-flows per weight kind (and two for m), whatever the grid size.

    Only the swept edge's capacity changes from point to point, so each
    cut comes from an ArcSweep over the base network. Every point's swept
    capacities (and pairs) are checked, as ``bound`` checks them, first.
    """
    if edge_id is None:
        raise ValueError("an eta sweep needs the id of the swept edge")
    edge = net.edge_by_id(edge_id)
    if not isinstance(edge.channel, LossyOptical):
        raise ValueError(f"edge {edge_id!r} is not a lossy channel")
    channels = [LossyOptical(value) for value in grid]  # each eta in [0, 1)
    regime = net.default_regime
    epsilon = _check_regime_epsilon(regime, epsilon)
    name = f"arc {edge_id!r}: capacity"
    swept = []  # per point: the swept arc's q_cap and esq_upper capacities and pair count
    for channel in channels:
        point = EdgeSpec(edge.id, edge.tail, edge.head, channel, edge.usage)
        q_cap, esq_upper = [_require_finite(name, edge_capacity(point, kind), nonnegative=True)
                            for kind in (WeightKind.Q_CAP, WeightKind.ESQ_UPPER)]
        swept.append((q_cap, esq_upper, pair_count(point, AsymptoticQCap()) if want_m else None))
    lower = ArcSweep(flow_graph_from_network(net, WeightKind.Q_CAP), edge_id)
    upper = ArcSweep(flow_graph_from_network(net, WeightKind.ESQ_UPPER), edge_id)
    pairs = ArcSweep(build_bell_network(net), edge_id) if want_m else None
    for value, (q_cap, esq_upper, count) in zip(grid, swept):
        report = SandwichReport(regime, epsilon, lower.min_cut(q_cap), upper.min_cut(esq_upper))
        yield value, report, pairs.min_cut(count).value if want_m else None


def _epsilon_points(net: Network, grid: Sequence[float], want_m: bool, **_):
    """One report (and one m): only the epsilon correction varies. Each epsilon
    is checked once, before any cut, and the report checked both witnesses,
    so each point's report is built unchecked."""
    regime = net.default_regime
    epsilons = [_check_regime_epsilon(regime, value) for value in grid]
    report = sandwich_report(net, regime)
    m = max_flow_value(build_bell_network(net)) if want_m else None
    lower, upper = report.lower_witness, report.upper_witness
    for value, epsilon in zip(grid, epsilons):
        yield value, SandwichReport._from_checked(regime, epsilon, lower, upper), m


def _budget_scale_points(net: Network, grid: Sequence[float], want_m: bool, epsilon: float, **_):
    """One report per point: scaling changes every capacity, and the
    per-protocol floors make the cut non-linear in the scale. Each point
    network scales the budget column on the network's own topology; the
    largest scale goes first, so a budget overflow fails before any cut."""
    grid = [_require_finite("budget scale", value, nonnegative=True) for value in grid]
    regime = net.default_regime
    _check_regime_epsilon(regime, epsilon)
    if grid:
        net._scaled(max(grid))
    for value in grid:
        point_net = net._scaled(value)
        report = sandwich_report(point_net, regime, epsilon)
        m = max_flow_value(build_bell_network(point_net)) if want_m else None
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
    ``edge`` and ``epsilon`` are ignored where moot.
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
