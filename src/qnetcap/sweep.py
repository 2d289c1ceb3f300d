"""Parametric sweeps: the sandwich report's fields over a grid of one parameter.

``sweep_csv`` is the engine below the CLI's ``sweep`` flag checks. The
swept parameter is the transmittance eta of one lossy edge, the error
budget epsilon, or a common scale of every budget. Each reads its regime
from the network's budget variant, as ``bound`` does by default.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .aggregator import (
    AsymptoticQCap, build_bell_network, check_report_inputs, gap_ratio, pair_count,
    sandwich_report,
)
from .capacity import WeightKind, edge_capacity, epsilon_corrected_upper
from .cuts_flows import ArcSweep, flow_graph_from_network, max_flow_value
from .netmodel import EdgeSpec, LossyOptical, Network, Regime


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _eta_points(net: Network, edge_id: str, grid: Sequence[float], epsilon: float, want_m: bool):
    """Two max-flows per weight kind (and two for m), whatever the grid size.

    Only the swept edge's capacity changes from point to point, so each
    cut value comes from an ArcSweep over the base network.
    """
    edge = net.edge_by_id(edge_id)
    if not isinstance(edge.channel, LossyOptical):
        raise ValueError(f"edge {edge_id!r} is not a lossy channel")
    regime = net.default_regime
    epsilon = check_report_inputs(net, regime, epsilon)
    floor = regime is Regime.PER_PROTOCOL
    lower = ArcSweep(flow_graph_from_network(net, WeightKind.Q_CAP, floor_budgets=floor), edge_id)
    upper = ArcSweep(flow_graph_from_network(net, WeightKind.ESQ_UPPER), edge_id)
    pairs = ArcSweep(build_bell_network(net), edge_id) if want_m else None
    for value in grid:
        point = EdgeSpec(edge.id, edge.tail, edge.head, LossyOptical(value), edge.usage)
        upper_esq = upper.min_cut_value(edge_capacity(point, WeightKind.ESQ_UPPER))
        yield (
            value,
            lower.min_cut_value(edge_capacity(point, WeightKind.Q_CAP, floor_budgets=floor)),
            upper_esq,
            epsilon_corrected_upper(upper_esq, epsilon),
            pairs.min_cut_value(pair_count(point, AsymptoticQCap())) if want_m else None,
        )


def _epsilon_points(net: Network, grid: Sequence[float], want_m: bool):
    """One report (and one m): only the epsilon correction varies."""
    regime = net.default_regime
    for value in grid:
        check_report_inputs(net, regime, value)
    report = sandwich_report(net, regime)
    m = max_flow_value(build_bell_network(net)) if want_m else None
    for value in grid:
        corrected = epsilon_corrected_upper(report.upper_esq, value)
        yield value, report.lower, report.upper_esq, corrected, m


def _budget_scale_points(net: Network, grid: Sequence[float], epsilon: float, want_m: bool):
    """One report per point: scaling changes every capacity, and the
    per-protocol floors make the cut non-linear in the scale. Each point
    network scales the budget column on the network's own topology."""
    regime = net.default_regime
    for value in grid:
        if value < 0:
            raise ValueError(f"budget scale must be >= 0, got {value}")
        point_net = net._scaled(value)
        report = sandwich_report(point_net, regime, epsilon)
        m = max_flow_value(build_bell_network(point_net)) if want_m else None
        yield value, report.lower, report.upper_esq, report.upper_eps_corrected, m


def _sweep_row(fields: Sequence[str], value, lower, upper_esq, corrected, m) -> str:
    cells = {
        "lower": _fmt(lower),
        "upper_esq": _fmt(upper_esq),
        "upper_eps_corrected": "vacuous" if corrected is None else _fmt(corrected),
        "ratio": _fmt(gap_ratio(lower, upper_esq)) if lower > 0 else "nan",
        "m": str(m),
    }
    return ",".join([_fmt(value)] + [cells[name] for name in fields])


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

    The text is returned whole, so an error at any point leaves no partial
    output; the eta and epsilon sweeps check every point before any cut.
    """
    want_m = "m" in fields
    if param == "eta":
        points = _eta_points(net, edge, grid, epsilon, want_m)
    elif param == "epsilon":
        points = _epsilon_points(net, grid, want_m)
    else:
        points = _budget_scale_points(net, grid, epsilon, want_m)
    lines = [",".join([param, *fields])]
    lines.extend(_sweep_row(fields, *point) for point in points)
    return "\r\n".join(lines) + "\r\n"
