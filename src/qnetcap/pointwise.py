"""One-edge references: an edge's weight, cut weight and pair count, and the general edge reader.

The library weighs a network a column at a time (``capacity.weight_column``,
``flow_graph_from_network``, ``build_bell_network``), and an η sweep its
grid as a column of the swept edge with the same rules. The functions here
weigh one EdgeSpec at a time, with the formulas written out, and the column
code is held to them bit for bit; neither side is defined through the
other. The closed forms of the lossy weights are in ``qnetcap.capacity``.
``edge_weight`` gives one edge's per-use weight, ``edge_capacity`` its cut
weight, budget times weight, ``resolve_rate`` and ``pair_count`` its Bell
pairs per use and in all, and ``crossing_edges`` the edges a cut crosses.
``_read_edge`` is the general reader of one edge of a network document: it
checks every value with the constructors of ``qnetcap.values`` and raises
their messages.

Loaded only where one edge is read or named on its own: by ``parse_network``
for an edge its inline checks do not take, by ``build_bell_network`` to
name the edge at fault, and by callers of the names above.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, AbstractSet

from .capacity import WeightKind
from .values import (
    _BUDGET_BY_KEY, _BUDGET_KINDS, ChannelParams, Count, CustomChannel, EdgeSpec, LossyOptical,
    NodeId, UsageBudget, _check_ends,
)

if TYPE_CHECKING:  # annotations only
    from .aggregator import RateModel
    from .netmodel import Network


def lossy_q_cap(eta: float) -> float:
    """Two-way assisted capacity of a pure-loss channel, ebits per mode."""
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must be in [0, 1), got {eta}")
    return math.log2(1.0 / (1.0 - eta))


def lossy_esq_upper(eta: float) -> float:
    """Squashed-entanglement upper bound of a pure-loss channel, ebits per mode."""
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must be in [0, 1), got {eta}")
    return math.log2((1.0 + eta) / (1.0 - eta))


def edge_weight(edge: EdgeSpec, kind: WeightKind) -> float:
    """Per-use weight of an edge under the selected weight function, a WeightKind."""
    channel = edge.channel
    if isinstance(channel, LossyOptical):
        if kind is WeightKind.Q_CAP:
            return lossy_q_cap(channel.eta)
        if kind is WeightKind.ESQ_UPPER:
            return lossy_esq_upper(channel.eta)
    elif isinstance(channel, CustomChannel):
        if kind is WeightKind.Q_CAP:
            return channel.q_cap
        if kind is WeightKind.ESQ_UPPER:
            return channel.esq_upper
    else:
        raise ValueError(f"unknown channel spec {channel!r}")
    raise ValueError(f"kind must be a WeightKind, got {kind!r}")


def edge_capacity(edge: EdgeSpec, kind: WeightKind) -> float:
    """Cut weight of one edge: budget l x per-use weight, but floor(l) x q_cap for
    the q_cap capacity of a Count budget, which a protocol spends in whole uses."""
    budget = edge.usage.value
    if kind is WeightKind.Q_CAP and isinstance(edge.usage, Count):
        budget = float(math.floor(budget))
    return budget * edge_weight(edge, kind)


def resolve_rate(edge: EdgeSpec, model: RateModel) -> float:
    """Bell pairs per channel use for one edge under the given rate model."""
    from .aggregator import AsymptoticQCap, FixedFraction, PerEdgeTable

    if isinstance(model, AsymptoticQCap):
        return edge_weight(edge, WeightKind.Q_CAP)
    if isinstance(model, FixedFraction):
        return model.alpha * edge_weight(edge, WeightKind.Q_CAP)
    if isinstance(model, PerEdgeTable):
        if edge.id not in model.rates:
            raise ValueError(f"rate table has no entry for edge {edge.id!r}")
        return model.rates[edge.id]
    raise ValueError(f"unknown rate model {model!r}")


def pair_count(edge: EdgeSpec, model: RateModel) -> int:
    """floor(floor(l) * R): the conservative integer reading of the pair stack."""
    if not isinstance(edge.usage, Count):
        raise ValueError(
            f"edge {edge.id!r} carries a {type(edge.usage).__name__} budget; "
            "Bell-pair counts are defined only for Count budgets"
        )
    uses = math.floor(edge.usage.value)
    rate = resolve_rate(edge, model)
    pairs = uses * rate
    if not math.isfinite(pairs):
        raise ValueError(f"edge {edge.id!r}: {uses} uses at {rate} pairs per use overflow a float")
    return math.floor(pairs)


def crossing_edges(net: Network, side: AbstractSet[NodeId]) -> tuple[EdgeSpec, ...]:
    """Edges with exactly one endpoint in the Alice side ``side``, in input order.

    Both orientations cross: the cut is direction-blind even though the
    channels are directed. ``side`` must hold alice, not bob, and only
    nodes of the network.
    """
    extra = sorted(set(side).difference(net.nodes))
    if extra:
        raise ValueError(f"bipartition contains unknown nodes {extra}")
    if net.alice not in side:
        raise ValueError(f"bipartition must contain alice ({net.alice!r})")
    if net.bob in side:
        raise ValueError(f"bipartition must not contain bob ({net.bob!r})")
    return tuple(net._edge(k) for k, (_, u, v) in enumerate(net.topology.arcs)
                 if (u in side) != (v in side))


# --- one edge of a network document ---------------------------------------------

_EDGE_KEYS = ("tail", "head", "channel", "usage")


def _read_channel(obj) -> ChannelParams:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("channel must be an object with a 'type'")
    ctype = obj["type"]
    if ctype == "lossy":
        if "eta" not in obj:
            raise ValueError("lossy channel requires 'eta'")
        return LossyOptical(obj["eta"]).eta
    if ctype == "custom":
        if "q_cap" not in obj or "esq_upper" not in obj:
            raise ValueError("custom channel requires 'q_cap' and 'esq_upper'")
        custom = CustomChannel(obj["q_cap"], obj["esq_upper"])
        return custom.q_cap, custom.esq_upper
    raise ValueError(f"unknown channel type {ctype!r}")


def _read_usage(obj) -> tuple[type[UsageBudget], float]:
    if not isinstance(obj, dict):
        raise ValueError("usage must be an object")
    kind, found = None, 0
    for key in obj:
        if key in _BUDGET_BY_KEY:
            kind, found = _BUDGET_BY_KEY[key], found + 1
    if found != 1:
        names = ", ".join(repr(cls.key) for cls in _BUDGET_KINDS)
        raise ValueError(f"usage must carry exactly one of {names}")
    return kind, kind(obj[kind.key]).value


def _read_edge(i: int, eobj) -> tuple:
    """Edge #i of a network document as (eid, tail, head, ChannelParams, budget kind, budget).

    The general reader: it takes an edge object of any shape, checks its
    values with the constructors of ``qnetcap.values``, and raises a
    ValueError naming the edge for every fault.
    """
    if not isinstance(eobj, dict):
        raise ValueError(f"edge #{i}: must be an object")
    eid = eobj.get("id")
    if not isinstance(eid, str) or not eid:
        raise ValueError(f"edge #{i}: missing or empty 'id'")
    try:
        for key in _EDGE_KEYS:
            if key not in eobj:
                raise ValueError(f"missing key {key!r}")
        channel = _read_channel(eobj["channel"])
        kind, budget = _read_usage(eobj["usage"])
        tail, head = eobj["tail"], eobj["head"]
    except ValueError as err:
        raise ValueError(f"edge {eid!r}: {err}") from err
    _check_ends(eid, tail, head)
    return eid, tail, head, channel, kind, budget
