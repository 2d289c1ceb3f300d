"""Writing a network back out: canonical JSON text, and Graphviz DOT with or without a plan.

Loaded by ``plan --dot`` and by callers of these names; no other CLI
subcommand writes a network.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Mapping, Optional

from .values import ChannelParams

if TYPE_CHECKING:  # annotations only
    from .aggregator import ProtocolPlan
    from .netmodel import Network


def _channel_to_obj(channel: ChannelParams) -> dict:
    if type(channel) is tuple:
        return {"type": "custom", "q_cap": channel[0], "esq_upper": channel[1]}
    return {"type": "lossy", "eta": channel}


def serialize_network(net: Network) -> str:
    """Canonical JSON text; parse(serialize(net)) is structurally identical to net."""
    key = net.budget_kind.key if net.budget_kind is not None else None
    doc = {
        "nodes": list(net.nodes),
        "alice": net.alice,
        "bob": net.bob,
        "edges": [
            {
                "id": eid,
                "tail": tail,
                "head": head,
                "channel": _channel_to_obj(channel),
                "usage": {key: budget},
            }
            for (eid, tail, head), channel, budget
            in zip(net.topology.arcs, net.channels, net.budgets)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


# --- DOT export -------------------------------------------------------------

def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _edge_label(eid: str, channel: ChannelParams, key: str, budget: float) -> str:
    if type(channel) is tuple:
        chan = f"custom q={channel[0]:g} esq={channel[1]:g}"
    else:
        chan = f"lossy eta={channel:g}"
    return f"{eid}: {chan}, {key}={budget:g}"


def export_dot(net: Network, annotations: Optional[Mapping[str, str]] = None) -> str:
    """Render the network as a deterministic Graphviz digraph.

    When ``annotations`` is given, edges present in the map are drawn solid
    with the annotation appended to their label; absent edges are drawn
    dashed (unused).
    """
    lines = ["digraph qnet {", "  rankdir=LR;"]
    for n in net.nodes:
        shape = "doublecircle" if n in (net.alice, net.bob) else "circle"
        lines.append(f'  "{_dot_escape(n)}" [shape={shape}];')
    key = net.budget_kind.key if net.budget_kind is not None else None
    for (eid, tail, head), channel, budget in zip(net.topology.arcs, net.channels, net.budgets):
        label = _edge_label(eid, channel, key, budget)
        attrs = []
        if annotations is not None:
            note = annotations.get(eid)
            if note is None:
                attrs.append("style=dashed")
            else:
                attrs.append("style=solid")
                label = f"{label} [{note}]"
        attrs.insert(0, f'label="{_dot_escape(label)}"')
        lines.append(
            f'  "{_dot_escape(tail)}" -> "{_dot_escape(head)}" [{", ".join(attrs)}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def plan_to_dot(net: Network, protocol_plan: ProtocolPlan) -> str:
    """DOT rendering with consumed pair fractions; fully idle edges are dashed."""
    unused = protocol_plan.unused_pairs
    annotations = {
        cid: f"{k}/{k + unused.get(cid, 0)} used"
        for cid, k in protocol_plan.paths.pairs_used.items()
        if k > 0
    }
    return export_dot(net, annotations)
