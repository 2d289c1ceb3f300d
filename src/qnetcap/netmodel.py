"""Network topology model: nodes, channels, usage budgets, JSON ingestion, DOT export.

A network is a directed multigraph between two terminals (Alice and Bob)
plus intermediate relay nodes. Every edge carries a channel model and a
usage budget, value types from ``qnetcap.values``. A cut is named by its
Alice side, a set of node labels holding alice but not bob; cuts over the
network are direction-blind, so the crossing set contains edges leaving
*and* entering the Alice side.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from typing import AbstractSet, Mapping, Optional, Union

from .values import (  # the value types, also the model's public names
    _BUDGET_KINDS, ChannelSpec, Count, CustomChannel, EdgeSpec, Frequency, Immutable,
    LossyOptical, NodeId, Rate, Regime, UsageBudget, _require_finite, _require_label,
)


class NetworkFormatError(ValueError):
    """A network document, or another JSON input file, is invalid."""


class Topology(Immutable):
    """The graph of a flow instance: vertices, two terminals and (id, u, v) arc rows.

    The constructor is the one place a graph is checked, in this order:
    each arc row has a non-empty string id and two distinct ends, vertices
    are unique non-empty string labels, source and sink distinct vertices,
    and, row by row, arc ids are unique and each arc joins two vertices. A
    Network's rows were checked as they were read, from its EdgeSpecs or
    its document, so it builds its topology with ``_from_checked_rows``,
    which makes every check but the first. The constructor also derives the
    residual doubling the max-flow solver walks, which reads no capacity:
    arc 2k runs u->v and arc 2k+1 runs v->u for row k, ``_to`` holds each
    arc's head as a position in ``vertices``, and ``_adj[x]`` lists the
    arcs leaving x by head label, ties by arc index, so every solve is
    deterministic. The arcs are bucketed by head in arc order and the
    buckets dealt to their tails in label order: one sort of the |V|
    labels, none per vertex. A solve never writes to this state.
    """

    __slots__ = ("vertices", "source", "sink", "arcs", "_terminals", "_to", "_adj")

    def __init__(self, vertices: tuple[NodeId, ...], source: NodeId, sink: NodeId,
                 arcs: tuple[tuple[str, NodeId, NodeId], ...]):
        arcs = tuple(arcs)
        for eid, u, v in arcs:
            if not isinstance(eid, str) or not eid:
                raise ValueError(f"edge id must be a non-empty string, got {eid!r}")
            if u == v:
                raise ValueError(f"edge {eid!r}: self-loop at {u!r} rejected")
        self._derive(tuple(vertices), source, sink, arcs)

    @classmethod
    def _from_checked_rows(cls, vertices, source, sink, arcs) -> Topology:
        """A Topology over arc rows whose ids and self-loops the caller has checked."""
        topology = object.__new__(cls)
        topology._derive(tuple(vertices), source, sink, tuple(arcs))
        return topology

    def _derive(self, vertices: tuple, source, sink, arcs: tuple) -> None:
        index = {}
        for k, name in enumerate(vertices):
            if not isinstance(name, str) or not name:
                raise ValueError(f"node label must be a non-empty string, got {name!r}")
            if name in index:
                raise ValueError(f"duplicate node label {name!r}")
            index[name] = k
        for role, name in (("source", source), ("sink", sink)):
            _require_label(role, name)
            if name not in index:
                raise ValueError(f"{role} {name!r} is not a vertex")
        if source == sink:
            raise ValueError(f"source and sink are the same vertex {source!r}")
        ids, tails, heads = set(), [], []
        for eid, u, v in arcs:
            if eid in ids:
                raise ValueError(f"duplicate edge id {eid!r}")
            ids.add(eid)
            try:
                tails.append(index[u])
                heads.append(index[v])
            except (KeyError, TypeError):  # TypeError: an unhashable endpoint
                bad = v if isinstance(u, str) and u in index else u
                raise ValueError(f"edge {eid!r} references undeclared node {bad!r}") from None
        to = _interleave(heads, tails)
        into: list[list[int]] = [[] for _ in vertices]
        for i, head in enumerate(to):
            into[head].append(i)
        adj: list[list[int]] = [[] for _ in vertices]
        for head in sorted(range(len(vertices)), key=vertices.__getitem__):
            for i in into[head]:
                adj[to[i ^ 1]].append(i)
        set_field = object.__setattr__
        set_field(self, "vertices", vertices)
        set_field(self, "source", source)
        set_field(self, "sink", sink)
        set_field(self, "arcs", arcs)
        set_field(self, "_terminals", (index[source], index[sink]))
        set_field(self, "_to", to)
        set_field(self, "_adj", adj)


def _interleave(even: list, odd: list) -> list:
    """[even[0], odd[0], even[1], odd[1], ...] for two lists of one length."""
    out = [None] * (2 * len(even))
    out[0::2] = even
    out[1::2] = odd
    return out


# A channel column entry: the eta of a lossy channel, or (q_cap, esq_upper) of a custom one
ChannelParams = Union[float, tuple[float, float]]


class Network(Immutable):
    """Validated two-terminal network, held as columns in input edge order.

    The columns are the topology's (id, tail, head) arc rows, each edge's
    channel parameters (a ChannelParams) and budget value, and the one
    budget variant all edges share. ``edges`` and ``edge_by_id`` build
    EdgeSpecs from the columns on each read; equality, hashing, repr and
    pickling go through them, so a network compares and copies as the
    EdgeSpecs it was built from.

    The network checks first that alice and bob are distinct declared
    nodes, then its Topology checks the graph, and last the network checks
    that its edges share one budget variant.
    """

    __slots__ = ("nodes", "alice", "bob", "_topology", "_budget_kind", "_channels", "_budgets")
    _fields = ("nodes", "alice", "bob", "edges")

    def __init__(self, nodes: tuple[NodeId, ...], alice: NodeId, bob: NodeId,
                 edges: tuple[EdgeSpec, ...]):
        edges = tuple(edges)
        channels = [
            e.channel.eta if isinstance(e.channel, LossyOptical)
            else (e.channel.q_cap, e.channel.esq_upper)
            for e in edges
        ]
        self._fill(nodes, alice, bob, [(e.id, e.tail, e.head) for e in edges],
                   {type(e.usage) for e in edges}, channels, [e.usage.value for e in edges])

    def _fill(self, nodes, alice, bob, rows: list, kinds: set, channels: list,
              budgets: list) -> None:
        """Check the network and set its columns; each row's id and ends are already checked."""
        nodes = tuple(nodes)
        _require_label("alice", alice)
        _require_label("bob", bob)
        if alice not in nodes:
            raise ValueError(f"alice node {alice!r} is not declared")
        if bob not in nodes:
            raise ValueError(f"bob node {bob!r} is not declared")
        if alice == bob:
            raise ValueError("alice and bob must be distinct nodes")
        topology = Topology._from_checked_rows(nodes, alice, bob, rows)
        if len(kinds) > 1:
            names = sorted(k.__name__ for k in kinds)
            raise ValueError(f"mixed usage budget variants {names}; use one per network")
        set_field = object.__setattr__
        set_field(self, "nodes", nodes)
        set_field(self, "alice", alice)
        set_field(self, "bob", bob)
        set_field(self, "_topology", topology)
        set_field(self, "_budget_kind", next(iter(kinds), None))
        set_field(self, "_channels", channels)
        set_field(self, "_budgets", budgets)

    @property
    def topology(self) -> Topology:
        """Nodes, alice as source, bob as sink and an (id, tail, head) arc per edge."""
        return self._topology

    @property
    def budget_kind(self) -> Optional[type[UsageBudget]]:
        """The single budget variant used by the edges, or None if edgeless."""
        return self._budget_kind

    @property
    def edges(self) -> tuple[EdgeSpec, ...]:
        """The edges as EdgeSpecs in input order, built from the columns on each read."""
        return tuple([self._edge(k) for k in range(len(self._budgets))])

    def _edge(self, k: int) -> EdgeSpec:
        channel = self._channels[k]
        channel = CustomChannel(*channel) if type(channel) is tuple else LossyOptical(channel)
        return EdgeSpec(*self._topology.arcs[k], channel, self._budget_kind(self._budgets[k]))

    def edge_by_id(self, edge_id: str) -> EdgeSpec:
        for k, row in enumerate(self._topology.arcs):
            if row[0] == edge_id:
                return self._edge(k)
        raise KeyError(f"no edge with id {edge_id!r}")

    def _scaled(self, factor: float) -> Network:
        """This network on its own topology with every budget times factor >= 0."""
        budgets = [b * factor for b in self._budgets]
        if math.inf in budgets:
            self._budget_kind(math.inf)  # raises the budget's "must be finite" error
        net = object.__new__(Network)
        for name in Network.__slots__:
            object.__setattr__(net, name, budgets if name == "_budgets" else getattr(self, name))
        return net


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


# --- JSON document format -------------------------------------------------

_EDGE_KEYS = ("tail", "head", "channel", "usage")
_BUDGET_BY_KEY = {cls.key: cls for cls in _BUDGET_KINDS}
_FLOAT_MAX = sys.float_info.max


def _nonnegative(value) -> Optional[float]:
    """value as a float if it is an int or float in [0, float max], else None."""
    if (type(value) is float or type(value) is int) and 0 <= value <= _FLOAT_MAX:
        return float(value)
    return None


def _read_channel(obj) -> ChannelParams:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("channel must be an object with a 'type'")
    ctype = obj["type"]
    if ctype == "lossy":
        if "eta" not in obj:
            raise ValueError("lossy channel requires 'eta'")
        eta = obj["eta"]
        if type(eta) is float and 0.0 <= eta < 1.0:
            return eta
        return LossyOptical(eta).eta  # an int in range, else the constructor's error
    if ctype == "custom":
        if "q_cap" not in obj or "esq_upper" not in obj:
            raise ValueError("custom channel requires 'q_cap' and 'esq_upper'")
        q_cap, esq_upper = _nonnegative(obj["q_cap"]), _nonnegative(obj["esq_upper"])
        if q_cap is None or esq_upper is None:
            custom = CustomChannel(obj["q_cap"], obj["esq_upper"])  # the constructor's error
            q_cap, esq_upper = custom.q_cap, custom.esq_upper
        return q_cap, esq_upper
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
    value = _nonnegative(obj[kind.key])
    if value is None:
        value = kind(obj[kind.key]).value  # the constructor's error
    return kind, value


def _loads(text: str):
    """json.loads, with every way a document can fail to parse a NetworkFormatError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise NetworkFormatError(
            f"syntax error at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    except RecursionError:
        raise NetworkFormatError("document nests too deeply to parse") from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise NetworkFormatError("document holds an integer too long to parse") from None


def read_json(path, what: str, parse=_loads):
    """Read a UTF-8 JSON file and ``parse`` it; a NetworkFormatError names it as ``what``.

    IO failures surface as OSError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise NetworkFormatError(
                f"{what} {str(path)!r} is not UTF-8 text: {err.reason} at byte {err.start}"
            ) from err
    try:
        return parse(text)
    except NetworkFormatError as err:
        raise NetworkFormatError(f"{err} in {what} {str(path)!r}") from None


def parse_network(text: str) -> Network:
    """Parse the canonical JSON network document into a validated Network.

    Each edge is checked once, in file order, and appended to the columns;
    no EdgeSpec, channel or budget object is built. Raises
    NetworkFormatError with line/position info on malformed JSON and with
    the offending node or edge named on semantic violations.
    """
    doc = _loads(text)
    if not isinstance(doc, dict):
        raise NetworkFormatError("top-level document must be an object")
    for key in ("nodes", "alice", "bob", "edges"):
        if key not in doc:
            raise NetworkFormatError(f"missing required key {key!r}")
    if not isinstance(doc["nodes"], list):
        raise NetworkFormatError("'nodes' must be a list of labels")
    if not isinstance(doc["edges"], list):
        raise NetworkFormatError("'edges' must be a list")

    rows, kinds, channels, budgets = [], set(), [], []
    for i, eobj in enumerate(doc["edges"]):
        if not isinstance(eobj, dict):
            raise NetworkFormatError(f"edge #{i}: must be an object")
        eid = eobj.get("id")
        if not isinstance(eid, str) or not eid:
            raise NetworkFormatError(f"edge #{i}: missing or empty 'id'")
        try:
            for key in _EDGE_KEYS:
                if key not in eobj:
                    raise ValueError(f"missing key {key!r}")
            channel = _read_channel(eobj["channel"])
            kind, budget = _read_usage(eobj["usage"])
            tail, head = eobj["tail"], eobj["head"]
            if not (isinstance(tail, str) and tail and isinstance(head, str) and head):
                _require_label("tail", tail)
                _require_label("head", head)
            if tail == head:
                raise ValueError(f"self-loop at {tail!r} rejected")
        except ValueError as err:
            raise NetworkFormatError(f"edge {eid!r}: {err}") from err
        if type(channel) is tuple and channel[0] > channel[1]:
            warnings.warn(
                f"edge {eid!r}: q_cap={channel[0]} exceeds esq_upper="
                f"{channel[1]}; the sandwich guarantee does not apply",
                stacklevel=2,
            )
        rows.append((eid, tail, head))
        kinds.add(kind)
        channels.append(channel)
        budgets.append(budget)

    net = object.__new__(Network)
    try:
        net._fill(doc["nodes"], doc["alice"], doc["bob"], rows, kinds, channels, budgets)
    except ValueError as err:
        raise NetworkFormatError(str(err)) from err
    return net


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
            in zip(net.topology.arcs, net._channels, net._budgets)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def load_network(path) -> Network:
    """Read and parse a network file. IO failures surface as OSError."""
    return read_json(path, "network file", parse_network)


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
    for (eid, tail, head), channel, budget in zip(net.topology.arcs, net._channels, net._budgets):
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
