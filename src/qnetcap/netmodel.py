"""Network topology model: nodes, channels, usage budgets, JSON ingestion, DOT export.

A network is a directed multigraph between two terminals (Alice and Bob)
plus intermediate relay nodes. Every edge carries a channel model and a
usage budget. A cut is named by its Alice side, a set of node labels
holding alice but not bob; cuts over the network are direction-blind, so
the crossing set contains edges leaving *and* entering the Alice side.

Every value type here, and in the modules built on it, derives from
``Immutable``: its fields are slots, assigning or deleting one raises
AttributeError, and values compare by exact type and value. There is no
generic field-replacing copy: a changed copy is built with the constructor,
which validates it like any other value. The types are safe to share across
concurrent workers.
"""

from __future__ import annotations

import json
import math
import warnings
from enum import Enum
from typing import AbstractSet, ClassVar, Mapping, Optional, Union

NodeId = str


class NetworkFormatError(ValueError):
    """A network document, or another JSON input file, is invalid."""


def _require_finite(name: str, value: float) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer past the float range
        raise ValueError(
            f"{name} must be finite, got an integer of {value.bit_length()} bits"
        ) from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _require_label(name: str, value) -> None:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{name} must be a non-empty string node label, got {value!r}")


class Immutable:
    """Base of the value types: slotted, immutable, compared by exact type and value.

    A subclass names its fields in ``__slots__`` (the field tuple is the
    concatenation along the class chain), takes them positionally in that
    order in ``__init__``, and sets them there with ``object.__setattr__``.
    Any other assignment or deletion raises AttributeError. The repr reads
    ``Name(field=value, ...)``, and pickling and copying go through the
    constructor, so a copy is validated like the original. A slot whose
    name starts with an underscore is not a field: it holds state the
    constructor derives from the fields, and takes no part in equality,
    hashing, repr or pickling.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = cls.__dict__.get("__slots__", ())
        cls._fields = cls._fields + tuple(name for name in slots if name[0] != "_")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


class LossyOptical(Immutable):
    """Pure-loss optical channel with transmittance eta.

    eta = 1 is rejected: it would give an infinite per-mode capacity.
    eta = 0 is a legal zero-capacity edge.
    """

    __slots__ = ("eta",)

    def __init__(self, eta: float):
        eta = _require_finite("eta", eta)
        if not 0.0 <= eta < 1.0:
            raise ValueError(f"eta must be in [0, 1), got {eta}")
        object.__setattr__(self, "eta", eta)


class CustomChannel(Immutable):
    """User-supplied per-use weights: achievable rate and converse upper bound.

    q_cap > esq_upper breaks the sandwich guarantee; such channels are
    accepted but flagged (see ``sandwich_warning``), never silently.
    """

    __slots__ = ("q_cap", "esq_upper")

    def __init__(self, q_cap: float, esq_upper: float):
        q_cap = _require_finite("q_cap", q_cap)
        esq_upper = _require_finite("esq_upper", esq_upper)
        if q_cap < 0 or esq_upper < 0:
            raise ValueError(
                f"q_cap and esq_upper must be >= 0, got {q_cap}, {esq_upper}"
            )
        object.__setattr__(self, "q_cap", q_cap)
        object.__setattr__(self, "esq_upper", esq_upper)

    @property
    def sandwich_warning(self) -> bool:
        return self.q_cap > self.esq_upper


ChannelSpec = Union[LossyOptical, CustomChannel]


class Regime(Enum):
    """Which asymptotic reading of the budgets a report uses."""

    PER_PROTOCOL = "per-protocol"
    PER_CHANNEL_USE = "per-use"
    PER_TIME = "per-time"


class UsageBudget(Immutable):
    """A channel's usage budget, finite and >= 0.

    Only the subclasses are budgets: each names its JSON key (also the
    field named in error messages) and the regime its value is read in.
    """

    __slots__ = ("value",)
    key: ClassVar[str] = "usage"
    regime: ClassVar[Regime]

    def __init__(self, value: float):
        v = _require_finite(self.key, value)
        if v < 0:
            raise ValueError(f"{self.key} must be >= 0, got {v}")
        object.__setattr__(self, "value", v)


class Count(UsageBudget):
    """Budget as an absolute number of channel uses."""

    __slots__ = ()
    key = "count"
    regime = Regime.PER_PROTOCOL


class Frequency(UsageBudget):
    """Budget as uses per total channel use."""

    __slots__ = ()
    key = "freq"
    regime = Regime.PER_CHANNEL_USE


class Rate(UsageBudget):
    """Budget as uses per unit time."""

    __slots__ = ()
    key = "rate"
    regime = Regime.PER_TIME


_BUDGET_KINDS = (Count, Frequency, Rate)


class EdgeSpec(Immutable):
    """Directed channel edge. Parallel edges are allowed, self-loops are not."""

    __slots__ = ("id", "tail", "head", "channel", "usage")

    def __init__(self, id: str, tail: NodeId, head: NodeId, channel: ChannelSpec,
                 usage: UsageBudget):
        if not id or not isinstance(id, str):
            raise ValueError(f"edge id must be a non-empty string, got {id!r}")
        if not (isinstance(tail, str) and tail and isinstance(head, str) and head):
            for key, label in (("tail", tail), ("head", head)):
                _require_label(f"edge {id!r}: {key}", label)
        if tail == head:
            raise ValueError(f"edge {id!r}: self-loop at {tail!r} rejected")
        if not isinstance(channel, (LossyOptical, CustomChannel)):
            raise ValueError(f"edge {id!r}: unknown channel spec {channel!r}")
        if not isinstance(usage, _BUDGET_KINDS):
            raise ValueError(f"edge {id!r}: unknown usage budget {usage!r}")
        set_field = object.__setattr__  # one lookup: a parse builds one edge per channel
        set_field(self, "id", id)
        set_field(self, "tail", tail)
        set_field(self, "head", head)
        set_field(self, "channel", channel)
        set_field(self, "usage", usage)


class Topology(Immutable):
    """The graph of a flow instance: vertices, two terminals and (id, u, v) arc rows.

    Arc ids are unique, each arc joins two distinct vertices, and source
    and sink are distinct vertices. The constructor also derives the
    residual doubling the max-flow solver walks, which reads no capacity:
    arc 2k runs u->v and arc 2k+1 runs v->u for row k, ``_to`` holds each
    arc's head as a position in ``vertices``, and ``_adj[x]`` lists the arcs
    leaving x by head label, ties by arc index, so every solve is
    deterministic. The arcs are bucketed by head in arc order and the
    buckets dealt to their tails in label order: one sort of the |V|
    labels, none per vertex. A solve never writes to this state.
    """

    __slots__ = ("vertices", "source", "sink", "arcs", "_terminals", "_to", "_adj")

    def __init__(self, vertices: tuple[NodeId, ...], source: NodeId, sink: NodeId,
                 arcs: tuple[tuple[str, NodeId, NodeId], ...]):
        vertices = tuple(vertices)
        arcs = tuple(arcs)
        index = {name: k for k, name in enumerate(vertices)}
        for role, name in (("source", source), ("sink", sink)):
            if name not in index:
                raise ValueError(f"{role} {name!r} is not a vertex")
        if source == sink:
            raise ValueError(f"source and sink are the same vertex {source!r}")
        ids, tails, heads = set(), [], []
        for eid, u, v in arcs:
            if eid in ids:
                raise ValueError(f"duplicate arc id {eid!r}")
            ids.add(eid)
            if u == v:
                raise ValueError(f"arc {eid!r}: self-loop at {u!r}")
            if u not in index or v not in index:
                raise ValueError(f"arc {eid!r}: endpoint {u if u not in index else v!r} "
                                 "is not a vertex")
            tails.append(index[u])
            heads.append(index[v])
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


class Network(Immutable):
    """Validated two-terminal network; edge order is preserved from input."""

    __slots__ = ("nodes", "alice", "bob", "edges", "_topology")

    def __init__(self, nodes: tuple[NodeId, ...], alice: NodeId, bob: NodeId,
                 edges: tuple[EdgeSpec, ...]):
        nodes = tuple(nodes)
        edges = tuple(edges)
        labels = set()
        for n in nodes:
            if not n or not isinstance(n, str):
                raise ValueError(f"node label must be a non-empty string, got {n!r}")
            if n in labels:
                raise ValueError(f"duplicate node label {n!r}")
            labels.add(n)
        _require_label("alice", alice)
        _require_label("bob", bob)
        if alice not in labels:
            raise ValueError(f"alice node {alice!r} is not declared")
        if bob not in labels:
            raise ValueError(f"bob node {bob!r} is not declared")
        if alice == bob:
            raise ValueError("alice and bob must be distinct nodes")
        ids = set()
        kinds = set()
        for e in edges:
            if e.id in ids:
                raise ValueError(f"duplicate edge id {e.id!r}")
            ids.add(e.id)
            for endpoint in (e.tail, e.head):
                if endpoint not in labels:
                    raise ValueError(
                        f"edge {e.id!r} references undeclared node {endpoint!r}"
                    )
            kinds.add(type(e.usage))
        if len(kinds) > 1:
            names = sorted(k.__name__ for k in kinds)
            raise ValueError(f"mixed usage budget variants {names}; use one per network")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "alice", alice)
        object.__setattr__(self, "bob", bob)
        object.__setattr__(self, "edges", edges)
        arcs = [(e.id, e.tail, e.head) for e in edges]
        object.__setattr__(self, "_topology", Topology(nodes, alice, bob, arcs))

    @property
    def topology(self) -> Topology:
        """Nodes, alice as source, bob as sink and an (id, tail, head) arc per edge."""
        return self._topology

    @property
    def budget_kind(self) -> Optional[type[UsageBudget]]:
        """The single budget variant used by the edges, or None if edgeless."""
        return type(self.edges[0].usage) if self.edges else None

    def edge_by_id(self, edge_id: str) -> EdgeSpec:
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise KeyError(f"no edge with id {edge_id!r}")


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
    return tuple(e for e in net.edges if (e.tail in side) != (e.head in side))


# --- JSON document format -------------------------------------------------

def _parse_channel(obj, edge_id: str) -> ChannelSpec:
    if not isinstance(obj, dict) or "type" not in obj:
        raise NetworkFormatError(f"edge {edge_id!r}: channel must be an object with a 'type'")
    ctype = obj["type"]
    try:
        if ctype == "lossy":
            if "eta" not in obj:
                raise ValueError("lossy channel requires 'eta'")
            return LossyOptical(obj["eta"])
        if ctype == "custom":
            if "q_cap" not in obj or "esq_upper" not in obj:
                raise ValueError("custom channel requires 'q_cap' and 'esq_upper'")
            return CustomChannel(obj["q_cap"], obj["esq_upper"])
    except ValueError as err:
        raise NetworkFormatError(f"edge {edge_id!r}: {err}") from err
    raise NetworkFormatError(f"edge {edge_id!r}: unknown channel type {ctype!r}")


def _parse_usage(obj, edge_id: str) -> UsageBudget:
    if not isinstance(obj, dict):
        raise NetworkFormatError(f"edge {edge_id!r}: usage must be an object")
    kinds = [cls for cls in _BUDGET_KINDS if cls.key in obj]
    if len(kinds) != 1:
        names = ", ".join(repr(cls.key) for cls in _BUDGET_KINDS)
        raise NetworkFormatError(f"edge {edge_id!r}: usage must carry exactly one of {names}")
    cls, = kinds
    try:
        return cls(obj[cls.key])
    except ValueError as err:
        raise NetworkFormatError(f"edge {edge_id!r}: {err}") from err


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

    Raises NetworkFormatError with line/position info on malformed JSON and
    with the offending node or edge named on semantic violations.
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

    edges = []
    for i, eobj in enumerate(doc["edges"]):
        if not isinstance(eobj, dict):
            raise NetworkFormatError(f"edge #{i}: must be an object")
        eid = eobj.get("id")
        if not isinstance(eid, str) or not eid:
            raise NetworkFormatError(f"edge #{i}: missing or empty 'id'")
        for key in ("tail", "head", "channel", "usage"):
            if key not in eobj:
                raise NetworkFormatError(f"edge {eid!r}: missing key {key!r}")
        channel = _parse_channel(eobj["channel"], eid)
        usage = _parse_usage(eobj["usage"], eid)
        try:
            edge = EdgeSpec(eid, eobj["tail"], eobj["head"], channel, usage)
        except ValueError as err:
            raise NetworkFormatError(str(err)) from err
        if isinstance(channel, CustomChannel) and channel.sandwich_warning:
            warnings.warn(
                f"edge {eid!r}: q_cap={channel.q_cap} exceeds esq_upper="
                f"{channel.esq_upper}; the sandwich guarantee does not apply",
                stacklevel=2,
            )
        edges.append(edge)

    try:
        return Network(tuple(doc["nodes"]), doc["alice"], doc["bob"], tuple(edges))
    except ValueError as err:
        raise NetworkFormatError(str(err)) from err


def _channel_to_obj(channel: ChannelSpec) -> dict:
    if isinstance(channel, LossyOptical):
        return {"type": "lossy", "eta": channel.eta}
    return {"type": "custom", "q_cap": channel.q_cap, "esq_upper": channel.esq_upper}


def serialize_network(net: Network) -> str:
    """Canonical JSON text; parse(serialize(net)) is structurally identical to net."""
    doc = {
        "nodes": list(net.nodes),
        "alice": net.alice,
        "bob": net.bob,
        "edges": [
            {
                "id": e.id,
                "tail": e.tail,
                "head": e.head,
                "channel": _channel_to_obj(e.channel),
                "usage": {e.usage.key: e.usage.value},
            }
            for e in net.edges
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def load_network(path) -> Network:
    """Read and parse a network file. IO failures surface as OSError."""
    return read_json(path, "network file", parse_network)


# --- DOT export -------------------------------------------------------------

def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _edge_label(e: EdgeSpec) -> str:
    if isinstance(e.channel, LossyOptical):
        chan = f"lossy eta={e.channel.eta:g}"
    else:
        chan = f"custom q={e.channel.q_cap:g} esq={e.channel.esq_upper:g}"
    return f"{e.id}: {chan}, {e.usage.key}={e.usage.value:g}"


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
    for e in net.edges:
        label = _edge_label(e)
        attrs = []
        if annotations is not None:
            note = annotations.get(e.id)
            if note is None:
                attrs.append("style=dashed")
            else:
                attrs.append("style=solid")
                label = f"{label} [{note}]"
        attrs.insert(0, f'label="{_dot_escape(label)}"')
        lines.append(
            f'  "{_dot_escape(e.tail)}" -> "{_dot_escape(e.head)}" [{", ".join(attrs)}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
