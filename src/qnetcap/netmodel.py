"""Network topology model: nodes, channels, usage budgets and JSON ingestion.

A network is a directed multigraph between two terminals (Alice and Bob)
plus intermediate relay nodes. Every edge carries a channel model and a
usage budget, value types whose one home is ``qnetcap.values``. A cut is
named by its Alice side, a set of node labels holding alice but not bob;
cuts over the network are direction-blind, so the crossing set contains
edges leaving *and* entering the Alice side. Writing a network back out,
as JSON or DOT, is ``qnetcap.export``'s job.
"""

from __future__ import annotations

import gc
import json
import math
import sys
import warnings
from operator import attrgetter

from .values import (
    _BUDGET_BY_KEY, CustomChannel, EdgeSpec, Immutable, LossyOptical, NodeId, Regime,
    _require_label,
)


class NetworkFormatError(ValueError):
    """A network document, or another JSON input file, is invalid."""


class Topology(Immutable):
    """The graph of a flow instance: vertices, two terminals and (id, u, v) arc rows.

    The constructor is the one place a graph is checked, in this order:
    each arc row is an (id, u, v) triple, its id a non-empty string and its
    ends distinct, vertices are unique non-empty string labels, source and
    sink distinct vertices, and, row by row, arc ids are unique and each arc
    joins two vertices. A Network's rows were checked as they were read,
    from its EdgeSpecs or its document, so it builds its topology with
    ``_from_checked_rows``, which makes every check but the first. The
    constructor also derives the residual doubling the max-flow solver
    walks, which reads no capacity: arc 2k runs u->v and arc 2k+1 runs v->u
    for row k, ``_to`` holds each arc's head as a position in ``vertices``,
    and ``_adj[x]`` lists the arcs leaving x in arc order, so a solve tries
    them in the order of the rows, a parsed network's file order, and is
    deterministic. One pass over the rows builds it. A solve never writes
    to this state.
    """

    __slots__ = ("vertices", "source", "sink", "arcs", "_terminals", "_to", "_adj")

    def __init__(self, vertices: tuple[NodeId, ...], source: NodeId, sink: NodeId,
                 arcs: tuple[tuple[str, NodeId, NodeId], ...]):
        arcs = tuple(arcs)
        for k, row in enumerate(arcs):
            try:
                eid, u, v = row
            except (TypeError, ValueError):
                raise ValueError(
                    f"arc row #{k} must be an (id, u, v) triple, got {row!r}") from None
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
        adj: list[list[int]] = [[] for _ in vertices]
        for k, (eid, u, v) in enumerate(arcs):
            if eid in ids:
                raise ValueError(f"duplicate edge id {eid!r}")
            ids.add(eid)
            try:
                tail, head = index[u], index[v]
            except (KeyError, TypeError):  # TypeError: an unhashable endpoint
                bad = v if isinstance(u, str) and u in index else u
                raise ValueError(f"edge {eid!r} references undeclared node {bad!r}") from None
            adj[tail].append(2 * k)
            adj[head].append(2 * k + 1)
            tails.append(tail)
            heads.append(head)
        to = _interleave(heads, tails)
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
    """Validated two-terminal network, held as columns in input edge order.

    Its fields are its topology and the columns: the budget variant all
    edges share (None if edgeless), and per edge its ChannelParams and
    budget value, as tuples. ``nodes``, ``alice`` and ``bob`` are read-only
    views of the topology's vertices, source and sink. Equality, hashing
    and repr read the fields. ``edges`` and ``edge_by_id`` build EdgeSpecs
    from the columns on each read; pickling and copying hand ``edges`` to
    the checked constructor, ``Network(nodes, alice, bob, edges)``. A Count
    budget l spends whole uses: its q_cap capacity is floor(l) x q_cap.

    The network checks first that each edge is an EdgeSpec and that alice
    and bob are distinct declared nodes, then its Topology checks the
    graph, and last the network checks that its edges share one budget variant.
    """

    __slots__ = ("topology", "budget_kind", "channels", "budgets")

    def __init__(self, nodes: tuple[NodeId, ...], alice: NodeId, bob: NodeId,
                 edges: tuple[EdgeSpec, ...]):
        edges = tuple(edges)
        for k, e in enumerate(edges):
            if not isinstance(e, EdgeSpec):
                raise ValueError(f"edge #{k} must be an EdgeSpec, got {e!r}")
        channels = [
            e.channel.eta if isinstance(e.channel, LossyOptical)
            else (e.channel.q_cap, e.channel.esq_upper)
            for e in edges
        ]
        self._fill(nodes, alice, bob, [(e.id, e.tail, e.head) for e in edges],
                   {type(e.usage) for e in edges}, channels, [e.usage.value for e in edges])

    def _fill(self, nodes, alice, bob, rows: list, kinds: set, channels: list,
              budgets: list) -> None:
        """Check the network and set its fields; each row's id and ends are already checked."""
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
        set_field(self, "topology", topology)
        set_field(self, "budget_kind", next(iter(kinds), None))
        set_field(self, "channels", tuple(channels))
        set_field(self, "budgets", tuple(budgets))

    def __reduce__(self):
        return Network, (self.nodes, self.alice, self.bob, self.edges)

    nodes = property(attrgetter("topology.vertices"))
    alice = property(attrgetter("topology.source"))
    bob = property(attrgetter("topology.sink"))

    @property
    def default_regime(self) -> Regime:
        """The regime the budget variant is read in; per-use if edgeless."""
        return Regime.PER_CHANNEL_USE if self.budget_kind is None else self.budget_kind.regime

    @property
    def edges(self) -> tuple[EdgeSpec, ...]:
        """The edges as EdgeSpecs in input order, built from the columns on each read."""
        return tuple([self._edge(k) for k in range(len(self.budgets))])

    def _edge(self, k: int) -> EdgeSpec:
        channel = self.channels[k]
        channel = CustomChannel(*channel) if type(channel) is tuple else LossyOptical(channel)
        return EdgeSpec(*self.topology.arcs[k], channel, self.budget_kind(self.budgets[k]))

    def edge_by_id(self, edge_id: str) -> EdgeSpec:
        for k, row in enumerate(self.topology.arcs):
            if row[0] == edge_id:
                return self._edge(k)
        raise KeyError(f"no edge with id {edge_id!r}")

    def _scaled(self, factor: float) -> Network:
        """This network on its own topology with every budget times factor >= 0."""
        budgets = tuple([b * factor for b in self.budgets])
        if math.inf in budgets:
            k = budgets.index(math.inf)
            raise ValueError(f"edge {self.topology.arcs[k][0]!r}: {self.budget_kind.key} "
                             f"{self.budgets[k]:.12g} scaled by {factor:.12g} "
                             "is past the float range")
        return Network._from_checked(self.topology, self.budget_kind, self.channels, budgets)


# --- JSON document format -------------------------------------------------

_FLOAT_MAX = sys.float_info.max


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
    no EdgeSpec, channel or budget object is built. An edge of the canonical
    shape is checked inline: a lossy channel with a float eta in [0, 1), or
    a custom one with float q_cap and esq_upper, a usage object with one
    budget key holding an int or float, and distinct non-empty string ends.
    Exact type tests and range tests keep out booleans, NaN, infinities and
    numbers past the float range. Any other edge, valid or not, takes the
    general route, ``pointwise._read_edge``, which gives the same values bit
    for bit; only a document with such an edge loads it.
    Raises NetworkFormatError with line/position info on malformed JSON and
    with the offending node or edge named on semantic violations.

    The cyclic garbage collector is paused while the document is decoded
    and the columns filled. Neither the decoded document nor the Network
    holds a reference cycle, so the collector's passes over that growing
    tree would free nothing; reference counting frees the document on
    return. The caller's collector state is restored on return and on
    error, and a collector the caller turned off stays off. The pause is
    process-wide: while it lasts, other threads' cyclic garbage is not
    collected either.
    """
    return _parse_paused(text, stacklevel=4)


def _parse_paused(text: str, stacklevel: int) -> Network:
    """_parse_document with the collector paused; a warning names the frame
    ``stacklevel`` up: 4 is the caller of parse_network, 6 of load_network."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse_document(text, stacklevel)
    finally:
        if enabled:
            gc.enable()


def _parse_document(text: str, stacklevel: int) -> Network:
    """The body of ``parse_network``, run with the collector paused."""
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
    budget_by_key, float_max = _BUDGET_BY_KEY, _FLOAT_MAX
    for i, eobj in enumerate(doc["edges"]):
        try:  # a missing key, a wrong container or a usage of two keys: the general route
            eid, tail, head = eobj["id"], eobj["tail"], eobj["head"]
            channel = eobj["channel"]
            (key, budget), = eobj["usage"].items()
            kind = budget_by_key[key]
            ctype = channel["type"]
            if ctype == "lossy":
                channel = channel["eta"]
                fits = type(channel) is float and 0.0 <= channel < 1.0
            else:
                channel = q_cap, esq_upper = channel["q_cap"], channel["esq_upper"]
                fits = (ctype == "custom" and type(q_cap) is float and type(esq_upper) is float
                        and 0.0 <= q_cap <= float_max and 0.0 <= esq_upper <= float_max)
        except (KeyError, TypeError, AttributeError, ValueError):
            fits = False
        if (fits and (type(budget) is float or type(budget) is int) and 0 <= budget <= float_max
                and type(eid) is str and type(tail) is str and type(head) is str
                and eid and tail and head and tail != head):
            budget = float(budget)
        else:
            from .pointwise import _read_edge

            try:
                eid, tail, head, channel, kind, budget = _read_edge(i, eobj)
            except ValueError as err:
                raise NetworkFormatError(str(err)) from err
        if type(channel) is tuple and channel[0] > channel[1]:
            warnings.warn(
                f"edge {eid!r}: q_cap={channel[0]} exceeds esq_upper="
                f"{channel[1]}; the sandwich guarantee does not apply",
                stacklevel=stacklevel,
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


def load_network(path) -> Network:
    """Read and parse a network file. IO failures surface as OSError."""
    return read_json(path, "network file", lambda text: _parse_paused(text, stacklevel=6))

