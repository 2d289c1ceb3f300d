"""Write tests/data/bad_networks.json: invalid network documents and the error each gets.

Run from the repository root:

    PYTHONPATH=src python3 tests/make_bad_networks.py

Each entry is {"name", "document", "message"}: the document is the text
handed to parse_network, and the message is str() of the NetworkFormatError
it raises. tests/test_bad_networks.py holds parse_network and `qnetcap
validate` to these messages, so a rewrite of the parser must reproduce them
exactly. The documents are:

- texts that are not JSON, or not a JSON object;
- single-fault mutants of networks/diamond.json, one or more per `raise`
  a document can reach;
- two bad edges, every ordered pair of EDGE_FAULTS on e2 and e4, which pin
  which of the two is reported;
- every pair of the composable single faults in PAIRED, except a node-label
  fault paired with an alice or bob fault: which of those two is reported
  first is not part of the format.

Regenerate it only when an error message is meant to change.
"""

from __future__ import annotations

import copy
import itertools
import json
import pathlib
import sys

from qnetcap import NetworkFormatError, parse_network

ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT = ROOT / "tests" / "data" / "bad_networks.json"
BASE = json.loads((ROOT / "networks" / "diamond.json").read_text())
HUGE = 10**400  # past the float range
TOO_LONG = "1" + "0" * 5000  # past the interpreter's integer digit limit

NOT_AN_OBJECT = {
    "empty": "",
    "syntax-trailing-comma": '{"nodes": ["A", "B",]}',
    "syntax-truncated": '{"nodes": [',
    "syntax-missing-colon": '{"nodes" ["A"]}',
    "syntax-bare-word": "nul",
    "deep-nesting": "[" * 10**5,
    "integer-too-long": json.dumps(BASE).replace('{"freq": 1.0}', '{"freq": %s}' % TOO_LONG, 1),
    "top-level-list": "[]",
    "top-level-string": '"diamond"',
    "top-level-null": "null",
}


def _set(path, value):
    """A fault that sets doc[path[0]][path[1]]... to value."""
    def mutate(doc):
        *parents, key = path
        for step in parents:
            doc = doc[step]
        doc[key] = value
    return mutate


def _delete(path):
    def mutate(doc):
        *parents, key = path
        for step in parents:
            doc = doc[step]
        del doc[key]
    return mutate


def _append(key, value):
    def mutate(doc):
        doc[key].append(value)
    return mutate


def _edge(k, *path, value):
    return _set(("edges", k, *path), value)


SINGLE_FAULTS = {
    # document shape
    "missing-nodes": _delete(("nodes",)),
    "missing-alice": _delete(("alice",)),
    "missing-bob": _delete(("bob",)),
    "missing-edges": _delete(("edges",)),
    "nodes-not-a-list": _set(("nodes",), "A"),
    "nodes-an-object": _set(("nodes",), {"A": 1}),
    "edges-not-a-list": _set(("edges",), {}),
    # edge shape
    "edge-not-an-object": _set(("edges", 1), "e2"),
    "edge-id-missing": _delete(("edges", 1, "id")),
    "edge-id-empty": _edge(1, "id", value=""),
    "edge-id-int": _edge(1, "id", value=7),
    "edge-missing-tail": _delete(("edges", 1, "tail")),
    "edge-missing-head": _delete(("edges", 1, "head")),
    "edge-missing-channel": _delete(("edges", 1, "channel")),
    "edge-missing-usage": _delete(("edges", 1, "usage")),
    # channel
    "channel-not-an-object": _edge(1, "channel", value="lossy"),
    "channel-without-type": _edge(1, "channel", value={"eta": 0.5}),
    "channel-type-unknown": _edge(1, "channel", "type", value="depolarizing"),
    "channel-type-int": _edge(1, "channel", "type", value=7),
    "lossy-without-eta": _delete(("edges", 1, "channel", "eta")),
    "eta-string": _edge(1, "channel", "eta", value="0.5"),
    "eta-bool": _edge(1, "channel", "eta", value=True),
    "eta-null": _edge(1, "channel", "eta", value=None),
    "eta-list": _edge(1, "channel", "eta", value=[0.5]),
    "eta-nan": _edge(1, "channel", "eta", value=float("nan")),
    "eta-infinity": _edge(1, "channel", "eta", value=float("inf")),
    "eta-minus-infinity": _edge(1, "channel", "eta", value=float("-inf")),
    "eta-huge-integer": _edge(1, "channel", "eta", value=HUGE),
    "eta-one": _edge(1, "channel", "eta", value=1.0),
    "eta-int-one": _edge(1, "channel", "eta", value=1),
    "eta-negative": _edge(1, "channel", "eta", value=-0.1),
    "custom-without-esq-upper": _edge(1, "channel", value={"type": "custom", "q_cap": 1.0}),
    "custom-without-q-cap": _edge(1, "channel", value={"type": "custom", "esq_upper": 1.0}),
    "q-cap-string": _edge(1, "channel", value={"type": "custom", "q_cap": "1", "esq_upper": 2}),
    "q-cap-nan": _edge(1, "channel",
                       value={"type": "custom", "q_cap": float("nan"), "esq_upper": 2}),
    "q-cap-nan-beside-float": _edge(1, "channel", value={"type": "custom",
                                                         "q_cap": float("nan"), "esq_upper": 2.0}),
    "q-cap-infinity": _edge(1, "channel",
                            value={"type": "custom", "q_cap": float("inf"), "esq_upper": 2.0}),
    "q-cap-minus-infinity": _edge(1, "channel", value={"type": "custom",
                                                       "q_cap": float("-inf"), "esq_upper": 2.0}),
    "q-cap-huge-integer": _edge(1, "channel",
                                value={"type": "custom", "q_cap": HUGE, "esq_upper": 2}),
    "q-cap-negative": _edge(1, "channel", value={"type": "custom", "q_cap": -1, "esq_upper": 2}),
    "esq-upper-bool": _edge(1, "channel",
                            value={"type": "custom", "q_cap": 1, "esq_upper": False}),
    "esq-upper-infinity": _edge(1, "channel",
                                value={"type": "custom", "q_cap": 1, "esq_upper": float("inf")}),
    "esq-upper-infinity-beside-float": _edge(1, "channel", value={
        "type": "custom", "q_cap": 1.0, "esq_upper": float("inf")}),
    "esq-upper-nan": _edge(1, "channel",
                           value={"type": "custom", "q_cap": 1.0, "esq_upper": float("nan")}),
    "esq-upper-minus-infinity": _edge(1, "channel", value={"type": "custom", "q_cap": 1.0,
                                                           "esq_upper": float("-inf")}),
    "esq-upper-negative": _edge(1, "channel",
                                value={"type": "custom", "q_cap": 0, "esq_upper": -0.5}),
    # usage
    "usage-not-an-object": _edge(1, "usage", value=1.0),
    "usage-empty": _edge(1, "usage", value={}),
    "usage-unknown-key": _edge(1, "usage", value={"uses": 1.0}),
    "usage-two-keys": _edge(1, "usage", value={"freq": 1.0, "rate": 1.0}),
    "usage-count-and-freq": _edge(1, "usage", value={"count": 1, "freq": 1.0}),
    "freq-string": _edge(1, "usage", "freq", value="1"),
    "freq-bool": _edge(1, "usage", "freq", value=True),
    "freq-nan": _edge(1, "usage", "freq", value=float("nan")),
    "freq-infinity": _edge(1, "usage", "freq", value=float("inf")),
    "freq-minus-infinity": _edge(1, "usage", "freq", value=float("-inf")),
    "freq-negative": _edge(1, "usage", "freq", value=-1),
    "freq-huge-integer": _edge(1, "usage", "freq", value=HUGE),
    "count-huge-integer": _edge(1, "usage", value={"count": HUGE}),
    "count-integer-past-float": _edge(1, "usage", value={"count": 10**309}),
    "count-true": _edge(1, "usage", value={"count": True}),
    "count-nan": _edge(1, "usage", value={"count": float("nan")}),
    "count-infinity": _edge(1, "usage", value={"count": float("inf")}),
    "count-negative": _edge(1, "usage", value={"count": -3}),
    "count-minus-infinity": _edge(1, "usage", value={"count": float("-inf")}),
    "rate-null": _edge(1, "usage", value={"rate": None}),
    "rate-nan": _edge(1, "usage", value={"rate": float("nan")}),
    "rate-infinity": _edge(1, "usage", value={"rate": float("inf")}),
    "rate-minus-infinity": _edge(1, "usage", value={"rate": float("-inf")}),
    "rate-negative": _edge(1, "usage", value={"rate": -0.25}),
    # endpoints
    "tail-int": _edge(1, "tail", value=7),
    "tail-empty": _edge(1, "tail", value=""),
    "tail-list": _edge(1, "tail", value=["C1"]),
    "head-null": _edge(1, "head", value=None),
    "head-empty": _edge(1, "head", value=""),
    "self-loop": _edge(1, "head", value="C1"),
    "tail-undeclared": _edge(1, "tail", value="Z"),
    "head-undeclared": _edge(1, "head", value="Z"),
    "edge-id-duplicate": _edge(2, "id", value="e1"),
    # nodes and terminals
    "node-label-int": _append("nodes", 7),
    "node-label-empty": _append("nodes", ""),
    "node-label-null": _append("nodes", None),
    "node-label-list": _append("nodes", ["C1"]),
    "node-label-duplicate": _append("nodes", "C1"),
    "alice-int": _set(("alice",), 7),
    "alice-empty": _set(("alice",), ""),
    "alice-list": _set(("alice",), ["A"]),
    "alice-undeclared": _set(("alice",), "Z"),
    "bob-null": _set(("bob",), None),
    "bob-undeclared": _set(("bob",), "Y"),
    "alice-is-bob": _set(("alice",), "B"),
    "mixed-budget-variants": _edge(3, "usage", value={"count": 1}),
}

# one fault per kind of bad edge, applied to e2 (index 1) or e4 (index 3)
EDGE_FAULTS = {
    "eta-two": lambda k: _edge(k, "channel", "eta", value=2.0),
    "no-tail": lambda k: _delete(("edges", k, "tail")),
    "self-loop": lambda k: _edge(k, "head", value=BASE["edges"][k]["tail"]),
    "unknown-channel": lambda k: _edge(k, "channel", "type", value=f"kind{k}"),
    "negative-freq": lambda k: _edge(k, "usage", "freq", value=-k),
    "head-undeclared": lambda k: _edge(k, "head", value=f"Z{k}"),
    "id-duplicate": lambda k: _edge(k, "id", value=BASE["edges"][k - 1]["id"]),
}

# faults on distinct fields, so any two of them combine into a two-fault document
PAIRED = {
    "node-label-int": _append("nodes", 7),
    "node-label-empty": _append("nodes", ""),
    "node-label-duplicate": _append("nodes", "C2"),
    "alice-undeclared": _set(("alice",), "Z"),
    "bob-int": _set(("bob",), 7),
    "e1-eta-nan": _edge(0, "channel", "eta", value=float("nan")),
    "e1-freq-negative": _edge(0, "usage", "freq", value=-1),
    "e1-tail-undeclared": _edge(0, "tail", value="Y"),
    "e2-tail-int": _edge(1, "tail", value=7),
    "e2-channel-unknown": _edge(1, "channel", "type", value="depolarizing"),
    "e2-usage-two-keys": _edge(1, "usage", value={"freq": 1.0, "rate": 1.0}),
    "e3-self-loop": _edge(2, "head", value="A"),
    "e3-id-duplicate": _edge(2, "id", value="e1"),
    "e3-custom-without-esq-upper": _edge(2, "channel", value={"type": "custom", "q_cap": 1}),
    "e4-head-undeclared": _edge(3, "head", value="Z"),
    "e4-count-budget": _edge(3, "usage", value={"count": 1}),
    "e4-missing-channel": _delete(("edges", 3, "channel")),
    "edge-not-an-object": _append("edges", 5),
}
NODE_LABEL_FAULTS = {"node-label-int", "node-label-empty", "node-label-duplicate"}
TERMINAL_FAULTS = {"alice-undeclared", "bob-int"}


def mutant(*faults) -> str:
    doc = copy.deepcopy(BASE)
    for fault in faults:
        fault(doc)
    return json.dumps(doc)


def documents():
    """(name, text) of every document in the corpus, in corpus order."""
    yield from NOT_AN_OBJECT.items()
    for name, fault in SINGLE_FAULTS.items():
        yield name, mutant(fault)
    for (first, f1), (second, f2) in itertools.product(EDGE_FAULTS.items(), repeat=2):
        yield f"e2-{first}+e4-{second}", mutant(f1(1), f2(3))
    for (first, f1), (second, f2) in itertools.combinations(PAIRED.items(), 2):
        pair = {first, second}
        if pair & NODE_LABEL_FAULTS and pair & TERMINAL_FAULTS:
            continue
        yield f"{first}+{second}", mutant(f1, f2)


def main() -> int:
    entries = []
    for name, text in documents():
        try:
            parse_network(text)
        except NetworkFormatError as err:
            entries.append({"name": name, "document": text, "message": str(err)})
        else:
            print(f"{name}: parses, but every corpus document must be invalid", file=sys.stderr)
            return 1
    OUT.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} documents to {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
