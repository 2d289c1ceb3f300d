"""Seeded inputs for the benchmark workloads.

Every generator takes an explicit random.Random and returns JSON text (or
plain data for swap chains), so the program under test receives only the
serialized documents and the same seed gives byte-identical inputs.
"""

from __future__ import annotations

import functools
import json
import random

# eta values whose q_cap = log2(1/(1-eta)) is exactly 1, 2 and 3, so pair
# counts and the per-protocol lower bound are exact integers.
EXACT_ETAS = (0.5, 0.75, 0.875)

# With fixed_ends, the four edges at Alice and Bob get fixed values that
# make their cut (two edges a side) the minimum one in almost every grid.
# The flow's size, and with it an operation's cost, then no longer hangs on
# four random corner values, which made operations of one size differ
# tenfold in cost from seed to seed.
END_COUNT_SHARE = 0.3  # count grids: round(0.3·cmax) uses at eta 0.75, m = 4·round(0.3·cmax) as a rule
END_ETA = 0.25  # lossy grids: a weak end, about a third of a mean edge's q_cap
END_BUDGETS = {"count": 3, "freq": 2.6, "rate": 2.6}  # the middle of each budget range

STRATA = 6  # a multiple of len(EXACT_ETAS), so each eta fills whole strata


@functools.lru_cache(maxsize=32)
def _permutations(key: str, n: int) -> bytes:
    """n shuffled copies of range(STRATA), concatenated."""
    rng = random.Random(key)
    order = list(range(STRATA))
    out = bytearray()
    for _ in range(n):
        rng.shuffle(order)
        out.extend(order)
    return bytes(out)


class Stratified:
    """Latin-hypercube draws across the operations of one configuration.

    Operations that share a configuration form blocks of STRATA. Within a
    block, each edge's value of each variable falls once into each of the
    STRATA equal-probability strata, in an order shuffled per block and
    edge. Each draw alone is still uniform on [0, 1), but a run's inputs
    cover the whole distribution instead of clumping by chance, which keeps
    the figures steady from seed to seed.
    """

    def __init__(self, rng: random.Random, block_key: str, position: int):
        self.rng = rng
        self.block_key = block_key
        self.position = position

    def __call__(self, edge: int, var: int, n_edges: int) -> float:
        perms = _permutations(f"{self.block_key}/{var}", n_edges)
        return (perms[edge * STRATA + self.position] + self.rng.random()) / STRATA


def independent(rng: random.Random):
    """Plain uniform draws, the Stratified interface without blocks."""
    return lambda edge, var, n_edges: rng.random()


def grid_doc(rng: random.Random, side: int, edge_attrs, end_attrs=None) -> dict:
    """Square grid network, Alice and Bob at opposite corners.

    Each undirected grid link becomes one edge whose direction is drawn at
    random; ``edge_attrs(j, n)`` returns the (channel, usage) objects of
    edge j of n. If ``end_attrs`` is given, the four edges at Alice and Bob
    take the fixed (channel, usage) it holds instead.
    """
    def label(r: int, c: int) -> str:
        if (r, c) == (0, 0):
            return "A"
        if (r, c) == (side - 1, side - 1):
            return "B"
        return f"n{r}_{c}"

    n_edges = 2 * side * (side - 1)
    nodes = [label(r, c) for r in range(side) for c in range(side)]
    edges = []
    for r in range(side):
        for c in range(side):
            for r2, c2 in ((r, c + 1), (r + 1, c)):
                if r2 >= side or c2 >= side:
                    continue
                u, v = label(r, c), label(r2, c2)
                if rng.random() < 0.5:
                    u, v = v, u
                channel, usage = edge_attrs(len(edges), n_edges)
                if end_attrs is not None and {"A", "B"} & {u, v}:
                    channel, usage = end_attrs
                edges.append(
                    {"id": f"e{len(edges)}", "tail": u, "head": v,
                     "channel": channel, "usage": usage}
                )
    return {"nodes": nodes, "alice": "A", "bob": "B", "edges": edges}


def count_grid_text(rng: random.Random, side: int, cmax: int, draw,
                    fixed_ends: bool = False) -> str:
    """Count-budget grid with eta in EXACT_ETAS and counts in 1..cmax.

    With ``fixed_ends`` the edges at Alice and Bob hold END_COUNT_SHARE·cmax
    uses at eta 0.75 instead.
    """
    def attrs(j, n):
        eta = EXACT_ETAS[int(draw(j, 0, n) * len(EXACT_ETAS))]
        return {"type": "lossy", "eta": eta}, {"count": 1 + int(draw(j, 1, n) * cmax)}
    ends = None
    if fixed_ends:
        ends = {"type": "lossy", "eta": 0.75}, {"count": max(1, round(END_COUNT_SHARE * cmax))}
    return json.dumps(grid_doc(rng, side, attrs, ends))


def lossy_grid_text(rng: random.Random, side: int, budget: str, draw,
                    fixed_ends: bool = False) -> str:
    """Lossy grid with eta uniform in [0.05, 0.95] and one budget variant.

    Count budgets are whole numbers so that flooring never bites and the
    factor-two theorem holds for the per-protocol lower bound as well. With
    ``fixed_ends`` the edges at Alice and Bob have eta END_ETA and the
    budget END_BUDGETS gives.
    """
    def attrs(j, n):
        eta = 0.05 + 0.9 * draw(j, 0, n)
        if budget == "count":
            usage = {"count": 1 + int(draw(j, 1, n) * 5)}
        else:
            usage = {budget: 0.2 + 4.8 * draw(j, 1, n)}
        return {"type": "lossy", "eta": eta}, usage
    ends = None
    if fixed_ends:
        ends = {"type": "lossy", "eta": END_ETA}, {budget: END_BUDGETS[budget]}
    return json.dumps(grid_doc(rng, side, attrs, ends))


def werner_chain(rng: random.Random, links: int) -> list[float]:
    """Werner parameters of a swap chain, rounded so the CLI argument is short."""
    return [round(rng.uniform(0.85, 0.999), 4) for _ in range(links)]


def malformed_text(rng: random.Random, valid_text: str) -> str:
    """A network document broken in one of several ways; `validate` must exit 1."""
    doc = json.loads(valid_text)
    kind = rng.randrange(6)
    if kind == 0:
        return valid_text[: len(valid_text) // 2]  # truncated JSON
    if kind == 1:
        doc["edges"][0]["channel"]["eta"] = 1.0  # infinite capacity
    elif kind == 2:
        doc["edges"][-1]["head"] = "nowhere"  # undeclared node
    elif kind == 3:
        doc["edges"][0]["tail"] = doc["edges"][0]["head"]  # self-loop
    elif kind == 4:
        del doc["alice"]
    else:
        doc["edges"].append(dict(doc["edges"][0]))  # duplicate edge id
    return json.dumps(doc)
