import json
import os
import pathlib
import random

import pytest

from qnetcap import Count, EdgeSpec, Frequency, LossyOptical, Network, Rate, parse_network

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
NETWORKS_DIR = REPO_ROOT / "networks"
DATA_DIR = REPO_ROOT / "tests" / "data"
SCHEMAS_DIR = REPO_ROOT / "docs" / "schemas"

BUDGETS = {"count": Count, "freq": Frequency, "rate": Rate}
EXACT_ETAS = (0.5, 0.75, 0.875)  # q_cap 1, 2 and 3: whole pair counts


def load_sample(name: str):
    return parse_network((NETWORKS_DIR / name).read_text())


def load_schema(name: str):
    return json.loads((SCHEMAS_DIR / name).read_text())


def edge_with(edge: EdgeSpec, *, channel=None, usage=None) -> EdgeSpec:
    """A copy of edge with its channel or its usage budget replaced."""
    return EdgeSpec(
        edge.id, edge.tail, edge.head,
        edge.channel if channel is None else channel,
        edge.usage if usage is None else usage,
    )


def network_with(net: Network, edges) -> Network:
    """A copy of net over the given edges."""
    return Network(net.nodes, net.alice, net.bob, tuple(edges))


def grid_network(rng: random.Random, side: int, budget: str, *, max_count: int = 6) -> Network:
    """A side x side grid built from EdgeSpecs, Alice and Bob at opposite corners.

    Each grid link becomes one edge of random direction. Count grids draw
    an eta of EXACT_ETAS and a count in 1..max_count per edge. Labels read
    n<row>_<col>, so from side 11 on n10_0 sorts before n2_0 and label
    order differs from declaration order.
    """
    def label(r, c):
        return {(0, 0): "A", (side - 1, side - 1): "B"}.get((r, c), f"n{r}_{c}")

    nodes = [label(r, c) for r in range(side) for c in range(side)]
    edges = []
    for r in range(side):
        for c in range(side):
            for r2, c2 in ((r, c + 1), (r + 1, c)):
                if r2 < side and c2 < side:
                    u, v = label(r, c), label(r2, c2)
                    if rng.random() < 0.5:
                        u, v = v, u
                    if budget == "count":
                        channel = LossyOptical(rng.choice(EXACT_ETAS))
                        usage = Count(rng.randint(1, max_count))
                    else:
                        channel = LossyOptical(rng.uniform(0.05, 0.95))
                        usage = BUDGETS[budget](rng.uniform(0.2, 5.0))
                    edges.append(EdgeSpec(f"e{len(edges)}", u, v, channel, usage))
    return Network(nodes, "A", "B", edges)


def bell_shapes(bell) -> set:
    """'parallel' if two channels of bell join one node pair, 'zero' if one holds no pair."""
    pairs = [frozenset((u, v)) for _, u, v in bell.topology.arcs]
    return ({"parallel"} if len(set(pairs)) < len(pairs) else set()) | (
        {"zero"} if 0 in bell.capacities else set())


def src_env() -> dict:
    """Environment for a child interpreter that imports qnetcap from src/."""
    src = str(REPO_ROOT / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}


@pytest.fixture
def diamond_net():
    return load_sample("diamond.json")


@pytest.fixture
def triangle_net():
    return load_sample("triangle_counts.json")


@pytest.fixture
def single_edge_net():
    return load_sample("single_edge.json")


@pytest.fixture
def fig2_net():
    return load_sample("fig2_analog.json")
