import json
import os
import pathlib

import pytest

from qnetcap import EdgeSpec, Network, parse_network

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
NETWORKS_DIR = REPO_ROOT / "networks"
DATA_DIR = REPO_ROOT / "tests" / "data"
SCHEMAS_DIR = REPO_ROOT / "docs" / "schemas"


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
