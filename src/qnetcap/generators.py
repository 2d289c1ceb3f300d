"""Seeded random networks for property tests and scans; ``build_bell_network``
makes their Bell networks. Every generator takes an explicit random.Random.
"""

from __future__ import annotations

import random

from .netmodel import Network
from .values import Count, CustomChannel, EdgeSpec, Frequency, LossyOptical


def _random_network(rng: random.Random, max_nodes: int, max_edges: int, draw) -> Network:
    """A random multigraph between A and B; draw() gives each edge's (channel, budget)."""
    n_intermediate = rng.randint(0, max(0, max_nodes - 2))
    nodes = ["A", "B"] + [f"C{i + 1}" for i in range(n_intermediate)]
    edges = []
    for i in range(rng.randint(1, max_edges)):
        tail, head = rng.sample(nodes, 2)
        edges.append(EdgeSpec(f"e{i}", tail, head, *draw()))
    return Network(tuple(nodes), "A", "B", tuple(edges))


def random_lossy_network(
    rng: random.Random,
    *,
    max_nodes: int = 10,
    max_edges: int = 25,
    eta_range: tuple[float, float] = (0.05, 0.95),
    max_budget: float = 5.0,
) -> Network:
    """All-lossy random multigraph between A and B; may be disconnected."""
    return _random_network(rng, max_nodes, max_edges, lambda: (
        LossyOptical(rng.uniform(*eta_range)), Frequency(rng.uniform(0.0, max_budget))))


def random_custom_network(
    rng: random.Random,
    *,
    max_nodes: int = 10,
    max_edges: int = 25,
    max_weight: float = 4.0,
    max_budget: float = 5.0,
) -> Network:
    """Random multigraph with arbitrary (q_cap <= esq_upper) edge weights."""
    def draw():
        q = rng.uniform(0.0, max_weight)
        return CustomChannel(q, q * rng.uniform(1.0, 2.0)), Frequency(rng.uniform(0.0, max_budget))
    return _random_network(rng, max_nodes, max_edges, draw)


def random_count_network(
    rng: random.Random,
    *,
    max_nodes: int = 10,
    max_edges: int = 12,
    max_count: int = 6,
) -> Network:
    """Random lossy network with eta = 0.5 (unit q_cap) and integer counts."""
    return _random_network(rng, max_nodes, max_edges, lambda: (
        LossyOptical(0.5), Count(rng.randint(0, max_count))))

