import random

from qnetcap.generators import (
    random_count_network,
    random_custom_network,
    random_lossy_network,
)


def test_generators_are_reproducible():
    for maker in (random_lossy_network, random_custom_network, random_count_network):
        assert maker(random.Random(9)) == maker(random.Random(9))


def test_generated_networks_respect_bounds():
    rng = random.Random(10)
    for _ in range(50):
        net = random_lossy_network(rng, max_nodes=6, max_edges=8, eta_range=(0.2, 0.4))
        assert len(net.nodes) <= 6
        assert 1 <= len(net.edges) <= 8
        assert all(0.2 <= e.channel.eta <= 0.4 for e in net.edges)
