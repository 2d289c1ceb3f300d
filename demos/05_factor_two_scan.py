"""Scan the converse/achievable gap over random lossy networks.

On networks built purely from lossy optical channels, the upper bound can
never exceed twice the aggregated-repeater lower bound, whatever the
topology. This scan exercises that on a few hundred seeded random
multigraphs and reports the worst gap seen.
"""

import random

from qnetcap import Regime, lossy_gap_ratio, sandwich_report
from qnetcap.generators import random_lossy_network

SEED = 1601


def main():
    rng = random.Random(SEED)
    worst = 0.0
    worst_net = None
    checked = 0
    for _ in range(400):
        net = random_lossy_network(rng, max_nodes=10, max_edges=25)
        report = sandwich_report(net, Regime.PER_CHANNEL_USE)
        if report.lower <= 0:
            continue  # disconnected draw: both bounds are zero
        checked += 1
        ratio = lossy_gap_ratio(report)
        if ratio > worst:
            worst, worst_net = ratio, net
    print(f"checked {checked} connected random lossy networks (seed {SEED})")
    print(f"worst converse/achievable ratio: {worst:.6f}  (theory caps it at 2)")
    if worst_net is not None:
        etas = sorted(e.channel.eta for e in worst_net.edges)
        print(f"worst case had {len(worst_net.nodes)} nodes, {len(worst_net.edges)} edges,")
        print(f"eta range [{etas[0]:.3f}, {etas[-1]:.3f}]")
    print()
    print("High-loss edges dominate the worst cases: esq_upper/q_cap -> 2 as")
    print("eta -> 0, so a bottleneck cut made of weak links approaches the cap.")


if __name__ == "__main__":
    main()
