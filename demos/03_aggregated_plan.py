"""Build an executable aggregated-repeater plan for a seven-node network.

Each channel edge holds an integer number of Bell pairs
(floor(floor(l) * R) per edge), which is the capacity of its arc row in
the Bell network, an integer flow graph; the maximum flow splits into
the maximum set of edge-disjoint Alice-Bob paths through the pairs.
Paths along one chain of repeaters form a route, printed once with its
multiplicity; every path becomes one swap schedule, and the whole plan
delivers one ebit per path with a total trace-norm error of (number of
active edges) * epsilon.
"""

import pathlib

from qnetcap import (
    build_bell_network,
    load_network,
    min_cut_bruteforce,
    plan,
    plan_to_dot,
)

NETWORKS = pathlib.Path(__file__).resolve().parents[1] / "networks"


def main():
    net = load_network(NETWORKS / "fig2_analog.json")
    bell = build_bell_network(net)
    print("Bell pairs generated per edge:")
    for (edge_id, _, _), n in zip(bell.topology.arcs, bell.capacities):
        print(f"  {edge_id}: {n}")
    print(f"total: {sum(bell.capacities)} pairs")
    print()

    result = plan(net, epsilon=0.001)
    routes = result.paths.routes
    print(f"edge-disjoint paths (M): {result.m}, along {len(routes)} routes")
    for nodes, _, b in routes:
        swaps = " -> ".join(nodes[1:-1]) or "(direct, no swaps)"
        print(f"  {b} × {' - '.join(nodes):24s} swaps at: {swaps}")
    print(f"error budget: {result.counted_edges} active edges x eps = {result.error_budget}")
    print()

    cut = min_cut_bruteforce(bell)
    print(f"exhaustive check: minimum cut of the Bell network = {cut.value}")
    print(f"  witness V_A = {sorted(cut.v_a)}")
    print("The path count meets the cut exactly: no protocol on this Bell")
    print("network can beat it.")

    unused = {k: v for k, v in result.unused_pairs.items() if v}
    print(f"\nidle pairs (dashed in the DOT export): {unused}")
    out = pathlib.Path(pathlib.Path(__file__).stem + ".dot")  # in the working directory
    out.write_text(plan_to_dot(net, result))
    print(f"annotated DOT written to {out.name}")


if __name__ == "__main__":
    main()
