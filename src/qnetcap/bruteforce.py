"""The brute-force minimum cut: an exhaustive oracle the solver is tested against.

It enumerates every bipartition, so it is exact and slow, and it shares
nothing with the solver in ``qnetcap.cuts_flows`` but the helper that sums
a side's crossing capacities. No CLI subcommand loads it; the tests do.
"""

from __future__ import annotations

from .cuts_flows import CutResult, FlowGraph, _side_cut
from .values import NodeId

BRUTEFORCE_MAX_VERTICES = 20


def _enumerate_min_cut(fg: FlowGraph) -> frozenset[NodeId]:
    """Alice side of the exact minimum over all 2^(|V|-2) bipartitions.

    Ties go to the smallest side, which is the inclusion-minimal minimum
    cut that min_cut prints (the residual-reachable set), then to the
    lexicographically smallest sorted label tuple.
    """
    vertices, source, sink = fg.topology.vertices, fg.topology.source, fg.topology.sink
    if len(vertices) > BRUTEFORCE_MAX_VERTICES:
        raise ValueError(
            f"brute-force enumeration capped at {BRUTEFORCE_MAX_VERTICES} vertices, "
            f"got {len(vertices)}"
        )
    intermediates = sorted(v for v in vertices if v not in (source, sink))
    sides = (
        frozenset([source, *(v for i, v in enumerate(intermediates) if mask >> i & 1)])
        for mask in range(1 << len(intermediates))
    )
    return min(sides, key=lambda side: (_side_cut(fg, side).value, len(side), sorted(side)))


def min_cut_bruteforce(fg: FlowGraph) -> CutResult:
    """Exhaustive-enumeration oracle for min_cut; exact up to 20 vertices."""
    return _side_cut(fg, _enumerate_min_cut(fg))
