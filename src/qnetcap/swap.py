"""The Werner closure: a swapped chain of Werner pairs and its error budget, in closed form.

Loaded by ``simulate-swap`` and by the density-matrix referee,
``qnetcap.qsim_oracle``, which shares its parameter check and comparison
slack.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .capacity import check_epsilon
from .values import _sum_in_order

COMPARE_SLACK = 1e-12  # absorbs float dust in budget comparisons


def _check_werner(p: float) -> None:
    """ValueError unless p is a real number in [0, 1], a Werner parameter.

    The closure and the density-matrix referee both check their input here,
    so a bad parameter raises the same error in either.
    """
    if not isinstance(p, (int, float)) or isinstance(p, bool):
        raise ValueError(f"Werner parameter must be a real number, got {p!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"Werner parameter must be in [0, 1], got {p}")


def werner_chain_report(
    chain: Sequence[float], per_pair_eps: Optional[Sequence[float]] = None
) -> dict:
    """Swap a chain of Werner pairs p*|Phi+><Phi+| + (1-p)*I/4 end to end.

    The outcome-averaged swap maps Werner pairs to one with p' = prod(p_i)
    (Dür, Briegel, Cirac and Zoller, PRA 59, 169 (1999)), at trace norm
    1.5*(1 - p') from |Phi+><Phi+| and fidelity (1 + 3p')/4. Verdicts follow
    qsim_oracle.verify_error_chain, the density-matrix referee: a link beyond
    its own epsilon (default: its own distance) is a precondition violation,
    and the chain passes with none and within the summed budget.
    """
    if not chain:
        raise ValueError("a swap chain needs at least one link")
    for p in chain:
        _check_werner(p)
    distances = [1.5 * (1.0 - p) for p in chain]
    if per_pair_eps is None:
        per_pair_eps = distances
    if len(per_pair_eps) != len(chain):
        raise ValueError(
            f"need one epsilon per pair: {len(chain)} pairs, {len(per_pair_eps)} epsilons"
        )
    per_pair_eps = [check_epsilon(e) for e in per_pair_eps]
    violations = [
        i for i, (d, eps) in enumerate(zip(distances, per_pair_eps)) if d > eps + COMPARE_SLACK
    ]
    final_p = math.prod(chain)
    distance = 1.5 * (1.0 - final_p)
    budget = _sum_in_order(per_pair_eps)
    return {
        "chain": [abs(p) for p in chain],  # p is in [0, 1]: abs only turns -0.0 into +0.0
        "final_fidelity": (1.0 + 3.0 * final_p) / 4.0,
        "trace_distance": distance,
        "budget": budget,
        "pass": not violations and distance <= budget + COMPARE_SLACK,
        "per_pair_distances": distances,
        "per_pair_eps": per_pair_eps,
        "precondition_violations": violations,
    }
