"""Per-edge weight formulas and the finite-error correction of the converse bound.

Two weight functions are attached to every edge: the two-way assisted
capacity (achievable, the lower-bound weight) and the squashed-entanglement
upper bound (converse weight). For a pure-loss optical channel of
transmittance eta these have the closed forms

    q_cap(eta)      = log2(1 / (1 - eta))          [ebits per mode]
    esq_upper(eta)  = log2((1 + eta) / (1 - eta))  [ebits per mode]

so esq_upper <= 2 * q_cap for every eta: the converse weight never exceeds
twice the achievable weight on lossy edges.

All logarithms are base 2 (units of ebits / secret bits) and one channel
use means one optical mode. ``edge_weight`` gives one edge's weight and
``edge_capacity`` its cut weight, budget times weight; ``weight_column``
gives every edge's weight of a network at once, read from its channel
column, and agrees with ``edge_weight`` bit for bit.

A trace-norm error budget epsilon is a plain float, checked once by
``check_epsilon`` wherever it enters, with ``values._require_finite``, the
one real-number check, as the cut value of ``epsilon_corrected_upper`` is.
The finite-error correction of a cut value is a float, or None once eps >=
1/256, where the corrected bound constrains nothing.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence

from .values import Count, CustomChannel, EdgeSpec, LossyOptical, _require_finite, _sum_in_order

if TYPE_CHECKING:  # annotations only: a Werner chain needs no network model
    from .netmodel import Network


class WeightKind(Enum):
    """Selects which per-edge weight enters a cut value."""

    Q_CAP = "qcap"
    ESQ_UPPER = "esq"


COMPARE_SLACK = 1e-12  # absorbs float dust in budget comparisons


def check_epsilon(epsilon: float) -> float:
    """A trace-norm error budget as a float; ValueError unless finite and >= 0.

    Either zero comes back as +0.0, so a -0 never reaches the output.
    """
    return _require_finite("epsilon", epsilon, nonnegative=True) + 0.0  # -0.0 + 0.0 is +0.0


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


def binary_entropy(x: float) -> float:
    """Binary entropy in bits; the limits at 0 and 1 are defined as 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy is defined on [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def lossy_q_cap(eta: float) -> float:
    """Two-way assisted capacity of a pure-loss channel, ebits per mode."""
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must be in [0, 1), got {eta}")
    return math.log2(1.0 / (1.0 - eta))


def lossy_esq_upper(eta: float) -> float:
    """Squashed-entanglement upper bound of a pure-loss channel, ebits per mode."""
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must be in [0, 1), got {eta}")
    return math.log2((1.0 + eta) / (1.0 - eta))


def edge_weight(edge: EdgeSpec, kind: WeightKind) -> float:
    """Per-use weight of an edge under the selected weight function, a WeightKind."""
    channel = edge.channel
    if isinstance(channel, LossyOptical):
        if kind is WeightKind.Q_CAP:
            return lossy_q_cap(channel.eta)
        if kind is WeightKind.ESQ_UPPER:
            return lossy_esq_upper(channel.eta)
    elif isinstance(channel, CustomChannel):
        if kind is WeightKind.Q_CAP:
            return channel.q_cap
        if kind is WeightKind.ESQ_UPPER:
            return channel.esq_upper
    else:
        raise ValueError(f"unknown channel spec {channel!r}")
    raise ValueError(f"kind must be a WeightKind, got {kind!r}")


def edge_capacity(edge: EdgeSpec, kind: WeightKind) -> float:
    """Cut weight of one edge: budget l x per-use weight, but floor(l) x q_cap for
    the q_cap capacity of a Count budget, which a protocol spends in whole uses."""
    budget = edge.usage.value
    if kind is WeightKind.Q_CAP and isinstance(edge.usage, Count):
        budget = float(math.floor(budget))
    return budget * edge_weight(edge, kind)


def weight_column(net: Network, kind: WeightKind) -> list[float]:
    """edge_weight(e, kind) of every edge e of net, in edge order."""
    log2 = math.log2
    if kind is WeightKind.Q_CAP:
        return [c[0] if type(c) is tuple else log2(1.0 / (1.0 - c)) for c in net.channels]
    if kind is WeightKind.ESQ_UPPER:
        return [c[1] if type(c) is tuple else log2((1.0 + c) / (1.0 - c)) for c in net.channels]
    raise ValueError(f"kind must be a WeightKind, got {kind!r}")


def epsilon_corrected_upper(cut_value: float, epsilon: float) -> Optional[float]:
    """Loosen a cut value into the finite-error upper bound.

    Returns (cut_value + 4*h(2*sqrt(eps))) / (1 - 16*sqrt(eps)), or None
    once 16*sqrt(eps) >= 1 (eps >= 1/256): past that threshold the
    prefactor changes sign, so no finite number is a faithful answer and
    the bound is vacuous. At eps = 0 the bare cut value is returned unchanged.
    """
    cut_value = _require_finite("cut value", cut_value, nonnegative=True)
    root = math.sqrt(check_epsilon(epsilon))
    # 16 * sqrt(eps) >= 1  <=>  eps >= 1/256, both sides exact in binary floats
    if 16.0 * root >= 1.0:
        return None
    return (cut_value + 4.0 * binary_entropy(2.0 * root)) / (1.0 - 16.0 * root)
