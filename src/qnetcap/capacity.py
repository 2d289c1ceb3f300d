"""Per-edge weight columns and the finite-error correction of the converse bound.

Two weight functions are attached to every edge: the two-way assisted
capacity (achievable, the lower-bound weight) and the squashed-entanglement
upper bound (converse weight). For a pure-loss optical channel of
transmittance eta these have the closed forms

    q_cap(eta)      = log2(1 / (1 - eta))          [ebits per mode]
    esq_upper(eta)  = log2((1 + eta) / (1 - eta))  [ebits per mode]

so esq_upper <= 2 * q_cap for every eta: the converse weight never exceeds
twice the achievable weight on lossy edges.

All logarithms are base 2 (units of ebits / secret bits) and one channel
use means one optical mode. ``weight_column`` weighs a channel column at
once: a network's ``channels``, or the etas of an eta sweep's grid, whose
points are entries of the swept edge's column. The one-edge references it
agrees with bit for bit, ``edge_weight`` and ``edge_capacity``, are in
``qnetcap.pointwise``.

A trace-norm error budget epsilon is a plain float, checked once by
``check_epsilon`` wherever it enters, with ``values._require_finite``, the
one real-number check, as the cut value of ``epsilon_corrected_upper`` is.
The finite-error correction of a cut value is a float, or None once eps >=
1/256, where the corrected bound constrains nothing.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Optional, Sequence

from .values import ChannelParams, _require_finite


class WeightKind(Enum):
    """Selects which per-edge weight enters a cut value."""

    Q_CAP = "qcap"
    ESQ_UPPER = "esq"


def check_epsilon(epsilon: float) -> float:
    """A trace-norm error budget as a float; ValueError unless finite and >= 0.

    Either zero comes back as +0.0, so a -0 never reaches the output.
    """
    return _require_finite("epsilon", epsilon, nonnegative=True) + 0.0  # -0.0 + 0.0 is +0.0


def binary_entropy(x: float) -> float:
    """Binary entropy in bits; the limits at 0 and 1 are defined as 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy is defined on [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def weight_column(channels: Sequence[ChannelParams], kind: WeightKind) -> list[float]:
    """The per-use weight of each channel column entry, in order: an eta's closed
    form, or a custom channel's own; pointwise.edge_weight of each channel's edge."""
    log2 = math.log2
    if kind is WeightKind.Q_CAP:
        return [c[0] if type(c) is tuple else log2(1.0 / (1.0 - c)) for c in channels]
    if kind is WeightKind.ESQ_UPPER:
        return [c[1] if type(c) is tuple else log2((1.0 + c) / (1.0 - c)) for c in channels]
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
