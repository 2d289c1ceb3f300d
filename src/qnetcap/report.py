"""The sandwich report: the achievable and converse cut bounds of one network, and its JSON view.

The lower bound is the q_cap-weighted minimum cut, the upper bound the
esq_upper-weighted one, both solved on the network's one topology; on
all-lossy networks the two differ by at most a factor of two. Loaded by
``bound`` and ``sweep``; building a report runs no protocol plan.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from .capacity import WeightKind, check_epsilon, epsilon_corrected_upper
from .cuts_flows import CutResult, flow_graph_from_network, min_cut
from .values import Immutable, Regime

if TYPE_CHECKING:  # annotations only
    from .netmodel import Network


def _check_regime_epsilon(regime: Regime, epsilon: float) -> float:
    """epsilon as a float; ValueError unless regime is a Regime and epsilon is
    finite, >= 0, and positive only in the per-protocol regime."""
    if not isinstance(regime, Regime):
        raise ValueError(f"regime must be a Regime, got {regime!r}")
    epsilon = check_epsilon(epsilon)
    if epsilon > 0 and regime is not Regime.PER_PROTOCOL:
        raise ValueError(
            f"epsilon={epsilon} applies only to the per-protocol regime; "
            f"regime {regime.value!r} takes epsilon to 0"
        )
    return epsilon


class SandwichReport(Immutable):
    """Achievable lower bound and converse upper bounds for one regime.

    ``lower``, ``upper_esq`` and ``upper_eps_corrected`` are derived from
    the two witness cuts and epsilon on each read. The regime and epsilon
    are checked first, by ``sandwich_report``'s rules. A witness cut whose
    value sums past the float range is an error that names its weighting,
    q_cap for the lower witness and esq_upper for the upper one, and the
    edges it crosses; the lower witness is checked first.
    """

    __slots__ = ("regime", "epsilon", "lower_witness", "upper_witness")

    def __init__(self, regime: Regime, epsilon: float, lower_witness: CutResult,
                 upper_witness: CutResult):
        epsilon = _check_regime_epsilon(regime, epsilon)
        for kind, cut in (("q_cap", lower_witness), ("esq_upper", upper_witness)):
            if cut.value == math.inf:
                raise ValueError(f"the {kind}-weighted minimum cut sums past the float range: "
                                 f"it crosses {list(cut.crossing)}")
        object.__setattr__(self, "regime", regime)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "lower_witness", lower_witness)
        object.__setattr__(self, "upper_witness", upper_witness)

    @property
    def lower(self) -> float:
        """The achievable bound: the q_cap-weighted minimum cut's value."""
        return self.lower_witness.value

    @property
    def upper_esq(self) -> float:
        """The converse bound: the esq_upper-weighted minimum cut's value."""
        return self.upper_witness.value

    @property
    def upper_eps_corrected(self) -> Optional[float]:
        """The finite-error converse bound, or None once epsilon >= 1/256 makes it vacuous."""
        return epsilon_corrected_upper(self.upper_esq, self.epsilon)


def sandwich_report(net: Network, regime: Regime, epsilon: float = 0.0) -> SandwichReport:
    """Two-sided bounds on the optimal performance under the given regime.

    The regime must be the one the network's budgets read as. The lower
    bound weights cuts by q_cap (Count budgets floored: the per-protocol
    regime spends whole uses); the upper bound weights them by esq_upper
    with un-floored budgets. Both are built on the network's topology, so
    both solves walk its one residual arc order. The finite-error
    correction applies only to the per-protocol regime; the asymptotic
    regimes take their error to zero, so a positive epsilon there is
    rejected. A minimum cut past the float range fails as SandwichReport says.
    """
    epsilon = _check_regime_epsilon(regime, epsilon)
    kind = net.budget_kind
    if kind is not None and kind.regime is not regime:
        raise ValueError(f"regime {regime.value!r} does not match the network's {kind.__name__} "
                         f"budgets, which read as regime {kind.regime.value!r}")
    lower_cut = min_cut(flow_graph_from_network(net, WeightKind.Q_CAP))
    upper_cut = min_cut(flow_graph_from_network(net, WeightKind.ESQ_UPPER))
    return SandwichReport(regime, epsilon, lower_cut, upper_cut)


def lossy_gap_ratio(report: SandwichReport) -> float:
    """Converse/achievable ratio; at most 2 on all-lossy networks."""
    if report.lower <= 0:
        raise ValueError(
            "gap ratio undefined: lower bound is zero"
            + (" while the upper bound is positive" if report.upper_esq > 0 else "")
        )
    return report.upper_esq / report.lower


# --- JSON views -------------------------------------------------------------

def cut_to_dict(cut: CutResult) -> dict:
    return {
        "value": cut.value,
        "v_a": sorted(cut.v_a),
        "crossing": list(cut.crossing),
    }


def sandwich_report_to_dict(report: SandwichReport) -> dict:
    corrected = report.upper_eps_corrected
    return {
        "regime": report.regime.value,
        "epsilon": report.epsilon,
        "lower": report.lower,
        "upper_esq": report.upper_esq,
        "upper_eps_corrected": corrected,
        "vacuous": corrected is None,
        "lower_witness": cut_to_dict(report.lower_witness),
        "upper_witness": cut_to_dict(report.upper_witness),
    }
