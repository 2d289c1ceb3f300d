import math

import pytest

from qnetcap import (
    Count,
    CustomChannel,
    EdgeSpec,
    LossyOptical,
    Regime,
    WeightKind,
    binary_entropy,
    check_epsilon,
    edge_weight,
    epsilon_corrected_upper,
    lossy_esq_upper,
    lossy_q_cap,
    plan,
    sandwich_report,
    werner_chain_report,
)
from qnetcap.qsim_oracle import verify_error_chain, werner_pair

from conftest import load_sample

# frozen from 50-digit evaluation of the defining formulas (see test_acceptance)
H_POINT_TWO = 0.72192809488736234787
Q_ETA_09 = 3.3219280948873623479
ESQ_ETA_05 = 1.5849625007211561815
ESQ_ETA_09 = 4.2479275134435854938
CORRECTED_ONE_1E4 = 1.8640025835324792626

ETA_GRID = [i / 1000 for i in range(0, 1000)]


def test_binary_entropy_endpoints_and_max():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_binary_entropy_value():
    assert binary_entropy(0.2) == pytest.approx(H_POINT_TWO, abs=1e-9)


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


def test_binary_entropy_symmetry_and_concavity():
    xs = [i / 100 for i in range(101)]
    for x in xs:
        assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), abs=1e-12)
    # midpoint concavity on a 3-point test
    for x, y in [(0.1, 0.4), (0.05, 0.9), (0.3, 0.35)]:
        mid = binary_entropy((x + y) / 2)
        assert mid >= (binary_entropy(x) + binary_entropy(y)) / 2 - 1e-12


def test_lossy_q_cap_values():
    assert lossy_q_cap(0.0) == 0.0
    assert lossy_q_cap(0.5) == pytest.approx(1.0, abs=1e-12)
    assert lossy_q_cap(0.9) == pytest.approx(Q_ETA_09, abs=1e-9)


def test_lossy_esq_upper_values():
    assert lossy_esq_upper(0.0) == 0.0
    assert lossy_esq_upper(0.5) == pytest.approx(ESQ_ETA_05, abs=1e-9)
    assert lossy_esq_upper(0.9) == pytest.approx(ESQ_ETA_09, abs=1e-9)


def test_lossy_formulas_domain():
    for fn in (lossy_q_cap, lossy_esq_upper):
        with pytest.raises(ValueError):
            fn(-0.01)
        with pytest.raises(ValueError):
            fn(1.0)


def test_lossy_formulas_strictly_increase():
    for fn in (lossy_q_cap, lossy_esq_upper):
        values = [fn(eta) for eta in ETA_GRID]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_esq_dominates_q_cap_but_at_most_twice():
    for eta in ETA_GRID:
        q = lossy_q_cap(eta)
        esq = lossy_esq_upper(eta)
        assert q <= esq
        assert esq <= 2 * q + 1e-12


def test_edge_weight_dispatch():
    lossy = EdgeSpec("e", "A", "B", LossyOptical(0.5), Count(1))
    assert edge_weight(lossy, WeightKind.Q_CAP) == pytest.approx(1.0)
    assert edge_weight(lossy, WeightKind.ESQ_UPPER) == pytest.approx(ESQ_ETA_05)
    custom = EdgeSpec("e", "A", "B", CustomChannel(1.2, 1.7), Count(1))
    assert edge_weight(custom, WeightKind.Q_CAP) == 1.2
    assert edge_weight(custom, WeightKind.ESQ_UPPER) == 1.7
    dead = EdgeSpec("e", "A", "B", LossyOptical(0.0), Count(1))
    assert edge_weight(dead, WeightKind.Q_CAP) == 0.0
    assert edge_weight(dead, WeightKind.ESQ_UPPER) == 0.0


@pytest.mark.parametrize("channel", [LossyOptical(0.5), CustomChannel(1.2, 1.7)],
                         ids=["lossy", "custom"])
@pytest.mark.parametrize("kind", ["qcap", "esq", None])
def test_edge_weight_rejects_a_kind_that_is_not_a_weight_kind(channel, kind):
    # a kind that is not a WeightKind must not be read as either weight
    edge = EdgeSpec("e", "A", "B", channel, Count(1))
    with pytest.raises(ValueError) as err:
        edge_weight(edge, kind)
    assert str(err.value) == f"kind must be a WeightKind, got {kind!r}"


def test_corrected_upper_is_identity_at_zero_error():
    for c in (0.0, 1.0, 3.321928, 100.0):
        assert epsilon_corrected_upper(c, 0.0) == c


def test_corrected_upper_value():
    got = epsilon_corrected_upper(1.0, 1e-4)
    assert got == pytest.approx(CORRECTED_ONE_1E4, abs=1e-9)


def test_corrected_upper_vacuous_for_large_epsilon():
    assert epsilon_corrected_upper(1.0, 0.01) is None


def test_vacuity_threshold_is_exact():
    # 16*sqrt(1/256) = 1 exactly in binary floating point
    assert epsilon_corrected_upper(1.0, 1.0 / 256.0) is None
    below = 1.0 / 256.0 - 1e-12
    assert epsilon_corrected_upper(1.0, below) is not None


def test_corrected_upper_only_loosens_and_tightens_toward_zero():
    cut = 2.5
    grid = [1e-3, 1e-5, 1e-8, 1e-12, 1e-16, 1e-20]
    previous = math.inf
    for eps in grid:
        value = epsilon_corrected_upper(cut, eps)
        assert value is not None
        assert value >= cut
        assert value <= previous
        previous = value
    assert previous == pytest.approx(cut, rel=1e-6)


def test_epsilon_budget_flag():
    assert epsilon_corrected_upper(1.0, 1.0 / 256.0) is None
    assert epsilon_corrected_upper(1.0, 0.5) is None
    assert epsilon_corrected_upper(1.0, 1.0 / 256.0 - 1e-12) is not None
    assert epsilon_corrected_upper(1.0, 0.0) is not None
    with pytest.raises(ValueError):
        check_epsilon(-1e-9)


def test_check_epsilon_returns_a_float():
    assert check_epsilon(0) == 0.0 and type(check_epsilon(0)) is float
    assert math.copysign(1.0, check_epsilon(-0.0)) == 1.0  # either zero comes back as +0.0
    assert check_epsilon(1e-3) == 1e-3


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "epsilon must be a real number, got True"),
        ("0.1", "epsilon must be a real number, got '0.1'"),
        (math.inf, "epsilon must be finite and >= 0, got inf"),
        (math.nan, "epsilon must be finite and >= 0, got nan"),
        (-0.5, "epsilon must be finite and >= 0, got -0.5"),
        (10**400, "epsilon must be finite and >= 0, got an integer of 1329 bits"),
        (-(10**400), "epsilon must be finite and >= 0, got an integer of 1329 bits"),
    ],
    ids=["bool", "str", "inf", "nan", "negative", "huge-int", "huge-negative-int"],
)
def test_check_epsilon_rejects_with_a_message(value, message):
    with pytest.raises(ValueError) as err:
        check_epsilon(value)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "call",
    [
        lambda: plan(load_sample("fig2_analog.json"), 10**400),
        lambda: sandwich_report(load_sample("triangle_counts.json"), Regime.PER_PROTOCOL,
                                10**400),
        lambda: epsilon_corrected_upper(1.0, 10**400),
        lambda: werner_chain_report([0.9], [10**400]),
        lambda: verify_error_chain([werner_pair(0.9)], [10**400]),
    ],
    ids=["plan", "sandwich_report", "epsilon_corrected_upper", "werner_chain_report",
         "verify_error_chain"],
)
def test_epsilon_past_the_float_range_is_a_value_error(call):
    with pytest.raises(ValueError, match="^epsilon must be finite and >= 0, got an integer"):
        call()


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "cut value must be a real number, got True"),
        ("1.0", "cut value must be a real number, got '1.0'"),
        (10**400, "cut value must be finite and >= 0, got an integer of 1329 bits"),
        (-0.5, "cut value must be finite and >= 0, got -0.5"),
        (math.inf, "cut value must be finite and >= 0, got inf"),
        (math.nan, "cut value must be finite and >= 0, got nan"),
    ],
    ids=["bool", "str", "huge-int", "negative", "inf", "nan"],
)
def test_corrected_upper_rejects_a_bad_cut_value(value, message):
    for epsilon in (0.0, 1e-4, 0.01):
        with pytest.raises(ValueError) as err:
            epsilon_corrected_upper(value, epsilon)
        assert str(err.value) == message


def test_corrected_upper_takes_an_integer_cut_value():
    assert epsilon_corrected_upper(3, 0.0) == 3.0
    assert epsilon_corrected_upper(3, 1e-4) == epsilon_corrected_upper(3.0, 1e-4)
