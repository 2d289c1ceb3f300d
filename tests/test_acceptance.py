"""Acceptance suite: one test per headline criterion, with its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. Expected values marked as derived are computed here from
independent oracles (high-precision arithmetic, exhaustive enumeration,
exact 16-dimensional algebra), never from the code paths under test.
"""

import contextlib
import random
import time

import mpmath as mp

from qnetcap import (
    Regime,
    build_bell_network,
    epsilon_corrected_upper,
    lossy_esq_upper,
    lossy_gap_ratio,
    lossy_q_cap,
    max_disjoint_paths,
    min_cut,
    min_cut_bruteforce,
    plan,
    sandwich_report,
)
from qnetcap.generators import random_count_network, random_lossy_network
from qnetcap.qsim_oracle import (
    bell_fidelity,
    bell_pair,
    swap_chain,
    trace_distance,
    verify_error_chain,
    werner_pair,
)

from conftest import bell_shapes


@contextlib.contextmanager
def criterion(number: int, description: str, runtime_limit=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - start
    suffix = ""
    if runtime_limit is not None:
        assert elapsed < runtime_limit, f"runtime {elapsed:.2f}s exceeds {runtime_limit}s"
        suffix = f" [{elapsed:.2f}s < {runtime_limit}s]"
    print(f"PASS criterion {number}: {description}{suffix}")


def seeded_lossy_networks(count=500):
    rng = random.Random(8821)
    return [
        random_lossy_network(rng, max_nodes=10, max_edges=25, eta_range=(0.05, 0.95))
        for _ in range(count)
    ]


def test_criterion_1_formula_fidelity():
    with criterion(1, "lossy formulas match high-precision evaluation", runtime_limit=1.0):
        assert abs(lossy_q_cap(0.5) - 1.0) <= 1e-12
        mp.mp.dps = 50
        log2 = lambda x: mp.log(x) / mp.log(2)
        assert abs(lossy_esq_upper(0.5) - float(log2(3))) <= 1e-12
        for i in range(1, 100):
            eta = i / 100
            exact_q = float(log2(1 / (1 - mp.mpf(i) / 100)))
            exact_esq = float(log2((1 + mp.mpf(i) / 100) / (1 - mp.mpf(i) / 100)))
            assert abs(lossy_q_cap(eta) - exact_q) <= 1e-12 * abs(exact_q)
            assert abs(lossy_esq_upper(eta) - exact_esq) <= 1e-12 * abs(exact_esq)


def test_criterion_2_factor_two_theorem():
    with criterion(2, "factor-2 sandwich on 500 random lossy networks", runtime_limit=30.0):
        for net in seeded_lossy_networks():
            report = sandwich_report(net, Regime.PER_CHANNEL_USE)
            assert report.lower <= report.upper_esq + 1e-9
            assert report.upper_esq <= 2.0 * report.lower + 1e-9


def test_criterion_3_menger_equality():
    with criterion(3, "Menger equality on 200 random Bell multigraphs", runtime_limit=10.0):
        rng = random.Random(7741)
        shapes = set()
        for _ in range(200):
            bell = build_bell_network(random_count_network(rng, max_nodes=10, max_edges=20))
            brute = min_cut_bruteforce(bell)
            assert len(max_disjoint_paths(bell)) == brute.value
            assert min_cut(bell).v_a == brute.v_a
            shapes |= bell_shapes(bell)
        assert shapes == {"parallel", "zero"}


def test_criterion_4_sandwich_and_epsilon_correction():
    with criterion(4, "sandwich order plus closed-form epsilon correction at 1e-4"):
        for net in seeded_lossy_networks():
            report = sandwich_report(net, Regime.PER_CHANNEL_USE)
            assert report.lower <= report.upper_esq + 1e-9
            corrected = epsilon_corrected_upper(report.upper_esq, 1e-4)
            expected = (report.upper_esq + 0.565763) / 0.84
            assert abs(corrected - expected) <= 1e-5


def test_criterion_5_diamond_worked_example(diamond_net):
    with criterion(5, "diamond example lower/upper/ratio", runtime_limit=1.0):
        report = sandwich_report(diamond_net, Regime.PER_CHANNEL_USE)
        assert abs(report.lower - 3.321928) <= 1e-4
        assert abs(report.upper_esq - 4.754888) <= 1e-4
        assert abs(lossy_gap_ratio(report) - 1.4314) <= 1e-4


def test_criterion_6_swap_oracle():
    with criterion(6, "swap oracle: Werner swap, perfect chains, closure grid",
                   runtime_limit=10.0):
        out = swap_chain([werner_pair(0.9), werner_pair(0.9)])
        assert abs(bell_fidelity(out) - 0.8575) <= 1e-9
        distance = trace_distance(out, bell_pair())
        assert abs(distance - 0.285) <= 1e-9
        assert distance <= 0.30
        assert verify_error_chain([werner_pair(0.9)] * 2, [0.15, 0.15]).passed

        for length in range(1, 7):
            perfect = swap_chain([bell_pair()] * length)
            assert bell_fidelity(perfect) >= 1.0 - 1e-12

        grid = [0.7, 0.775, 0.85, 0.925, 1.0]
        for p1 in grid:
            for p2 in grid:
                swapped = swap_chain([werner_pair(p1), werner_pair(p2)])
                assert trace_distance(swapped, werner_pair(p1 * p2)) <= 1e-10


def test_criterion_7_vacuity_threshold():
    with criterion(7, "corrected bound vacuous exactly at eps >= 1/256", runtime_limit=1.0):
        threshold = 1.0 / 256.0
        below = [0.0, 1e-12, 1e-6, threshold / 2, threshold - 1e-12]
        above = [threshold, threshold + 1e-12, 0.01, 0.1, 1.0]
        for eps in below:
            value = epsilon_corrected_upper(1.0, eps)
            assert value is not None and value >= 1.0
        for eps in above:
            assert epsilon_corrected_upper(1.0, eps) is None


def test_criterion_8_fig2_analog(fig2_net):
    with criterion(8, "7-node analog: plan.m equals brute-force cut, interior witness"):
        result = plan(fig2_net, 0.001)
        bell = build_bell_network(fig2_net)
        brute = min_cut_bruteforce(bell)
        assert result.m == brute.value
        assert min_cut(bell).v_a == brute.v_a
        witness = set(brute.v_a)
        print(f"  witness cut v_a = {sorted(witness)} with {brute.value} crossing pairs")
        nodes = set(fig2_net.nodes)
        assert witness < nodes  # strict subset
        assert fig2_net.alice in witness
        intermediates = nodes - {fig2_net.alice, fig2_net.bob}
        assert len(witness & intermediates) >= 1
