import itertools
import random

import numpy as np
import pytest

from qnetcap import werner_chain_report
from qnetcap.qsim_oracle import (
    DensityMatrix,
    bell_fidelity,
    bell_pair,
    swap_chain,
    trace_distance,
    verify_error_chain,
    werner_pair,
)


def test_werner_extremes():
    pure = werner_pair(1.0)
    assert trace_distance(pure, bell_pair()) == pytest.approx(0.0, abs=1e-12)
    mixed = werner_pair(0.0)
    assert np.allclose(mixed.matrix, np.eye(4) / 4)


def test_werner_eigenvalues():
    eigenvalues = np.sort(np.linalg.eigvalsh(werner_pair(0.9).matrix))
    assert eigenvalues == pytest.approx([0.025, 0.025, 0.025, 0.925], abs=1e-12)


def test_werner_domain():
    with pytest.raises(ValueError):
        werner_pair(-0.1)
    with pytest.raises(ValueError):
        werner_pair(1.1)


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="square"):
        DensityMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="power of 2"):
        DensityMatrix(np.eye(3) / 3)
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2))
    with pytest.raises(ValueError, match="positive"):
        DensityMatrix(np.diag([1.5, -0.5]))


def test_density_matrix_is_read_only():
    rho = bell_pair()
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 5.0


def test_trace_distance_identical_states():
    w = werner_pair(0.7)
    assert trace_distance(w, w) == 0.0


def test_trace_distance_werner_vs_bell():
    # eigenvalue sum |-(3/4)(1-p)| + 3*(1/4)(1-p) = 3(1-p)/2
    assert trace_distance(werner_pair(0.9), bell_pair()) == pytest.approx(0.15, abs=1e-10)


def test_trace_distance_orthogonal_pure_states_is_two():
    zero = np.zeros((4, 4), dtype=complex)
    zero[0, 0] = 1.0
    three = np.zeros((4, 4), dtype=complex)
    three[3, 3] = 1.0
    assert trace_distance(DensityMatrix(zero), DensityMatrix(three)) == pytest.approx(2.0)


def test_trace_distance_dimension_mismatch():
    single = DensityMatrix(np.eye(2) / 2)
    with pytest.raises(ValueError, match="mismatch"):
        trace_distance(single, bell_pair())


def test_swap_two_perfect_pairs():
    out = swap_chain([bell_pair(), bell_pair()])
    assert bell_fidelity(out) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(out, bell_pair()) == pytest.approx(0.0, abs=1e-12)


def test_swap_two_werner_pairs():
    out = swap_chain([werner_pair(0.9), werner_pair(0.9)])
    assert bell_fidelity(out) == pytest.approx(0.8575, abs=1e-12)
    assert trace_distance(out, werner_pair(0.81)) == pytest.approx(0.0, abs=1e-12)


def test_swap_three_werner_pairs():
    out = swap_chain([werner_pair(0.9)] * 3)
    assert trace_distance(out, werner_pair(0.729)) == pytest.approx(0.0, abs=1e-12)


def test_swap_single_link_is_identity():
    w = werner_pair(0.42)
    assert swap_chain([w]) is w


def test_swap_chain_length_cap():
    with pytest.raises(ValueError, match="1..6"):
        swap_chain([bell_pair()] * 7)
    with pytest.raises(ValueError, match="1..6"):
        swap_chain([])


def test_swap_chain_rejects_non_two_qubit_links():
    single = DensityMatrix(np.eye(2) / 2)
    with pytest.raises(ValueError, match="two-qubit"):
        swap_chain([bell_pair(), single])


def test_swap_chain_order_must_be_a_permutation():
    pairs = [werner_pair(0.9)] * 3
    with pytest.raises(ValueError, match="permute"):
        swap_chain(pairs, order=[1, 1])


def test_swap_order_independence():
    rng = random.Random(7)
    for n in (3, 4):
        pairs = [werner_pair(rng.uniform(0.6, 1.0)) for _ in range(n)]
        reference = swap_chain(pairs)
        for order in itertools.permutations(range(1, n)):
            out = swap_chain(pairs, order=order)
            assert np.max(np.abs(out.matrix - reference.matrix)) < 1e-10


def test_werner_closure_on_grid():
    grid = [0.7, 0.775, 0.85, 0.925, 1.0]
    for p1 in grid:
        for p2 in grid:
            out = swap_chain([werner_pair(p1), werner_pair(p2)])
            assert trace_distance(out, werner_pair(p1 * p2)) < 1e-10


def test_swap_output_is_a_valid_density_matrix():
    # DensityMatrix construction enforces the invariants; re-check explicitly
    out = swap_chain([werner_pair(0.8), werner_pair(0.6), werner_pair(0.95)])
    m = out.matrix
    assert np.max(np.abs(m - m.conj().T)) < 1e-12
    assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
    assert np.min(np.linalg.eigvalsh(m)) > -1e-10


def test_data_processing_monotonicity():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(2, 3)
        chain_a = [werner_pair(rng.uniform(0.5, 1.0)) for _ in range(n)]
        chain_b = [werner_pair(rng.uniform(0.5, 1.0)) for _ in range(n)]
        product_a = chain_a[0].matrix
        product_b = chain_b[0].matrix
        for rho_a, rho_b in zip(chain_a[1:], chain_b[1:]):
            product_a = np.kron(product_a, rho_a.matrix)
            product_b = np.kron(product_b, rho_b.matrix)
        joint_distance = float(np.sum(np.abs(np.linalg.eigvalsh(product_a - product_b))))
        swapped_distance = trace_distance(swap_chain(chain_a), swap_chain(chain_b))
        assert swapped_distance <= joint_distance + 1e-9


def test_verify_error_chain_two_werner():
    verdict = verify_error_chain([werner_pair(0.9)] * 2, [0.15, 0.15])
    assert verdict.passed
    assert verdict.distance == pytest.approx(0.285, abs=1e-10)
    assert verdict.budget == pytest.approx(0.30)
    assert verdict.precondition_violations == ()


def test_verify_error_chain_perfect_pairs_zero_budget():
    verdict = verify_error_chain([bell_pair()] * 3, [0.0, 0.0, 0.0])
    assert verdict.passed
    assert verdict.distance == pytest.approx(0.0, abs=1e-12)


def test_verify_error_chain_three_werner():
    verdict = verify_error_chain([werner_pair(0.9)] * 3, [0.15] * 3)
    assert verdict.passed
    assert verdict.distance == pytest.approx(0.4065, abs=1e-10)
    assert verdict.budget == pytest.approx(0.45)


def test_verify_error_chain_reports_precondition_violations():
    verdict = verify_error_chain([werner_pair(0.9)] * 2, [0.10, 0.15])
    assert not verdict.passed
    assert verdict.precondition_violations == (0,)
    assert verdict.per_pair_distances[0] == pytest.approx(0.15, abs=1e-10)


def test_verify_error_chain_length_mismatch():
    with pytest.raises(ValueError, match="one epsilon per pair"):
        verify_error_chain([werner_pair(0.9)], [0.1, 0.1])


def test_subadditivity_across_werner_grid():
    for p in (0.7, 0.8, 0.9, 1.0):
        for length in (2, 3, 4):
            eps = 3 * (1 - p) / 2
            verdict = verify_error_chain([werner_pair(p)] * length, [eps] * length)
            assert verdict.passed, (p, length, verdict)


def werner_chain(rng: random.Random, links: int) -> list[float]:
    """Werner parameters in [0, 1], with the end points 0 and 1 drawn often."""
    return [rng.choice((0.0, 1.0)) if rng.random() < 0.2 else rng.random() for _ in range(links)]


def test_werner_closure_matches_the_oracle():
    rng = random.Random(1999)
    for _ in range(400):
        chain = werner_chain(rng, rng.randint(1, 6))
        pairs = [werner_pair(p) for p in chain]
        own = [trace_distance(rho, bell_pair()) for rho in pairs]
        budgets = (
            None,  # each pair's own distance, as simulate-swap defaults to
            [rng.uniform(0.0, 0.5)] * len(chain),
            [rng.uniform(0.0, 1.5) for _ in chain],
            [1.5 * (1.0 - p) for p in chain],  # every link on its budget's edge
        )
        for eps in budgets:
            report = werner_chain_report(chain, eps)
            verdict = verify_error_chain(pairs, own if eps is None else eps)
            assert report["pass"] is verdict.passed, (chain, eps)
            assert report["precondition_violations"] == list(verdict.precondition_violations)
            assert report["chain"] == chain
            for key, want in (
                ("final_fidelity", verdict.final_fidelity),
                ("trace_distance", verdict.distance),
                ("budget", verdict.budget),
                ("per_pair_distances", list(verdict.per_pair_distances)),
                ("per_pair_eps", list(verdict.per_pair_eps)),
            ):
                assert report[key] == pytest.approx(want, rel=0, abs=1e-12), (key, chain, eps)


def test_werner_closure_shares_the_oracle_input_checks():
    for bad in (-0.1, 1.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="Werner parameter must be in") as closure:
            werner_chain_report([0.9, bad])
        with pytest.raises(ValueError) as oracle:
            werner_pair(bad)
        assert str(closure.value) == str(oracle.value)
    for bad in (True, False, "0.9", None, 1j):
        with pytest.raises(ValueError) as closure:
            werner_chain_report([0.9, bad])
        with pytest.raises(ValueError) as oracle:
            werner_pair(bad)
        assert str(closure.value) == str(oracle.value) == (
            f"Werner parameter must be a real number, got {bad!r}")
    for eps in ([0.1], [0.1, float("nan")], [0.1, -0.1]):
        with pytest.raises(ValueError) as closure:
            werner_chain_report([0.9, 0.9], eps)
        with pytest.raises(ValueError) as oracle:
            verify_error_chain([werner_pair(0.9)] * 2, eps)
        assert str(closure.value) == str(oracle.value)


def test_werner_closure_keeps_integer_parameters():
    # an int parameter is a real number and comes back as given
    report = werner_chain_report([1, 0])
    assert [(p, type(p)) for p in report["chain"]] == [(1, int), (0, int)]
    assert report["final_fidelity"] == 0.25
