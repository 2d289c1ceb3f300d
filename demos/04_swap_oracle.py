"""Exact density-matrix check of swap chains and their error bookkeeping.

A chain of noisy Bell pairs is fused end to end by Bell measurements with
Pauli corrections. The oracle computes the exact final two-qubit state and
confirms the planner's accounting: the end-to-end trace-norm error never
exceeds the sum of the per-pair errors.
"""

from qnetcap.qsim_oracle import (
    bell_fidelity,
    bell_pair,
    swap_chain,
    trace_distance,
    verify_error_chain,
    werner_pair,
)


def main():
    print("Werner pairs p*|Phi+><Phi+| + (1-p)*I/4 are closed under swapping:")
    print("  chain of p's       exact fidelity   closure prediction (3*prod(p)+1)/4")
    for chain in ([0.9, 0.9], [0.9, 0.9, 0.9], [0.95, 0.9, 0.85, 0.8]):
        out = swap_chain([werner_pair(p) for p in chain])
        product = 1.0
        for p in chain:
            product *= p
        predicted = (3 * product + 1) / 4
        print(f"  {str(chain):20s} {bell_fidelity(out):.6f}         {predicted:.6f}")
    print()

    print("Error bookkeeping (unnormalized trace norm):")
    for chain, eps in (([0.9, 0.9], 0.15), ([0.9, 0.9, 0.9], 0.15)):
        verdict = verify_error_chain([werner_pair(p) for p in chain], [eps] * len(chain))
        print(
            f"  {len(chain)} pairs at eps={eps}: distance {verdict.distance:.4f}"
            f" <= budget {verdict.budget:.2f} -> {'pass' if verdict.passed else 'FAIL'}"
        )
    print()

    print("Swap order does not matter for the averaged channel:")
    pairs = [werner_pair(p) for p in (0.9, 0.8, 0.7)]
    left_first = swap_chain(pairs, order=[1, 2])
    right_first = swap_chain(pairs, order=[2, 1])
    print(f"  max deviation between orders: {trace_distance(left_first, right_first):.2e}")
    print()

    perfect = swap_chain([bell_pair()] * 6)
    print(f"six perfect links swap to fidelity {bell_fidelity(perfect):.15f}")


if __name__ == "__main__":
    main()
