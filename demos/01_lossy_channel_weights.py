"""Per-edge weights of lossy optical channels, and the finite-error correction.

Every edge gets two weights: the achievable two-way assisted rate q_cap and
the converse weight esq_upper. For pure-loss channels the converse weight
never exceeds twice the achievable one, which is what pins all the
factor-two results downstream.
"""

from qnetcap import (
    binary_entropy,
    epsilon_corrected_upper,
    lossy_esq_upper,
    lossy_q_cap,
)


def main():
    print("transmittance eta | q_cap (ebits/mode) | esq_upper | ratio")
    print("-" * 62)
    for eta in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        q = lossy_q_cap(eta)
        esq = lossy_esq_upper(eta)
        print(f"       {eta:4.2f}       |  {q:12.6f}     | {esq:9.6f} | {esq / q:.4f}")
    print()
    print("The ratio approaches 2 in the high-loss limit (eta -> 0) and 1 as")
    print("eta -> 1; it never exceeds 2.")
    print()

    print("Finite-error correction of a cut value C = 1.0:")
    for eps in (0.0, 1e-6, 1e-4, 1e-3, 1.0 / 256.0, 0.01):
        bound = epsilon_corrected_upper(1.0, eps)
        shown = "vacuous (no constraint)" if bound is None else f"{bound:.6f}"
        print(f"  eps = {eps:<10.2e} -> {shown}")
    print()
    print("The bound collapses exactly at eps = 1/256, where the prefactor")
    print("1/(1 - 16*sqrt(eps)) changes sign. Below it, the additive term is")
    print(f"4*h(2*sqrt(eps)); e.g. h(0.02) = {binary_entropy(0.02):.9f}.")


if __name__ == "__main__":
    main()
