"""Exact density-matrix oracle for entanglement swapping and error bookkeeping.

Verifies, independently of the planner, that chaining noisy Bell pairs by
Bell measurement plus Pauli correction keeps the end-to-end trace-norm
error below the sum of the per-pair errors. The trace norm here is the
unnormalized Tr|X|; the halved "trace distance" convention is not used
anywhere in this package.

Swaps are modeled as the outcome-averaged four-projector measurement with
deterministic correction, i.e. a trace-preserving channel, so no sampling
noise enters the oracle. Werner pairs p*|Phi+><Phi+| + (1-p)*I/4 are the
canonical noisy input: they are closed under swapping with parameter
multiplication, which makes every expectation hand-checkable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .capacity import check_epsilon
from .swap import COMPARE_SLACK, _check_werner

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_TOL = -1e-10
MAX_CHAIN_LENGTH = 6

_SQRT_HALF = 1.0 / np.sqrt(2.0)
_PHI_PLUS = _SQRT_HALF * np.array([1, 0, 0, 1], dtype=complex)
_PSI_PLUS = _SQRT_HALF * np.array([0, 1, 1, 0], dtype=complex)
_PHI_MINUS = _SQRT_HALF * np.array([1, 0, 0, -1], dtype=complex)
_PSI_MINUS = _SQRT_HALF * np.array([0, 1, -1, 0], dtype=complex)
_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
# (measured Bell vector, Pauli correction restoring Phi+ on the far qubit)
_BELL_OUTCOMES = (
    (_PHI_PLUS, _I2),
    (_PSI_PLUS, _X),
    (_PHI_MINUS, _Z),
    (_PSI_MINUS, _Z @ _X),
)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated quantum state on a power-of-two dimensional space."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        dim = m.shape[0]
        if dim < 2 or dim & (dim - 1):
            raise ValueError(f"dimension must be a power of 2, got {dim}")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
            raise ValueError(f"trace must be 1, got {np.trace(m)}")
        if np.min(np.linalg.eigvalsh(m)) < EIGENVALUE_TOL:
            raise ValueError("matrix is not positive semidefinite")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def bell_pair() -> DensityMatrix:
    """The two-qubit maximally entangled state |Phi+><Phi+|."""
    return DensityMatrix(np.outer(_PHI_PLUS, _PHI_PLUS.conj()))


def werner_pair(p: float) -> DensityMatrix:
    """Noisy Bell pair p*|Phi+><Phi+| + (1-p)*I/4."""
    _check_werner(p)
    m = p * np.outer(_PHI_PLUS, _PHI_PLUS.conj()) + (1.0 - p) * np.eye(4, dtype=complex) / 4.0
    return DensityMatrix(m)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Unnormalized trace norm Tr|rho - sigma| (ranges over [0, 2])."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    eigenvalues = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return float(np.sum(np.abs(eigenvalues)))


def bell_fidelity(rho: DensityMatrix) -> float:
    """<Phi+| rho |Phi+> of a two-qubit state."""
    if rho.dim != 4:
        raise ValueError(f"bell_fidelity needs a two-qubit state, got dim {rho.dim}")
    return float(np.real(_PHI_PLUS.conj() @ rho.matrix @ _PHI_PLUS))


def _require_two_qubits(pairs: Sequence[DensityMatrix]) -> None:
    for i, rho in enumerate(pairs):
        if rho.dim != 4:
            raise ValueError(f"chain link {i} must be a two-qubit state, got dim {rho.dim}")


def _swap_segments(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Merge two 2-qubit segments sharing a middle node into one 2-qubit state.

    Joint layout (L, m1, m2, R); Bell-measure (m1, m2), apply the Pauli
    correction on R, average over outcomes, trace out the measured pair.
    """
    joint = np.kron(left, right)
    out = np.zeros((4, 4), dtype=complex)
    for ket, correction in _BELL_OUTCOMES:
        projector = np.outer(ket, ket.conj())
        kraus = np.kron(np.kron(_I2, projector), correction)
        transformed = kraus @ joint @ kraus.conj().T
        t = transformed.reshape(2, 4, 2, 2, 4, 2)
        out += np.einsum("aibcid->abcd", t).reshape(4, 4)
    return out


def swap_chain(
    pairs: Sequence[DensityMatrix], order: Optional[Sequence[int]] = None
) -> DensityMatrix:
    """End-to-end state after swapping a chain of two-qubit pairs.

    Link i joins node i to node i+1 (node 0 = Alice end). ``order`` lists
    the intermediate nodes (1..n-1) in the order they measure; the default
    is left to right. The averaged channel makes the result independent of
    that order. A single link is returned unchanged.
    """
    n = len(pairs)
    if not 1 <= n <= MAX_CHAIN_LENGTH:
        raise ValueError(f"chain length must be in 1..{MAX_CHAIN_LENGTH}, got {n}")
    _require_two_qubits(pairs)
    if n == 1:
        return pairs[0]
    if order is None:
        order = range(1, n)
    order = list(order)
    if sorted(order) != list(range(1, n)):
        raise ValueError(f"order must permute the intermediate nodes 1..{n - 1}, got {order}")

    # segments[(lo, hi)] = state of the pair held at nodes lo and hi
    segments = {(i, i + 1): np.asarray(p.matrix, dtype=complex) for i, p in enumerate(pairs)}
    for node in order:
        left_key = next(k for k in segments if k[1] == node)
        right_key = next(k for k in segments if k[0] == node)
        merged = _swap_segments(segments.pop(left_key), segments.pop(right_key))
        segments[(left_key[0], right_key[1])] = merged
    ((span, final),) = segments.items()
    assert span == (0, n)
    return DensityMatrix(final)


@dataclass(frozen=True)
class SwapVerification:
    """Outcome of one error-bookkeeping check on a swapped chain."""

    passed: bool
    distance: float
    budget: float
    per_pair_distances: tuple[float, ...]
    per_pair_eps: tuple[float, ...]
    precondition_violations: tuple[int, ...]
    final_fidelity: float


def verify_error_chain(
    pairs: Sequence[DensityMatrix], per_pair_eps: Sequence[float]
) -> SwapVerification:
    """Check that the swapped chain lands within the summed per-pair budget.

    Each pair must itself sit within its own budget of |Phi+><Phi+| (links
    that do not are reported as precondition violations, never silently
    absorbed). The check passes when the preconditions hold and the
    end-to-end trace-norm distance is at most the budget sum.
    """
    if len(per_pair_eps) != len(pairs):
        raise ValueError(
            f"need one epsilon per pair: {len(pairs)} pairs, {len(per_pair_eps)} epsilons"
        )
    per_pair_eps = tuple(check_epsilon(e) for e in per_pair_eps)
    target = bell_pair()
    per_pair = tuple(trace_distance(rho, target) for rho in pairs)
    violations = tuple(
        i for i, (d, eps) in enumerate(zip(per_pair, per_pair_eps)) if d > eps + COMPARE_SLACK
    )
    final = swap_chain(pairs)
    distance = trace_distance(final, target)
    budget = float(sum(per_pair_eps))
    passed = not violations and distance <= budget + COMPARE_SLACK
    return SwapVerification(
        passed,
        distance,
        budget,
        per_pair,
        per_pair_eps,
        violations,
        bell_fidelity(final),
    )
