"""Parametrized gates and circuits.

Every circuit is built from three gate kinds: the perturbed Hadamard (the
one dense gate, always on a single qubit), diagonal phases (oracle, zero
reflection, QFT controlled phases) and basis permutations (modular
exponentiation, bit reversal).  Gates are stored symbolically; diagonal and
permutation gates are applied in O(N) per column instead of through a
dense matrix.  ``circuit_unitary`` and ``circuit_apply`` share one gate
application kernel, so they agree by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SizeLimitError
from .linalg import MAX_QUBITS, UNITARY_ACCEPT_TOL


def perturbed_hadamard(theta: float) -> np.ndarray:
    """The one-parameter Hadamard family [[cos t, sin t], [sin t, -cos t]].

    theta = pi/4 is the standard Hadamard, theta = 0 gives sigma_z and
    theta = pi/2 gives sigma_x.
    """
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


@dataclass(frozen=True)
class PerturbedHadamard:
    theta: float
    target: int

    @property
    def targets(self):
        return (self.target,)


@dataclass(frozen=True, eq=False)
class PermutationGate:
    """Maps local basis state |k> to |table[k]> on the target qubits."""

    table: np.ndarray
    targets: tuple

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.int64)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "targets", tuple(self.targets))
        if table.shape != (1 << len(self.targets),):
            raise ValueError(
                f"permutation table of length {table.size} does not match "
                f"{len(self.targets)} target qubit(s)"
            )
        if not np.array_equal(np.sort(table), np.arange(table.size)):
            raise ValueError("permutation table is not a bijection")


@dataclass(frozen=True, eq=False)
class DiagonalPhaseGate:
    """Multiplies local basis state |k> of the target qubits by phases[k]."""

    phases: np.ndarray
    targets: tuple

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=complex)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "targets", tuple(self.targets))
        if phases.shape != (1 << len(self.targets),):
            raise ValueError(
                f"phase table of length {phases.size} does not match "
                f"{len(self.targets)} target qubit(s)"
            )
        if np.max(np.abs(np.abs(phases) - 1.0)) > UNITARY_ACCEPT_TOL:
            raise ValueError("diagonal phase entries must have unit modulus")


@dataclass(frozen=True, eq=False)
class Circuit:
    """An ordered gate list on ``n`` qubits (qubit 0 = most significant bit)."""

    n: int
    ops: tuple

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        if self.n < 1:
            raise ValueError("circuit needs at least one qubit")
        if self.n > MAX_QUBITS:
            raise SizeLimitError(f"{self.n} qubits exceed the {MAX_QUBITS}-qubit cap")
        for op in self.ops:
            if any(t < 0 or t >= self.n for t in op.targets):
                raise ValueError(f"gate targets {op.targets} outside 0..{self.n - 1}")
            if len(set(op.targets)) != len(op.targets):
                raise ValueError(f"duplicate targets in {op!r}")


def angle_list(values: Sequence[float] | None, count: int, default: float, label: str) -> list:
    """``values`` as a list of ``count`` angles (``default`` everywhere when
    None); any other length is a ``ValueError`` naming ``label``."""
    values = [default] * count if values is None else list(values)
    if len(values) != count:
        raise ValueError(f"expected {count} {label}, got {len(values)}")
    return values


def walsh_layer(thetas: Sequence[float]) -> Circuit:
    """One perturbed Hadamard per qubit, in ascending qubit order."""
    thetas = list(thetas)
    if not thetas:
        raise ValueError("walsh_layer needs at least one angle")
    return Circuit(len(thetas), tuple(PerturbedHadamard(t, q) for q, t in enumerate(thetas)))


def qft_circuit(
    m: int,
    phase_perturbations: Sequence[float] | None = None,
    hadamard_thetas: Sequence[float] | None = None,
) -> Circuit:
    """Standard QFT circuit on ``m`` qubits, with optional perturbations.

    Gate order: for each qubit j = 0..m-1, one Hadamard on j followed by
    the controlled phase diag(1, 1, 1, exp(i(pi/2^d + delta))) on qubits
    (j+d, j) for d = 1..m-1-j; a final qubit-reversal permutation makes the
    circuit unitary equal to F[j, k] = exp(2*pi*i*j*k / 2^m) / sqrt(2^m).

    ``phase_perturbations`` supplies one additive delta per two-qubit gate,
    consumed in the (j, d) order above; its length must be m*(m-1)/2.
    ``hadamard_thetas`` (length m, default pi/4 everywhere) perturbs the
    Hadamards in the same j order.
    """
    if m < 1:
        raise ValueError("QFT needs at least one qubit")
    n_phases = m * (m - 1) // 2
    phase_perturbations = angle_list(
        phase_perturbations, n_phases, 0.0, f"phase perturbations for m={m}"
    )
    hadamard_thetas = angle_list(hadamard_thetas, m, math.pi / 4, "Hadamard angles")

    ops = []
    deltas = iter(phase_perturbations)
    for j in range(m):
        ops.append(PerturbedHadamard(hadamard_thetas[j], j))
        for d in range(1, m - j):
            phase = np.exp(1j * (math.pi / 2**d + next(deltas)))
            ops.append(DiagonalPhaseGate([1, 1, 1, phase], (j + d, j)))
    rev = np.zeros(1 << m, dtype=np.int64)
    for k in range(1 << m):
        rev[k] = int(format(k, f"0{m}b")[::-1], 2)
    ops.append(PermutationGate(rev, tuple(range(m))))
    return Circuit(m, tuple(ops))


# ---------------------------------------------------------------------------
# gate application kernel


def _local_index(idx, targets, n):
    k = len(targets)
    loc = np.zeros_like(idx)
    for b, t in enumerate(targets):
        loc |= ((idx >> (n - 1 - t)) & 1) << (k - 1 - b)
    return loc


def _apply_dense(matrix, q, arr):
    # arr has shape (2^n, M); contract the 2x2 gate into qubit q's axis
    t = arr.reshape(1 << q, 2, -1)
    return np.einsum("ab,xby->xay", matrix, t).reshape(arr.shape)


def _apply_gate(gate, arr, n):
    if isinstance(gate, PerturbedHadamard):
        return _apply_dense(perturbed_hadamard(gate.theta), gate.target, arr)
    idx = np.arange(arr.shape[0])
    if isinstance(gate, DiagonalPhaseGate):
        factor = gate.phases[_local_index(idx, gate.targets, n)]
        return arr * factor[:, None]
    if isinstance(gate, PermutationGate):
        k = len(gate.targets)
        new_loc = gate.table[_local_index(idx, gate.targets, n)]
        dest = idx.copy()
        for b, t in enumerate(gate.targets):
            bit = (new_loc >> (k - 1 - b)) & 1
            dest = (dest & ~(1 << (n - 1 - t))) | (bit << (n - 1 - t))
        out = np.empty_like(arr)
        out[dest] = arr
        return out
    raise TypeError(f"unknown gate {gate!r}")


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Dense unitary of the circuit (later gates multiply from the left)."""
    u = np.eye(1 << c.n, dtype=complex)
    for gate in c.ops:
        u = _apply_gate(gate, u, c.n)
    return u


def circuit_apply(c: Circuit, psi: np.ndarray) -> np.ndarray:
    """Apply the circuit to a state vector without building the big matrix."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (1 << c.n,):
        raise ValueError(f"state of dimension {psi.shape} does not match n={c.n}")
    arr = psi.reshape(-1, 1)
    for gate in c.ops:
        arr = _apply_gate(gate, arr, c.n)
    return arr.reshape(-1)
