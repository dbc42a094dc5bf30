"""Kraus channels and the bit-flip and phase-flip error model.

A channel is a stack of Kraus operators E_l with sum_l E_l† E_l = 1; it
acts on a density matrix as rho -> sum_l E_l rho E_l†.  An ``ErrorModel``
places independent single-qubit Pauli errors (probability p) on a chosen
subset of n_f qubits, which yields 2^n_f error patterns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BITFLIP = "bitflip"
PHASEFLIP = "phaseflip"


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A finite stack of Kraus operators, shape (num_ops, dim, dim)."""

    ops: np.ndarray

    def __post_init__(self):
        ops = np.asarray(self.ops, dtype=complex)
        if ops.ndim == 2:
            ops = ops[None]
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise ValueError(f"expected a stack of square operators, got {ops.shape}")
        if ops.shape[0] == 0:
            raise ValueError("a channel needs at least one Kraus operator")
        object.__setattr__(self, "ops", ops)

    @property
    def dim(self) -> int:
        return self.ops.shape[1]

    def __len__(self) -> int:
        return self.ops.shape[0]

    def completeness_defect(self) -> float:
        """Max entrywise deviation of sum_l E_l† E_l from the identity."""
        s = np.einsum("lki,lkj->ij", self.ops.conj(), self.ops)
        return float(np.max(np.abs(s - np.eye(self.dim))))


@dataclass(frozen=True)
class ErrorModel:
    """Single-qubit Pauli errors of probability ``p`` on ``affected`` qubits."""

    kind: str
    p: float
    affected: tuple

    def __post_init__(self):
        if self.kind not in (BITFLIP, PHASEFLIP):
            raise ValueError(f"unknown error kind {self.kind!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"error probability {self.p} outside [0, 1]")
        affected = tuple(self.affected)
        object.__setattr__(self, "affected", affected)
        if len(set(affected)) != len(affected):
            raise ValueError(f"duplicate qubits in {affected}")


def qubit_mask(qubits, n: int) -> int:
    """Bit mask of ``qubits`` in an n-qubit basis index (qubit 0 = MSB)."""
    mask = 0
    for q in qubits:
        if q < 0 or q >= n:
            raise ValueError(f"affected qubit {q} outside register of size {n}")
        mask |= 1 << (n - 1 - q)
    return mask


def popcount(values: np.ndarray) -> np.ndarray:
    """Number of set bits of each non-negative integer entry: a SWAR count,
    summing bits in pairs, nibbles and then bytes, in a few passes at any width."""
    v = np.asarray(values).astype(np.uint64)
    v = v - ((v >> 1) & 0x5555555555555555)
    v = (v & 0x3333333333333333) + ((v >> 2) & 0x3333333333333333)
    v = (v + (v >> 4)) & 0x0F0F0F0F0F0F0F0F
    return ((v * 0x0101010101010101) >> 56).astype(np.int64)  # the byte sums, added in the top byte
