"""Kraus channels and the bit-flip and phase-flip error model.

A channel is a stack of Kraus operators E_l with sum_l E_l† E_l = 1; it
acts on a density matrix as rho -> sum_l E_l rho E_l†.  An ``ErrorModel``
places independent single-qubit Pauli errors (probability p) on a chosen
subset of qubits, which yields 2^n_f error patterns (``error_subsets``).
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


def error_subsets(n: int, model: ErrorModel) -> list:
    """(mask, probability) of every error pattern that can occur.

    Patterns come in binary order of the error subset: bit b of the subset
    index set <=> qubit ``affected[b]`` hit.  ``mask`` is the hit qubits'
    ``qubit_mask``; patterns of zero probability (p = 0 or 1) are dropped.
    """
    bits = [qubit_mask((q,), n) for q in model.affected]
    n_f = len(bits)
    # the weight depends only on the number of hits
    weights = [model.p**k * (1.0 - model.p) ** (n_f - k) for k in range(n_f + 1)]
    masks = [0]
    for bit in bits:  # subsets with affected[b] hit follow those without it
        masks += [mask | bit for mask in masks]
    patterns = [(mask, weights[subset.bit_count()]) for subset, mask in enumerate(masks)]
    return [(mask, weight) for mask, weight in patterns if weight != 0.0]


def popcount(values: np.ndarray) -> np.ndarray:
    """Number of set bits of each integer entry."""
    out = np.zeros(values.shape, dtype=np.int64)
    v = values.astype(np.int64)
    while np.any(v):
        out += v & 1
        v >>= 1
    return out
