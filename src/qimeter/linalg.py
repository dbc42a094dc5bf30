"""Dense complex linear algebra for multi-qubit operators and states.

Conventions shared by every module in this package:

* Qubit 0 is the *most significant* bit of the computational-basis index,
  so ``np.kron(a, b)`` puts ``a`` on the higher-order qubits.
* Operators are dense square ``complex128`` arrays, states are 1-d
  amplitude arrays, density matrices are Hermitian unit-trace arrays.
* Dense dimensions are capped at ``MAX_DIM`` (12 qubits per register
  system); everything here is meant for the dense regime only.
"""

from __future__ import annotations

import numpy as np

MAX_QUBITS = 12
MAX_DIM = 1 << MAX_QUBITS

# threshold at which user-supplied unitaries are accepted
UNITARY_ACCEPT_TOL = 1e-6

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def check_unitary(u: np.ndarray, tol: float) -> bool:
    """True iff ``max |U†U - 1|`` entrywise is at most ``tol``."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    defect = u.conj().T @ u - np.eye(u.shape[0])
    return bool(np.max(np.abs(defect)) <= tol)


def basis_state(dim: int, index: int = 0) -> np.ndarray:
    psi = np.zeros(dim, dtype=complex)
    psi[index] = 1.0
    return psi
