"""Slow, independent reference implementations used only by the tests.

Dense Kronecker products, explicit embeddings and literal density-matrix
updates: each one is the textbook construction that a library fast path
is checked against.  Conventions follow ``qimeter.linalg`` (qubit 0 is the
most significant bit of the basis index).
"""

from __future__ import annotations

import numpy as np

from qimeter.channels import ErrorModel, KrausChannel, layered_error_channel
from qimeter.errors import SizeLimitError, ValidationError
from qimeter.linalg import MAX_DIM, MAX_QUBITS, UNITARY_ACCEPT_TOL, check_unitary

# state-level checks (trace, hermiticity) and the eigenvalue floor
STATE_TOL = 1e-9
PSD_TOL = -1e-8

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the MSB-first qubit convention.

    ``kron(a, b)[i*b.rows + k, j*b.cols + l] == a[i, j] * b[k, l]``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[0] * b.shape[0] > MAX_DIM or a.shape[1] * b.shape[1] > MAX_DIM:
        raise SizeLimitError(
            f"kron result exceeds the {MAX_DIM}-dimensional cap: "
            f"{a.shape} x {b.shape}"
        )
    return np.kron(a, b)


def embed_local(gate: np.ndarray, targets, n: int) -> np.ndarray:
    """Embed a k-qubit gate on the given wires of an n-qubit register.

    Returns the 2^n x 2^n operator acting as ``gate`` on ``targets``
    (first target = most significant gate qubit) and as identity on the
    remaining qubits.
    """
    gate = np.asarray(gate, dtype=complex)
    targets = list(targets)
    if gate.ndim != 2 or gate.shape[0] != gate.shape[1]:
        raise ValueError(f"gate must be square, got shape {gate.shape}")
    k = len(targets)
    dim = gate.shape[0]
    if dim == 0 or dim & (dim - 1):
        raise ValueError(f"gate dimension {dim} is not a power of two")
    if dim != 1 << k:
        raise ValueError(f"gate dimension {dim} does not match {k} target qubit(s)")
    if len(set(targets)) != k:
        raise ValueError(f"duplicate target qubits in {targets}")
    if any(t < 0 or t >= n for t in targets):
        raise ValueError(f"target qubits {targets} outside register of size {n}")
    if n > MAX_QUBITS:
        raise SizeLimitError(f"{n} qubits exceed the {MAX_QUBITS}-qubit cap")

    op = np.kron(gate, np.eye(1 << (n - k), dtype=complex))
    # op acts on qubit order [targets..., others...]; permute axes back to
    # the natural order 0..n-1 on both the row and column index.
    order = targets + [q for q in range(n) if q not in targets]
    perm = np.argsort(order)
    tensor = op.reshape([2] * (2 * n))
    tensor = tensor.transpose(list(perm) + [n + p for p in perm])
    return np.ascontiguousarray(tensor.reshape(1 << n, 1 << n))


def evolve_density(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Unitary update of a density matrix, rho' = U rho U†."""
    rho = np.asarray(rho, dtype=complex)
    u = np.asarray(u, dtype=complex)
    if rho.shape != u.shape:
        raise ValueError(f"dimension mismatch: rho {rho.shape}, u {u.shape}")
    if not check_unitary(u, UNITARY_ACCEPT_TOL):
        raise ValidationError("operator is not unitary within 1e-6")
    return u @ rho @ u.conj().T


def is_hermitian(m: np.ndarray, tol: float = STATE_TOL) -> bool:
    m = np.asarray(m)
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def is_density_matrix(rho: np.ndarray, tol: float = STATE_TOL) -> bool:
    """Hermitian within ``tol``, unit trace within ``tol``, eigenvalues >= -1e-8."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        return False
    if not is_hermitian(rho, tol):
        return False
    if abs(np.trace(rho).real - 1.0) > tol or abs(np.trace(rho).imag) > tol:
        return False
    return bool(np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2)) >= PSD_TOL)


def pauli_error_kraus(kind: str, p: float) -> KrausChannel:
    """Single-qubit channel {sqrt(1-p) I, sqrt(p) sigma}; zero-weight ops dropped."""
    return layered_error_channel(1, ErrorModel(kind, p, (0,)))


def apply_superoperator(p: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Apply an N^2 x N^2 propagator to a density matrix (row-major vec)."""
    dim = rho.shape[0]
    return (p @ rho.reshape(-1)).reshape(dim, dim)
