"""Slow, independent reference implementations used only by the tests.

Dense Kronecker products, explicit embeddings and literal density-matrix
updates: each one is the textbook construction that a library fast path
is checked against.  Conventions follow ``qimeter.linalg`` (qubit 0 is the
most significant bit of the basis index).
"""

from __future__ import annotations

import numpy as np

from qimeter.channels import ErrorModel, KrausChannel, error_subsets, layered_error_channel
from qimeter.errors import SizeLimitError, ValidationError
from qimeter.interference import PauliNoiseKernel
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


def wht_last_unblocked(a: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis, one stage over all rows
    at a time, in place on a copy."""
    dtype = complex if np.iscomplexobj(a) else float
    a = np.array(a, dtype=dtype, copy=True)
    shape = a.shape
    n = shape[-1]
    rows = a.reshape(-1, n)
    h = 1
    while h < n:
        view = rows.reshape(rows.shape[0], n // (2 * h), 2, h)
        top = view[:, :, 0, :] + view[:, :, 1, :]
        view[:, :, 1, :] = view[:, :, 0, :] - view[:, :, 1, :]
        view[:, :, 0, :] = top
        h *= 2
    return rows.reshape(shape)


def pauli_noise_kernel_unblocked(u: np.ndarray) -> PauliNoiseKernel:
    """``pauli_noise_kernel`` built on ``wht_last_unblocked``."""
    u = np.asarray(u, dtype=complex)
    dim = u.shape[0]
    a = np.abs(u) ** 2
    fa = wht_last_unblocked(a)
    fa2 = np.sum(fa * fa, axis=0)
    autocorr = wht_last_unblocked(fa2) / dim
    fb = wht_last_unblocked(u)
    cc = wht_last_unblocked(np.abs(fb) ** 2) / dim
    q = wht_last_unblocked(np.sum(cc * cc, axis=0))
    return PauliNoiseKernel(
        dim=dim, sum_a2=float(np.sum(a * a)), fa2=fa2, autocorr=autocorr, q=q
    )


def phaseflip_mixture(u_full: np.ndarray, model: ErrorModel) -> np.ndarray:
    """Phase-flip output distribution summed column by column of U_full."""
    dim = u_full.shape[0]
    probs = np.zeros(dim)
    for column, weight in error_subsets(dim.bit_length() - 1, model):
        probs += weight * np.abs(u_full[:, column]) ** 2
    return probs
