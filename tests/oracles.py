"""Slow, independent reference implementations used only by the tests.

Dense Kronecker products, explicit embeddings, literal density-matrix
updates, the gate-by-gate circuit unitary, the explicit Kraus route for
decoherence, the per-item loop of an alpha-averaged Grover point and the
uniform-angle Grover measures to 50 digits: each one is the textbook
construction that a library fast path is checked against.
Conventions follow ``qimeter.linalg`` (qubit 0 is the most significant bit
of the basis index).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import mpmath
import numpy as np

from qimeter.algorithms import AlgorithmUnitaries, GroverSpec, build_grover, representative_rows
from qimeter.channels import (
    BITFLIP,
    ErrorModel,
    KrausChannel,
    popcount,
    qubit_mask,
)
from qimeter.errors import SizeLimitError, ValidationError
from qimeter.gates import (
    Circuit,
    DiagonalPhaseGate,
    PermutationGate,
    PerturbedHadamard,
    circuit_unitary,
    perturbed_hadamard,
    xor_row_copies,
)
from qimeter.interference import (
    WHT_BLOCK_BYTES,
    PauliNoiseKernel,
    _wht_last,
    interference_unitary,
)
from qimeter.linalg import (
    MAX_DIM,
    MAX_QUBITS,
    UNITARY_ACCEPT_TOL,
    basis_state,
    check_unitary,
    identity,
)

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


def density_from_state(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def basis_density(dim: int, index: int = 0) -> np.ndarray:
    return density_from_state(basis_state(dim, index))


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


def pauli_noise_kernel_every_row(u: np.ndarray) -> PauliNoiseKernel:
    """``pauli_noise_kernel`` as it was before ``copies``: every row of ``u``
    transformed, and each statistic summed over axis 0 of an N x N array."""
    u = np.asarray(u, dtype=complex)
    dim = u.shape[0]
    # each N x N intermediate is dropped as soon as it is consumed
    a = np.abs(u) ** 2
    sum_a2 = float(np.sum(a * a))
    fa = _wht_last(a)
    del a
    fa2 = np.sum(fa * fa, axis=0)
    del fa
    autocorr = _wht_last(fa2) / dim
    # |WHT[U_i]|^2 a block of rows at a time, so no N x N complex transient
    fb2 = np.empty((dim, dim))
    block = max(1, WHT_BLOCK_BYTES // (dim * u.itemsize))
    for lo in range(0, dim, block):
        fb2[lo : lo + block] = np.abs(_wht_last(u[lo : lo + block])) ** 2
    cc = _wht_last(fb2)  # complex row autocorrelations are real
    del fb2
    cc /= dim
    cc *= cc
    q = _wht_last(np.sum(cc, axis=0))
    return PauliNoiseKernel(dim=dim, sum_a2=sum_a2, fa2=fa2, autocorr=autocorr, q=q)


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


def error_subsets_per_subset(n: int, model: ErrorModel) -> list:
    """``error_subsets`` with each pattern's hit list and weight built on
    their own, one subset at a time."""
    bits = [qubit_mask((q,), n) for q in model.affected]
    n_f = len(bits)
    out = []
    for subset in range(1 << n_f):
        hit = [bit for b, bit in enumerate(bits) if (subset >> b) & 1]
        weight = model.p ** len(hit) * (1.0 - model.p) ** (n_f - len(hit))
        if weight != 0.0:
            out.append((sum(hit), weight))
    return out


def noise_then_unitary_per_index(kernel: PauliNoiseKernel, model: ErrorModel) -> float:
    """``interference_noise_then_unitary`` as one dot product over every
    index i < N, with its own weight ((1 - 2p)^2)^popcount(i & mask)."""
    dim = kernel.dim
    mask = qubit_mask(model.affected, dim.bit_length() - 1)
    hits = np.array([(i & mask).bit_count() for i in range(dim)])
    weights = ((1.0 - 2.0 * model.p) ** 2) ** hits
    if model.kind == BITFLIP:
        return float(weights @ (kernel.q - kernel.fa2)) / dim
    return float(weights @ kernel.autocorr) - kernel.sum_a2


def dense_rows(c: Circuit) -> tuple:
    """(rows, copies) of the unitary of ``c``, taken from the dense matrix: the
    view rows a decoherence set-up and a unitary-error point reduce."""
    copies = xor_row_copies(c)
    return representative_rows(circuit_unitary(c), copies), copies


def phaseflip_mixture(u_full: np.ndarray, model: ErrorModel) -> np.ndarray:
    """Phase-flip output distribution summed column by column of U_full."""
    dim = u_full.shape[0]
    probs = np.zeros(dim)
    for column, weight in error_subsets(dim.bit_length() - 1, model):
        probs += weight * np.abs(u_full[:, column]) ** 2
    return probs


# ---------------------------------------------------------------------------
# the gate-by-gate circuit unitary: every gate passes over the whole N x N
# stack, the Hadamard as a complex einsum and a diagonal on every row


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


def build_grover_unshared(spec: GroverSpec, thetas) -> Circuit:
    """The Grover circuit of ``spec`` at the Hadamard angles ``thetas``, every
    gate a new object: the initial layer, then k iterations of [oracle,
    layer, zero reflection, layer]."""
    n, angles = spec.n, iter(thetas)

    def diagonal(alpha):
        phases = np.ones(1 << n, dtype=complex)
        phases[alpha] = -1
        return DiagonalPhaseGate(phases, tuple(range(n)))

    def layer():
        return [PerturbedHadamard(next(angles), q) for q in range(n)]

    ops = layer()
    for _ in range(spec.iterations):
        ops += [diagonal(spec.alpha), *layer(), diagonal(0), *layer()]
    return Circuit(n, tuple(ops))


def circuit_unitary_gate_by_gate(c: Circuit) -> np.ndarray:
    """Dense unitary of the circuit, one gate at a time on the identity."""
    u = np.eye(1 << c.n, dtype=complex)
    for gate in c.ops:
        u = _apply_gate(gate, u, c.n)
    return u


def circuit_target_error(n: int, ops) -> str | None:
    """The message with which ``Circuit(n, ops)`` refuses its targets, from a
    check of every op in order; None if it accepts them."""
    for op in ops:
        if any(t < 0 or t >= n for t in op.targets):
            return f"gate targets {op.targets} outside 0..{n - 1}"
        if len(set(op.targets)) != len(op.targets):
            return f"duplicate targets in {op!r}"
    return None


# ---------------------------------------------------------------------------
# the explicit Kraus route for decoherence on the initial layer


def layered_error_channel(n: int, model: ErrorModel) -> KrausChannel:
    """Independent Pauli errors on ``model.affected`` within an n-qubit register.

    One Kraus operator per pattern of ``error_subsets``, in its order.
    """
    dim = 1 << n
    if dim > MAX_DIM:
        raise SizeLimitError(f"2^{n} exceeds the {MAX_DIM}-dimensional cap")
    idx = np.arange(dim)
    ops = []
    for mask, weight in error_subsets(n, model):
        op = np.zeros((dim, dim), dtype=complex)
        if model.kind == BITFLIP:
            op[idx ^ mask, idx] = np.sqrt(weight)
        else:
            signs = 1.0 - 2.0 * (popcount(idx & mask) & 1)
            op[idx, idx] = np.sqrt(weight) * signs
        ops.append(op)
    return KrausChannel(np.array(ops))


def sandwich(ch: KrausChannel, pre: np.ndarray, post: np.ndarray) -> KrausChannel:
    """Compose unitaries around every Kraus operator: E_l -> post · E_l · pre."""
    pre = np.asarray(pre, dtype=complex)
    post = np.asarray(post, dtype=complex)
    if pre.shape != (ch.dim, ch.dim) or post.shape != (ch.dim, ch.dim):
        raise ValueError(
            f"dimension mismatch: channel {ch.dim}, pre {pre.shape}, post {post.shape}"
        )
    return KrausChannel(np.matmul(post, np.matmul(ch.ops, pre)))


def apply_channel(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """rho -> sum_l E_l rho E_l†, summed in fixed operator order."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (ch.dim, ch.dim):
        raise ValueError(f"dimension mismatch: channel {ch.dim}, rho {rho.shape}")
    tmp = np.matmul(ch.ops, rho)
    return np.einsum("lik,ljk->ij", tmp, ch.ops.conj())


@dataclass(frozen=True, eq=False)
class AlgorithmChannels:
    """Decohered algorithm: the two interference views plus the output state."""

    potentially_available: KrausChannel
    actually_used: KrausChannel
    final_state: np.ndarray


def decoherence_channels(unitaries: AlgorithmUnitaries, model: ErrorModel) -> AlgorithmChannels:
    """Explicit Kraus channels for errors striking the initial layer.

    Potentially available: walsh layer, then errors, then the remainder.
    Actually used: the same error operators and remainder, but without the
    initial Hadamards.  The final state is the PA channel applied to
    |0...0><0...0|.  This is the oracle of ``decoherence_point``, and unlike
    it accepts a perturbed initial layer.
    """
    n = unitaries.circuit.n
    walsh = Circuit(n, unitaries.circuit.ops[: unitaries.layer_width])
    layer = tuple(op.target for op in walsh.ops)
    if not set(model.affected) <= set(layer):
        raise ValueError(
            f"affected qubits {model.affected} outside the initial Hadamard layer {layer}"
        )
    dim = 1 << n
    rest = circuit_unitary(unitaries.rest_circuit)
    errors = layered_error_channel(n, model)
    pa = sandwich(errors, circuit_unitary(walsh), rest)
    au = sandwich(errors, identity(dim), rest)
    final = apply_channel(pa, basis_density(dim))
    return AlgorithmChannels(potentially_available=pa, actually_used=au, final_state=final)


def grover_success(rho_f: np.ndarray, alpha: int) -> float:
    """Weight of the final state on the marked item, clipped to [0, 1]."""
    value = float(np.asarray(rho_f)[alpha, alpha].real)
    return min(max(value, 0.0), 1.0)


# ---------------------------------------------------------------------------
# alpha averaging by brute force


def alpha_averaged_grover(spec: GroverSpec, thetas) -> tuple[float, float, float]:
    """Mean (I_pa, I_au, success) over all 2^n marked items at one angle
    assignment, one circuit pair per item.  This is the oracle of the
    Hamming-weight classes an alpha-averaged sweep evaluates instead."""
    i_pa = i_au = success = 0.0
    for alpha in range(1 << spec.n):
        full = build_grover(replace(spec, alpha=alpha), thetas)
        u_full = circuit_unitary(full)
        i_pa += interference_unitary(u_full)
        i_au += interference_unitary(circuit_unitary(Circuit(spec.n, full.ops[spec.n :])))
        success += abs(u_full[alpha, 0]) ** 2
    count = 1 << spec.n
    return i_pa / count, i_au / count, success / count


# ---------------------------------------------------------------------------
# uniform-angle Grover to 50 digits

EXACT_DIGITS = 50


@mpmath.workdps(EXACT_DIGITS)
def grover_uniform_exact(n: int, alpha: int, theta: float, k: int) -> tuple:
    """(I_pa, I_au, success) of Grover search on n qubits with marked item
    ``alpha``, k iterations and every Hadamard angle ``theta`` (the double
    itself, read exactly), as mpmath numbers good to ``EXACT_DIGITS``.

    It uses G^k = I + W C_k W^T, W = [e_alpha, v] (DECISIONS.md, "Uniform-angle
    Grover points in closed form"), but sums each fourth power over all
    (i, j) at once: the entries off row and column alpha (U_rest), or off
    row alpha and column 0 (U_full), are one polynomial in the layer's
    entries, and its binomially expanded fourth power factorizes over the
    qubits.  The rows and columns left out are summed in closed form, and
    the success is U_full[alpha, 0]^2.  That expansion cancels (DECISIONS.md),
    which 50 digits absorb; ``grover_uniform_dense`` checks it at small n."""
    mp = mpmath.mp
    c, s = mp.cos(mp.mpf(theta)), mp.sin(mp.mpf(theta))
    h = [[c, s], [s, -c]]
    ones = bin(alpha).count("1")
    v_alpha = c ** (n - ones) * s**ones
    gram = mp.matrix([[1, v_alpha], [v_alpha, 1]])
    step = mp.matrix([[-2, 0], [4 * v_alpha, -2]])
    ck = mp.zeros(2, 2)
    for _ in range(k):
        ck = ck + step + ck * gram * step
    c00, c01, c10, c11 = ck[0, 0], ck[0, 1], ck[1, 0], ck[1, 1]

    def per_qubit(term):
        """sum over (i, j) of prod_q term(alpha_q, i_q, j_q), a product of one
        factor per qubit that depends only on alpha_q."""
        zero, one = (mp.fsum(term(b, x, y) for x in (0, 1) for y in (0, 1)) for b in (0, 1))
        return zero ** (n - ones) * one**ones

    power4 = mp.fsum(x**4 for x in (c, s)) ** n  # sum_i v_i^4, and sum_j L_alpha,j^4

    # U_full off row alpha and column 0: L_ij + C10 v_i L_alpha,j
    def generic_term(m):  # L_ij^(4-m) (v_i L_alpha,j)^m, summed over (i, j)
        return per_qubit(lambda b, x, y: h[x][y] ** (4 - m) * (h[x][0] * h[b][y]) ** m)

    generic = mp.fsum(mp.binomial(4, m) * c10**m * generic_term(m) for m in range(5))
    generic_edge = (1 + c10 * v_alpha) ** 4 * power4  # its row alpha, and its column 0
    r, q = 1 + c00 + c10 * v_alpha, 1 + c10 * v_alpha + c11
    corner = r * v_alpha + c01 + c11 * v_alpha
    full4 = (
        generic - 2 * generic_edge + (v_alpha * (1 + c10 * v_alpha)) ** 4
        + (r**4 + q**4) * (power4 - v_alpha**4) + corner**4
    )
    # U_rest off row and column alpha: delta_ij + C11 v_i v_j
    # sum_i (1 + C11 v_i^2)^4, with sum_i v_i^(2m) = (cos^2m + sin^2m)^n
    diagonal = mp.fsum(
        mp.binomial(4, m) * c11**m * (c ** (2 * m) + s ** (2 * m)) ** n for m in range(5)
    )
    power8 = (c**8 + s**8) ** n
    generic = c11**4 * (power4**2 - power8) + diagonal
    generic_edge = c11**4 * v_alpha**4 * (power4 - v_alpha**4) + (1 + c11 * v_alpha**2) ** 4
    rest_corner = 1 + c00 + (c01 + c10) * v_alpha + c11 * v_alpha**2
    rest4 = (
        generic - 2 * generic_edge + (1 + c11 * v_alpha**2) ** 4
        + ((c01 + c11 * v_alpha) ** 4 + (c10 + c11 * v_alpha) ** 4) * (power4 - v_alpha**4)
        + rest_corner**4
    )
    dim = 2**n
    return dim - full4, dim - rest4, corner**2


@mpmath.workdps(EXACT_DIGITS)
def grover_uniform_dense(n: int, alpha: int, theta: float, k: int) -> tuple:
    """``grover_uniform_exact`` from dense mpmath matrices: the layer L as a
    Kronecker product, the iterate G = L R_0 L O_alpha, U_rest = G^k and
    U_full = U_rest L, each sum |U|^4 entry by entry."""
    mp = mpmath.mp
    c, s = mp.cos(mp.mpf(theta)), mp.sin(mp.mpf(theta))
    dim = 1 << n
    h = [[c, s], [s, -c]]

    def entry(x, y):
        return mp.fprod(h[(x >> q) & 1][(y >> q) & 1] for q in range(n))

    layer = mp.matrix([[entry(x, y) for y in range(dim)] for x in range(dim)])
    oracle, zero = mp.eye(dim), mp.eye(dim)
    oracle[alpha, alpha] = zero[0, 0] = -1
    iterate, rest = layer * zero * layer * oracle, mp.eye(dim)
    for _ in range(k):
        rest = iterate * rest
    full = rest * layer

    def fourth(u):
        return mp.fsum(u[x, y] ** 4 for x in range(dim) for y in range(dim))

    return dim - fourth(full), dim - fourth(rest), full[alpha, 0] ** 2
