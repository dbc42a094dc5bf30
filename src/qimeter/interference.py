"""The interference measure of quantum channels.

Three equivalent evaluation routes are provided, each returning a float
(refused below ``NEGATIVE_CLAMP``; ``ibits`` converts it to i-bits):

* ``interference_superoperator`` - brute force on the N^2 x N^2 propagator
  P: value = sum_{i,k,l} |P[ii,kl]|^2 - sum_{i,k} |P[ii,kk]|^2.  Small-N
  test oracle.
* ``interference_kraus`` - operator-sum form (acceptance and test oracles).
  Per row i it builds the Gram matrix G_i = V_i V_i† of the stacked Kraus
  rows (L x L instead of N x N), so the quartic term costs O(N^2 L^2)
  instead of O(N^3 L).  ``interference_kraus_naive`` keeps the literal
  triple sum as an independent oracle.
* ``interference_unitary`` - the unitary special case, N - sum |U|^4.

For channels of the form {U · E_l} with E_l a layered Pauli error on a
qubit subset S, the measure weighs a row statistic of U, precomputed with
fast Walsh-Hadamard transforms (``pauli_noise_kernel``), by the number of
hits inside S: one O(N) pass per subset sums it by that class
(``noise_class_sums``); the decoherence sweeps take this path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import BITFLIP, ErrorModel, KrausChannel, popcount, qubit_mask
from .errors import SizeLimitError, ValidationError
from .linalg import UNITARY_ACCEPT_TOL, check_unitary

# floating-point cancellation guard: values in [-1e-9, 0] count as zero
NEGATIVE_CLAMP = -1e-9

# brute-force routes are capped at 6 qubits
ORACLE_MAX_DIM = 64

KRAUS_COMPLETENESS_TOL = 1e-6

# bytes of complex rows per pauli_noise_kernel block (with its transforms it
# fits in L2), and of the dense |U|^4 array per block of _sum_abs4's sum
WHT_BLOCK_BYTES = 1 << 19


def _checked(value: float) -> float:
    """``value`` as a float; refuses one below the cancellation guard."""
    value = float(value)
    if value < NEGATIVE_CLAMP:
        raise ValueError(f"interference value {value} is negative")
    return value


def ibits(value: float) -> float:
    """Interference in logarithmic units, log2(value); 0 maps to -inf."""
    value = max(_checked(value), 0.0)
    return math.log2(value) if value > 0.0 else float("-inf")


def interference_unitary(u: np.ndarray) -> float:
    """Interference of a unitary propagator: N - sum_{i,k} |U[i,k]|^4."""
    u = np.asarray(u)
    if not check_unitary(u, UNITARY_ACCEPT_TOL):
        raise ValidationError("matrix is not unitary within tolerance")
    return _unitary_interference(u)


def _unitary_interference(rows: np.ndarray, copies: int = 1) -> float:
    """``interference_unitary`` unchecked, for circuits of unitary gates
    (DECISIONS.md), of the unitary with representative rows ``rows``
    (``pauli_noise_kernel``; with ``copies`` = 1, ``rows`` is the unitary)."""
    return _checked(rows.shape[1] - _sum_abs4(rows, copies))


def _sum_abs4(rows: np.ndarray, copies: int = 1) -> float:
    """sum_{i,k} |U[i,k]|^4 of the unitary with representative rows ``rows``,
    with the bits of ``np.sum`` of the dense |U|^4, which is never built:
    ``np.sum`` halves a contiguous array of 2^j >= 256 entries recursively,
    so each block of ``WHT_BLOCK_BYTES`` (whole rows, 2^i of them) is one
    ``np.sum`` and the block sums are added by the same halving tree
    (DECISIONS.md, "Views held as representative rows").  Any other N is
    one block, as that tree halves only a power of two evenly.  With
    ``copies`` > 1 a block is gathered C-contiguous by
    U[(j, y), c] = rows[j, c XOR y]."""
    dim = rows.shape[1]
    per = min(dim, 1 << max(1, WHT_BLOCK_BYTES // (8 * dim)).bit_length() - 1)  # 2^i dense rows
    if dim & (dim - 1):
        per = dim
    xor = np.arange(copies)[:, None] ^ np.arange(dim) if copies > 1 else None
    sums = []
    for lo in range(0, dim, per):
        a = np.abs(rows[lo // copies : (lo + per - 1) // copies + 1]) ** 2
        a *= a
        if copies > 1:  # rows (j, y) of the block, y from xor's row lo % copies on
            a = np.take(a, xor[lo % copies : lo % copies + per], axis=1)
        sums.append(np.sum(a))
    while len(sums) > 1:
        sums = [x + y for x, y in zip(sums[::2], sums[1::2])]
    return float(sums[0])


def _require_complete(ch: KrausChannel) -> None:
    defect = ch.completeness_defect()
    if defect > KRAUS_COMPLETENESS_TOL:
        raise ValidationError(
            f"Kraus completeness defect {defect:.2e} exceeds {KRAUS_COMPLETENESS_TOL}"
        )


def interference_kraus(ch: KrausChannel) -> float:
    """Operator-sum interference via the row-Gram path.

    The quartic term sums trace(G_i^2) over rows i, where
    G_i = V_i V_i† and V_i stacks row i of every Kraus operator.
    """
    _require_complete(ch)
    ops = ch.ops
    num, dim = ops.shape[0], ch.dim
    t2 = float(np.sum(np.sum(np.abs(ops) ** 2, axis=0) ** 2))
    t1 = 0.0
    # chunk the row axis so row batches and Gram batches stay small
    chunk = max(1, (1 << 22) // max(1, num * max(dim, num)))
    rows = np.ascontiguousarray(ops.transpose(1, 0, 2))  # (dim, L, N)
    for lo in range(0, dim, chunk):
        v = rows[lo : lo + chunk]
        g = np.matmul(v, v.conj().transpose(0, 2, 1))
        t1 += float(np.sum(np.abs(g) ** 2))
    return _checked(t1 - t2)


def interference_kraus_naive(ch: KrausChannel) -> float:
    """Literal triple-sum evaluation of the operator-sum form (test oracle)."""
    if ch.dim > ORACLE_MAX_DIM:
        raise SizeLimitError(f"naive path capped at dimension {ORACLE_MAX_DIM}")
    _require_complete(ch)
    g = np.einsum("lik,lim->ikm", ch.ops, ch.ops.conj())
    t1 = float(np.sum(np.abs(g) ** 2))
    diag = np.einsum("ikk->ik", g).real
    t2 = float(np.sum(diag**2))
    return _checked(t1 - t2)


def superoperator_from_kraus(ch: KrausChannel) -> np.ndarray:
    """Dense propagator P = sum_l E_l (x) E_l*, acting on row-major vec(rho)."""
    if ch.dim > ORACLE_MAX_DIM:
        raise SizeLimitError(f"superoperator path capped at dimension {ORACLE_MAX_DIM}")
    p = np.zeros((ch.dim**2, ch.dim**2), dtype=complex)
    for op in ch.ops:
        p += np.kron(op, op.conj())
    return p


def interference_superoperator(p: np.ndarray) -> float:
    """Brute-force interference of a propagator given as an N^2 x N^2 array."""
    p = np.asarray(p)
    dim = math.isqrt(p.shape[0])
    if dim * dim != p.shape[0] or p.shape[0] != p.shape[1]:
        raise ValueError(f"expected an N^2 x N^2 array, got {p.shape}")
    if dim > ORACLE_MAX_DIM:
        raise SizeLimitError(f"superoperator path capped at dimension {ORACLE_MAX_DIM}")
    t = p.reshape(dim, dim, dim, dim)
    d = np.einsum("iikl->ikl", t)
    t1 = float(np.sum(np.abs(d) ** 2))
    diag = np.einsum("ikk->ik", d)
    t2 = float(np.sum(np.abs(diag) ** 2))
    return _checked(t1 - t2)


# ---------------------------------------------------------------------------
# structured fast path for layered Pauli noise followed by a fixed unitary


def _wht_last(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis.

    The stages ping-pong between the output and one scratch array of its
    size, so a cache-sized block of rows stays in cache.  Stage s pairs the
    entries that differ in index bit s, lowest first, and forms x0 + x1 and
    x0 - x1 as the textbook in-place transform does, so the bits are the
    same.  Only the layout differs: each stage writes the sums of the even
    and odd entries to the first half of the row and their differences to
    the second (constant geometry), rotating the index bits right by one.
    After log2 N stages the rows are back in natural order, and every ufunc
    call runs over N/2 entries instead of over runs of 2^s.
    """
    a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    n = a.shape[-1]
    half = n // 2
    src = a.reshape(-1, n)
    out = np.empty(src.shape, a.dtype)
    tmp = np.empty(src.shape, a.dtype)
    stages = n.bit_length() - 1
    for stage in range(stages):
        # alternate so that the last stage writes the output
        dst = out if (stages - stage) % 2 else tmp
        even, odd = src[:, 0::2], src[:, 1::2]
        np.add(even, odd, out=dst[:, :half])
        np.subtract(even, odd, out=dst[:, half:])
        src = dst
    return out.reshape(a.shape) if stages else a.copy()  # N = 1: the identity


@dataclass(frozen=True, eq=False)
class PauliNoiseKernel:
    """Row statistics of a unitary U, precomputed for noise sweeps.

    With A = |U|^2 and row transforms taken over the XOR group:

    * ``fa2`` - sum_i WHT[A_i]^2, per frequency
    * ``autocorr`` - sum_i (XOR autocorrelation of A_i), per shift
    * ``q`` - WHT of sum_i |XOR autocorrelation of row U_i|^2
    * ``sum_a2`` - sum A^2 (the unitary's own quartic term)

    Each qubit subset then sums one of them by class (``noise_class_sums``).
    """

    dim: int
    sum_a2: float
    fa2: np.ndarray
    autocorr: np.ndarray
    q: np.ndarray


def pauli_noise_kernel(rows: np.ndarray, copies: int = 1) -> PauliNoiseKernel:
    """Row statistics (``PauliNoiseKernel``) of the N x N unitary U whose
    representative rows are ``rows``: row j of ``rows`` is row j * copies of
    U, and each run of ``copies`` consecutive rows of U is the run's first
    row with its columns XOR-shifted by 0..copies-1, U[r + y, c] =
    U[r, c XOR y] whenever ``copies`` divides r.  Shor's views keep that
    promise (``gates.xor_row_copies``), and
    ``algorithms.representative_rows`` checks it where it takes the rows;
    with ``copies`` = 1, ``rows`` is U.  An XOR shift of a butterfly's input
    only swaps pairs, so each transformed entry of a shifted row is +- the
    first row's, and its square or modulus is equal.  So the transforms run
    on ``rows`` alone, a block of ``WHT_BLOCK_BYTES`` at a time, and each
    squared row is added ``copies`` times, in row order, as a sum over all N
    rows adds it: the bits are those of the dense U at ``copies = 1``.

    ``ValueError`` unless ``copies`` is a power of two and ``rows`` holds
    N / copies rows of N entries.
    """
    rows = np.asarray(rows, dtype=complex)
    reps, dim = rows.shape
    if copies < 1 or copies & (copies - 1) or reps * copies != dim:
        raise ValueError(f"{reps} rows of {dim} entries do not make N x N with copies={copies}")
    sum_a2 = _sum_abs4(rows, copies)
    # sum_i WHT[A_i]^2 and sum_i (autocorrelation of U_i)^2, with no N x N transient
    fa2, cc2 = np.zeros(dim), np.zeros(dim)
    block = max(1, WHT_BLOCK_BYTES // (dim * rows.itemsize))
    for lo in range(0, reps, block):
        chunk = rows[lo : lo + block]
        fa = _wht_last(np.abs(chunk) ** 2)
        fa *= fa
        cc = _wht_last(np.abs(_wht_last(chunk)) ** 2)  # complex row autocorrelations are real
        cc /= dim
        cc *= cc
        for fa_row, cc_row in zip(fa, cc):
            for _ in range(copies):
                fa2 += fa_row
                cc2 += cc_row
    autocorr = _wht_last(fa2) / dim
    q = _wht_last(cc2)
    return PauliNoiseKernel(dim=dim, sum_a2=sum_a2, fa2=fa2, autocorr=autocorr, q=q)


def noise_class_sums(kernel: PauliNoiseKernel, kind: str, mask: int) -> np.ndarray:
    """C[h], h = 0..popcount(mask): ``kind`` errors of probability p on the
    qubits of ``mask``, then U, have interference sum_h ((1 - 2p)^2)^h C[h],
    as they weigh index i of a kernel vector by ((1 - 2p)^2)^popcount(i & mask)."""
    hits = popcount(np.arange(kernel.dim) & mask)
    if kind == BITFLIP:
        # XOR permutations of the input basis; N is a power of two, so
        # dividing first gives the bits of dividing last
        return np.bincount(hits, (kernel.q - kernel.fa2) / kernel.dim)
    sums = np.bincount(hits, kernel.autocorr)  # diagonal sign patterns
    sums[0] -= kernel.sum_a2  # the unitary's own quartic term, weight 1 at every p
    return sums


def interference_from_class_sums(sums: np.ndarray, p: float) -> float:
    """sum_h ((1 - 2p)^2)^h sums[h]: ``noise_class_sums`` at error probability p."""
    return _checked(float(((1.0 - 2.0 * p) ** 2) ** np.arange(len(sums)) @ sums))


def interference_noise_then_unitary(kernel: PauliNoiseKernel, model: ErrorModel) -> float:
    """Interference of the channel {U · E_l}: layered Pauli errors, then U;
    one subset's class sums of ``kernel = pauli_noise_kernel(U)`` at one p.
    Equals ``interference_kraus`` of the explicit channel with one Kraus
    operator U · E_l per error pattern (``tests/oracles.py``)."""
    mask = qubit_mask(model.affected, kernel.dim.bit_length() - 1)
    return interference_from_class_sums(noise_class_sums(kernel, model.kind, mask), model.p)
