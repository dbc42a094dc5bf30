"""Grover search and Shor order-finding circuits, with error hooks.

Both algorithms open with a layer of Hadamard gates on their leading
qubits.  ``build_grover`` and ``build_shor`` return one circuit;
``AlgorithmUnitaries`` checks that layer and splits off the remainder after
it, and the two views feed the "potentially available" versus "actually
used" interference measurements.  Decoherence strikes only the initial
layer: bit-flip or phase-flip errors after each of its Hadamard gates,
which keeps the Kraus-operator count at 2^n_f.  A decoherence sweep builds
what its subsets read once, in one order (``noise_setup``).  A Grover
unitary-error point needs no circuit: with one angle at every Hadamard,
``grover_uniform_measures`` gives its measures in closed form, for a whole
grid of angles at once, and at any other angles ``grover_random_measures``
assembles its views from per-qubit factors and a rank-2k correction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .channels import BITFLIP, PHASEFLIP, ErrorModel, popcount, qubit_mask
from .errors import SizeLimitError, as_int
from .gates import (
    Circuit,
    DiagonalPhaseGate,
    PermutationGate,
    PerturbedHadamard,
    angle_list,
    circuit_apply,
    circuit_unitary,
    layer_view_rows,
    qft_circuit,
    xor_row_copies,
)
from .interference import (
    PauliNoiseKernel,
    _checked,
    _unitary_interference,
    interference_from_class_sums,
    noise_class_sums,
    pauli_noise_kernel,
)
from .linalg import MAX_QUBITS, basis_state


@dataclass(frozen=True)
class GroverSpec:
    """Search over n qubits for the single marked basis state ``alpha``; the
    initial layer spans all n qubits, and there are n + 2nk Hadamards."""

    n: int
    alpha: int
    k_override: int | None = None
    n_qft_phases = 0  # a class constant, not a field

    def __post_init__(self):
        for name in ("n", "alpha") + (() if self.k_override is None else ("k_override",)):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if self.n < 2:
            raise ValueError("Grover search needs at least two qubits")
        if not 0 <= self.alpha < 1 << self.n:
            raise ValueError(f"marked item {self.alpha} outside 0..{(1 << self.n) - 1}")
        if self.k_override is not None and self.k_override < 0:
            raise ValueError(f"k_override={self.k_override} is negative")
        if self.n > MAX_QUBITS:
            raise SizeLimitError(
                f"Grover search on {self.n} qubits exceeds the {MAX_QUBITS}-qubit cap"
            )

    @property
    def iterations(self) -> int:
        return self.k_override if self.k_override is not None else grover_iteration_count(self.n)

    @property
    def layer_width(self) -> int:
        return self.n

    @property
    def n_hadamards(self) -> int:
        return self.n + 2 * self.n * self.iterations


@dataclass(frozen=True)
class ShorSpec:
    """Order finding for f(x) = a^x mod R on registers of 2L and L qubits; the
    initial layer is the first register, and the QFT adds 2L Hadamards."""

    L: int
    R: int
    a: int

    def __post_init__(self):
        for name in ("L", "R", "a"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if self.R < 2 or self.L != self.R.bit_length():
            raise ValueError(f"L={self.L} does not match floor(log2({self.R}))+1")
        if not 0 < self.a < self.R:
            raise ValueError(f"base a={self.a} outside 1..{self.R - 1}")
        if math.gcd(self.a, self.R) != 1:
            raise ValueError(f"base a={self.a} shares a factor with R={self.R}")
        if self.n > MAX_QUBITS:
            raise SizeLimitError(
                f"L={self.L} needs a {self.n}-qubit register, above the {MAX_QUBITS}-qubit cap"
            )

    @classmethod
    def for_modulus(cls, R: int, a: int) -> "ShorSpec":
        return cls(L=R.bit_length(), R=R, a=a)

    @property
    def n(self) -> int:
        return 3 * self.L

    @property
    def layer_width(self) -> int:
        return 2 * self.L

    @property
    def n_hadamards(self) -> int:
        return 4 * self.L

    @property
    def n_qft_phases(self) -> int:
        return self.L * (2 * self.L - 1)


def grover_iteration_count(n: int) -> int:
    """Optimal iteration count floor(pi / (4 arcsin(2^(-n/2))))."""
    if n < 2:
        raise ValueError("Grover search needs at least two qubits")
    return int(math.pi / (4.0 * math.asin(2.0 ** (-n / 2))))


def grover_oracle(n: int, alpha: int) -> DiagonalPhaseGate:
    """Sign flip of the marked item's amplitude."""
    phases = np.ones(1 << n, dtype=complex)
    phases[alpha] = -1
    return DiagonalPhaseGate(phases, tuple(range(n)))


def grover_zero_reflection(n: int) -> DiagonalPhaseGate:
    """Sign flip of the |0...0> amplitude."""
    return grover_oracle(n, 0)


def build_grover(
    spec: GroverSpec, hadamard_thetas: Sequence[float] | None = None
) -> Circuit:
    """The Grover search circuit for ``spec``: the initial Hadamard layer
    followed by ``k`` iterations of [oracle, layer, zero reflection, layer].
    ``hadamard_thetas`` gives one angle per Hadamard position in that order
    (``spec.n_hadamards`` angles, default pi/4 everywhere)."""
    n, k = spec.n, spec.iterations
    angles = iter(_grover_angles(spec, hadamard_thetas))
    layers = [[PerturbedHadamard(next(angles), q) for q in range(n)] for _ in range(2 * k + 1)]
    oracle, zero = grover_oracle(n, spec.alpha), grover_zero_reflection(n)
    ops = list(layers[0])
    for i in range(k):
        ops += [oracle, *layers[2 * i + 1], zero, *layers[2 * i + 2]]
    return Circuit(n, tuple(ops))


def _grover_angles(spec: GroverSpec, hadamard_thetas: Sequence[float] | None) -> list:
    """``hadamard_thetas`` as ``spec.n_hadamards`` angles (``angle_list``)."""
    label = f"Hadamard angles (n + 2nk for n={spec.n}, k={spec.iterations})"
    return angle_list(hadamard_thetas, spec.n_hadamards, math.pi / 4, label)


def grover_random_measures(
    spec: GroverSpec, alphas: Sequence[int], hadamard_thetas: Sequence[float], measure_au: bool
) -> list:
    """(I_pa, I_au or None, success) of the Grover circuit of ``spec`` with
    marked item alpha (not ``spec.alpha``) at the Hadamard angles
    ``hadamard_thetas`` (``build_grover``'s order), for each alpha of
    ``alphas``, with no circuit (DECISIONS.md, "Random-angle Grover points
    from per-qubit factors").

    Every op is a layer L_t = (x)_q h(theta_tq) or a reflection I - 2 e e^T,
    so the ops after the initial layer multiply to U_rest = P + A (K T)^T.
    P = (x)_q p_q starts at I and each layer turns every p_q.  A reflection
    appends -2 e to A, and to B = K T the row e of the product so far,
    P^T e + B A[e]^T: the Kronecker column P^T e to K and the column
    (T A[e]^T, 1) to the triangular T.  Each layer after it turns the
    per-qubit factors of A's columns.  U_full = U_rest L_0 turns P's and
    K's factors by L_0.  Each view is then assembled in float64
    (``_assembled``), the only step on N-length data; P is shared by the
    items, whose A, K and T are batched.  I_au is None, and U_rest not
    assembled, unless ``measure_au``."""
    n, k = spec.n, spec.iterations
    angles = _grover_angles(spec, hadamard_thetas)
    cos_sin = np.array([(math.cos(theta), math.sin(theta)) for theta in angles]).reshape(-1, n, 2)
    layers = np.stack([cos_sin, cos_sin[..., ::-1] * (1.0, -1.0)], axis=-2)  # [[c, s], [s, -c]]
    alphas = [GroverSpec(n, alpha).alpha for alpha in alphas]  # checked
    bits = np.array(alphas)[:, None] >> np.arange(n - 1, -1, -1) & 1  # qubit 0 the top bit
    items, qubits = np.arange(len(alphas))[:, None], np.arange(n)
    p = np.broadcast_to(np.eye(2), (n, 2, 2))
    # column j of A is -2 (x)_q a[:, j, q], and of K (x)_q kk[:, j, q]
    a, kk = np.zeros((2, len(alphas), 2 * k, n, 2))
    t = np.zeros((len(alphas), 2 * k, 2 * k))
    for j in range(2 * k):  # the oracle, then the zero reflection
        e = bits if j % 2 == 0 else 0 * bits
        kk[:, j] = p[qubits, e]  # row e of P, qubit by qubit
        a_e = -2.0 * a[items, :j, qubits, e].prod(1)  # A[e], the row e of A
        t[:, :j, j] = (t[:, :j, :j] @ a_e[..., None])[..., 0]
        t[:, j, j] = 1.0
        a[items, j, qubits, e] = 1.0
        p = _turn(layers[j + 1], p)
        a[:, : j + 1] = _turn(layers[j + 1], a[:, : j + 1, ..., None])[..., 0]
    k_full = _turn(layers[0], kk[..., None])[..., 0]  # L_0^T K, L_0 symmetric
    full = _assembled(_turn(p, layers[0]), a, t, k_full)
    # the zip lives only as long as the list: it holds the last view it gave
    measures = [(_unitary_interference(u), float(u[alpha, 0]) ** 2) for u, alpha in zip(full, alphas)]
    i_au = [None] * len(alphas)
    if measure_au:
        i_au = [_unitary_interference(u) for u in _assembled(p, a, t, kk)]
    return [(i_pa, au, success) for (i_pa, success), au in zip(measures, i_au)]


def _turn(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for stacks of 2 x 2 matrices ``x`` and 2 x m matrices ``y``,
    as two elementwise products and one sum, so each entry has the same
    bits at any stack shape."""
    return x[..., :, :1] * y[..., :1, :] + x[..., :, 1:] * y[..., 1:, :]


def _kron(factors: np.ndarray) -> np.ndarray:
    """(x)_q factors[..., q, :, :], qubit 0 the most significant, for each
    index of the leading axes."""
    out = factors[..., 0, :, :]
    for q in range(1, factors.shape[-3]):
        f = factors[..., q, None, :, None, :]
        rows, columns = out.shape[-2] * f.shape[-3], out.shape[-1] * f.shape[-1]
        out = (out[..., :, None, :, None] * f).reshape(*out.shape[:-2], rows, columns)
    return out


def _assembled(p: np.ndarray, a: np.ndarray, t: np.ndarray, kk: np.ndarray) -> Iterator[np.ndarray]:
    """U = P + A (K T)^T of each item of ``grover_random_measures``' factors,
    in item order, each assembled in float64 into one buffer that the next
    item's overwrites; the shared P = (x)_q p_q is built once."""
    shared = _kron(p)
    u = np.empty_like(shared)
    for a_i, t_i, k_i in zip(a, t, kk):
        a_i, k_i = _kron(a_i[..., None, :])[:, 0], _kron(k_i[..., None, :])[:, 0]  # rows A^T, K^T
        np.matmul(a_i.T, -2.0 * (t_i.T @ k_i), out=u)
        u += shared
        yield u


# elements of one theta-by-class array in ``grover_uniform_measures``: a
# block of angles holds as many as fit, and at least one (DECISIONS.md,
# "Sweeps evaluate their grid as arrays")
THETA_BLOCK_ENTRIES = 1 << 11


def grover_uniform_measures(
    spec: GroverSpec, alpha: int, thetas: Sequence[float], measure_au: bool
) -> tuple:
    """(I_pa, I_au, success) of the Grover circuit of ``spec`` with marked item
    ``alpha`` (not ``spec.alpha``) and every Hadamard angle theta, for each
    theta of ``thetas``: three float arrays with one value per angle, in
    closed form with no matrix; I_au is None unless ``measure_au``
    (DECISIONS.md, "Uniform-angle Grover points in closed form").

    The layer L = h(theta)^(x)n is real, symmetric and its own inverse, so
    with v = L e_0, v_i = cos^(n-|i|) sin^|i|, the iterate G = (I - 2 v v^T)
    (I - 2 e_alpha e_alpha^T) gives G^k = I + W C_k W^T, W = [e_alpha, v],
    C_0 = 0 and C_k = C_(k-1) + C_1 + C_(k-1) W^T W C_1.  So U_rest = G^k and
    U_full = G^k L = L + W C_k (W^T L), where v^T L = e_0^T.  An entry of
    either view depends on (i, j) only through the counts of the bit triples
    (alpha_q, i_q, j_q), so each sum |U|^4 runs over those classes: each
    class's entry is computed first, rows and columns alpha and 0 with
    their own terms, and its fourth power is weighted by the class size.
    The success is sin^2((2k + 1) asin v_alpha).

    The angles run in blocks of ``THETA_BLOCK_ENTRIES // classes``, each a
    theta-by-class array whose rows are reduced one at a time, so a value
    has the same bits in any grid that holds its angle."""
    ones = bin(GroverSpec(spec.n, alpha).alpha).count("1")  # alpha checked
    classes = _bit_triple_classes(spec.n - ones, ones)
    thetas = [float(theta) for theta in thetas]
    block = max(1, THETA_BLOCK_ENTRIES // len(classes[0]))
    i_pa, i_au, success = [], [], []
    for lo in range(0, len(thetas), block):
        pa, au, p_success = _uniform_block(spec, ones, classes, thetas[lo : lo + block], measure_au)
        i_pa += pa
        success += p_success
        if measure_au:
            i_au += au
    return np.array(i_pa), np.array(i_au) if measure_au else None, np.array(success)


def _uniform_block(spec: GroverSpec, ones: int, classes: tuple, thetas: list, measure_au: bool):
    """``grover_uniform_measures`` at the angles of one block."""
    n, k = spec.n, spec.iterations
    sizes, cos_counts, signs, (i_a, j_a, j_0, diagonal) = classes
    cos_pow = np.array([[c**e for e in range(n + 1)] for c in map(math.cos, thetas)])
    sin_pow = np.array([[s**e for e in range(n + 1)] for s in map(math.sin, thetas)])
    entries = cos_pow[:, cos_counts]  # theta-by-class arrays
    entries *= sin_pow[:, n - cos_counts]
    entries *= signs
    l_ij, v_i, v_j, l_aj = np.moveaxis(entries, 1, 0)
    v_alpha = cos_pow[:, n - ones] * sin_pow[:, ones]
    c00, c01, c10, c11 = _iterate_coefficients(v_alpha, k).reshape(-1, 4, 1).transpose(1, 0, 2)

    full = l_ij + c10 * v_i * l_aj + c11 * v_i * j_0 + i_a * (c00 * l_aj + c01 * j_0)
    i_pa = _interference_from_classes(full, sizes, 1 << n)
    i_au = None
    if measure_au:
        rest = diagonal + c00 * (i_a & j_a) + c01 * i_a * v_j + c10 * v_i * j_a + c11 * v_i * v_j
        i_au = _interference_from_classes(rest, sizes, 1 << n)
    # asin v_alpha from 1 - v_alpha^2 = sum_(i != alpha) v_i^2, a sum of
    # positive terms: 1 - v_alpha^2 itself cancels when v_alpha is near 1
    column = j_0 & ~i_a  # one class per class of rows i != alpha
    others = _row_sums(sizes[column] * v_i[:, column] ** 2)
    success = [
        math.sin((2 * k + 1) * math.atan2(v, math.sqrt(rest_sum))) ** 2
        for v, rest_sum in zip(v_alpha.tolist(), others)
    ]
    return i_pa, i_au, success


def _iterate_coefficients(v_alpha: np.ndarray, k: int) -> np.ndarray:
    """C_k of G^k = I + W C_k W^T for each of ``v_alpha``, a len(v_alpha) x 2 x 2
    array.  The 2 x 2 products run stacked, one BLAS product per value, with
    the bits of one product at a time; products expanded by hand differ."""
    step = np.zeros((len(v_alpha), 2, 2))  # C_1
    step[:, 0, 0] = step[:, 1, 1] = -2.0
    step[:, 1, 0] = 4.0 * v_alpha
    gram = np.ones((len(v_alpha), 2, 2))  # W^T W
    gram[:, 0, 1] = gram[:, 1, 0] = v_alpha
    turn = gram @ step
    ck = np.zeros((len(v_alpha), 2, 2))
    for _ in range(k):
        ck = ck + step + ck @ turn
    return ck


def _row_sums(rows: np.ndarray) -> list:
    """The sum of each row of a 2-D array, each row summed as its own 1-D
    array, so with the bits of ``np.sum(row)``: one sum along the rows of a
    short-rowed array adds in another order."""
    return [float(np.add.reduce(row)) for row in rows]


def _interference_from_classes(entries: np.ndarray, sizes: np.ndarray, dim: int) -> list:
    """dim - sum |U|^4 of a real dim x dim unitary, for each row of ``entries``,
    whose class c holds sizes[c] entries equal to entries[:, c]."""
    fourth = entries * entries
    fourth *= fourth
    fourth *= sizes
    return [_checked(dim - total) for total in _row_sums(fourth)]


@functools.cache
def _bit_triple_classes(zeros: int, ones: int) -> tuple:
    """The classes of index pairs (i, j) that share the counts of the bit
    triples (alpha_q, i_q, j_q) over the qubits q, for a marked item alpha
    of ``zeros`` 0 bits and ``ones`` 1 bits, as read-only arrays over the
    classes: the number of pairs in each; for each of L_ij, v_i = L_i0,
    v_j and L_alpha,j, where L_xy is the product over q of h[x_q, y_q], the
    number of factors cos (the others are sin) and the sign; and the masks
    i = alpha, j = alpha, j = 0 and i = j."""

    def splits(m):
        # the counts of the pairs (i_q, j_q) 00, 01, 10, 11 over m qubits, and
        # for each, the number of ways to give the m qubits those pairs
        table = [
            (m - p - q - r, p, q, r)
            for p in range(m + 1)
            for q in range(m + 1 - p)
            for r in range(m + 1 - p - q)
        ]
        ways = [math.factorial(m) // math.prod(map(math.factorial, split)) for split in table]
        return np.array(table), np.array(ways)

    (low, low_ways), (high, high_ways) = splits(zeros), splits(ones)  # alpha_q = 0, alpha_q = 1
    # counts[c, t]: qubits with triple t = 4 alpha_q + 2 i_q + j_q, the
    # split of alpha's 0 bits major
    counts = np.hstack([np.repeat(low, len(high), axis=0), np.tile(high, (len(low), 1))])
    sizes = np.outer(low_ways, high_ways).ravel().astype(float)
    a, i, j = np.arange(8) >> 2, np.arange(8) >> 1 & 1, np.arange(8) & 1
    zero = 0 * a
    pairs = [(i, j), (i, zero), (j, zero), (a, j)]
    cos_counts = np.array([counts @ (x == y) for x, y in pairs])  # h[0, 0] = cos, h[1, 1] = -cos
    signs = np.array([1.0 - 2 * (counts @ (x & y) & 1) for x, y in pairs])
    masks = tuple(counts @ (x != y) == 0 for x, y in [(i, a), (j, a), (j, zero), (i, j)])
    for array in (sizes, cos_counts, signs, *masks):
        array.flags.writeable = False
    return sizes, cos_counts, signs, masks


def modexp_permutation(spec: ShorSpec) -> PermutationGate:
    """|x>|y> -> |x>|y XOR f(x)> with f(x) = a^x mod R."""
    L = spec.L
    f = np.array([pow(spec.a, x, spec.R) for x in range(1 << spec.layer_width)], dtype=np.int64)
    idx = np.arange(1 << spec.n, dtype=np.int64)
    x = idx >> L
    y = idx & ((1 << L) - 1)
    return PermutationGate((x << L) | (y ^ f[x]), tuple(range(spec.n)))


def build_shor(
    spec: ShorSpec,
    hadamard_thetas: Sequence[float] | None = None,
    qft_phase_perturbations: Sequence[float] | None = None,
) -> Circuit:
    """The Shor order-finding circuit for ``spec``.

    Layout: Hadamard layer on the first register (2L gates), the modular
    exponentiation permutation, then the QFT on the first register.
    ``hadamard_thetas`` covers first the initial layer and then the QFT's
    own Hadamards (``spec.n_hadamards`` angles); ``qft_phase_perturbations``
    adds to the QFT's two-qubit phases (``spec.n_qft_phases`` values).
    """
    m = spec.layer_width
    hadamard_thetas = angle_list(hadamard_thetas, spec.n_hadamards, math.pi / 4, "Hadamard angles")

    ops = [PerturbedHadamard(hadamard_thetas[q], q) for q in range(m)]
    ops.append(modexp_permutation(spec))
    qft = qft_circuit(m, qft_phase_perturbations, hadamard_thetas[m:])
    ops.extend(qft.ops)  # QFT targets 0..2L-1 embed directly
    return Circuit(spec.n, tuple(ops))


# ---------------------------------------------------------------------------
# decoherence during the initial Hadamard layer


def representative_rows(u: np.ndarray, copies: int) -> np.ndarray:
    """Rows 0, copies, 2 copies, ... of the N x N unitary ``u`` as their own
    array, which ``u`` need not outlive; ``u`` itself when ``copies`` is 1.

    ``copies`` promises that each run of that many consecutive rows is the
    run's first row with its columns XOR-shifted by 0..copies-1 (the rows
    that ``interference.pauli_noise_kernel`` reads).  ``ValueError`` if
    ``copies`` is not a power of two dividing N, or if rows 1..copies-1 are
    not row 0 so shifted (an O(copies N) check of the first run only).
    """
    dim = u.shape[0]
    if copies < 1 or copies & (copies - 1) or dim % copies:
        raise ValueError(f"copies={copies} is not a power of two dividing N={dim}")
    shifted = u[0, np.arange(dim) ^ np.arange(copies)[:, None]]
    if u[:copies].tobytes() != shifted.tobytes():
        raise ValueError(f"rows 1..{copies - 1} are not row 0 with its columns XOR-shifted")
    return u if copies == 1 else np.array(u[::copies])


def column_zero_probabilities(rows: np.ndarray, copies: int) -> np.ndarray:
    """|U[:, 0]|^2 of a unitary held as its representative ``rows``:
    U[(j, y), 0] = rows[j, y], so column 0 is rows[:, :copies]."""
    return (np.abs(rows[:, :copies]) ** 2).ravel()


def check_layer(circuit: Circuit, layer_width: int) -> None:
    """``ValueError`` unless the first ``layer_width`` ops of ``circuit``, its
    initial layer W, are one ``PerturbedHadamard`` on each of qubits 0..m-1,
    in order, so the layer's qubits are ``range(layer_width)``."""
    hadamards = [op for op in circuit.ops[:layer_width] if isinstance(op, PerturbedHadamard)]
    if [op.target for op in hadamards] != list(range(layer_width)):
        raise ValueError(
            f"the initial layer must be one Hadamard on each of qubits 0..{layer_width - 1}, in order"
        )


@dataclass(frozen=True, eq=False)
class AlgorithmUnitaries:
    """An algorithm's circuit, full = rest @ W, for the decoherence set-up
    (``noise_setup``; Shor's unitary-error sweeps read ``view_rows``).  The
    initial layer W, the first ``layer_width`` ops, must pass
    ``check_layer``."""

    circuit: Circuit
    layer_width: int

    def __post_init__(self):
        check_layer(self.circuit, self.layer_width)

    def require_fast_path(self, affected) -> None:
        """``ValueError``, building nothing, if an initial Hadamard is perturbed
        (the fast path's sigma_z H = H sigma_x fails) or ``affected`` is off it."""
        if any(op.theta != math.pi / 4 for op in self.circuit.ops[: self.layer_width]):
            raise ValueError("the fast path needs an exact initial Hadamard layer (every angle pi/4)")
        layer = tuple(range(self.layer_width))
        if not set(affected) <= set(layer):
            raise ValueError(f"affected qubits {affected} outside the initial Hadamard layer {layer}")

    @functools.cached_property
    def rest_circuit(self) -> Circuit:
        """The ops after the initial layer."""
        return Circuit(self.circuit.n, self.circuit.ops[self.layer_width :])


@dataclass(frozen=True, eq=False)
class NoiseSetup:
    """What every qubit subset of a decoherence sweep reads (``noise_setup``):
    the ``pauli_noise_kernel`` of U_full and, when I_au is measured, of
    U_rest (else None); |U_full[:, 0]|^2, read-only; and, for phase flips
    only, U_full's ``_mixture_table`` (else None)."""

    unitaries: AlgorithmUnitaries
    kind: str
    full_kernel: PauliNoiseKernel
    rest_kernel: PauliNoiseKernel | None
    output_probabilities: np.ndarray
    mixture_table: np.ndarray | None


def noise_setup(unitaries: AlgorithmUnitaries, kind: str, measure_au: bool) -> NoiseSetup:
    """The ``NoiseSetup`` of ``kind`` errors on the initial layer of
    ``unitaries``, built once, in this order:

    1. a perturbed layer is refused (``require_fast_path``) before anything
       is built;
    2. U_full's representative rows (``_dense_view_rows``);
    3. from them, its kernel, then its column 0 and, for phase flips only,
       its table: the kernel's transient and the table are never alive at
       once, and bit flips build no table (128 MB at Grover n = 12);
    4. the rows are dropped, and only with ``measure_au`` are U_rest's rows
       and kernel built.

    So one dense unitary is alive at a time; Grover's rows are the whole
    matrix."""
    if kind not in (BITFLIP, PHASEFLIP):
        raise ValueError(f"unknown error kind {kind!r}")
    unitaries.require_fast_path(())
    views = _dense_view_rows(unitaries, measure_au)
    rows, copies = next(views)
    full_kernel = pauli_noise_kernel(rows, copies)
    probs = column_zero_probabilities(rows, copies)
    probs.flags.writeable = False
    table = _mixture_table(rows, copies, unitaries.layer_width) if kind == PHASEFLIP else None
    del rows  # before U_rest is built
    rest_kernel = pauli_noise_kernel(*next(views)) if measure_au else None
    return NoiseSetup(unitaries, kind, full_kernel, rest_kernel, probs, table)


def _dense_view_rows(unitaries: AlgorithmUnitaries, rest: bool) -> Iterator[tuple]:
    """(rows, copies) of U_full and then, with ``rest``, of U_rest, in the
    order of ``view_rows``, each from one ``circuit_unitary`` call whose
    dense result is dropped once ``representative_rows`` has its rows."""
    for view in (unitaries.circuit, unitaries.rest_circuit)[: 1 + rest]:
        copies = xor_row_copies(view)
        yield representative_rows(circuit_unitary(view), copies), copies


def _mixture_table(rows: np.ndarray, copies: int, layer_width: int) -> np.ndarray:
    """|U_full|^2 at every column a phase-flip pattern can reach, from U_full's
    representative ``rows``.

    The layer sits on qubits 0..m-1 of n, so the pattern with hit mask s
    in the layer's m qubits reaches column s << k, k = n - m: row s of
    the C-contiguous 2^m x N table (8 MB for Shor L = 4) is that column's
    |.|^2.  The first register of the XOR split holds the layer, so
    ``copies`` divides 2^k and U_full[(j, y), s << k] = rows[j, (s << k) + y]:
    the table is |rows|^2 seen as (j, s, y) and transposed to (s, j, y).
    """
    m = layer_width
    cols = rows.reshape(rows.shape[0], 1 << m, -1)[:, :, :copies].transpose(1, 0, 2)
    table = np.abs(cols, out=np.empty(cols.shape))
    table **= 2
    return table.reshape(1 << m, -1)


# bytes of view rows that one pass of ``view_rows`` holds (DECISIONS.md,
# "One pass per circuit")
STACK_BYTES = 1 << 19


def view_rows(circuit: Circuit, layer_width: int, rest: bool) -> Iterator[tuple]:
    """(rows, copies) of the representative rows of U_full and then, with
    ``rest``, of U_rest of ``circuit``, whose first ``layer_width`` gates
    are its layer (``check_layer``): both from one ``layer_view_rows`` pass
    if they fit ``STACK_BYTES``, else one pass per view, U_full first, each
    on the view's own circuit with an empty layer, the pass
    ``circuit_unitary`` runs, so the same bytes.  A pass's rows are dropped
    when the view after its last is asked for, so a caller that drops U_full
    before it asks for U_rest holds one lone view at a time."""
    check_layer(circuit, layer_width)
    dim = 1 << circuit.n
    if (1 + rest) * 16 * dim * dim // xor_row_copies(circuit) <= STACK_BYTES:
        yield from _pass_views(circuit, layer_width, rest)
        return
    for view in (circuit, Circuit(circuit.n, circuit.ops[layer_width:]))[: 1 + rest]:
        yield from _pass_views(view, 0, False)


def _pass_views(circuit: Circuit, layer_width: int, rest: bool) -> Iterator[tuple]:
    """``view_rows`` of ``circuit`` from one ``layer_view_rows`` pass."""
    views, copies = layer_view_rows(circuit, layer_width, rest)
    for view in reversed(views):  # U_full, then U_rest
        yield view, copies


def grover_unitaries(spec: GroverSpec) -> AlgorithmUnitaries:
    """Views of the exact Grover circuit (every angle pi/4)."""
    return AlgorithmUnitaries(build_grover(spec), spec.layer_width)


def shor_unitaries(spec: ShorSpec) -> AlgorithmUnitaries:
    """Views of the exact Shor circuit (every angle pi/4, no phase offsets)."""
    return AlgorithmUnitaries(build_shor(spec), spec.layer_width)


def subset_measures(setup: NoiseSetup, affected: tuple, ps) -> tuple:
    """(I_pa, I_au or None, probabilities) of ``setup.kind`` errors on the
    subset S = ``affected`` of the initial layer, at each error probability
    of ``ps``: two lists and a read-only len(ps) x N array, refused where
    ``require_fast_path`` refuses.

    The sums by hits inside S do not depend on p (DECISIONS.md): I_pa weighs
    the ``noise_class_sums`` of U_full's kernel, error kind swapped (sigma_z
    H = H sigma_x), and I_au those of U_rest's, one 1-D dot per p
    (``interference_from_class_sums``).  Bit flips leave the post-layer
    state as it is, so each row of the probabilities is the set-up's
    ``output_probabilities`` (a broadcast view of it); phase flips give
    sum_w p^w (1 - p)^(n_f - w) M[w], where M[w] sums the table rows of the
    patterns within S of w hits, added class by class (``0.0 ** 0`` is 1.0,
    so p = 0 and 1 need no case).  Each element gets the product of its
    Python-float coefficient and the class entry, added in class order, so
    each value has the bits it has in any grid that holds its p."""
    unitaries = setup.unitaries
    unitaries.require_fast_path(affected)
    mask = qubit_mask(affected, unitaries.circuit.n)
    swapped = BITFLIP if setup.kind == PHASEFLIP else PHASEFLIP
    pa = noise_class_sums(setup.full_kernel, swapped, mask)
    i_pa = [interference_from_class_sums(pa, p) for p in ps]
    i_au = None
    if setup.rest_kernel is not None:
        au = noise_class_sums(setup.rest_kernel, setup.kind, mask)
        i_au = [interference_from_class_sums(au, p) for p in ps]
    if setup.kind == BITFLIP:
        probs = setup.output_probabilities
        return i_pa, i_au, np.broadcast_to(probs, (len(ps), len(probs)))
    m, n_f, table = unitaries.layer_width, len(affected), setup.mixture_table
    patterns = np.arange(1 << m)
    patterns = patterns[(patterns & qubit_mask(affected, m)) == patterns]  # those within S
    hits = popcount(patterns)
    probs = np.zeros((len(ps), table.shape[1]))
    for w in range(n_f + 1):
        row = table[patterns[hits == w]].sum(axis=0)
        probs += np.array([p**w * (1.0 - p) ** (n_f - w) for p in ps])[:, None] * row
    probs.flags.writeable = False
    return i_pa, i_au, probs


@dataclass(frozen=True, eq=False)
class DecoherencePoint:
    """One (p, subset) evaluation of a decohered algorithm: I_pa, I_au (None
    without U_rest) and the output distribution from |0...0>."""

    interference_pa: float
    interference_au: float | None
    probabilities: np.ndarray


def decoherence_point(setup: NoiseSetup, model: ErrorModel) -> DecoherencePoint:
    """Fast-path evaluation of one (p, subset) point, ``subset_measures`` at a
    grid of one p, refused where it is and for a model of the other error
    kind; matches the explicit Kraus channels (``tests/oracles.py``) to
    machine precision."""
    if model.kind != setup.kind:
        raise ValueError(f"a {model.kind} model on a {setup.kind} set-up")
    (i_pa,), i_au, (probs,) = subset_measures(setup, model.affected, (model.p,))
    return DecoherencePoint(i_pa, None if i_au is None else i_au[0], probs)


def decoherent_final_probabilities(unitaries: AlgorithmUnitaries, model: ErrorModel) -> np.ndarray:
    """Output distribution of the decohered algorithm started in |0...0>, from
    a set-up of its own without U_rest, refused before it is built."""
    unitaries.require_fast_path(model.affected)
    return decoherence_point(noise_setup(unitaries, model.kind, False), model).probabilities


# ---------------------------------------------------------------------------
# success probabilities


def shor_success(ideal: np.ndarray, observed: np.ndarray) -> float:
    """One minus half the total-variation distance between distributions."""
    return _successes_against(_distribution("ideal", ideal), observed)[0]


def _successes_against(ideal: np.ndarray, observed: np.ndarray) -> list:
    """``shor_success`` of each row of ``observed`` (a 1-D ``observed`` is one
    row), for an ``ideal`` it has accepted: a sweep checks its ideal once.
    Each row is checked and summed on its own (``_row_sums``)."""
    observed = np.atleast_2d(_distribution("observed", observed))
    if ideal.shape != observed.shape[1:]:
        raise ValueError(f"length mismatch: {ideal.shape} vs {observed.shape[1:]}")
    values = [1.0 - 0.5 * gap for gap in _row_sums(np.abs(ideal - observed))]
    return [min(max(value, 0.0), 1.0) for value in values]


def _distribution(name: str, dist: np.ndarray) -> np.ndarray:
    """``dist`` as a float array, once each of its rows (or the 1-D ``dist``
    itself) is found to sum to 1 within 1e-6."""
    dist = np.asarray(dist, dtype=float)
    for total in _row_sums(np.atleast_2d(dist)):
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"{name} distribution sums to {total}, not 1")
    return dist


def final_probabilities(circuit: Circuit) -> np.ndarray:
    """Computational-basis distribution of the circuit applied to |0...0>."""
    psi = circuit_apply(circuit, basis_state(1 << circuit.n))
    return np.abs(psi) ** 2


def register1_marginal(probabilities: np.ndarray, spec: ShorSpec) -> np.ndarray:
    """Distribution over the first register, summing out the second."""
    return probabilities.reshape(1 << spec.layer_width, 1 << spec.L).sum(axis=1)
