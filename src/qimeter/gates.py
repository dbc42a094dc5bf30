"""Parametrized gates and circuits.

Every circuit is built from three gate kinds: the perturbed Hadamard (the
one dense gate, always on a single qubit), diagonal phases (oracle, zero
reflection, QFT controlled phases) and basis permutations (modular
exponentiation, bit reversal).  ``circuit_unitary`` and ``circuit_apply``
share one kernel: each distinct gate is lowered once per process, by content,
into a real 2x2 on one qubit, the rows whose phase is not 1, or a row gather;
the steps run on cached column blocks, with the gate-by-gate oracle's bytes.
One pass, ``_column_blocks``, builds every unitary: it splits the circuits
into head gates on qubits 0..m-1, one permutation |x, y> -> |x, y XOR g(x)>
on all n qubits and tail gates on 0..m-1, and runs them on 2^m-row stacks,
one block of first-register columns at a time, one column per column and
value class of g; any other circuit, each Grover circuit among them, is all
tail on m = n qubits with one class.  It takes several circuits that differ
only in diagonal phases, and both of their views, U_full = U_rest · W and
U_rest, on one column stack.  ``circuit_unitary`` scatters its blocks into
the dense unitary, for the decoherence set-up; ``layer_view_rows`` writes
them into representative rows, the only views a unitary-error sweep builds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SizeLimitError
from .linalg import MAX_QUBITS, UNITARY_ACCEPT_TOL


def perturbed_hadamard(theta: float) -> np.ndarray:
    """The one-parameter Hadamard family [[cos t, sin t], [sin t, -cos t]]:
    theta = pi/4 is the standard Hadamard, 0 gives sigma_z and pi/2 sigma_x."""
    return _real_hadamard(theta).astype(complex)


def _real_hadamard(theta: float) -> np.ndarray:
    """``perturbed_hadamard(theta).real``, the floats the gate kernel uses."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, -c]])


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
        table = np.array(self.table, dtype=np.int64)  # our own read-only copy
        table.flags.writeable = False
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "targets", tuple(self.targets))
        if table.shape != (1 << len(self.targets),):
            raise ValueError(
                f"permutation table of length {table.size} does not match "
                f"{len(self.targets)} target qubit(s)"
            )
        if not np.array_equal(np.sort(table), np.arange(table.size)):
            raise ValueError("permutation table is not a bijection")

    def __reduce__(self):  # a copy or unpickled gate is checked and frozen again
        return type(self), (self.table, self.targets)


@dataclass(frozen=True, eq=False)
class DiagonalPhaseGate:
    """Multiplies local basis state |k> of the target qubits by phases[k]."""

    phases: np.ndarray
    targets: tuple

    def __post_init__(self):
        phases = np.array(self.phases, dtype=complex)  # our own read-only copy
        phases.flags.writeable = False
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "targets", tuple(self.targets))
        if phases.shape != (1 << len(self.targets),):
            raise ValueError(
                f"phase table of length {phases.size} does not match "
                f"{len(self.targets)} target qubit(s)"
            )
        if np.max(np.abs(np.abs(phases) - 1.0)) > UNITARY_ACCEPT_TOL:
            raise ValueError("diagonal phase entries must have unit modulus")

    def __reduce__(self):  # a copy or unpickled gate is checked and frozen again
        return type(self), (self.phases, self.targets)


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
        for targets in dict.fromkeys(op.targets for op in self.ops):  # in order of first use
            if any(t < 0 or t >= self.n for t in targets):
                raise ValueError(f"gate targets {targets} outside 0..{self.n - 1}")
            if len(set(targets)) != len(targets):
                op = next(op for op in self.ops if op.targets == targets)
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
    rev = [int(format(k, f"0{m}b")[::-1], 2) for k in range(1 << m)]
    ops.append(PermutationGate(rev, tuple(range(m))))
    return Circuit(m, tuple(ops))


# ---------------------------------------------------------------------------
# gate application kernel

# bytes of columns per block of _column_blocks, over every stacked circuit
# and view: the block stays in cache while every gate passes over it
GATE_BLOCK_BYTES = 1 << 22


def _local_index(idx, targets, n):
    k = len(targets)
    loc = np.zeros_like(idx)
    for b, t in enumerate(targets):
        loc |= ((idx >> (n - 1 - t)) & 1) << (k - 1 - b)
    return loc


def _content(gate, n, every_row) -> tuple:
    """``_lower``'s arguments: the gate's kind and bits, never its reusable ``id``."""
    if isinstance(gate, PerturbedHadamard):  # hex keeps the sign of -0.0
        return PerturbedHadamard, float(gate.theta).hex(), gate.targets, n, False
    if isinstance(gate, DiagonalPhaseGate):
        return DiagonalPhaseGate, gate.phases.tobytes(), gate.targets, n, every_row
    if isinstance(gate, PermutationGate):
        return PermutationGate, gate.table.tobytes(), gate.targets, n, False
    raise TypeError(f"unknown gate {gate!r}")


@functools.lru_cache(maxsize=1024)  # a sweep's circuits share most of their gates
def _lower(kind, data, targets, n, every_row):
    """The ``_content`` gate as a step on a C-contiguous (2^n, M) complex128 stack."""
    if kind is PerturbedHadamard:
        m, q = _real_hadamard(float.fromhex(data)), targets[0]
        # real einsum on the interleaved floats; each sum starts from +0 (DECISIONS.md)
        return lambda s: np.einsum(
            "ab,xby->xay", m, s.view(float).reshape(1 << q, 2, -1)
        ).reshape(s.shape[0], -1).view(complex)
    idx = np.arange(1 << n)
    if kind is DiagonalPhaseGate:
        factor = np.frombuffer(data, complex)[_local_index(idx, targets, n)]
        # a factor of 1 could change only the sign of a zero, and a later
        # Hadamard's sum from +0 forgets that sign: skip those rows if one follows
        rows = idx if every_row else np.flatnonzero(factor != 1)
        factor = factor[rows, None]

        def multiply(s):
            s[rows] = s[rows] * factor  # out of place, as the oracle multiplies
            return s

        return multiply
    src = np.argsort(_destinations(np.frombuffer(data, np.int64), targets, n))
    return lambda s: s[src]  # row r of the result is row src[r] of s


def _destinations(table: np.ndarray, targets: tuple, n: int) -> np.ndarray:
    """The n-qubit basis index that each basis index moves to under ``table`` on ``targets``."""
    idx = np.arange(1 << n)
    new_loc = table[_local_index(idx, targets, n)]
    dest = idx.copy()
    for b, t in enumerate(reversed(targets)):  # bit b of new_loc goes to wire t
        dest = (dest & ~(1 << (n - 1 - t))) | (((new_loc >> b) & 1) << (n - 1 - t))
    return dest


def _last_hadamard(ops: tuple) -> int:
    """The position of the last ``PerturbedHadamard`` in ``ops``, or -1."""
    return next((i for i in reversed(range(len(ops))) if isinstance(ops[i], PerturbedHadamard)), -1)


def _stack_plan(n: int, op_lists: list, shared: int = 0, skip: int | None = None) -> list:
    """The gate lists ``op_lists``, of equal length, as one plan on ``n``
    qubits for a stack of equal column blocks, block b for list b: a step
    where every list lowers the same, else ``_per_block`` of each list's
    diagonal.  ``ValueError`` naming the first position that holds anything
    else, or a diagonal that differs among the first ``shared``.  Position
    ``skip`` is checked but not lowered.  Where every list holds the same
    object, and the lists end their Hadamards at the same position, that
    object lowers the same for all: its content is taken once."""
    lasts = [_last_hadamard(ops) for ops in op_lists]
    one_last, plan = len(set(lasts)) == 1, []
    for i, gates in enumerate(zip(*op_lists)):
        if one_last and all(g is gates[0] for g in gates):
            column = [_content(gates[0], n, i > lasts[0])]
        else:
            column = [_content(g, n, i > last) for g, last in zip(gates, lasts)]
        first = column[0]
        if all(content == first for content in column):
            if i != skip:
                plan.append(_lower(*first))
        elif i >= shared and all(c[0] is DiagonalPhaseGate and c[2:] == first[2:] for c in column):
            plan.append(_per_block([_lower(*content) for content in column]))
        else:
            raise ValueError(f"gate {i} differs between stacked circuits")
    return plan


def _per_block(diagonals: list):
    """One step: diagonal step b of ``diagonals`` on column block b of the stack,
    in place, the blocks of equal width."""

    def multiply(s):
        width = s.shape[1] // len(diagonals)
        for b, step in enumerate(diagonals):
            step(s[:, b * width : (b + 1) * width])
        return s

    return multiply


def _run(plan: list, stack: np.ndarray) -> np.ndarray:
    """Apply ``plan`` to ``stack``, which its diagonal steps overwrite."""
    if stack.dtype != complex or not stack.flags.c_contiguous:
        raise ValueError("the gate kernel needs a C-contiguous complex128 stack")
    for step in plan:
        stack = step(stack)
    return stack


def _xor_split(n: int, ops: tuple):
    """(head, tail, m, g): ``ops``, on ``n`` qubits, is ``head``, one
    permutation on all n qubits that maps |x, y> to |x, y XOR g(x)> for x on
    qubits 0..m-1, then ``tail``, where head and tail touch only those m
    qubits.  Any other gate list is ((), ops, n, zeros): all tail, one value
    class."""
    wide = [i for i, op in enumerate(ops) if isinstance(op, PermutationGate) and len(op.targets) == n]
    if len(wide) == 1:
        w = wide[0]
        head, tail = ops[:w], ops[w + 1 :]
        m = 1 + max((t for op in head + tail for t in op.targets), default=-1)
        k = n - m  # k = 0 passes only an identity permutation, which the split drops
        moved = _destinations(ops[w].table, ops[w].targets, n) ^ np.arange(1 << n)
        g = (moved & ((1 << k) - 1)).reshape(1 << m, 1 << k)
        if not (np.any(moved >> k) or np.any(g != g[:, :1])):
            return head, tail, m, g[:, 0]
    return (), ops, n, np.zeros(1 << n, np.int64)


def xor_row_copies(c: Circuit) -> int:
    """2^(n - m) for ``c``'s ``_xor_split``: each run of that many rows of its
    unitary is the run's first row with its columns XOR-shifted,
    U[(j, y), (x0, y0)] = U[(j, 0), (x0, y XOR y0)], as ``circuit_unitary``
    writes it (``interference.pauli_noise_kernel``); 1 for one value class."""
    return 1 << (c.n - _xor_split(c.n, c.ops)[2])


def _column_blocks(circuits: Sequence[Circuit], layer_width: int, views: int):
    """(x0, t) for each block of first-register columns from x0 on:
    ``t[:, c, v, x, y0]`` is column (x0 + x, y0) of view v of
    ``circuits[c]`` on its representative rows (``xor_row_copies``), the
    last view U_full = U_rest · W and, with two ``views``, view 0 U_rest.
    W is the first ``layer_width`` gates, shared.

    Columns never mix, so each block's stack [I | W], W the layer's steps
    run on I, goes once through the rest gates: the head, the class columns
    and the tail of the rest's ``_xor_split``, which must hold the layer in
    its first register.  Before the tail, column (x0, y0) holds the head's
    image of column x0 on the rows x where g(x) = y0 and of a zero column
    elsewhere (DECISIONS.md).  The circuits must have equal n, equal gate counts and
    the same gates but for diagonal phases outside the layer (else
    ``ValueError``, naming the position): each step they share runs once on
    every column, and each differing diagonal on its own circuit's block."""
    first, count = circuits[0], len(circuits)
    for c in circuits[1:]:
        if c.n != first.n:
            raise ValueError(f"stacked circuits on {first.n} and {c.n} qubits")
        if len(c.ops) != len(first.ops):
            raise ValueError(f"stacked circuits of {len(first.ops)} and {len(c.ops)} gates")
    head, tail, m, g = _xor_split(first.n, first.ops[layer_width:])
    if any(t >= m for op in first.ops[:layer_width] for t in op.targets):
        raise ValueError(f"the layer acts outside the first register, qubits 0..{m - 1}")
    heads, tails = 1 << m, 1 << (first.n - m)
    shift = int(tails > 1)  # with classes, column 0 of each view's block is the zero column
    cut = layer_width + len(head)  # the XOR permutation, whose step is the class columns
    split = len(head) + len(tail) < len(first.ops) - layer_width  # else cut is no permutation
    plan = _stack_plan(m, [c.ops for c in circuits], layer_width, cut if split else None)
    layer, before, after = plan[:layer_width], plan[layer_width:cut], plan[cut:]
    ours = (g[:, None] == np.arange(tails)).reshape(heads, 1, 1, 1, tails)
    width = max(1, GATE_BLOCK_BYTES // (16 * count * views << first.n))  # x0 per block

    def spread(x0):
        """Block x0 run through the layer and the head, on its class columns;
        ``_run`` takes it unnamed, so no step's input outlives that step."""
        x = np.arange(min(width, heads - x0))
        stack = np.zeros((heads, count, views, shift + len(x)), dtype=complex)
        stack[x0 + x, :, :, shift + x] = 1  # I
        if layer:  # U_full's columns: W, the layer's steps on I
            stack[:, :, -1] = _run(layer, stack[:, 0, -1].copy())[:, None]
        stack = _run(before, stack.reshape(heads, -1)).reshape(stack.shape)
        if shift:
            stack = np.where(ours, stack[..., 1:, None], stack[..., :1, None])
        return stack.reshape(heads, -1)

    for x0 in range(0, heads, width):
        yield x0, _run(after, spread(x0)).reshape(heads, count, views, -1, tails)


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Dense unitary of the circuit (later gates multiply from the left):
    each block of ``_column_blocks`` holds rows (j, 0), and row (j, y) is
    row (j, 0) with its columns (x0, y0) XOR-shifted to (x0, y XOR y0)."""
    u = np.empty((1 << c.n, 1 << c.n), dtype=complex)
    for x0, t in _column_blocks([c], 0, 1):
        heads, _, _, width, tails = t.shape
        k = tails.bit_length() - 1
        t = t.reshape(heads, width, *(2,) * k)
        u_bits = u.reshape(heads, tails, heads, *(2,) * k)  # (j, y, x0, bits of y0)
        for y in range(tails):
            # class y XOR y0 along y0: reverse the class axes of y's set bits
            flips = (slice(None, None, 1 - 2 * (y >> (k - 1 - b) & 1)) for b in range(k))
            u_bits[:, y, x0 : x0 + width] = t[(Ellipsis, *flips)]
    return u


def circuit_apply(c: Circuit, psi: np.ndarray) -> np.ndarray:
    """The circuit applied to a copy of the state ``psi``, with no N x N matrix."""
    psi = np.array(psi, dtype=complex, order="C")
    if psi.shape != (1 << c.n,):
        raise ValueError(f"state of dimension {psi.shape} does not match n={c.n}")
    return _run(_stack_plan(c.n, [c.ops]), psi.reshape(-1, 1)).reshape(-1)


def layer_view_rows(circuits: Sequence[Circuit], layer_width: int, rest: bool) -> tuple:
    """(rows, copies): the representative rows (``xor_row_copies``) of every
    circuit's unitary U_full = U_rest · W and, with ``rest``, of its U_rest,
    each view's ``_column_blocks`` written into its own C-contiguous part of
    one array, ``tobytes()``-equal to ``circuit_unitary``'s; ``rows[c][-1]``
    is U_full's of ``circuits[c]``, ``rows[c][0]`` U_rest's.  W is the first
    ``layer_width`` gates, shared (DECISIONS.md, "One stacked pass per sweep
    point").  Each block is written into the rows as it comes, so the pass
    peaks at its output and one block."""
    for x0, t in _column_blocks(circuits, layer_width, 1 + rest):
        heads, count, views, width, tails = t.shape
        if x0 == 0:
            rows = np.empty((count, views, heads, heads, tails), complex)
        rows[:, :, :, x0 : x0 + width] = t.transpose(1, 2, 0, 3, 4)
        del t  # before the next block is built
    return [[view.reshape(heads, -1) for view in circuit_rows] for circuit_rows in rows], tails
