import copy
import math
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    PAULI_X,
    circuit_target_error,
    circuit_unitary_gate_by_gate,
    embed_local,
    kron,
)
from qimeter import gates
from qimeter.algorithms import (
    AlgorithmUnitaries,
    GroverSpec,
    ShorSpec,
    build_grover,
    build_shor,
    grover_unitaries,
    noise_setup,
    representative_rows,
    shor_unitaries,
)
from qimeter.channels import BITFLIP
from qimeter.errors import SizeLimitError
from qimeter.gates import (
    Circuit,
    DiagonalPhaseGate,
    PermutationGate,
    PerturbedHadamard,
    circuit_apply,
    circuit_unitary,
    layer_view_rows,
    perturbed_hadamard,
    qft_circuit,
    walsh_layer,
    xor_row_copies,
)
from qimeter.harness import default_theta_grid
from qimeter.linalg import HADAMARD, PAULI_Z, basis_state, identity


def pauli_x(q):
    return PermutationGate([1, 0], (q,))


def dft_matrix(m):
    n = 1 << m
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(2j * np.pi * j * k / n) / np.sqrt(n)


class TestPerturbedHadamard:
    def test_standard_hadamard_at_pi_over_4(self):
        np.testing.assert_allclose(perturbed_hadamard(math.pi / 4), HADAMARD, atol=1e-15)

    def test_pauli_limits(self):
        np.testing.assert_allclose(perturbed_hadamard(0.0), PAULI_Z, atol=1e-15)
        np.testing.assert_allclose(perturbed_hadamard(math.pi / 2), PAULI_X, atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-8, 8, allow_nan=False))
    def test_real_symmetric_orthogonal(self, theta):
        m = perturbed_hadamard(theta)
        assert np.max(np.abs(m.imag)) == 0
        np.testing.assert_allclose(m, m.T, atol=1e-15)
        np.testing.assert_allclose(m @ m, np.eye(2), atol=1e-14)
        assert abs(np.linalg.det(m).real + 1) < 1e-12


class TestWalshLayer:
    def test_uniform_superposition(self):
        for n in (1, 3, 5):
            circuit = walsh_layer([math.pi / 4] * n)
            psi = circuit_apply(circuit, basis_state(1 << n))
            np.testing.assert_allclose(psi, np.full(1 << n, 2.0 ** (-n / 2)), atol=1e-12)

    def test_zero_angles_give_diagonal(self):
        u = circuit_unitary(walsh_layer([0.0] * 3))
        np.testing.assert_allclose(u, np.diag(np.diag(u)), atol=1e-15)
        np.testing.assert_allclose(np.abs(np.diag(u)), 1.0, atol=1e-15)

    def test_mixed_angles_match_kron(self):
        u = circuit_unitary(walsh_layer([math.pi / 4, 0.0]))
        np.testing.assert_allclose(u, kron(HADAMARD, PAULI_Z), atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            walsh_layer([])


class TestQft:
    def test_single_qubit_is_hadamard(self):
        np.testing.assert_allclose(circuit_unitary(qft_circuit(1)), HADAMARD, atol=1e-15)

    def test_two_qubit_entries(self):
        u = circuit_unitary(qft_circuit(2))
        j, k = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
        np.testing.assert_allclose(u, 0.5 * 1j ** (j * k), atol=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_matches_analytic_dft(self, m):
        u = circuit_unitary(qft_circuit(m))
        np.testing.assert_allclose(u, dft_matrix(m), atol=1e-9)

    def test_basis_zero_goes_uniform(self):
        psi = circuit_apply(qft_circuit(3), basis_state(8))
        np.testing.assert_allclose(psi, np.full(8, 1 / np.sqrt(8)), atol=1e-12)

    def test_wrong_perturbation_count_rejected(self):
        with pytest.raises(ValueError):
            qft_circuit(3, [0.0, 0.0])

    def test_controlled_phases_are_diagonals(self):
        phases = [op.phases for op in qft_circuit(3).ops if isinstance(op, DiagonalPhaseGate)]
        np.testing.assert_allclose(
            phases, [[1, 1, 1, 1j], [1, 1, 1, np.exp(1j * math.pi / 4)], [1, 1, 1, 1j]],
            atol=1e-15,
        )

    def test_phase_perturbations_shift_angles(self):
        # m=2 has a single two-qubit gate; a delta of pi flips its sign
        u0 = circuit_unitary(qft_circuit(2, [0.0]))
        u1 = circuit_unitary(qft_circuit(2, [math.pi]))
        assert np.max(np.abs(u0 - u1)) > 0.5


class TestCircuitUnitary:
    def test_empty_circuit(self):
        np.testing.assert_array_equal(circuit_unitary(Circuit(2, ())), identity(4))

    def test_walsh_cube_entries(self):
        u = circuit_unitary(walsh_layer([math.pi / 4] * 3))
        np.testing.assert_allclose(np.abs(u), 1 / np.sqrt(8), atol=1e-12)

    def test_pauli_x_involution(self):
        c = Circuit(2, (pauli_x(0), pauli_x(0)))
        np.testing.assert_allclose(circuit_unitary(c), identity(4), atol=1e-15)

    def test_qubit_count_cap(self):
        with pytest.raises(SizeLimitError):
            Circuit(13, ())


def random_mixed_circuit(n, rng):
    perm = rng.permutation(1 << 2)
    phases = np.exp(1j * rng.uniform(0, 2 * math.pi, 1 << n))
    ops = (
        PerturbedHadamard(rng.uniform(0, math.pi), 0),
        DiagonalPhaseGate([1, 1, 1, np.exp(1j * rng.uniform(0, 2 * math.pi))], (n - 1, 1)),
        PermutationGate(perm, (1, n - 1)),
        DiagonalPhaseGate(phases, tuple(range(n))),
        PerturbedHadamard(rng.uniform(0, math.pi), 2),
        pauli_x(n - 2),
    )
    return Circuit(n, ops)


class TestCircuitApply:
    def test_permutation_moves_basis_state(self):
        table = np.array([2, 0, 3, 1])
        c = Circuit(2, (PermutationGate(table, (0, 1)),))
        for k in range(4):
            psi = circuit_apply(c, basis_state(4, k))
            np.testing.assert_array_equal(psi, basis_state(4, table[k]))

    def test_permutation_on_sub_register(self):
        # permute qubits (0, 2) of three; qubit 1 untouched
        table = np.array([1, 2, 3, 0])
        c = Circuit(3, (PermutationGate(table, (0, 2)),))
        u = circuit_unitary(c)
        for k in range(8):
            hi, mid, lo = k >> 2, (k >> 1) & 1, k & 1
            loc = (hi << 1) | lo
            moved = table[loc]
            dest = ((moved >> 1) << 2) | (mid << 1) | (moved & 1)
            assert u[dest, k] == 1

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_unitary_on_random_states(self, seed):
        rng = np.random.default_rng(seed)
        n = 4
        c = random_mixed_circuit(n, rng)
        psi = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        psi /= np.linalg.norm(psi)
        np.testing.assert_allclose(
            circuit_apply(c, psi), circuit_unitary(c) @ psi, atol=1e-10
        )

    def test_basis_columns_reconstruct_unitary(self):
        rng = np.random.default_rng(99)
        c = random_mixed_circuit(5, rng)
        u = circuit_unitary(c)
        rebuilt = np.column_stack(
            [circuit_apply(c, basis_state(1 << 5, k)) for k in range(1 << 5)]
        )
        np.testing.assert_allclose(rebuilt, u, atol=1e-10)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            circuit_apply(Circuit(2, ()), basis_state(8))

    @pytest.mark.parametrize("targets", [(0, 3), (3, 1), (2, 0)])
    def test_two_qubit_gates_match_embed_local(self, targets):
        rng = np.random.default_rng(17)
        table = rng.permutation(4)
        phases = np.exp(1j * rng.uniform(0, 2 * math.pi, 4))
        perm = np.zeros((4, 4))
        perm[table, np.arange(4)] = 1
        c = Circuit(4, (PermutationGate(table, targets), DiagonalPhaseGate(phases, targets)))
        np.testing.assert_allclose(
            circuit_unitary(c), embed_local(np.diag(phases) @ perm, targets, 4), atol=1e-12
        )


class TestAngleList:
    def test_callers_keep_their_labels(self):
        grover_label = r"expected 9 Hadamard angles \(n \+ 2nk for n=3, k=1\), got 1"
        with pytest.raises(ValueError, match=grover_label):
            build_grover(GroverSpec(3, 0, 1), [0.1])
        with pytest.raises(ValueError, match="expected 8 Hadamard angles, got 1"):
            build_shor(ShorSpec(2, 3, 2), [0.1])
        with pytest.raises(ValueError, match="expected 3 phase perturbations for m=3, got 2"):
            qft_circuit(3, [0.0, 0.0])


class TestGateValidation:
    def test_permutation_must_be_bijection(self):
        with pytest.raises(ValueError):
            PermutationGate(np.array([0, 0]), (0,))

    def test_diagonal_signs_must_be_unit(self):
        with pytest.raises(ValueError):
            DiagonalPhaseGate(np.array([1, 2]), (0,))

    def test_targets_inside_register(self):
        with pytest.raises(ValueError):
            Circuit(2, (pauli_x(2),))

    def test_gates_own_read_only_arrays(self):
        # the checks ran on the caller's values: a later write to them must not reach the gate
        phases, table = np.array([1, 1j]), np.array([1, 0])
        diagonal, permutation = DiagonalPhaseGate(phases, (0,)), PermutationGate(table, (0,))
        phases[1], table[:] = 5, [0, 1]
        assert diagonal.phases.tolist() == [1, 1j] and permutation.table.tolist() == [1, 0]
        u = circuit_unitary(Circuit(1, (diagonal, permutation)))
        assert u.tobytes() == np.array([[0, 1j], [1, 0]]).tobytes()
        for array in (diagonal.phases, permutation.table):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    @pytest.mark.parametrize(
        "duplicate",
        [lambda g: pickle.loads(pickle.dumps(g)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_copies_own_read_only_arrays(self, duplicate):
        # unpickling a frozen dataclass skips __post_init__, which freezes the array
        for gate, name in [
            (DiagonalPhaseGate([1, 1j, -1, np.exp(0.3j)], (1, 0)), "phases"),
            (PermutationGate([2, 0, 3, 1], (0, 1)), "table"),
        ]:
            twin = duplicate(gate)
            array = getattr(twin, name)
            assert type(twin) is type(gate) and twin.targets == gate.targets
            assert array.tobytes() == getattr(gate, name).tobytes()
            assert gates._content(twin, 2, True) == gates._content(gate, 2, True)
            with pytest.raises(ValueError, match="read-only"):
                array[1] = 5
            u = circuit_unitary(Circuit(2, (twin,)))
            assert u.tobytes() == circuit_unitary(Circuit(2, (gate,))).tobytes()

    def test_refuses_what_a_check_of_every_op_refuses(self):
        # each distinct target tuple is checked once, in order of first use,
        # so the first bad op is refused with the same message
        rng = np.random.default_rng(31)
        refused = 0
        for _ in range(400):
            n = int(rng.integers(1, 5))
            ops = []
            for _ in range(int(rng.integers(1, 8))):
                targets = [int(t) for t in rng.permutation(n)[: rng.integers(1, 3)]]
                if rng.random() < 0.15:  # out of range on either side, or a repeat
                    targets[-1] = int(rng.choice([-1, n, targets[0]]))
                targets = tuple(targets)
                kind = rng.random()
                if kind < 0.4:
                    ops.append(PerturbedHadamard(0.3, targets[0]))
                elif kind < 0.7:
                    ops.append(DiagonalPhaseGate(np.ones(1 << len(targets)), targets))
                else:
                    ops.append(PermutationGate(rng.permutation(1 << len(targets)), targets))
            expected = circuit_target_error(n, ops)
            if expected is None:
                assert Circuit(n, ops).ops == tuple(ops)
                continue
            refused += 1
            with pytest.raises(ValueError) as info:
                Circuit(n, ops)
            assert str(info.value) == expected
        assert 100 < refused < 300


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def grover_angles(spec, kind):
    if kind == "pi/4":
        return None
    if kind == "uniform":
        return [0.37] * spec.n_hadamards
    return list(np.random.default_rng(spec.n).uniform(0, math.pi, spec.n_hadamards))


def perturbed_shor(L, R, a):
    """The Shor circuit at random angles and QFT phase offsets, and its spec."""
    spec = ShorSpec(L, R, a)
    rng = np.random.default_rng(L)
    circuit = build_shor(
        spec,
        list(rng.uniform(0, math.pi, spec.n_hadamards)),
        list(rng.uniform(-3, 3, spec.n_qft_phases)),
    )
    return circuit, spec


def with_rest(full, spec):
    """The circuit and its remainder after the initial layer."""
    return full, Circuit(full.n, full.ops[spec.layer_width :])


# phases that make exact zeros and signed zeros: 1, the axes and every quadrant
EDGE_PHASES = np.exp(1j * np.array([0.0, 0.5, 1.0, 1.5, -0.5, 0.8, -0.8, 1.2, -1.2]) * math.pi)
EDGE_ANGLES = [0.0, math.pi / 4, math.pi / 2, math.pi, -math.pi / 2, 0.37]


def edge_circuit(rng):
    """Gates of every kind at edge angles, with half of each diagonal exactly 1
    and diagonals after the last Hadamard."""
    n = int(rng.integers(2, 6))
    return Circuit(n, tuple(edge_ops(rng, n, int(rng.integers(3, 12)))))


def edge_ops(rng, n, count):
    """``count`` gates of ``edge_circuit``'s kinds on qubits 0..n-1."""
    ops = []
    for _ in range(count):
        kind = rng.random()
        targets = tuple(int(t) for t in rng.permutation(n)[: rng.integers(1, n + 1)])
        if kind < 0.35:
            ops.append(PerturbedHadamard(float(rng.choice(EDGE_ANGLES)), targets[0]))
        elif kind < 0.8:
            size = 1 << len(targets)
            phases = np.where(rng.random(size) < 0.5, 1.0, rng.choice(EDGE_PHASES, size))
            ops.append(DiagonalPhaseGate(phases, targets))
        else:
            ops.append(PermutationGate(rng.permutation(1 << len(targets)), targets))
    return ops


class TestKernelMatchesGateByGate:
    """The column-blocked kernel reproduces the gate-by-gate oracle's bytes."""

    @pytest.mark.parametrize("kind", ["pi/4", "uniform", "random"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_grover(self, n, kind):
        spec = GroverSpec(n, (1 << n) - 2)
        for c in with_rest(build_grover(spec, grover_angles(spec, kind)), spec):
            assert same_bytes(circuit_unitary(c), circuit_unitary_gate_by_gate(c))

    @pytest.mark.parametrize("L, R, a", [(2, 3, 2), (3, 7, 3), (3, 5, 2)])
    def test_shor_with_perturbed_angles_and_phases(self, L, R, a):
        for c in with_rest(*perturbed_shor(L, R, a)):
            assert same_bytes(circuit_unitary(c), circuit_unitary_gate_by_gate(c))

    def test_edge_circuits(self):
        # a factor-1 row is skipped only where a later Hadamard forgets the
        # sign of zero that multiplying by 1 could have changed
        rng = np.random.default_rng(2024)
        for _ in range(300):
            c = edge_circuit(rng)
            assert same_bytes(circuit_unitary(c), circuit_unitary_gate_by_gate(c)), c.ops

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_column_blocks(self, n, width, monkeypatch):
        # blocks of `width` columns; 3 leaves a short last block
        monkeypatch.setattr(gates, "GATE_BLOCK_BYTES", 16 * width << n)
        rng = np.random.default_rng(n)
        spec = GroverSpec(n, 1)
        circuits = [random_mixed_circuit(n, rng), edge_circuit(rng)]
        for c in [*circuits, *with_rest(build_grover(spec, grover_angles(spec, "random")), spec)]:
            assert same_bytes(circuit_unitary(c), circuit_unitary_gate_by_gate(c))

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_circuit_apply_is_column_zero(self, n):
        spec = GroverSpec(n, 1)
        for c in with_rest(build_grover(spec, grover_angles(spec, "random")), spec):
            column = np.ascontiguousarray(circuit_unitary_gate_by_gate(c)[:, 0])
            assert same_bytes(circuit_apply(c, basis_state(1 << n)), column)

    def test_lone_element_diagonal(self, monkeypatch):
        # one row with a phase other than 1, before a Hadamard, on a
        # one-column stack: numpy multiplies one element in place by a loop
        # that rounds otherwise
        monkeypatch.setattr(gates, "GATE_BLOCK_BYTES", 16 << 2)  # one column per block
        rng = np.random.default_rng(5)
        for _ in range(50):
            angles, phases = rng.uniform(0, math.pi, 3), np.exp(1j * rng.uniform(0, 2 * math.pi, 2))
            complex_amplitudes = (  # the product's rounding shows only on complex inputs
                PerturbedHadamard(angles[0], 0),
                PerturbedHadamard(angles[1], 1),
                DiagonalPhaseGate([1, phases[0]], (0,)),
                PerturbedHadamard(angles[2], 0),
            )
            lone = DiagonalPhaseGate([1, 1, 1, phases[1]], (0, 1))
            c = Circuit(2, (*complex_amplitudes, lone, PerturbedHadamard(0.3, 0)))
            oracle = circuit_unitary_gate_by_gate(c)
            assert same_bytes(circuit_unitary(c), oracle)
            assert same_bytes(circuit_apply(c, basis_state(4)), np.ascontiguousarray(oracle[:, 0]))

    @pytest.mark.parametrize("n", [3, 5])
    def test_grover_rest_view(self, n):
        spec = GroverSpec(n, 1)
        full = build_grover(spec, grover_angles(spec, "random"))
        _, rest = with_rest(full, spec)
        uni = AlgorithmUnitaries(full, spec.layer_width)
        assert same_bytes(circuit_unitary(uni.rest_circuit), circuit_unitary_gate_by_gate(rest))

    @pytest.mark.parametrize("L, R, a", [(2, 3, 2), (3, 7, 3)])
    def test_shor_rest_view(self, L, R, a):
        full, spec = perturbed_shor(L, R, a)
        _, rest = with_rest(full, spec)
        uni = AlgorithmUnitaries(full, spec.layer_width)
        assert same_bytes(circuit_unitary(uni.rest_circuit), circuit_unitary_gate_by_gate(rest))

    def test_peak_memory_is_one_output(self, monkeypatch):
        # the oracle holds two N x N stacks at once and fails this bound
        n = 8
        monkeypatch.setattr(gates, "GATE_BLOCK_BYTES", 16 * 8 << n)
        mixed = random_mixed_circuit(n, np.random.default_rng(8))
        c = Circuit(n, walsh_layer([0.3] * n).ops + mixed.ops)
        tracemalloc.start()
        try:
            u = circuit_unitary(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * u.nbytes


def xor_table(m, k, g, moved_x=0):
    """|x, y> -> |x XOR moved_x, y XOR g[x]> on m + k qubits."""
    idx = np.arange(1 << (m + k))
    x, y = idx >> k, idx & ((1 << k) - 1)
    return ((x ^ moved_x) << k) | (y ^ g[x])


def xor_split_circuit(rng):
    """Head gates on qubits 0..m-1, one permutation |x, y> -> |x, y XOR g(x)>
    on all n qubits, head gates again.  A Hadamard layer opens the head, a
    diagonal sits just before the permutation and one closes the circuit,
    after its last Hadamard."""
    m, k = int(rng.integers(1, 5)), int(rng.integers(1, 4))

    def diagonal():
        phases = np.where(rng.random(1 << m) < 0.5, 1.0, rng.choice(EDGE_PHASES, 1 << m))
        return DiagonalPhaseGate(phases, tuple(range(m)))

    head = [PerturbedHadamard(float(rng.choice(EDGE_ANGLES)), q) for q in range(m)]
    head += edge_ops(rng, m, int(rng.integers(0, 6)))
    xor = PermutationGate(xor_table(m, k, rng.integers(0, 1 << k, 1 << m)), tuple(range(m + k)))
    tail = edge_ops(rng, m, int(rng.integers(0, 8)))
    return Circuit(m + k, (*head, diagonal(), xor, *tail, diagonal()))


@pytest.fixture
def splits(monkeypatch):
    """((n, ops), split) for each ``gates._xor_split`` that ``circuit_unitary``
    and ``xor_row_copies`` take."""
    calls = []
    split = gates._xor_split

    def recorded(n, ops):
        calls.append(((n, ops), split(n, ops)))
        return calls[-1][1]

    monkeypatch.setattr(gates, "_xor_split", recorded)
    return calls


def split_args(c):
    """(n, ops), the arguments of ``gates._xor_split`` for ``c``."""
    return c.n, c.ops


def splits_of(splits, circuits):
    """The recorded splits took, in order, the gate list of each of ``circuits``."""
    return len(splits) == len(circuits) and all(
        n == c.n and ops is c.ops for ((n, ops), _), c in zip(splits, circuits)
    )


def is_one_class(args, split):
    """``split`` is ((), ops, n, zeros): all tail, on every qubit."""
    (n, ops), (head, tail, m, g) = args, split
    return head == () and tail is ops and m == n and g.shape == (1 << n,) and not g.any()


def is_xor_split(args, split, m):
    """``split`` cuts ``ops`` around one permutation on all n qubits, with
    the first register on qubits 0..m-1."""
    (n, ops), (head, tail, split_m, g) = args, split
    wide = ops[len(head)]
    return (
        split_m == m < n
        and head + (wide,) + tail == ops
        and isinstance(wide, PermutationGate)
        and len(wide.targets) == n
        and g.shape == (1 << m,)
    )


class TestXorSplitRoute:
    """Every circuit runs as head, XOR, tail on first-register stacks and
    reproduces the gate-by-gate oracle's bytes: a circuit of Shor's shape
    with one column per first-register column and value class of g, any
    other circuit as all tail on every qubit, with one class."""

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "perturbed"])
    @pytest.mark.parametrize("R, a", [(3, 1), (3, 2), (5, 2)] + [(7, a) for a in range(1, 7)])
    def test_shor(self, R, a, exact, splits):
        spec = ShorSpec.for_modulus(R, a)
        full = build_shor(spec) if exact else perturbed_shor(spec.L, R, a)[0]
        circuits = with_rest(full, spec)
        for c in circuits:
            assert same_bytes(circuit_unitary(c), circuit_unitary_gate_by_gate(c))
        assert splits_of(splits, circuits)
        powers = [pow(a, x, R) for x in range(1 << 2 * spec.L)]
        for c, split in splits:
            assert is_xor_split(c, split, 2 * spec.L)
            assert split[3].tolist() == powers

    def test_random_circuits(self, splits):
        rng = np.random.default_rng(15)
        for _ in range(300):
            c = xor_split_circuit(rng)
            assert same_bytes(circuit_unitary(c), circuit_unitary_gate_by_gate(c)), c.ops
        assert len(splits) == 300
        for (n, ops), split in splits:
            m = 1 + max(t for op in ops if len(op.targets) < n for t in op.targets)
            assert is_xor_split((n, ops), split, m)

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_column_blocks(self, width, monkeypatch, splits):
        # blocks of `width` first-register columns, each with all 2^k classes;
        # 3 leaves a short last block
        rng = np.random.default_rng(width)
        for c in [*with_rest(*perturbed_shor(2, 3, 2)), xor_split_circuit(rng)]:
            monkeypatch.setattr(gates, "GATE_BLOCK_BYTES", 16 * width << c.n)
            assert same_bytes(circuit_unitary(c), circuit_unitary_gate_by_gate(c))
        assert len(splits) == 3
        assert all(split[2] < n for (n, _), split in splits)

    @staticmethod
    def fallbacks():
        spec = ShorSpec(3, 7, 3)
        shor = build_shor(spec)
        head, modexp, tail = shor.ops[:6], shor.ops[6], shor.ops[7:]
        g = np.array([pow(3, x, 7) for x in range(64)])
        moves_x = PermutationGate(xor_table(6, 3, g, moved_x=5), tuple(range(9)))
        idx = np.arange(512)
        adds = PermutationGate((idx & ~7) | ((idx + g[idx >> 3]) & 7), tuple(range(9)))
        return {
            "moves-x": Circuit(9, (*head, moves_x, *tail)),
            "adds-not-xors": Circuit(9, (*head, adds, *tail)),
            "tail-hadamard": Circuit(9, (*shor.ops, PerturbedHadamard(0.37, 8))),
            "two-wide": Circuit(9, (*head, modexp, *tail, modexp)),
        }

    @pytest.mark.parametrize("case", ["moves-x", "adds-not-xors", "tail-hadamard", "two-wide"])
    def test_other_circuits_are_one_class(self, case, splits):
        c = self.fallbacks()[case]
        assert same_bytes(circuit_unitary(c), circuit_unitary_gate_by_gate(c))
        [(_, split)] = splits
        assert is_one_class(split_args(c), split)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_grover_views_are_one_class(self, n, splits):
        spec = GroverSpec(n, (1 << n) - 2)
        uni = grover_unitaries(spec)
        noise_setup(uni, BITFLIP, True)
        # each view's rows split its circuit for xor_row_copies and for circuit_unitary
        assert splits_of(splits, [uni.circuit] * 2 + [uni.rest_circuit] * 2)
        assert all(is_one_class(c, split) for c, split in splits)

    def test_shor_views_split_at_the_first_register(self, splits):
        uni = shor_unitaries(ShorSpec(3, 5, 2))
        noise_setup(uni, BITFLIP, True)
        assert splits_of(splits, [uni.circuit] * 2 + [uni.rest_circuit] * 2)
        assert all(is_xor_split(c, split, 6) for c, split in splits)

    def test_split_drops_an_identity_permutation(self):
        # every qubit is in the first register (k = 0), so the split holds
        # only for a permutation that moves nothing
        n, rng = 4, np.random.default_rng(9)
        head, tail = (
            [op for op in edge_ops(rng, n, 8) if not isinstance(op, PermutationGate)]
            for _ in range(2)
        )
        c = Circuit(n, (*head, PermutationGate(np.arange(16), tuple(range(n))), *tail))
        split = gates._xor_split(*split_args(c))
        assert split[:3] == (tuple(head), tuple(tail), n) and not split[3].any()
        assert same_bytes(circuit_unitary(c), circuit_unitary_gate_by_gate(c))

    @pytest.mark.parametrize("n", [1, 3])
    def test_lone_xor_has_an_empty_first_register(self, n):
        # m = 0: the permutation XORs the one value 5 % 2^n into every index
        c = Circuit(n, (PermutationGate(np.arange(1 << n) ^ 5 % (1 << n), tuple(range(n))),))
        split = gates._xor_split(*split_args(c))
        assert split[:3] == ((), (), 0) and split[3].tolist() == [5 % (1 << n)]
        assert same_bytes(circuit_unitary(c), circuit_unitary_gate_by_gate(c))

    def test_one_class_does_no_class_work(self, monkeypatch):
        # the stacks that a step runs on, in order: with one class, one tail
        # pass per block of identity columns and no zero column
        shapes = []
        run = gates._run

        def recorded(plan, stack):
            if plan:
                shapes.append(stack.shape)
            return run(plan, stack)

        monkeypatch.setattr(gates, "_run", recorded)
        monkeypatch.setattr(gates, "GATE_BLOCK_BYTES", 16 * 6 << 4)
        circuit_unitary(build_grover(GroverSpec(4, 3)))
        assert shapes == [(16, 6), (16, 6), (16, 4)]
        shapes.clear()
        monkeypatch.setattr(gates, "GATE_BLOCK_BYTES", 16 * 3 << 6)
        circuit_unitary(build_shor(ShorSpec(2, 3, 2)))
        # with classes, per block the head on its 3 columns and one zero
        # column, then the tail on their 3 x 4 class columns
        assert shapes == [(16, 4), (16, 12)] * 5 + [(16, 2), (16, 4)]

    @pytest.mark.parametrize("rest", [False, True], ids=["full", "rest"])
    def test_peak_memory_below_one_and_a_half_outputs(self, rest):
        spec = ShorSpec(3, 7, 3)
        c = with_rest(build_shor(spec), spec)[rest]
        tracemalloc.start()
        try:
            u = circuit_unitary(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * u.nbytes


def edge_diagonal(rng, targets):
    size = 1 << len(targets)
    return DiagonalPhaseGate(np.where(rng.random(size) < 0.5, 1.0, rng.choice(EDGE_PHASES, size)), targets)


def edge_family(rng, layer_ops=0):
    """(circuit, layer_width): a layer of edge-angle Hadamards on qubits
    0..m-1, then ``layer_ops`` ``edge_ops`` gates on those qubits, and later
    gates on them (``edge_ops``' phases, half of them 1).  Half the time an
    XOR permutation onto k more qubits sits among the later gates; a
    diagonal on the whole first register closes the circuit."""
    m, k = int(rng.integers(1, 5)), int(rng.integers(1, 3)) * int(rng.random() < 0.5)
    layer = [PerturbedHadamard(float(rng.choice(EDGE_ANGLES)), q) for q in range(m)]
    layer += edge_ops(rng, m, layer_ops)
    later = edge_ops(rng, m, int(rng.integers(1, 10)))
    if k:
        xor = PermutationGate(xor_table(m, k, rng.integers(0, 1 << k, 1 << m)), tuple(range(m + k)))
        later.insert(int(rng.integers(0, len(later) + 1)), xor)
    later.append(edge_diagonal(rng, tuple(range(m))))
    return Circuit(m + k, (*layer, *later)), len(layer)


def assert_views_match(c, layer_width, rest):
    """Every view of ``layer_view_rows`` has the bytes of ``circuit_unitary``'s
    representative rows of that view's circuit."""
    views, copies = layer_view_rows(c, layer_width, rest)
    assert len(views) == 1 + rest
    assert copies == xor_row_copies(c)
    assert same_bytes(views[-1], representative_rows(circuit_unitary(c), copies)), c.ops
    if rest:
        rest_unitary = circuit_unitary(Circuit(c.n, c.ops[layer_width:]))
        assert same_bytes(views[0], representative_rows(rest_unitary, copies)), c.ops


def assert_views_match_gate_by_gate(c, layer_width, rest):
    """Every view of ``layer_view_rows`` has the bytes of the gate-by-gate
    oracle's representative rows of that view's circuit; the rows' copies."""
    views, copies = layer_view_rows(c, layer_width, rest)
    expected = [Circuit(c.n, c.ops[layer_width:])] * rest + [c]
    assert len(views) == len(expected)
    for view, e in zip(views, expected):
        assert same_bytes(view, representative_rows(circuit_unitary_gate_by_gate(e), copies)), e.ops
    return copies


class TestLayerViewRows:
    """One column-stacked pass gives both views of a circuit the bytes of
    their own ``circuit_unitary`` calls."""

    @pytest.mark.parametrize("rest", [True, False], ids=["both", "full"])
    def test_edge_families(self, rest):
        rng = np.random.default_rng(23)
        for _ in range(150):
            assert_views_match(*edge_family(rng), rest)

    @pytest.mark.parametrize("L, R, a", [(2, 3, 2), (3, 7, 3)])
    def test_perturbed_shor(self, L, R, a):
        full, spec = perturbed_shor(L, R, a)
        assert_views_match(full, spec.layer_width, True)

    @staticmethod
    def block_families():
        """(circuit, layer_width): edge families, some with diagonals and
        permutations in the layer, the Grover n = 4 classes at random angles
        and the perturbed Shor L = 2 and 3 circuits."""
        rng = np.random.default_rng(41)
        families = [edge_family(rng, int(rng.integers(0, 4))) for _ in range(40)]
        spec = GroverSpec(4, 0)
        angles = grover_angles(spec, "random")
        families += [(build_grover(replace(spec, alpha=alpha), angles), 4) for alpha in (0, 1, 3, 7, 15)]
        for L, R, a in [(2, 3, 2), (3, 7, 3)]:
            full, spec = perturbed_shor(L, R, a)
            families.append((full, spec.layer_width))
        return families

    @pytest.mark.parametrize("rest", [True, False], ids=["both", "full"])
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_column_blocks(self, width, rest, monkeypatch):
        # blocks of `width` first-register columns; 3 leaves a short last block
        starts, blocks = [], gates._column_blocks

        def recorded(*args):
            for x0, t in blocks(*args):
                starts.append(x0)
                yield x0, t

        monkeypatch.setattr(gates, "_column_blocks", recorded)
        for circuit, layer_width in self.block_families():
            n, starts[:] = circuit.n, []
            monkeypatch.setattr(gates, "GATE_BLOCK_BYTES", 16 * width * (1 + rest) << n)
            copies = assert_views_match_gate_by_gate(circuit, layer_width, rest)
            assert starts == list(range(0, (1 << n) // copies, width))

    @pytest.mark.parametrize("block_bytes", [1 << 22, 1 << 16], ids=["one-block", "many-blocks"])
    @pytest.mark.parametrize(
        "circuit",
        [
            build_grover(GroverSpec(8, 3), grover_angles(GroverSpec(8, 3), "random")),
            perturbed_shor(3, 7, 3)[0],
        ],
        ids=["grover-8", "shor-7-3"],
    )
    def test_peak_memory_is_rows_and_one_block(self, circuit, block_bytes, monkeypatch):
        # each block is written into the rows as it comes and dropped before
        # the next one is built, so the pass holds its rows and the block in
        # flight, never every block and a joined copy, and it peaks no
        # higher than circuit_unitary on the same circuit
        monkeypatch.setattr(gates, "GATE_BLOCK_BYTES", block_bytes)

        def blocks_alone():
            for _, t in gates._column_blocks(circuit, 0, 1):
                del t

        builds = [
            blocks_alone,
            lambda: layer_view_rows(circuit, 0, False),
            lambda: circuit_unitary(circuit),
        ]
        peaks = []
        for build in builds:
            build()  # every step lowered
            tracemalloc.start()
            build()
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        rows = (16 << 2 * circuit.n) // xor_row_copies(circuit)
        assert peaks[1] <= peaks[0] + rows + 4096 and peaks[1] <= peaks[2]

    def test_refuses_a_layer_outside_the_first_register(self):
        # the XOR permutation after the layer splits off qubit 2, which the layer touches
        xor = PermutationGate(xor_table(2, 1, np.array([0, 1, 1, 0])), (0, 1, 2))
        layer = (PerturbedHadamard(0.3, 0), PerturbedHadamard(0.3, 2))
        c = Circuit(3, (*layer, DiagonalPhaseGate([1, 1j, -1, 1], (0, 1)), xor))
        with pytest.raises(ValueError, match="the layer acts outside the first register"):
            layer_view_rows(c, 2, True)


class TestKernelInputs:
    """Diagonal steps write in place, so the kernel only ever sees a private
    C-contiguous complex128 stack."""

    @staticmethod
    def circuit():
        # a diagonal first, so an in-place step would meet the input itself
        rng = np.random.default_rng(4)
        first = DiagonalPhaseGate(np.exp(1j * rng.uniform(0, 2 * math.pi, 16)), (0, 1, 2, 3))
        return Circuit(4, (first, *random_mixed_circuit(4, rng).ops))

    @staticmethod
    def state(rng):
        return rng.standard_normal(16) + 1j * rng.standard_normal(16)

    def test_read_only_state(self):
        psi = self.state(np.random.default_rng(1))
        psi.setflags(write=False)
        expected = circuit_apply(self.circuit(), psi.copy())
        assert same_bytes(circuit_apply(self.circuit(), psi), expected)

    def test_strided_column(self):
        m = np.stack([self.state(np.random.default_rng(s)) for s in range(3)], axis=1)
        column = m[:, 0]
        assert not column.flags.c_contiguous
        expected = circuit_apply(self.circuit(), np.ascontiguousarray(column))
        assert same_bytes(circuit_apply(self.circuit(), column), expected)

    def test_state_unchanged(self):
        psi = self.state(np.random.default_rng(2))
        before = psi.tobytes()
        out = circuit_apply(self.circuit(), psi)
        assert psi.tobytes() == before
        assert not np.shares_memory(out, psi)
        assert not np.shares_memory(circuit_apply(Circuit(4, ()), psi), psi)

    @pytest.mark.parametrize(
        "stack",
        [
            np.eye(16, 32, dtype=complex)[:, ::2],
            np.asfortranarray(np.eye(16, 4, dtype=complex)),
            np.eye(16, 4),
        ],
        ids=["strided", "fortran", "float"],
    )
    def test_stack_that_would_be_misread_refused(self, stack):
        c = self.circuit()
        with pytest.raises(ValueError, match="C-contiguous complex128"):
            gates._run(gates._stack_plan(c.n, c.ops), stack)


class TestLoweringCache:
    """Each distinct gate is lowered once per process, keyed by its content
    (never by ``id``, which a new gate takes over once the old one is freed),
    and every circuit still gets the gate-by-gate oracle's bytes."""

    def test_many_circuits_in_one_process(self):
        # a full theta grid for every marked item (each build makes new oracle
        # objects, which reuse the ids of freed ones), then random draws, then
        # the same angles on other targets and registers
        spec = GroverSpec(3, 0)
        for theta in default_theta_grid():
            for alpha in range(8):
                full = build_grover(replace(spec, alpha=alpha), [theta] * spec.n_hadamards)
                for c in with_rest(full, spec):
                    assert same_bytes(circuit_unitary(c), circuit_unitary_gate_by_gate(c))
        rng = np.random.default_rng(50)
        grover, shor = GroverSpec(4, 0), ShorSpec(2, 3, 2)
        for _ in range(50):
            thetas = rng.uniform(0, math.pi, grover.n_hadamards)
            full = build_grover(replace(grover, alpha=int(rng.integers(16))), thetas)
            circuits = with_rest(full, grover)
            thetas = rng.uniform(0, math.pi, shor.n_hadamards)
            deltas = rng.uniform(-3, 3, shor.n_qft_phases)
            circuits += with_rest(build_shor(shor, thetas, deltas), shor)
            for c in circuits:
                assert same_bytes(circuit_unitary(c), circuit_unitary_gate_by_gate(c))
        for theta in (0.0, -0.0, math.pi / 2, math.pi / 4, *default_theta_grid()[1:4]):
            for n in (1, 3, 5):
                for q in range(n):
                    head = (*walsh_layer([0.3] * n).ops, *edge_ops(rng, n, 3))
                    c = Circuit(n, (*head, PerturbedHadamard(theta, q), *edge_ops(rng, n, 2)))
                    assert same_bytes(circuit_unitary(c), circuit_unitary_gate_by_gate(c))

    def test_each_distinct_gate_lowered_once(self):
        spec = GroverSpec(4, 5)
        circuit_unitary(build_grover(spec, [0.123] * spec.n_hadamards))
        misses = gates._lower.cache_info().misses
        # new gate objects with the same content: every step comes from the cache
        circuit_unitary(build_grover(spec, [0.123] * spec.n_hadamards))
        assert gates._lower.cache_info().misses == misses

    def test_keys_are_exact_bits(self):
        key = gates._content
        assert key(PerturbedHadamard(0.0, 1), 2, False) != key(PerturbedHadamard(-0.0, 1), 2, False)
        assert key(PerturbedHadamard(0.5, 0), 2, False) != key(PerturbedHadamard(0.5, 1), 2, False)
        a, b = (DiagonalPhaseGate([1, -1], (0,)) for _ in range(2))
        assert key(a, 2, False) == key(b, 2, False)
        assert key(a, 2, False) != key(a, 2, True) != key(a, 3, True)
        assert key(a, 2, False) != key(DiagonalPhaseGate([-1, 1], (0,)), 2, False)
        assert key(pauli_x(0), 2, False) != key(pauli_x(1), 2, False)
        with pytest.raises(TypeError, match="unknown gate"):
            key(object(), 2, False)

    def test_cache_stays_within_its_bound(self):
        bound = gates._lower.cache_info().maxsize
        thetas = np.linspace(0.01, 1.0, bound + 100)
        c = Circuit(2, tuple(PerturbedHadamard(t, k % 2) for k, t in enumerate(thetas)))
        column = np.ascontiguousarray(circuit_unitary_gate_by_gate(c)[:, 0])
        assert same_bytes(circuit_apply(c, basis_state(4)), column)
        assert gates._lower.cache_info().currsize == bound
