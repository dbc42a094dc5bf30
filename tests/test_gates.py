import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import PAULI_X, embed_local, kron
from qimeter.algorithms import GroverSpec, ShorSpec, build_grover, build_shor
from qimeter.errors import SizeLimitError
from qimeter.gates import (
    Circuit,
    DiagonalPhaseGate,
    PermutationGate,
    PerturbedHadamard,
    circuit_apply,
    circuit_unitary,
    perturbed_hadamard,
    qft_circuit,
    walsh_layer,
)
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
