import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    PAULI_X,
    basis_density,
    density_from_state,
    embed_local,
    evolve_density,
    is_density_matrix,
    kron,
)
from qimeter.errors import SizeLimitError, ValidationError
from qimeter.gates import perturbed_hadamard
from qimeter.linalg import HADAMARD, PAULI_Z, check_unitary, identity


class TestKron:
    def test_identity_case(self):
        np.testing.assert_array_equal(kron(identity(2), identity(2)), identity(4))

    def test_hadamard_squared(self):
        result = kron(HADAMARD, HADAMARD)
        assert result.shape == (4, 4)
        np.testing.assert_allclose(np.abs(result), 0.5, atol=1e-15)
        # signs from expanding H (x) H by hand
        signs = np.array(
            [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float
        )
        np.testing.assert_allclose(result, 0.5 * signs, atol=1e-15)

    def test_pauli_x_pauli_z(self):
        result = kron(PAULI_X, PAULI_Z)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 2] = 1
        expected[1, 3] = -1
        expected[2, 0] = 1
        expected[3, 1] = -1
        np.testing.assert_array_equal(result, expected)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_associative(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
        left = kron(kron(a, b), c)
        right = kron(a, kron(b, c))
        np.testing.assert_allclose(left, right, atol=1e-12)

    def test_size_cap(self):
        big = identity(1 << 7)
        with pytest.raises(SizeLimitError):
            kron(big, big)


class TestEmbedLocal:
    def test_single_qubit_passthrough(self):
        np.testing.assert_array_equal(embed_local(PAULI_X, [0], 1), PAULI_X)

    def test_x_on_most_significant_qubit(self):
        # qubit 0 is the MSB, so X on it swaps |0x> and |1x>
        result = embed_local(PAULI_X, [0], 2)
        expected = np.zeros((4, 4), dtype=complex)
        for src, dst in [(0, 2), (1, 3), (2, 0), (3, 1)]:
            expected[dst, src] = 1
        np.testing.assert_array_equal(result, expected)

    def test_matches_kron(self):
        np.testing.assert_allclose(embed_local(HADAMARD, [1], 2), kron(identity(2), HADAMARD))

    def test_two_qubit_reordered_targets(self):
        rng = np.random.default_rng(3)
        g = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        direct = embed_local(g, [1, 0], 2)
        # swapping the gate's own qubits must equal swapping the targets
        swap = np.zeros((4, 4))
        for k in range(4):
            swap[((k & 1) << 1) | (k >> 1), k] = 1
        np.testing.assert_allclose(direct, swap @ embed_local(g, [0, 1], 2) @ swap, atol=1e-12)

    def test_preserves_unitarity(self):
        rng = np.random.default_rng(11)
        g = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        assert check_unitary(embed_local(g, [2], 5), 1e-10)

    @pytest.mark.parametrize(
        "gate, targets, n",
        [
            (np.ones((2, 3)), [0], 2),
            (np.ones((3, 3)), [0], 2),
            (np.eye(4), [1, 1], 3),
            (np.eye(2), [5], 3),
        ],
    )
    def test_rejects_bad_arguments(self, gate, targets, n):
        with pytest.raises(ValueError):
            embed_local(gate, targets, n)


class TestEvolveDensity:
    def test_identity(self):
        rho = basis_density(2)
        np.testing.assert_array_equal(evolve_density(rho, identity(2)), rho)

    def test_hadamard_on_zero(self):
        result = evolve_density(basis_density(2), HADAMARD)
        np.testing.assert_allclose(result, np.full((2, 2), 0.5), atol=1e-15)

    def test_pauli_x_permutes_diagonal(self):
        rho = np.diag([0.3, 0.7]).astype(complex)
        np.testing.assert_allclose(evolve_density(rho, PAULI_X), np.diag([0.7, 0.3]), atol=1e-15)

    def test_permutation_permutes_diagonal(self):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(8))
        rho = np.diag(probs).astype(complex)
        perm = rng.permutation(8)
        p = np.zeros((8, 8))
        p[perm, np.arange(8)] = 1
        evolved = evolve_density(rho, p)
        np.testing.assert_allclose(np.diag(evolved).real, probs[np.argsort(perm)], atol=1e-12)

    def test_preserves_density_invariants(self):
        rng = np.random.default_rng(7)
        psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        rho = density_from_state(psi / np.linalg.norm(psi))
        u = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))[0]
        out = evolve_density(rho, u)
        assert is_density_matrix(out)
        assert abs(np.trace(out).real - 1) < 1e-9

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            evolve_density(basis_density(2), 2 * identity(2))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            evolve_density(basis_density(4), identity(2))


class TestCheckUnitary:
    def test_hadamard(self):
        assert check_unitary(HADAMARD, 1e-12)

    def test_scaled_identity_fails(self):
        assert not check_unitary(2 * identity(2), 1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-10, 10, allow_nan=False))
    def test_perturbed_hadamard_always_orthogonal(self, theta):
        assert check_unitary(perturbed_hadamard(theta), 1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            check_unitary(np.ones((2, 3)), 1e-9)
