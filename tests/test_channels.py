import math

import numpy as np
import pytest

from oracles import (
    PAULI_X,
    apply_channel,
    basis_density,
    density_from_state,
    error_subsets,
    error_subsets_per_subset,
    evolve_density,
    is_density_matrix,
    kron,
    layered_error_channel,
    pauli_error_kraus,
    sandwich,
)
from qimeter.channels import BITFLIP, PHASEFLIP, ErrorModel, KrausChannel, popcount
from qimeter.errors import SizeLimitError
from qimeter.gates import circuit_unitary, walsh_layer
from qimeter.linalg import PAULI_Z, identity

PLUS = density_from_state(np.array([1, 1]) / math.sqrt(2))


def random_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return np.linalg.qr(z)[0]


class TestPauliErrorKraus:
    def test_no_error(self):
        ch = pauli_error_kraus(BITFLIP, 0.0)
        assert len(ch) == 1
        np.testing.assert_array_equal(ch.ops[0], identity(2))

    def test_deterministic_flip(self):
        ch = pauli_error_kraus(PHASEFLIP, 1.0)
        assert len(ch) == 1
        np.testing.assert_array_equal(ch.ops[0], PAULI_Z)

    def test_half_probability(self):
        ch = pauli_error_kraus(BITFLIP, 0.5)
        assert len(ch) == 2
        np.testing.assert_allclose(ch.ops[0], math.sqrt(0.5) * identity(2), atol=1e-15)
        np.testing.assert_allclose(ch.ops[1], math.sqrt(0.5) * PAULI_X, atol=1e-15)
        assert ch.completeness_defect() <= 1e-15

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_probability_range(self, p):
        with pytest.raises(ValueError):
            pauli_error_kraus(BITFLIP, p)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ErrorModel("depolarize", 0.1, (0,))


class TestLayeredErrorChannel:
    def test_single_affected_qubit(self):
        p = 0.3
        ch = layered_error_channel(2, ErrorModel(BITFLIP, p, (0,)))
        assert len(ch) == 2
        np.testing.assert_allclose(ch.ops[0], math.sqrt(1 - p) * identity(4), atol=1e-15)
        np.testing.assert_allclose(ch.ops[1], math.sqrt(p) * kron(PAULI_X, identity(2)), atol=1e-15)

    @pytest.mark.parametrize("kind", [BITFLIP, PHASEFLIP])
    def test_all_qubits_give_sixteen_ops(self, kind):
        ch = layered_error_channel(4, ErrorModel(kind, 0.25, (0, 1, 2, 3)))
        assert len(ch) == 16
        assert ch.completeness_defect() <= 1e-9

    def test_empty_error_set(self):
        ch = layered_error_channel(3, ErrorModel(PHASEFLIP, 0.7, ()))
        assert len(ch) == 1
        np.testing.assert_array_equal(ch.ops[0], identity(8))

    def test_matches_kron_construction(self):
        # binary enumeration: bit b of the op index flips qubit affected[b]
        p = 0.4
        ch = layered_error_channel(2, ErrorModel(PHASEFLIP, p, (1, 0)))
        expected = [
            (math.sqrt((1 - p) * (1 - p)), kron(identity(2), identity(2))),
            (math.sqrt(p * (1 - p)), kron(identity(2), PAULI_Z)),
            (math.sqrt((1 - p) * p), kron(PAULI_Z, identity(2))),
            (math.sqrt(p * p), kron(PAULI_Z, PAULI_Z)),
        ]
        for op, (w, mat) in zip(ch.ops, expected):
            np.testing.assert_allclose(op, w * mat, atol=1e-15)

    def test_error_qubit_cap(self):
        with pytest.raises(SizeLimitError):
            layered_error_channel(21, ErrorModel(BITFLIP, 0.5, tuple(range(21))))

    def test_affected_outside_register(self):
        with pytest.raises(ValueError):
            layered_error_channel(2, ErrorModel(BITFLIP, 0.5, (3,)))


class TestErrorSubsets:
    def test_binary_order_masks_and_weights(self):
        # bit b of the subset index hits affected[b]; qubit 0 is the MSB
        subsets = error_subsets(3, ErrorModel(BITFLIP, 0.25, (2, 0)))
        assert subsets == [(0, 0.5625), (1, 0.1875), (4, 0.1875), (5, 0.0625)]

    @pytest.mark.parametrize("p, expected", [(0.0, [(0, 1.0)]), (1.0, [(3, 1.0)])])
    def test_impossible_patterns_dropped(self, p, expected):
        assert error_subsets(3, ErrorModel(PHASEFLIP, p, (1, 2))) == expected

    def test_affected_checked_even_when_never_hit(self):
        with pytest.raises(ValueError):
            error_subsets(2, ErrorModel(BITFLIP, 0.0, (3,)))

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("n_f", range(1, 9))
    def test_matches_per_subset_oracle(self, n_f, p):
        # same masks, same order and the same floats, compared with ==
        affected = tuple(np.random.default_rng(n_f).permutation(10)[:n_f].tolist())
        model = ErrorModel(PHASEFLIP, p, affected)
        assert error_subsets(10, model) == error_subsets_per_subset(10, model)


class TestPopcount:
    def test_matches_int_bit_count(self):
        rng = np.random.default_rng(9)
        top = [(1 << 63) - 1]
        values = np.concatenate([np.arange(1 << 13), rng.integers(0, 1 << 63, 999), top])
        expected = [int(v).bit_count() for v in values]
        assert popcount(values).tolist() == expected
        assert popcount(values.reshape(-1, 2)).tolist() == np.reshape(expected, (-1, 2)).tolist()
        assert popcount(values).dtype == np.int64


class TestSandwich:
    def test_unitary_composition(self):
        rng = np.random.default_rng(0)
        u, v = random_unitary(4, rng), random_unitary(4, rng)
        ch = sandwich(KrausChannel(identity(4)), u, v)
        np.testing.assert_allclose(ch.ops[0], v @ u, atol=1e-14)

    def test_zero_probability_collapses_to_product(self):
        w = circuit_unitary(walsh_layer([math.pi / 4] * 2))
        rng = np.random.default_rng(1)
        rest = random_unitary(4, rng)
        ch = sandwich(layered_error_channel(2, ErrorModel(BITFLIP, 0.0, (0, 1))), w, rest)
        assert len(ch) == 1
        np.testing.assert_allclose(ch.ops[0], rest @ w, atol=1e-14)

    def test_completeness_inherited(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            ch = layered_error_channel(3, ErrorModel(PHASEFLIP, rng.uniform(), (0, 2)))
            wrapped = sandwich(ch, random_unitary(8, rng), random_unitary(8, rng))
            assert wrapped.completeness_defect() <= 1e-9

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            sandwich(KrausChannel(identity(4)), identity(2), identity(4))


class TestApplyChannel:
    def test_half_phase_flip_dephases(self):
        ch = pauli_error_kraus(PHASEFLIP, 0.5)
        np.testing.assert_allclose(apply_channel(ch, PLUS), np.diag([0.5, 0.5]), atol=1e-15)

    def test_half_bit_flip_fixes_plus(self):
        ch = pauli_error_kraus(BITFLIP, 0.5)
        np.testing.assert_allclose(apply_channel(ch, PLUS), PLUS, atol=1e-15)

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        rho = density_from_state(_random_state(8, rng))
        ch = layered_error_channel(3, ErrorModel(BITFLIP, 0.37, (0, 1)))
        out = apply_channel(ch, rho)
        assert abs(np.trace(out).real - 1.0) <= 1e-9
        assert is_density_matrix(out)

    def test_single_op_matches_evolve_density(self):
        rng = np.random.default_rng(4)
        u = random_unitary(4, rng)
        rho = density_from_state(_random_state(4, rng))
        np.testing.assert_allclose(
            apply_channel(KrausChannel(u), rho), evolve_density(rho, u), atol=1e-12
        )

    def test_half_bitflip_after_walsh_is_classical(self):
        # with p = 0.5 on every qubit the output probabilities depend only
        # on the input's diagonal
        n = 3
        w = circuit_unitary(walsh_layer([math.pi / 4] * n))
        ch = sandwich(
            layered_error_channel(n, ErrorModel(BITFLIP, 0.5, tuple(range(n)))),
            w,
            identity(1 << n),
        )
        rng = np.random.default_rng(5)
        rho = density_from_state(_random_state(1 << n, rng))
        dephased = np.diag(np.diag(rho))
        out_full = np.diag(apply_channel(ch, rho)).real
        out_dephased = np.diag(apply_channel(ch, dephased)).real
        np.testing.assert_allclose(out_full, out_dephased, atol=1e-10)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            apply_channel(pauli_error_kraus(BITFLIP, 0.5), basis_density(4))


def _random_state(dim, rng):
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)
