import itertools
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    apply_channel,
    basis_density,
    build_grover_unshared,
    decoherence_channels,
    dense_rows,
    density_from_state,
    grover_success,
    grover_uniform_dense,
    grover_uniform_exact,
    layered_error_channel,
    pauli_noise_kernel_every_row,
    phaseflip_mixture,
)
from test_gates import grover_angles, perturbed_shor
from test_interference import same_kernel
from qimeter import algorithms, harness
from qimeter.algorithms import (
    AlgorithmUnitaries,
    GroverSpec,
    ShorSpec,
    build_grover,
    build_shor,
    column_zero_probabilities,
    decoherence_point,
    decoherent_final_probabilities,
    final_probabilities,
    grover_circuits,
    grover_iteration_count,
    grover_oracle,
    grover_uniform_measures,
    grover_unitaries,
    grover_zero_reflection,
    modexp_permutation,
    noise_setup,
    register1_marginal,
    representative_rows,
    shor_success,
    shor_unitaries,
    view_rows,
)
from qimeter.channels import BITFLIP, PHASEFLIP, ErrorModel
from qimeter.errors import SizeLimitError
from qimeter.harness import DecoherenceErrors, ExperimentSpec, run_decoherence_sweep
from qimeter.gates import (
    Circuit,
    DiagonalPhaseGate,
    PerturbedHadamard,
    circuit_apply,
    circuit_unitary,
    xor_row_copies,
)
from qimeter.interference import (
    _unitary_interference,
    interference_kraus,
    interference_noise_then_unitary,
    interference_unitary,
    pauli_noise_kernel,
)
from qimeter.linalg import basis_state, check_unitary


class TestGroverIterationCount:
    @pytest.mark.parametrize("n, k", [(2, 1), (4, 3), (10, 25)])
    def test_known_counts(self, n, k):
        assert grover_iteration_count(n) == k

    def test_small_register_rejected(self):
        with pytest.raises(ValueError):
            grover_iteration_count(1)


class TestReflections:
    def test_oracle_diagonal(self):
        gate = grover_oracle(2, 3)
        np.testing.assert_array_equal(gate.phases, [1, 1, 1, -1])

    def test_oracle_single_qubit(self):
        np.testing.assert_array_equal(grover_oracle(1, 0).phases, [-1, 1])

    def test_zero_reflection_diagonal(self):
        np.testing.assert_array_equal(grover_zero_reflection(2).phases, [-1, 1, 1, 1])

    def test_involutions(self):
        for gate in (grover_oracle(2, 3), grover_zero_reflection(2)):
            u = circuit_unitary(Circuit(2, (gate, gate)))
            np.testing.assert_allclose(u, np.eye(4), atol=1e-15)


class TestBuildGrover:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_success_matches_closed_form(self, n):
        k = grover_iteration_count(n)
        closed = math.sin((2 * k + 1) * math.asin(2.0 ** (-n / 2))) ** 2
        for alpha in range(1 << n):
            psi = circuit_apply(build_grover(GroverSpec(n, alpha)), basis_state(1 << n))
            assert abs(abs(psi[alpha]) ** 2 - closed) < 1e-9

    def test_returns_one_circuit(self):
        assert isinstance(build_grover(GroverSpec(3, 5)), Circuit)

    def test_full_is_unitary(self):
        uni = grover_unitaries(GroverSpec(4, 2))
        assert check_unitary(circuit_unitary(uni.circuit), 1e-10)
        assert check_unitary(circuit_unitary(uni.rest_circuit), 1e-10)

    def test_rest_excludes_initial_layer(self):
        spec = GroverSpec(3, 5)
        full = build_grover(spec)
        uni = AlgorithmUnitaries(full, spec.layer_width)
        walsh = Circuit(spec.n, full.ops[: spec.layer_width])
        assert all(isinstance(op, PerturbedHadamard) for op in walsh.ops)
        rest = circuit_unitary(uni.rest_circuit)
        assert rest.tobytes() == circuit_unitary(Circuit(spec.n, full.ops[spec.n :])).tobytes()
        np.testing.assert_allclose(rest @ circuit_unitary(walsh), circuit_unitary(full), atol=1e-12)

    def test_actually_used_interference_frozen_values(self):
        # frozen from two independent constructions (gate-wise application
        # and dense np.linalg.matrix_power); sits above the rough "about 4"
        # figure-level summary
        rest = grover_unitaries(GroverSpec(4, 2)).rest_circuit
        value = interference_unitary(circuit_unitary(rest))
        assert abs(value - 4.656615257263) < 1e-9

    def test_one_iteration_peak(self):
        uni = grover_unitaries(GroverSpec(4, 2, k_override=1))
        value = interference_unitary(circuit_unitary(uni.rest_circuit))
        target = 8 - 24 / 16
        assert abs(value - target) <= 0.05 * target
        assert abs(value - 6.5625) < 1e-12

    def test_interference_independent_of_alpha(self):
        values = []
        for alpha in range(8):
            u = circuit_unitary(build_grover(GroverSpec(3, alpha)))
            values.append(interference_unitary(u))
        assert max(values) - min(values) < 1e-10

    def test_wrong_angle_count_rejected(self):
        with pytest.raises(ValueError):
            build_grover(GroverSpec(3, 0), [math.pi / 4] * 5)

    def test_marked_item_validated(self):
        with pytest.raises(ValueError):
            GroverSpec(2, 4)


# the edge angles, the signed zero, and a random list per n
GROVER_CIRCUIT_ANGLES = (0.0, -0.0, 0.37, math.pi / 4, math.pi / 2, "random")


class TestGroverCircuits:
    """``grover_circuits`` gives each marked item the circuit of a build of
    its own, with every gate but the oracle one shared object."""

    @pytest.mark.parametrize("angle", GROVER_CIRCUIT_ANGLES, ids=repr)
    @pytest.mark.parametrize("n", range(2, 9))
    def test_same_bytes_as_unshared_builds(self, n, angle, passes):
        spec = GroverSpec(n, 0)
        rng = np.random.default_rng(n)
        if angle == "random":
            thetas = list(rng.uniform(0, math.pi, spec.n_hadamards))
        else:
            thetas = [angle] * spec.n_hadamards
        alphas = list(range(1 << n)) if n <= 4 else [0, 1, (1 << n) - 1, *rng.integers(2, 1 << n, 2)]
        circuits = list(grover_circuits(spec, alphas, thetas))
        assert len(circuits) == len(alphas)
        for alpha, c in zip(alphas, circuits):
            unshared = build_grover_unshared(replace(spec, alpha=int(alpha)), thetas)
            assert circuit_unitary(c).tobytes() == circuit_unitary(unshared).tobytes()
        oracles = [n + i * (2 * n + 2) for i in range(spec.iterations)]
        for c in circuits[1:]:
            assert [i for i, (a, b) in enumerate(zip(c.ops, circuits[0].ops)) if a is not b] == oracles
        made = assert_view_rows(passes, circuits, n, True)
        assert {width for _, width, _ in made} == {n if n < 8 else 0}  # n = 8 does not fit

    def test_built_when_asked_for(self):
        circuits = grover_circuits(GroverSpec(3, 0), [1, 8])
        assert isinstance(next(circuits), Circuit)
        with pytest.raises(ValueError, match="marked item 8 outside 0..7"):
            next(circuits)

    def test_build_grover_is_one_item(self):
        spec = GroverSpec(4, 9, k_override=2)
        (shared,) = grover_circuits(spec, [9], [0.3] * spec.n_hadamards)
        alone = build_grover(spec, [0.3] * spec.n_hadamards)
        assert circuit_unitary(shared).tobytes() == circuit_unitary(alone).tobytes()


class TestSpecLayout:
    """The layout facts the specs state match the circuits the builders make."""

    @pytest.mark.parametrize(
        "spec, build",
        [(GroverSpec(n, 1), build_grover) for n in (3, 4, 5)]
        + [(ShorSpec.for_modulus(R, 2), build_shor) for R in (3, 5)],
    )
    def test_counts_match_the_built_circuit(self, spec, build):
        # Grover's reflections span all n >= 3 qubits, so every two-qubit
        # diagonal is a QFT phase
        full = build(spec)
        hadamards = [op for op in full.ops if isinstance(op, PerturbedHadamard)]
        phases = [op for op in full.ops if isinstance(op, DiagonalPhaseGate) and len(op.targets) == 2]
        assert len(hadamards) == spec.n_hadamards
        assert len(phases) == spec.n_qft_phases
        AlgorithmUnitaries(full, spec.layer_width)  # the constructor checks the layer
        assert [op.target for op in hadamards[: spec.layer_width]] == list(range(spec.layer_width))

    @pytest.mark.parametrize(
        "circuit, width",
        [
            (Circuit(3, tuple(PerturbedHadamard(math.pi / 4, q) for q in range(2))), 3),
            # op 2L of a Shor circuit is the modular exponentiation
            (build_shor(ShorSpec.for_modulus(3, 2)), 5),
            (Circuit(2, (PerturbedHadamard(math.pi / 4, 1), PerturbedHadamard(math.pi / 4, 0))), 2),
        ],
        ids=["shorter-than-width", "non-hadamard", "out-of-order"],
    )
    def test_refuses_a_misplaced_layer(self, circuit, width, monkeypatch):
        with pytest.raises(ValueError, match=f"qubits 0..{width - 1}"):
            AlgorithmUnitaries(circuit, width)
        for budget in (algorithms.STACK_BYTES, 0):  # stacked, and one view per pass
            monkeypatch.setattr(algorithms, "STACK_BYTES", budget)
            with pytest.raises(ValueError, match=f"qubits 0..{width - 1}"):
                next(view_rows([circuit], width, True))

    @pytest.mark.parametrize("bad", [2.0, 2.5, "2", True], ids=["whole-float", "float", "string", "bool"])
    @pytest.mark.parametrize("field", ["n", "alpha", "k_override"])
    def test_grover_fields_must_be_integers(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            GroverSpec(**{"n": 3, "alpha": 2, "k_override": 1, field: bad})

    @pytest.mark.parametrize("bad", [3.0, 3.5, "3", True], ids=["whole-float", "float", "string", "bool"])
    @pytest.mark.parametrize("field", ["L", "R", "a"])
    def test_shor_fields_must_be_integers(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ShorSpec(**{"L": 3, "R": 7, "a": 3, field: bad})

    def test_numpy_integers_pass_as_ints(self):
        grover = GroverSpec(np.int64(3), np.uint8(2), np.int32(1))
        shor = ShorSpec(np.int64(3), np.int16(7), np.uint64(3))
        for spec in (grover, shor):
            assert all(type(value) is int for value in vars(spec).values() if value is not None)
        assert (grover, shor) == (GroverSpec(3, 2, 1), ShorSpec(3, 7, 3))

    def test_negative_k_override_refused(self):
        # k = -1 would ask for n - 2n Hadamard angles, and an empty uniform list
        with pytest.raises(ValueError, match="k_override=-1 is negative"):
            GroverSpec(3, 1, k_override=-1)
        assert GroverSpec(3, 1, k_override=0).n_hadamards == 3

    def test_grover_above_cap_refused(self):
        with pytest.raises(SizeLimitError, match="13 qubits"):
            GroverSpec(13, 0)

    def test_shor_above_cap_refused(self):
        # L = 5 fits a 10-qubit first register but needs 15 qubits in all
        with pytest.raises(SizeLimitError, match="15-qubit register"):
            ShorSpec.for_modulus(31, 3)

    def test_at_cap_accepted(self):
        assert GroverSpec(12, 0).layer_width == 12
        assert ShorSpec.for_modulus(11, 2).n == 12


class TestModexpPermutation:
    def test_period_two_function(self):
        spec = ShorSpec.for_modulus(3, 2)
        values = [pow(2, x, 3) for x in range(4)]
        assert values == [1, 2, 1, 2]
        gate = modexp_permutation(spec)
        for x in range(4):
            src = x << spec.L  # |x>|0>
            assert gate.table[src] == (x << spec.L) | values[x % 4]

    def test_factoring_fifteen_values(self):
        spec = ShorSpec.for_modulus(15, 7)
        f = [pow(7, x, 15) for x in range(4)]
        assert f == [1, 7, 4, 13]
        gate = modexp_permutation(spec)
        for x in range(4):
            assert gate.table[x << spec.L] == (x << spec.L) | f[x]

    def test_period_not_dividing_dimension(self):
        # order of 3 mod 7 is 6, which does not divide 2^6
        order = next(r for r in range(1, 7) if pow(3, r, 7) == 1)
        assert order == 6
        assert (1 << 6) % order != 0

    def test_xor_extension_is_involution_on_y(self):
        spec = ShorSpec.for_modulus(3, 2)
        gate = modexp_permutation(spec)
        np.testing.assert_array_equal(gate.table[gate.table], np.arange(1 << spec.n))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ShorSpec(L=3, R=3, a=2)
        with pytest.raises(ValueError):
            ShorSpec.for_modulus(15, 6)  # gcd(6, 15) != 1


class TestBuildShor:
    def test_l2_register_distribution(self):
        spec = ShorSpec.for_modulus(3, 2)
        probs = final_probabilities(build_shor(spec))
        assert abs(probs.sum() - 1.0) < 1e-9
        reg1 = register1_marginal(probs, spec)
        expected = np.zeros(16)
        expected[0] = expected[8] = 0.5
        np.testing.assert_allclose(reg1, expected, atol=1e-9)

    def test_returns_one_circuit(self):
        assert isinstance(build_shor(ShorSpec.for_modulus(3, 2)), Circuit)

    def test_full_is_unitary(self):
        uni = shor_unitaries(ShorSpec.for_modulus(3, 2))
        assert check_unitary(circuit_unitary(uni.circuit), 1e-10)
        assert check_unitary(circuit_unitary(uni.rest_circuit), 1e-10)

    def test_register_distribution_ignores_register_phases(self):
        spec = ShorSpec.for_modulus(3, 2)
        psi = circuit_apply(build_shor(spec), basis_state(1 << spec.n))
        rng = np.random.default_rng(6)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 1 << (2 * spec.L)))
        shifted = psi * np.repeat(phases, 1 << spec.L)
        np.testing.assert_allclose(
            register1_marginal(np.abs(shifted) ** 2, spec),
            register1_marginal(np.abs(psi) ** 2, spec),
            atol=1e-12,
        )

    def test_actually_used_interference_grows(self):
        au2, au3 = (
            interference_unitary(circuit_unitary(shor_unitaries(ShorSpec.for_modulus(R, a)).rest_circuit))
            for R, a in [(3, 2), (7, 3)]
        )
        # QFT (x) identity after a permutation: I = N - 2^L exactly
        assert abs(au2 - 60.0) < 1e-9
        assert abs(au3 - 504.0) < 1e-9
        assert au3 > au2

    def test_wrong_parameter_lengths_rejected(self):
        spec = ShorSpec.for_modulus(3, 2)
        with pytest.raises(ValueError):
            build_shor(spec, [math.pi / 4] * 3)
        with pytest.raises(ValueError):
            build_shor(spec, None, [0.0] * 5)


class TestDecoherenceChannels:
    def test_zero_probability_single_kraus(self):
        uni = grover_unitaries(GroverSpec(3, 1))
        chans = decoherence_channels(uni, ErrorModel(BITFLIP, 0.0, (0, 1, 2)))
        assert len(chans.potentially_available) == 1
        assert len(chans.actually_used) == 1
        np.testing.assert_allclose(
            chans.potentially_available.ops[0], circuit_unitary(uni.circuit), atol=1e-12
        )

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_deterministic_channels_match_unitary_interference(self, p):
        uni = grover_unitaries(GroverSpec(3, 1))
        chans = decoherence_channels(uni, ErrorModel(PHASEFLIP, p, (0, 2)))
        for ch in (chans.potentially_available, chans.actually_used):
            assert len(ch) == 1
            diff = abs(
                interference_kraus(ch) - interference_unitary(ch.ops[0])
            )
            assert diff < 1e-12

    def test_channels_trace_preserving(self):
        uni = shor_unitaries(ShorSpec.for_modulus(3, 2))
        chans = decoherence_channels(uni, ErrorModel(PHASEFLIP, 0.42, (0, 3)))
        assert chans.potentially_available.completeness_defect() <= 1e-9
        assert chans.actually_used.completeness_defect() <= 1e-9

    def test_bitflip_keeps_success(self):
        spec = GroverSpec(4, 2)
        uni = grover_unitaries(spec)
        exact = grover_success(density_from_state(circuit_unitary(uni.circuit)[:, 0]), spec.alpha)
        for p in (0.2, 0.5, 0.9):
            chans = decoherence_channels(uni, ErrorModel(BITFLIP, p, (0, 1, 2, 3)))
            assert abs(grover_success(chans.final_state, spec.alpha) - exact) < 1e-9

    def test_bitflip_all_qubits_kills_pa_interference(self):
        uni = grover_unitaries(GroverSpec(4, 2))
        chans = decoherence_channels(uni, ErrorModel(BITFLIP, 0.5, (0, 1, 2, 3)))
        assert interference_kraus(chans.potentially_available) <= 1e-6

    def test_affected_must_receive_hadamards(self):
        uni = shor_unitaries(ShorSpec.for_modulus(3, 2))
        with pytest.raises(ValueError):
            decoherence_channels(uni, ErrorModel(BITFLIP, 0.5, (5,)))

    def test_walsh_layer_state_invariant_under_bitflips(self):
        for uni in (
            grover_unitaries(GroverSpec(4, 0)),
            shor_unitaries(ShorSpec.for_modulus(3, 2)),
        ):
            dim = 1 << uni.circuit.n
            walsh = circuit_unitary(Circuit(uni.circuit.n, uni.circuit.ops[: uni.layer_width]))
            rho = walsh @ basis_density(dim) @ walsh.conj().T
            ch = layered_error_channel(
                uni.circuit.n, ErrorModel(BITFLIP, 0.37, tuple(range(uni.layer_width)))
            )
            np.testing.assert_allclose(apply_channel(ch, rho), rho, atol=1e-10)


class TestDecoherencePoint:
    @pytest.fixture
    def built(self, monkeypatch):
        """The circuits that ``algorithms`` hands to ``circuit_unitary``."""
        calls = []
        run = algorithms.circuit_unitary
        monkeypatch.setattr(algorithms, "circuit_unitary", lambda c: calls.append(c) or run(c))
        return calls

    def test_refuses_perturbed_initial_layer(self):
        # sigma_z no longer turns into sigma_x through H(0.6), so the fast
        # formula (2.8069) would disagree with the explicit channels (3.4309)
        spec = GroverSpec(3, 1)
        uni = AlgorithmUnitaries(build_grover(spec, [0.6] * spec.n_hadamards), 3)
        model = ErrorModel(PHASEFLIP, 0.3, (0, 1, 2))
        explicit = interference_kraus(decoherence_channels(uni, model).potentially_available)
        swapped = ErrorModel(BITFLIP, 0.3, (0, 1, 2))
        formula = interference_noise_then_unitary(
            pauli_noise_kernel(circuit_unitary(uni.circuit)), swapped
        )
        assert explicit == pytest.approx(3.4308712137, abs=1e-9)
        assert formula == pytest.approx(2.8068842775, abs=1e-9)
        with pytest.raises(ValueError, match="exact initial Hadamard layer"):
            noise_setup(uni, PHASEFLIP, True)
        with pytest.raises(ValueError, match="exact initial Hadamard layer"):
            decoherent_final_probabilities(uni, model)

    @pytest.mark.parametrize("kind", [BITFLIP, PHASEFLIP])
    def test_refuses_errors_outside_the_layer_before_i_pa(self, kind, built):
        # qubit 5 is in the register (6 qubits) but not in the layer (0..3)
        uni = shor_unitaries(ShorSpec.for_modulus(3, 2))
        message = "affected qubits (1, 5) outside the initial Hadamard layer (0, 1, 2, 3)"
        model = ErrorModel(kind, 0.3, (1, 5))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            decoherent_final_probabilities(uni, model)
        assert built == []
        setup = noise_setup(uni, kind, True)
        built.clear()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            decoherence_point(setup, model)
        assert built == []

    @staticmethod
    def setup_peak(uni, kind, measure_au) -> int:
        """The ``tracemalloc`` peak of a warm ``noise_setup``."""
        noise_setup(uni, kind, measure_au)  # every step lowered
        tracemalloc.start()
        try:
            noise_setup(uni, kind, measure_au)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_full_rows_dropped_before_rest_is_built(self):
        # Grover n = 8: the rows are the whole 1 MiB matrix, so U_full's rows
        # held while U_rest is built would add a view to the set-up's peak
        uni = grover_unitaries(GroverSpec(8, 5))
        view = 16 << 2 * 8
        assert self.setup_peak(uni, BITFLIP, True) <= self.setup_peak(uni, BITFLIP, False) + view // 16

    def test_kernel_built_before_the_table(self):
        # Grover n = 8: the 512 KiB table, built after U_full's kernel, adds
        # nothing to the set-up's peak; built before it, it would be alive
        # through the kernel's transients
        uni = grover_unitaries(GroverSpec(8, 5))
        view = 16 << 2 * 8
        assert self.setup_peak(uni, PHASEFLIP, False) <= self.setup_peak(uni, BITFLIP, False) + view // 16

    @pytest.mark.parametrize("kind", [BITFLIP, PHASEFLIP])
    def test_refusals_come_before_any_build(self, kind, built):
        # a perturbed layer, qubits off the layer and a model of the other
        # error kind are each refused before circuit_unitary is called
        spec = GroverSpec(3, 1)
        perturbed = AlgorithmUnitaries(build_grover(spec, [0.6] * spec.n_hadamards), 3)
        for measure_au in (False, True):
            with pytest.raises(ValueError, match="exact initial Hadamard layer"):
                noise_setup(perturbed, kind, measure_au)
        with pytest.raises(ValueError, match="exact initial Hadamard layer"):
            decoherent_final_probabilities(perturbed, ErrorModel(kind, 0.3, (0,)))
        uni = grover_unitaries(spec)
        with pytest.raises(ValueError, match="outside the initial Hadamard layer"):
            decoherent_final_probabilities(AlgorithmUnitaries(uni.circuit, 2), ErrorModel(kind, 0.3, (2,)))
        with pytest.raises(ValueError, match="unknown error kind 'depolarizing'"):
            noise_setup(uni, "depolarizing", True)
        assert built == []
        setup = noise_setup(uni, kind, True)
        assert len(built) == 2
        other = PHASEFLIP if kind == BITFLIP else BITFLIP
        with pytest.raises(ValueError, match=f"a {other} model on a {kind} set-up"):
            decoherence_point(setup, ErrorModel(other, 0.3, (0, 1)))
        assert len(built) == 2

    def test_kernels_built_once(self, monkeypatch):
        uni = grover_unitaries(GroverSpec(3, 1))
        calls = []

        def counting(*args):
            calls.append(args)
            return pauli_noise_kernel(*args)

        monkeypatch.setattr(algorithms, "pauli_noise_kernel", counting)
        setup = noise_setup(uni, BITFLIP, True)
        k_full, k_rest = setup.full_kernel, setup.rest_kernel
        assert len(calls) == 2
        for kernel, circuit in ((k_full, uni.circuit), (k_rest, uni.rest_circuit)):
            expected = pauli_noise_kernel(circuit_unitary(circuit))
            assert kernel.sum_a2 == expected.sum_a2
            for field in ("fa2", "autocorr", "q"):
                assert getattr(kernel, field).tobytes() == getattr(expected, field).tobytes()

    @pytest.mark.parametrize(
        "uni, copies",
        [
            (lambda: grover_unitaries(GroverSpec(3, 1)), 1),
            (lambda: grover_unitaries(GroverSpec(6, 5)), 1),
            (lambda: shor_unitaries(ShorSpec(2, 3, 2)), 4),
            (lambda: shor_unitaries(ShorSpec(3, 7, 3)), 8),
        ],
        ids=["grover-3", "grover-6", "shor-L2", "shor-L3"],
    )
    def test_kernels_read_row_copies_from_the_circuit(self, uni, copies, monkeypatch):
        # one transformed row per 2^L for both Shor views, every row for
        # Grover; passed positionally, as the harness's counting wrappers take it
        calls = []

        def recording(*args):
            calls.append(args[1:])
            return pauli_noise_kernel(*args)

        monkeypatch.setattr(algorithms, "pauli_noise_kernel", recording)
        noise_setup(uni(), BITFLIP, True)
        assert calls == [(copies,), (copies,)]

    @pytest.mark.parametrize("kind", [BITFLIP, PHASEFLIP])
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    def test_matches_explicit_channels_grover(self, kind, p):
        uni = grover_unitaries(GroverSpec(3, 1))
        setup = noise_setup(uni, kind, True)
        for affected in [(0,), (0, 2), (0, 1, 2)]:
            model = ErrorModel(kind, p, affected)
            chans = decoherence_channels(uni, model)
            point = decoherence_point(setup, model)
            assert (
                abs(
                    interference_kraus(chans.potentially_available)
                    - point.interference_pa
                )
                < 1e-9
            )
            assert (
                abs(
                    interference_kraus(chans.actually_used)
                    - point.interference_au
                )
                < 1e-9
            )
            np.testing.assert_allclose(
                np.diag(chans.final_state).real, point.probabilities, atol=1e-12
            )

    def test_matches_explicit_channels_shor_l3(self):
        # nine-qubit instance: the fast path against the full Kraus build
        uni = shor_unitaries(ShorSpec.for_modulus(7, 3))
        model = ErrorModel(PHASEFLIP, 0.35, (1, 4))
        chans = decoherence_channels(uni, model)
        point = decoherence_point(noise_setup(uni, PHASEFLIP, True), model)
        assert (
            abs(
                interference_kraus(chans.potentially_available)
                - point.interference_pa
            )
            < 1e-8
        )
        assert (
            abs(interference_kraus(chans.actually_used) - point.interference_au)
            < 1e-8
        )
        np.testing.assert_allclose(
            np.diag(chans.final_state).real, point.probabilities, atol=1e-12
        )

    def test_matches_explicit_channels_shor(self):
        uni = shor_unitaries(ShorSpec.for_modulus(3, 2))
        for kind, p, affected in [
            (BITFLIP, 0.4, (0, 1)),
            (PHASEFLIP, 0.5, (0, 1, 2, 3)),
            (PHASEFLIP, 0.15, (2,)),
        ]:
            model = ErrorModel(kind, p, affected)
            chans = decoherence_channels(uni, model)
            point = decoherence_point(noise_setup(uni, kind, True), model)
            assert (
                abs(
                    interference_kraus(chans.potentially_available)
                    - point.interference_pa
                )
                < 1e-9
            )
            assert (
                abs(
                    interference_kraus(chans.actually_used)
                    - point.interference_au
                )
                < 1e-9
            )
            np.testing.assert_allclose(
                np.diag(chans.final_state).real, point.probabilities, atol=1e-12
            )


@pytest.fixture(scope="module")
def mixture_unitaries():
    grover = [grover_unitaries(GroverSpec(n, 1)) for n in range(3, 7)]
    shor = [shor_unitaries(ShorSpec.for_modulus(R, 2)) for R in (3, 5)]
    return grover + shor


class TestMixtureTable:
    """The phase-flip mixture read from the column table's class sums is the
    column-by-column sum over U_full, up to summation order (1e-12)."""

    @pytest.fixture
    def tables(self, monkeypatch):
        """The tables ``noise_setup`` builds."""
        made = []
        build = algorithms._mixture_table
        monkeypatch.setattr(algorithms, "_mixture_table", lambda *args: made.append(build(*args)) or made[-1])
        return made

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    def test_matches_column_oracle(self, mixture_unitaries, p):
        for uni in mixture_unitaries:
            layer = tuple(range(uni.layer_width))
            m = len(layer)
            for affected in [layer[:1], layer[:m // 2], layer, layer[1::2], (layer[-1], layer[0])]:
                model = ErrorModel(PHASEFLIP, p, affected)
                fast = decoherent_final_probabilities(uni, model)
                oracle = phaseflip_mixture(circuit_unitary(uni.circuit), model)
                np.testing.assert_allclose(
                    fast, oracle, rtol=1e-12, atol=1e-12, err_msg=str(affected)
                )

    def test_table_built_once(self, mixture_unitaries, tables):
        uni = mixture_unitaries[0]
        table = noise_setup(uni, PHASEFLIP, True).mixture_table
        assert tables == [table]
        assert table.shape == (1 << uni.layer_width, 1 << uni.circuit.n)

    @pytest.mark.parametrize("measure_au", [False, True])
    def test_bitflip_setup_builds_no_table(self, mixture_unitaries, tables, measure_au):
        for uni in mixture_unitaries:
            assert noise_setup(uni, BITFLIP, measure_au).mixture_table is None
        assert tables == []

    def test_refuses_layer_off_the_leading_qubits(self):
        # a layer on qubits 1, 2: hit masks are not rows s << (n - m) of a table
        walsh = Circuit(3, (PerturbedHadamard(math.pi / 4, 1), PerturbedHadamard(math.pi / 4, 2)))
        with pytest.raises(ValueError, match="qubits 0..1"):
            AlgorithmUnitaries(walsh, 2)

    def test_refuses_errors_outside_the_layer(self, mixture_unitaries):
        shor = mixture_unitaries[-1]  # the second register gets no Hadamard
        with pytest.raises(ValueError, match="outside the initial Hadamard layer"):
            decoherent_final_probabilities(shor, ErrorModel(PHASEFLIP, 0.3, (0, shor.circuit.n - 1)))


ROW_SPECS = [GroverSpec(n, 1) for n in range(2, 9)] + [
    ShorSpec.for_modulus(R, a) for R in (3, 5, 7) for a in range(1, R) if math.gcd(a, R) == 1
]


class TestRowsRoute:
    """Every reduction of a view reads its representative rows and gives the
    bytes of the same reduction of the dense unitary: sum |U|^4 (with I), the
    four kernel fields, and for U_full the mixture table and column 0."""

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "perturbed"])
    @pytest.mark.parametrize(
        "spec",
        ROW_SPECS,
        ids=lambda spec: f"grover-{spec.n}" if isinstance(spec, GroverSpec) else f"shor-{spec.R}-{spec.a}",
    )
    def test_same_bytes_as_dense(self, spec, exact):
        grover = isinstance(spec, GroverSpec)
        if grover:
            circuit = build_grover(spec, None if exact else grover_angles(spec, "random"))
        else:
            circuit = build_shor(spec) if exact else perturbed_shor(spec.L, spec.R, spec.a)[0]
        uni = AlgorithmUnitaries(circuit, spec.layer_width)
        u = circuit_unitary(circuit)
        shift = circuit.n - spec.layer_width
        columns = [np.abs(u[:, s << shift]) ** 2 for s in range(1 << spec.layer_width)]
        if exact:
            setup = noise_setup(uni, PHASEFLIP, True)
            table, probs = setup.mixture_table, setup.output_probabilities
        else:  # a perturbed layer has no set-up: the same reductions of its rows
            rows = dense_rows(circuit)
            table = algorithms._mixture_table(*rows, spec.layer_width)
            probs = column_zero_probabilities(*rows)
        assert table.flags.c_contiguous
        assert table.tobytes() == np.array(columns).tobytes()
        assert probs.tobytes() == (np.abs(u[:, 0]) ** 2).tobytes()
        for c, view in ((circuit, "full_kernel"), (uni.rest_circuit, "rest_kernel")):
            u = circuit_unitary(c)
            rows, copies = dense_rows(c)
            assert copies == (1 if grover else 1 << spec.L)
            assert rows.tobytes() == u[::copies].tobytes()
            assert _unitary_interference(rows, copies).hex() == interference_unitary(u).hex()
            kernel = getattr(setup, view) if exact else pauli_noise_kernel(rows, copies)
            assert same_kernel(kernel, pauli_noise_kernel_every_row(u))


STACK_THETAS = (0.0, 0.37, math.pi / 4, 1.1, math.pi / 2)


@pytest.fixture
def passes(monkeypatch):
    """The ``layer_view_rows`` passes that ``algorithms`` makes, each as
    (circuits, layer_width, rest)."""
    calls = []
    run = algorithms.layer_view_rows

    def recorded(circuits, layer_width, rest):
        calls.append((list(circuits), layer_width, rest))
        return run(circuits, layer_width, rest)

    monkeypatch.setattr(algorithms, "layer_view_rows", recorded)
    return calls


def assert_view_rows(passes, circuits, layer_width, rest) -> list:
    """The ``view_rows`` views, U_full and then, only with ``rest``, U_rest
    of each circuit in order, have the bytes of ``circuit_unitary``'s
    representative rows of those views.  Returns the passes made, each as
    (number of circuits, layer_width, rest)."""
    passes.clear()
    expected = []
    for c in circuits:
        expected.append(c)
        if rest:
            expected.append(Circuit(c.n, c.ops[layer_width:]))
    for c, views in itertools.zip_longest(expected, view_rows(circuits, layer_width, rest)):
        got, copies = views
        assert copies == xor_row_copies(c)
        rows = representative_rows(circuit_unitary(c), copies)
        assert got.tobytes() == rows.tobytes()
        assert column_zero_probabilities(got, copies).tobytes() == (np.abs(rows[:, :copies]) ** 2).tobytes()
    return [(len(group), width, views) for group, width, views in passes]


def stacked_passes(count, size, layer_width, rest) -> list:
    """The passes of ``view_rows`` over ``count`` circuits, ``size`` to a pass."""
    full, left = divmod(count, size)
    return [(size, layer_width, rest)] * full + [(left, layer_width, rest)] * (left > 0)


class TestViewRows:
    """The circuits of one sweep point share every gate but the oracle, so
    ``view_rows`` takes their views from stacked passes of as many circuits
    as ``STACK_BYTES`` holds, each view with ``circuit_unitary``'s bytes; a
    circuit whose views do not fit alone gets one single-view pass per view,
    U_full first."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_grover_weight_classes(self, n, passes):
        self.assert_weight_classes(passes, n, STACK_THETAS)

    def test_grover_n8_stacks_at_four_mib(self, passes, monkeypatch):
        # the module's budget stacks no n = 8 view; at 4 MiB two classes share a pass
        monkeypatch.setattr(algorithms, "STACK_BYTES", 1 << 22)
        self.assert_weight_classes(passes, 8, (0.37,))

    @staticmethod
    def assert_weight_classes(passes, n, thetas):
        spec = GroverSpec(n, 0)
        for theta in thetas:
            angles = [theta] * spec.n_hadamards
            circuits = [build_grover(replace(spec, alpha=(1 << w) - 1), angles) for w in range(n + 1)]
            for rest in (True, False):
                fit = algorithms.STACK_BYTES // ((1 + rest) * 16 << 2 * n)
                lone = [(1, 0, False)] * (1 + rest) * (n + 1)  # one pass per view
                expected = stacked_passes(n + 1, fit, n, rest) if fit else lone
                assert assert_view_rows(passes, circuits, n, rest) == expected

    @pytest.mark.parametrize("eps", [0.5, math.pi])
    def test_alpha_averaged_random_realizations(self, eps, passes):
        spec = GroverSpec(4, 0)
        rng = np.random.default_rng(17)
        for _ in range(3):
            thetas = rng.uniform(math.pi / 4 - eps / 2, math.pi / 4 + eps / 2, spec.n_hadamards)
            circuits = [build_grover(replace(spec, alpha=alpha), thetas) for alpha in range(16)]
            assert assert_view_rows(passes, circuits, spec.n, True) == [(16, spec.n, True)]

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "perturbed"])
    @pytest.mark.parametrize("a", [1, 2])
    def test_shor_every_base_of_three(self, a, exact, passes):
        spec = ShorSpec.for_modulus(3, a)
        circuit = build_shor(spec) if exact else perturbed_shor(spec.L, spec.R, a)[0]
        for rest in (True, False):
            made = assert_view_rows(passes, [circuit], spec.layer_width, rest)
            assert made == [(1, spec.layer_width, rest)]

    def test_classes_split_across_stacks(self, passes):
        # n = 6: 128 KiB of both views per class, so the seven classes take
        # more than one pass at the module's budget, and fewer with U_full alone
        spec = GroverSpec(6, 0)
        thetas = [0.37] * spec.n_hadamards
        circuits = [build_grover(replace(spec, alpha=(1 << w) - 1), thetas) for w in range(7)]
        for rest in (True, False):
            size = algorithms.STACK_BYTES // ((1 + rest) * 16 << 12)
            assert assert_view_rows(passes, circuits, 6, rest) == stacked_passes(7, size, 6, rest)
            assert len(passes) > 1 or not rest

    def test_views_that_do_not_fit_are_built_one_at_a_time(self, passes, monkeypatch):
        # both views of n = 4 take 8 KiB: each circuit alone, one view per
        # pass on the view's own circuit with an empty layer, U_full first
        monkeypatch.setattr(algorithms, "STACK_BYTES", (2 * 16 << 8) - 1)
        spec = GroverSpec(4, 0)
        circuits = [build_grover(replace(spec, alpha=alpha)) for alpha in range(3)]
        assert assert_view_rows(passes, circuits, 4, True) == [(1, 0, False)] * 6
        for c, full, rest in zip(circuits, passes[::2], passes[1::2], strict=True):
            assert full[0] == [c]
            [rest_circuit] = rest[0]
            assert rest_circuit.n == c.n and rest_circuit.ops == c.ops[4:]
        assert assert_view_rows(passes, circuits, 4, False) == [(1, 4, False)] * 3

    @pytest.mark.parametrize(
        "circuit, layer_width",
        [(build_grover(GroverSpec(8, 1), grover_angles(GroverSpec(8, 1), "random")), 8)]
        + [(perturbed_shor(3, 7, a)[0], 6) for a in range(1, 7)],
        ids=["grover-8"] + [f"shor-7-{a}" for a in range(1, 7)],
    )
    def test_lone_views_match_the_dense_unitary(self, circuit, layer_width, passes):
        # at the module's budget neither fits with both views: Grover n = 8
        # holds 1 MiB per view, perturbed Shor L = 3 512 KiB
        assert assert_view_rows(passes, [circuit], layer_width, True) == [(1, 0, False)] * 2


UNIFORM_THETAS = (0.0, 0.0245, math.pi / 8, math.pi / 4, 3 * math.pi / 8, 1.1, math.pi / 2)

# the closed form's measured error against 50 digits (DECISIONS.md, "Uniform-
# angle Grover points in closed form"), with about 2.5 times headroom: I_pa
# and I_au within 32 N eps (N = 2^n, eps = 2^-52; at most 11.8 N eps measured,
# at theta = 0.0245), the success within 3e-14 (1.1e-14 measured, n = 12)
INTERFERENCE_EPS = 32
SUCCESS_TOL = 3e-14
# the stacked gate pass is within 118.5 N eps of the closed form at n = 8
GATE_PASS_EPS = 256


def uniform_point(spec, alpha, theta, measure_au=True):
    """``grover_uniform_measures`` at a grid of one angle, as floats."""
    values = grover_uniform_measures(spec, alpha, [theta], measure_au)
    return tuple(None if column is None else float(column[0]) for column in values)


def uniform_cases(n):
    """Every weight class alpha = 2^w - 1 at k = 0, 1 and the optimal k."""
    return [GroverSpec(n, (1 << w) - 1, k) for w in range(n + 1) for k in (0, 1, None)]


class TestGroverUniformMeasures:
    """``grover_uniform_measures`` against the 50-digit oracle for n <= 12 and
    against the stacked gate pass for n <= 8."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exact_oracle_matches_dense_matrices(self, n):
        for alpha in range(1 << n):
            for k in (1, 2, 3):
                factored = grover_uniform_exact(n, alpha, 0.37, k)
                dense = grover_uniform_dense(n, alpha, 0.37, k)
                assert all(abs(x - y) < 1e-45 for x, y in zip(factored, dense))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_classes_match_every_pair(self, n):
        # every (i, j) pair, grouped by the counts of its bit triples
        # (alpha_q, i_q, j_q), in the order of the splits of alpha's 0 bits
        # and then its 1 bits, each by its counts of 01, 10 and 11
        def bits(x):
            return [x >> q & 1 for q in range(n)]

        for ones in range(n + 1):
            alpha = (1 << ones) - 1
            classes = {}
            for i, j in itertools.product(range(1 << n), repeat=2):
                a, x, y = bits(alpha), bits(i), bits(j)
                triples = [4 * a[q] + 2 * x[q] + y[q] for q in range(n)]
                key = tuple(triples.count(t) for t in (1, 2, 3, 5, 6, 7))
                pairs = [(x, y), (x, [0] * n), (y, [0] * n), (a, y)]
                entry = (
                    [sum(u == v for u, v in zip(*pair)) for pair in pairs],  # factors cos
                    [(-1.0) ** sum(u & v for u, v in zip(*pair)) for pair in pairs],
                    [i == alpha, j == alpha, j == 0, i == j],
                )
                size, first = classes.get(key, (0, entry))
                assert first == entry
                classes[key] = (size + 1, entry)
            order = sorted(classes)
            sizes, cos_counts, signs, masks = algorithms._bit_triple_classes(n - ones, ones)
            assert sizes.tolist() == [float(classes[key][0]) for key in order]
            for got, field in ((cos_counts, 0), (signs, 1), (np.array(masks), 2)):
                assert got.T.tolist() == [classes[key][1][field] for key in order]

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_exact_oracle(self, n):
        floor = INTERFERENCE_EPS * 2.0 ** (n - 52)
        for spec in uniform_cases(n):
            grid = grover_uniform_measures(spec, spec.alpha, UNIFORM_THETAS, True)
            for theta, *got in zip(UNIFORM_THETAS, *grid):
                i_pa, i_au, success = grover_uniform_exact(n, spec.alpha, theta, spec.iterations)
                assert abs(got[0] - i_pa) <= floor and abs(got[1] - i_au) <= floor
                assert abs(got[2] - success) <= SUCCESS_TOL

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_stacked_gate_pass(self, n):
        floor = GATE_PASS_EPS * 2.0 ** (n - 52)
        weights = range(n + 1) if n <= 6 else (0, 1, n // 2, n)  # n = 7, 8 build each view alone
        for theta in UNIFORM_THETAS:
            for k in (0, 1, None):
                spec = GroverSpec(n, 0, k)
                alphas = [(1 << w) - 1 for w in weights]
                circuits = grover_circuits(spec, alphas, [theta] * spec.n_hadamards)
                views = view_rows(circuits, n, True)
                for alpha in alphas:
                    full, copies = next(views)
                    i_pa = _unitary_interference(full, copies)
                    success = float(column_zero_probabilities(full, copies)[alpha])
                    got = uniform_point(spec, alpha, theta)
                    assert abs(got[0] - i_pa) <= floor and abs(got[2] - success) <= 1e-13
                    assert abs(got[1] - _unitary_interference(*next(views))) <= floor
                assert next(views, None) is None

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_no_iteration_is_the_layer(self, n):
        # C_0 = 0: U_rest = I and U_full = L, with sum |L|^4 = (2 cos^4 + 2 sin^4)^n
        c, s = math.cos(0.3), math.sin(0.3)
        for w in range(n + 1):
            i_pa, i_au, success = uniform_point(GroverSpec(n, 0, 0), (1 << w) - 1, 0.3)
            assert i_au == 0.0
            assert i_pa == pytest.approx(2**n - (2 * c**4 + 2 * s**4) ** n, rel=1e-13)
            assert success == pytest.approx((c ** (n - w) * s**w) ** 2, rel=1e-13)

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_signed_permutation_edges_read_zero(self, n):
        # at theta = 0 and pi/2 every gate is a signed permutation
        for spec in uniform_cases(n):
            for theta in (0.0, math.pi / 2):
                i_pa, i_au, _ = uniform_point(spec, spec.alpha, theta)
                assert i_pa == 0.0 and i_au == 0.0

    def test_measures_i_au_only_when_asked(self):
        spec = GroverSpec(4, 3)
        with_au = uniform_point(spec, 3, 0.3)
        i_pa, i_au, success = uniform_point(spec, 3, 0.3, False)
        assert i_au is None and (i_pa, success) == (with_au[0], with_au[2])

    def test_depends_on_alpha_through_its_weight(self):
        spec = GroverSpec(6, 0)
        weight_three = uniform_point(spec, 0b000111, 0.3)
        assert uniform_point(spec, 0b101001, 0.3) == weight_three

    def test_stacked_two_by_two_products_are_single_products(self):
        # the C_k recurrence runs one stacked product per block of angles; it
        # has the bits of one product per angle only while numpy's BLAS keeps
        # them, which this pins outside the goldens
        rng = np.random.default_rng(27)
        a, b = rng.standard_normal((2, 20000, 2, 2)) * rng.uniform(0.0, 300.0, (2, 20000, 1, 1))
        single = np.array([x @ y for x, y in zip(a, b)])
        assert (a @ b).tobytes() == single.tobytes()
        for block in (1, 7, 8, 9):
            assert (a[:block] @ b[:block]).tobytes() == single[:block].tobytes()

    @pytest.mark.parametrize("k", [1, 2, 6, 25])
    def test_iterate_coefficients_have_the_bits_of_one_angle(self, k):
        # the recurrence one angle at a time, with 2 x 2 matrices
        v_alpha = np.concatenate([[0.0, 1.0], np.random.default_rng(k).uniform(0.0, 1.0, 200)])
        expected = []
        for v in v_alpha:
            step = np.array([[-2.0, 0.0], [4.0 * v, -2.0]])
            turn = np.array([[1.0, v], [v, 1.0]]) @ step
            ck = np.zeros((2, 2))
            for _ in range(k):
                ck = ck + step + ck @ turn
            expected.append(ck)
        got = algorithms._iterate_coefficients(v_alpha, k)
        assert got.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("alpha", [-1, 16])
    def test_refuses_an_alpha_outside_the_register(self, alpha):
        with pytest.raises(ValueError, match="marked item"):
            grover_uniform_measures(GroverSpec(4, 0), alpha, [0.3], True)


class TestRepresentativeRows:
    """``representative_rows`` checks the XOR promise of the rows it takes."""

    @pytest.mark.parametrize("copies", [0, -2, 3, 6, 128])
    def test_copies_must_be_a_power_of_two_dividing_n(self, copies):
        u = circuit_unitary(build_shor(ShorSpec(2, 3, 2)))  # N = 64
        with pytest.raises(ValueError, match="power of two"):
            representative_rows(u, copies)

    def test_rows_that_are_not_shifts_refused(self):
        with pytest.raises(ValueError, match="XOR-shifted"):
            representative_rows(circuit_unitary(build_grover(GroverSpec(4, 3))), 2)
        u = circuit_unitary(build_shor(ShorSpec(2, 3, 2)))
        row = 3  # the last of the first run of 4
        col = int(np.argmax(np.abs(u[row])))
        u[row, col] *= 1 + 2.0**-52
        with pytest.raises(ValueError, match="XOR-shifted"):
            representative_rows(u, 4)

    def test_one_copy_is_the_matrix(self):
        u = circuit_unitary(build_grover(GroverSpec(4, 3)))
        assert representative_rows(u, 1) is u
        rows = representative_rows(circuit_unitary(build_shor(ShorSpec(2, 3, 2))), 4)
        assert rows.base is None and rows.shape == (16, 64)


class TestOutputProbabilities:
    """|U_full[:, 0]|^2 is read once per set of views: every bit-flip point
    and the Shor decoherence sweep's ideal distribution are that one array."""

    def test_one_read_only_array(self, mixture_unitaries):
        for uni in mixture_unitaries:
            setup = noise_setup(uni, BITFLIP, True)
            probs = setup.output_probabilities
            assert probs.tobytes() == (np.abs(circuit_unitary(uni.circuit)[:, 0]) ** 2).tobytes()
            assert not probs.flags.writeable
            layer = tuple(range(uni.layer_width))
            for p in (0.0, 0.3, 1.0):
                model = ErrorModel(BITFLIP, p, layer[1:])
                # a set-up of its own: the same bytes, read-only
                alone = decoherent_final_probabilities(uni, model)
                assert alone.tobytes() == probs.tobytes() and not alone.flags.writeable
                point = decoherence_point(setup, model).probabilities
                # a row of a broadcast view: no copy
                assert np.shares_memory(point, probs) and point.tobytes() == probs.tobytes()
                assert not point.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                probs[0] = 0.5

    def test_shor_bitflip_sweep_compares_the_one_array(self, monkeypatch):
        pairs = []

        def recording(ideal, observed):
            pairs.append((ideal, observed))
            return shor_success(ideal, observed)

        monkeypatch.setattr(harness, "shor_success", recording)
        spec = ExperimentSpec(
            ShorSpec.for_modulus(3, 2), DecoherenceErrors(BITFLIP, (0.0, 0.4), (1, 2), "all")
        )
        rows = run_decoherence_sweep(spec)
        assert [row.success for row in rows] == [1.0] * 4
        # 2 * (4 + 6) points, each observing the ideal array: one evaluation
        [(ideal, observed)] = pairs
        assert ideal is observed
        assert not ideal.flags.writeable

    def test_shor_bitflip_sweep_checks_the_ideal(self, monkeypatch):
        column_zero = algorithms.column_zero_probabilities
        monkeypatch.setattr(algorithms, "column_zero_probabilities", lambda *rows: column_zero(*rows) / 2)
        spec = ExperimentSpec(
            ShorSpec.for_modulus(3, 2), DecoherenceErrors(BITFLIP, (0.0, 0.4), (1, 2), "all")
        )
        with pytest.raises(ValueError, match=r"ideal distribution sums to 0\.[45]\d*, not 1"):
            run_decoherence_sweep(spec)


class TestSuccessMeasures:
    def test_grover_success_pure_marked_state(self):
        rho = basis_density(16, 5)
        assert grover_success(rho, 5) == 1.0

    def test_grover_success_maximally_mixed(self):
        rho = np.eye(16) / 16
        assert abs(grover_success(rho, 3) - 0.0625) < 1e-12

    def test_shor_success_identical(self):
        p = np.array([0.5, 0.5, 0.0, 0.0])
        assert shor_success(p, p) == 1.0

    def test_shor_success_disjoint(self):
        assert shor_success(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_shor_success_half(self):
        ideal = np.array([0.5, 0.5, 0.0, 0.0])
        observed = np.array([0.25, 0.25, 0.25, 0.25])
        assert abs(shor_success(ideal, observed) - 0.5) < 1e-12

    def test_shor_success_names_the_distribution_it_refuses(self):
        with pytest.raises(ValueError, match="ideal distribution sums to 0.7"):
            shor_success(np.array([0.7, 0.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="observed distribution sums to 0.7"):
            shor_success(np.array([1.0, 0.0]), np.array([0.7, 0.0]))
        with pytest.raises(ValueError, match="length mismatch"):
            shor_success([0.5, 0.5], [1.0])

    def test_shor_success_rejects_bad_input(self):
        with pytest.raises(ValueError):
            shor_success(np.array([1.0, 0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            shor_success(np.array([0.7, 0.0]), np.array([1.0, 0.0]))
