import functools
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    alpha_averaged_grover,
    decoherence_channels,
    dense_rows,
    grover_uniform_exact,
    noise_then_unitary_per_index,
    pauli_noise_kernel_unblocked,
    phaseflip_mixture,
)

from qimeter import algorithms, gates, harness
from qimeter.algorithms import (
    AlgorithmUnitaries,
    GroverSpec,
    ShorSpec,
    build_grover,
    build_shor,
    column_zero_probabilities,
    decoherence_point,
    final_probabilities,
    grover_circuits,
    grover_uniform_measures,
    grover_unitaries,
    noise_setup,
    shor_success,
    shor_unitaries,
    view_rows,
)
from qimeter.channels import BITFLIP, PHASEFLIP, ErrorModel
from qimeter.errors import SizeLimitError
from qimeter.gates import circuit_unitary
from qimeter.harness import (
    DecoherenceErrors,
    ExperimentSpec,
    RandomAngleSampler,
    RandomErrors,
    SystematicErrors,
    cue_baseline,
    default_epsilon_grid,
    default_probability_grid,
    default_theta_grid,
    haar_unitary,
    read_results,
    run_decoherence_sweep,
    run_random_sweep,
    run_systematic_sweep,
    write_results,
)
from qimeter.interference import _unitary_interference, interference_kraus

GRID3 = (0.0, math.pi / 4, math.pi / 2)


def grover_spec(error_family, **kwargs):
    return ExperimentSpec(GroverSpec(4, 2), error_family, **kwargs)


class TestDefaults:
    def test_grid_shapes(self):
        assert len(default_theta_grid()) == 65
        assert len(default_epsilon_grid()) == 33
        assert len(default_probability_grid()) == 21

    def test_quarter_pi_exactly_on_grid(self):
        assert default_theta_grid()[32] == math.pi / 4

    def test_half_probability_on_grid(self):
        assert default_probability_grid()[10] == 0.5


class TestSystematicSweep:
    def test_edges_have_no_interference(self):
        rows = run_systematic_sweep(grover_spec(SystematicErrors(GRID3)))
        assert abs(rows[0].interference_pa) < 1e-9
        assert abs(rows[-1].interference_pa) < 1e-9

    def test_exact_point_values(self):
        rows = run_systematic_sweep(grover_spec(SystematicErrors(GRID3)))
        middle = rows[1]
        assert abs(middle.success - 0.9613189697265616) < 1e-12
        assert abs(middle.interference_au - 4.656615257263) < 1e-9
        assert middle.n_f is None and middle.success_stderr == 0.0

    def test_alpha_average_matches_single_alpha_at_exact_angle(self):
        single = run_systematic_sweep(grover_spec(SystematicErrors((math.pi / 4,))))
        averaged = run_systematic_sweep(
            grover_spec(SystematicErrors((math.pi / 4,)), average_over_alpha=True)
        )
        assert abs(single[0].success - averaged[0].success) < 1e-10
        assert abs(single[0].interference_pa - averaged[0].interference_pa) < 1e-10
        assert averaged[0].n_samples == 16

    def test_shor_success_peaks_at_exact_angle(self):
        spec = ExperimentSpec(ShorSpec.for_modulus(3, 2), SystematicErrors(GRID3))
        rows = run_systematic_sweep(spec)
        assert rows[1].success == 1.0
        assert rows[0].success < 1.0 and rows[2].success < 1.0

    def test_measure_selection(self):
        spec = grover_spec(SystematicErrors((0.5,)), measure_au=False)
        row = run_systematic_sweep(spec)[0]
        assert row.interference_au is None and row.ibits_au is None
        assert row.interference_pa is not None and row.ibits_pa is not None

    def test_shor_success_equals_state_vector_oracle(self):
        # success is read from column 0 of U_full; it must equal the
        # state-vector simulation of the same circuit bit for bit
        algo = ShorSpec.for_modulus(5, 2)
        grid = (0.3, 0.6, 1.1)
        rows = run_systematic_sweep(ExperimentSpec(algo, SystematicErrors(grid)))
        ideal = final_probabilities(build_shor(algo))
        n_thetas = 4 * algo.L
        for theta, row in zip(grid, rows):
            observed = final_probabilities(build_shor(algo, [theta] * n_thetas))
            assert row.success == shor_success(ideal, observed)

    def test_family_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_systematic_sweep(grover_spec(RandomErrors((0.1, 0.5), 2)))

    def test_emitted_values_respect_bounds(self):
        rows = run_systematic_sweep(
            grover_spec(SystematicErrors(tuple(np.linspace(0, math.pi / 2, 9))))
        )
        dim = 1 << 4
        for row in rows:
            assert row.interference_pa >= -1e-9
            assert row.interference_au >= -1e-9
            assert row.interference_pa <= dim - 1 + 1e-9
            assert 0.0 <= row.success <= 1.0
            assert row.success_stderr >= 0.0


WEIGHT_CLASS_THETAS = (0.0, 0.37, math.pi / 4, 1.1, math.pi / 2)


def count_grover_builds(monkeypatch):
    calls = []

    def counting(spec, alphas, thetas=None):
        for alpha, circuit in zip(alphas, grover_circuits(spec, alphas, thetas)):
            calls.append(alpha)
            yield circuit

    monkeypatch.setattr(harness, "grover_circuits", counting)
    return calls


def count_closed_forms(monkeypatch):
    calls = []

    def counting(spec, alpha, thetas, measure_au):
        calls.append((alpha, len(thetas)))
        return grover_uniform_measures(spec, alpha, thetas, measure_au)

    monkeypatch.setattr(harness, "grover_uniform_measures", counting)
    return calls


def exact_alpha_average(spec: GroverSpec, theta: float) -> tuple:
    """The 50-digit mean (I_pa, I_au, success) over all 2^n marked items."""
    n = spec.n
    values = [
        [math.comb(n, w) * x for x in grover_uniform_exact(n, (1 << w) - 1, theta, spec.iterations)]
        for w in range(n + 1)
    ]
    return tuple(sum(column) / 2**n for column in zip(*values))


class TestAlphaWeightClasses:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_per_alpha_oracle(self, n):
        # the gate-by-gate mean over every item agrees to 1e-12 relative, and
        # both are within 256 N eps of the 50-digit value; where that value is
        # 0 to 31 digits (n = 2, theta = pi/4: I_pa), the gate pass reads 4.4e-16
        floor = 256 * 2.0 ** (n - 52)
        spec = ExperimentSpec(
            GroverSpec(n, 0), SystematicErrors(WEIGHT_CLASS_THETAS), average_over_alpha=True
        )
        rows = run_systematic_sweep(spec)
        for row in rows:
            thetas = [row.sweep_value] * spec.algorithm.n_hadamards
            expected = alpha_averaged_grover(spec.algorithm, thetas)
            exact = exact_alpha_average(spec.algorithm, row.sweep_value)
            observed = (row.interference_pa, row.interference_au, row.success)
            for got, want, value in zip(observed, expected, exact):
                assert abs(got - value) <= floor and abs(want - value) <= floor
                assert abs(got - want) <= 1e-12 * abs(want) or abs(value) <= floor
            assert row.n_samples == 2**n
        for edge in (rows[0], rows[-1]):
            assert edge.interference_pa == 0.0 and edge.interference_au == 0.0

    @pytest.mark.parametrize("n", [3, 5])
    def test_uniform_angle_builds_no_circuit(self, n, monkeypatch):
        # one closed form per weight class over the whole grid
        builds, closed_forms = count_grover_builds(monkeypatch), count_closed_forms(monkeypatch)
        spec = ExperimentSpec(
            GroverSpec(n, 0), SystematicErrors((0.37, 0.5, 1.1)), average_over_alpha=True
        )
        rows = run_systematic_sweep(spec)
        assert builds == []
        assert closed_forms == [((1 << w) - 1, 3) for w in range(n + 1)]
        assert [row.n_samples for row in rows] == [2**n] * 3

    def test_nudged_angle_builds_every_item(self, monkeypatch):
        calls = count_grover_builds(monkeypatch)
        spec = ExperimentSpec(
            GroverSpec(4, 0), SystematicErrors((0.37,)), average_over_alpha=True
        )
        thetas = [0.37] * spec.algorithm.n_hadamards
        thetas[5] += 1e-9
        observed = harness._unitary_point(spec, None, thetas)
        assert calls == list(range(16))
        expected = alpha_averaged_grover(spec.algorithm, thetas)
        for got, want in zip(observed, expected):
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_random_sweep_shortcut_only_at_zero_epsilon(self, monkeypatch):
        builds, closed_forms = count_grover_builds(monkeypatch), count_closed_forms(monkeypatch)
        spec = ExperimentSpec(
            GroverSpec(3, 0), RandomErrors((0.0, 0.5), 1), average_over_alpha=True
        )
        rows = run_random_sweep(spec)
        assert closed_forms == [(0, 1), (1, 1), (3, 1), (7, 1)]
        assert builds == list(range(8))
        assert [row.n_samples for row in rows] == [1, 1]

    @pytest.mark.parametrize("average", [True, False])
    def test_angle_list_of_the_wrong_length_refused(self, average):
        # a uniform list of any length would pass the test for equal angles
        spec = ExperimentSpec(GroverSpec(3, 2), SystematicErrors((0.37,)), average_over_alpha=average)
        for count in (0, spec.algorithm.n_hadamards - 1, spec.algorithm.n_hadamards + 1):
            with pytest.raises(ValueError, match=f"expected 15 Hadamard angles, got {count}"):
                harness._unitary_point(spec, None, [0.37] * count)


class TestRandomSweep:
    def test_zero_epsilon_degenerates_to_systematic(self):
        srows = run_systematic_sweep(grover_spec(SystematicErrors((math.pi / 4,))))
        rrows = run_random_sweep(grover_spec(RandomErrors((0.0,), 4), master_seed=5))
        assert rrows[0].interference_pa == srows[0].interference_pa
        assert rrows[0].interference_au == srows[0].interference_au
        assert rrows[0].success == srows[0].success
        assert rrows[0].success_stderr == 0.0

    def test_same_seed_reproduces(self):
        spec = grover_spec(RandomErrors((0.4, 1.2), 6), master_seed=11)
        assert run_random_sweep(spec) == run_random_sweep(spec)

    def test_different_seed_differs(self):
        base = grover_spec(RandomErrors((1.2,), 6), master_seed=11)
        other = grover_spec(RandomErrors((1.2,), 6), master_seed=12)
        assert run_random_sweep(base) != run_random_sweep(other)

    def test_parallel_matches_serial(self):
        spec = grover_spec(RandomErrors((0.4, 1.2), 40), master_seed=11)
        assert run_random_sweep(spec, parallel=1) == run_random_sweep(spec, parallel=3)

    def test_stderr_formula(self):
        spec = ExperimentSpec(GroverSpec(3, 1), RandomErrors((0.9,), 12), master_seed=2)
        row = run_random_sweep(spec)[0]
        assert row.n_samples == 12
        assert row.success_stderr > 0.0

    def test_grover_success_equals_state_vector_oracle(self):
        eps, seed = 0.9, 4
        spec = ExperimentSpec(GroverSpec(4, 6), RandomErrors((eps,), 3), master_seed=seed)
        row = run_random_sweep(spec)[0]
        sampler = RandomAngleSampler(seed, "random:grover:n=4:alpha=6:k=3")
        values = []
        for realization in range(3):
            thetas = sampler.stream(0, realization).uniform(
                math.pi / 4 - eps / 2, math.pi / 4 + eps / 2, 4 + 2 * 4 * 3
            )
            values.append(final_probabilities(build_grover(GroverSpec(4, 6), thetas))[6])
        assert row.success == float(np.mean(values))

    def test_row_matches_documented_draw_contract(self):
        # reproduce a 2-realization row by hand from the published
        # substream derivation and draw order
        from qimeter.algorithms import build_grover
        from qimeter.gates import circuit_apply
        from qimeter.linalg import basis_state

        eps, seed = 0.9, 8
        spec = ExperimentSpec(GroverSpec(3, 1), RandomErrors((eps,), 2), master_seed=seed)
        row = run_random_sweep(spec)[0]

        sampler = RandomAngleSampler(seed, "random:grover:n=3:alpha=1:k=2")
        values = []
        for realization in (0, 1):
            rng = sampler.stream(0, realization)
            thetas = rng.uniform(
                math.pi / 4 - eps / 2, math.pi / 4 + eps / 2, 3 + 2 * 3 * 2
            )
            psi = circuit_apply(build_grover(GroverSpec(3, 1), thetas), basis_state(8))
            values.append(abs(psi[1]) ** 2)
        assert row.success == pytest.approx(np.mean(values), abs=1e-15)
        assert row.success_stderr == pytest.approx(
            np.std(values, ddof=1) / math.sqrt(2), abs=1e-15
        )

    def test_shor_random_draws_qft_phases(self):
        spec = ExperimentSpec(ShorSpec.for_modulus(3, 2), RandomErrors((1.0,), 3), master_seed=3)
        row = run_random_sweep(spec)[0]
        assert row.success < 1.0
        assert row.interference_pa > 0.0

    def test_mean_pa_interference_peaks_at_zero_epsilon(self):
        spec = ExperimentSpec(
            GroverSpec(4, 0),
            RandomErrors((0.0, 0.3, 1.0, 2.5), 50),
            average_over_alpha=True,
            master_seed=31,
        )
        rows = run_random_sweep(spec, parallel=2)
        assert rows[0].interference_pa == max(r.interference_pa for r in rows)


class TestStackedPoints:
    """A unitary-error point takes its views from stacked passes, or from
    one pass per view where they do not fit, and gives the bits of each
    marked item's views built on their own (``dense_rows``)."""

    @staticmethod
    def draws(spec, grid_index, eps, count):
        """(thetas, deltas) of each realization, as ``_random_task`` draws them."""
        algo = spec.algorithm
        sampler = RandomAngleSampler(spec.master_seed, f"random:{harness._algorithm_id(algo)}")
        for realization in range(count):
            rng = sampler.stream(grid_index, realization)
            thetas = rng.uniform(math.pi / 4 - eps / 2, math.pi / 4 + eps / 2, algo.n_hadamards)
            yield thetas, rng.uniform(-eps / 2, eps / 2, algo.n_qft_phases)

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        run = algorithms.layer_view_rows

        def recorded(circuits, layer_width, rest):
            calls.append(len(circuits))
            return run(circuits, layer_width, rest)

        monkeypatch.setattr(algorithms, "layer_view_rows", recorded)
        return calls

    def test_alpha_averaged_random_point_to_the_bit(self, passes):
        spec = ExperimentSpec(
            GroverSpec(4, 0), RandomErrors((0.5, 1.3, math.pi), 4), average_over_alpha=True, master_seed=9
        )
        for g, eps in enumerate(spec.error_family.epsilons):
            points = harness._random_task(spec, None, (g, eps, 0, 4))
            for point, (thetas, _) in zip(points, self.draws(spec, g, eps, 4), strict=True):
                i_pa = i_au = success = 0.0
                for alpha in range(16):
                    uni = AlgorithmUnitaries(build_grover(GroverSpec(4, alpha), thetas), 4)
                    i_pa += _unitary_interference(*dense_rows(uni.circuit))
                    success += float(column_zero_probabilities(*dense_rows(uni.circuit))[alpha])
                    i_au += _unitary_interference(*dense_rows(uni.rest_circuit))
                assert point == (i_pa / 16, i_au / 16, success / 16)
        assert passes == [16] * 12

    def test_shor_point_to_the_bit(self, passes):
        algo = ShorSpec.for_modulus(3, 2)
        # complex amplitudes: a success read through scalar abs(x) ** 2 moves
        # some probabilities by an ulp, and 15 of these 80 successes with them
        spec = ExperimentSpec(algo, RandomErrors((0.5, 1.0, 2.0, 3.0), 20), master_seed=4)
        ideal = harness._shor_ideal(algo)
        for g, eps in enumerate(spec.error_family.epsilons):
            for thetas, deltas in self.draws(spec, g, eps, 20):
                uni = AlgorithmUnitaries(build_shor(algo, thetas, deltas), algo.layer_width)
                full = dense_rows(uni.circuit)
                expected = (
                    _unitary_interference(*full),
                    _unitary_interference(*dense_rows(uni.rest_circuit)),
                    shor_success(ideal, column_zero_probabilities(*full)),
                )
                assert harness._unitary_point(spec, ideal, thetas, deltas) == expected
        assert passes == [1] * 80

    @pytest.mark.parametrize("sweep", ["grover-random", "shor-systematic"])
    def test_lone_views_build_no_dense_unitary(self, sweep, passes, monkeypatch):
        # neither point's views fit STACK_BYTES (1 MiB each at Grover n = 8
        # and Shor L = 3): each view is a pass of its own, the sweep calls
        # circuit_unitary nowhere, and each row has the dense route's bits
        if sweep == "grover-random":
            spec = ExperimentSpec(GroverSpec(8, 5), RandomErrors((0.5, 2.0), 1), master_seed=3)
            eps = spec.error_family.epsilons
            angles = [next(self.draws(spec, g, e, 1))[0] for g, e in enumerate(eps)]
            run = run_random_sweep
        else:
            spec = ExperimentSpec(ShorSpec.for_modulus(7, 3), SystematicErrors((0.3, 0.9)))
            angles = [[theta] * spec.algorithm.n_hadamards for theta in spec.error_family.thetas]
            run = run_systematic_sweep
        algo = spec.algorithm
        ideal = harness._shor_ideal(algo)
        expected = []
        for thetas in angles:
            circuit = build_grover(algo, thetas) if ideal is None else build_shor(algo, thetas)
            uni = AlgorithmUnitaries(circuit, algo.layer_width)
            full = dense_rows(uni.circuit)
            probs = column_zero_probabilities(*full)
            success = float(probs[algo.alpha]) if ideal is None else shor_success(ideal, probs)
            i_pa, i_au = _unitary_interference(*full), _unitary_interference(*dense_rows(uni.rest_circuit))
            expected.append((i_pa, i_au, success))
        calls = []
        for module in (gates, algorithms):
            counted = functools.partial(lambda run, c: calls.append(c) or run(c), module.circuit_unitary)
            monkeypatch.setattr(module, "circuit_unitary", counted)
        rows = run(spec)
        assert calls == [] and passes == [1, 1] * len(angles)
        assert [(row.interference_pa, row.interference_au, row.success) for row in rows] == expected

    def test_lone_point_holds_one_view_at_a_time(self):
        # Grover n = 8 holds 1 MiB per view, so each view is a pass of its
        # own; U_full is dropped before U_rest's pass, so measuring I_au
        # adds no view to the point's peak, and the point peaks no higher
        # than the dense route, one dense view at a time
        algo = GroverSpec(8, 5)
        thetas = np.random.default_rng(8).uniform(0.5, 1.0, algo.n_hadamards)

        def point(measure_au):
            spec = ExperimentSpec(algo, RandomErrors((0.5,), 1), measure_au=measure_au)
            return harness._unitary_point(spec, None, thetas)

        def dense():
            uni = AlgorithmUnitaries(build_grover(algo, thetas), algo.layer_width)
            full = dense_rows(uni.circuit)
            i_pa = _unitary_interference(*full)
            success = float(column_zero_probabilities(*full)[algo.alpha])
            del full
            return i_pa, _unitary_interference(*dense_rows(uni.rest_circuit)), success

        peaks, values = [], []
        for build in (lambda: point(True), lambda: point(False), dense):
            build()  # every step lowered
            tracemalloc.start()
            values.append(build())
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert values[0] == values[2] and values[1] == (values[0][0], None, values[0][2])
        view = 16 << 2 * algo.n
        assert peaks[0] <= peaks[1] + view // 16 and peaks[0] <= peaks[2]

    def test_shared_gates_keyed_once(self, monkeypatch):
        # the six weight classes of n = 5 at one angle, 53 gates each: each
        # gate that the circuits share is one object, keyed once; each oracle
        # is keyed once per class
        contents = []
        content = gates._content

        def counted(gate, n, every_row):
            contents.append(gate)
            return content(gate, n, every_row)

        monkeypatch.setattr(gates, "_content", counted)
        algo = GroverSpec(5, 0)
        alphas = [(1 << w) - 1 for w in range(algo.n + 1)]
        circuits = grover_circuits(algo, alphas, [0.37] * algo.n_hadamards)
        for _ in view_rows(circuits, algo.n, True):
            pass
        width, oracles, classes = algo.n_hadamards + 2 * algo.iterations, algo.iterations, algo.n + 1
        assert len(contents) == width - oracles + classes * oracles == 73

    def test_alpha_averaged_parallel_matches_serial(self):
        spec = ExperimentSpec(
            GroverSpec(4, 0), RandomErrors((0.7, 2.0), 40), average_over_alpha=True, master_seed=6
        )
        assert run_random_sweep(spec, parallel=1) == run_random_sweep(spec, parallel=2)


class TestDecoherenceSweep:
    def test_row_layout(self):
        spec = grover_spec(
            DecoherenceErrors(BITFLIP, (0.0, 0.5, 1.0), (1, 4), "prefix")
        )
        rows = run_decoherence_sweep(spec)
        assert [(r.sweep_value, r.n_f) for r in rows] == [
            (0.0, 1), (0.0, 4), (0.5, 1), (0.5, 4), (1.0, 1), (1.0, 4),
        ]

    def test_shor_bitflip_success_is_one(self):
        spec = ExperimentSpec(
            ShorSpec.for_modulus(3, 2),
            DecoherenceErrors(BITFLIP, (0.0, 0.25, 0.5), (1, 2), "all"),
        )
        rows = run_decoherence_sweep(spec)
        assert all(r.success == 1.0 for r in rows)
        assert rows[0].n_samples == 4  # C(4, 1) subsets averaged

    def test_grover_phaseflip_halves_at_p_half(self):
        spec = grover_spec(DecoherenceErrors(PHASEFLIP, (0.5,), (4,), "prefix"))
        row = run_decoherence_sweep(spec)[0]
        assert abs(row.success - 0.0625) < 1e-12
        assert row.interference_au <= 1e-9

    def test_subset_policies_both_run(self):
        for policy in ("prefix", "all"):
            spec = grover_spec(DecoherenceErrors(BITFLIP, (0.3,), (2,), policy))
            row = run_decoherence_sweep(spec)[0]
            assert row.success == pytest.approx(0.9613189697265616, abs=1e-12)

    def test_setup_built_once_per_sweep(self, monkeypatch):
        # one setup serves every n_f of a sweep, and nothing outlives the
        # sweep: a second identical sweep builds its own
        calls = []

        def counting(algorithm):
            calls.append(algorithm)
            return grover_unitaries(algorithm)

        monkeypatch.setattr(harness, "grover_unitaries", counting)
        spec = grover_spec(DecoherenceErrors(PHASEFLIP, (0.0, 0.5), (1, 2, 3), "prefix"))
        first = run_decoherence_sweep(spec)
        assert len(calls) == 1
        assert run_decoherence_sweep(spec) == first
        assert len(calls) == 2

    @pytest.fixture
    def built(self, monkeypatch):
        """Calls of the two set-up functions, as ``algorithms`` reaches them."""
        calls = {"circuit_unitary": 0, "pauli_noise_kernel": 0}
        for name in calls:
            def counting(*args, _name=name, _original=getattr(algorithms, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(algorithms, name, counting)
        return calls

    @pytest.mark.parametrize("measure_au", [False, True])
    @pytest.mark.parametrize(
        "algorithm, kind",
        [(GroverSpec(3, 1), PHASEFLIP), (ShorSpec.for_modulus(3, 2), BITFLIP)],
        ids=["grover", "shor"],
    )
    def test_builds_only_what_it_reports(self, algorithm, kind, measure_au, built):
        # U_full and its kernel serve I_pa and the success; U_rest and its
        # kernel serve I_au alone
        errors = DecoherenceErrors(kind, (0.0, 0.5), (1, 2), "all")
        rows = run_decoherence_sweep(ExperimentSpec(algorithm, errors, measure_au=measure_au))
        views = 2 if measure_au else 1
        assert built == {"circuit_unitary": views, "pauli_noise_kernel": views}
        assert all((row.interference_au is not None) == measure_au for row in rows)

    @pytest.mark.parametrize(
        "views, perturbed",
        [
            ("grover_unitaries", lambda spec: build_grover(spec, [0.6] * spec.n_hadamards)),
            ("shor_unitaries", lambda spec: build_shor(spec, [0.6] + [math.pi / 4] * 7)),  # L = 2
        ],
        ids=["grover", "shor"],
    )
    def test_refuses_a_perturbed_layer_before_building(self, views, perturbed, built, monkeypatch):
        # sigma_z H(theta) = H(theta) sigma_x only at theta = pi/4: a sweep on
        # a perturbed layer refuses before any view, kernel or table exists
        algorithm = GroverSpec(3, 1) if views == "grover_unitaries" else ShorSpec.for_modulus(3, 2)
        uni = AlgorithmUnitaries(perturbed(algorithm), algorithm.layer_width)
        monkeypatch.setattr(harness, views, lambda spec: uni)
        for kind in (BITFLIP, PHASEFLIP):
            spec = ExperimentSpec(algorithm, DecoherenceErrors(kind, (0.0, 0.5), (1, 2), "all"))
            with pytest.raises(ValueError, match="exact initial Hadamard layer"):
                run_decoherence_sweep(spec)
        assert built == {"circuit_unitary": 0, "pauli_noise_kernel": 0}

    @pytest.mark.parametrize(
        "algorithm", [ShorSpec.for_modulus(7, 3), GroverSpec(4, 1)], ids=["shor", "grover"]
    )
    def test_one_dense_unitary_alive_at_a_time(self, algorithm, monkeypatch):
        # each view's dense unitary is gone before the next one is built and
        # when the sweep returns; Grover's rows are the whole matrix
        dense = []
        original = algorithms.circuit_unitary

        def tracked(circuit):
            assert [ref() for ref in dense] == [None] * len(dense)
            u = original(circuit)
            dense.append(weakref.ref(u))
            return u

        monkeypatch.setattr(algorithms, "circuit_unitary", tracked)
        errors = DecoherenceErrors(PHASEFLIP, (0.0, 0.5), (1, 2), "all")
        run_decoherence_sweep(ExperimentSpec(algorithm, errors, measure_au=True))
        assert len(dense) == 2
        assert [ref() for ref in dense] == [None, None]

    def test_output_independent_of_blas_threads(self, tmp_path):
        # the class sums reduce through bincount, 1-D dots and elementwise
        # sums, none of which a BLAS thread count can split
        argv = "shor-decoherence --L 3 --R 7 --a 3 --error-kind phaseflip --format json".split()
        src = Path(__file__).resolve().parent.parent / "src"
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}.json"
            env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
            code = "import sys; from qimeter.cli import main; sys.exit(main(sys.argv[1:]))"
            result = subprocess.run(
                [sys.executable, "-c", code, *argv, "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_period_divisibility_controls_large_p_success(self):
        # phase flips on the whole first register at n=9: when the period
        # does not divide 2^(2L) the broad-peak reference state overlaps
        # the scrambled output, so success rebounds past p = 0.5; a
        # delta-peaked reference (period dividing) decays to zero instead
        grid = (0.0, 0.5, 1.0)
        outcomes = {}
        for a in (3, 6):
            spec = ExperimentSpec(
                ShorSpec.for_modulus(7, a),
                DecoherenceErrors(PHASEFLIP, grid, (6,), "all"),
            )
            outcomes[a] = [r.success for r in run_decoherence_sweep(spec)]
        assert outcomes[3][2] > outcomes[3][1]  # rebound for a = 3
        assert outcomes[3][2] < 0.6             # but never close to one
        assert outcomes[6][2] < 0.01            # destroyed for a = 6

    def test_nf_beyond_layer_rejected(self):
        spec = ExperimentSpec(
            ShorSpec.for_modulus(3, 2),
            DecoherenceErrors(BITFLIP, (0.5,), (5,), "all"),
        )
        with pytest.raises(ValueError):
            run_decoherence_sweep(spec)

    def test_alpha_averaging_rejected(self):
        with pytest.raises(ValueError):
            grover_spec(
                DecoherenceErrors(BITFLIP, (0.5,), (1,), "prefix"),
                average_over_alpha=True,
            )


SWEEP_PROBABILITIES = (0.0, 0.05, 0.5, 0.95, 1.0)
ORACLE_ALGORITHMS = (
    [GroverSpec(n, 1) for n in range(2, 9)]
    + [ShorSpec.for_modulus(3, a) for a in (1, 2)]
    + [ShorSpec.for_modulus(7, a) for a in range(1, 7)]
)


@functools.cache
def _oracle_views(algorithm):
    grover = isinstance(algorithm, GroverSpec)
    views = grover_unitaries(algorithm) if grover else shor_unitaries(algorithm)
    full, rest = circuit_unitary(views.circuit), circuit_unitary(views.rest_circuit)
    return views, full, (pauli_noise_kernel_unblocked(full), pauli_noise_kernel_unblocked(rest))


@functools.cache
def _oracle_point(algorithm, kind, affected, p):
    """(I_pa, I_au, success) of one decoherence point: the explicit Kraus
    channels where N <= 64, else the per-index weights on unblocked kernels
    and the column-by-column mixture."""
    views, full, (full_kernel, rest_kernel) = _oracle_views(algorithm)
    model = ErrorModel(kind, p, affected)
    ideal = np.abs(full[:, 0]) ** 2
    if full.shape[0] <= 64:
        channels = decoherence_channels(views, model)
        pa = interference_kraus(channels.potentially_available)
        au = interference_kraus(channels.actually_used)
        observed = np.diag(channels.final_state).real
    else:
        swapped = ErrorModel(PHASEFLIP if kind == BITFLIP else BITFLIP, p, affected)
        pa = noise_then_unitary_per_index(full_kernel, swapped)
        au = noise_then_unitary_per_index(rest_kernel, model)
        # bit flips leave the post-layer state |+...+> as it is
        observed = ideal if kind == BITFLIP else phaseflip_mixture(full, model)
    if isinstance(algorithm, GroverSpec):
        return pa, au, observed[algorithm.alpha]
    return pa, au, min(max(1.0 - 0.5 * np.sum(np.abs(ideal - observed)), 0.0), 1.0)


class TestDecoherenceSweepOracles:
    """Every row of a decoherence sweep is the mean, over its subsets, of
    points evaluated by an independent route (``_oracle_point``), within
    1e-12 relative and 1e-12 absolute."""

    @pytest.mark.parametrize("measure_au", [True, False], ids=["au", "no-au"])
    @pytest.mark.parametrize("policy", ["prefix", "all"])
    @pytest.mark.parametrize("kind", [BITFLIP, PHASEFLIP])
    @pytest.mark.parametrize(
        "algorithm",
        ORACLE_ALGORITHMS,
        ids=lambda a: f"grover-{a.n}" if isinstance(a, GroverSpec) else f"shor-{a.R}-{a.a}",
    )
    def test_rows_match_oracles(self, algorithm, kind, policy, measure_au):
        layer = tuple(range(algorithm.layer_width))
        # subsets of one and two qubits, and the whole layer: 2^n_f Kraus
        # operators per point keep the explicit route cheap
        n_f_values = tuple(sorted({1, 2, len(layer)}))
        errors = DecoherenceErrors(kind, SWEEP_PROBABILITIES, n_f_values, policy)
        rows = run_decoherence_sweep(ExperimentSpec(algorithm, errors, measure_au=measure_au))
        assert len(rows) == len(SWEEP_PROBABILITIES) * len(n_f_values)
        for row in rows:
            if policy == "prefix":
                subsets = [layer[: row.n_f]]
            else:
                subsets = list(itertools.combinations(layer, row.n_f))
            points = [_oracle_point(algorithm, kind, s, row.sweep_value) for s in subsets]
            pa, au, success = (float(np.mean(column)) for column in zip(*points))
            where = (row.sweep_value, row.n_f)
            assert row.n_samples == len(subsets)
            assert row.interference_pa == pytest.approx(pa, rel=1e-12, abs=1e-12), where
            assert row.success == pytest.approx(success, rel=1e-12, abs=1e-12), where
            if measure_au:
                assert row.interference_au == pytest.approx(au, rel=1e-12, abs=1e-12), where
            else:
                assert row.interference_au is None and row.ibits_au is None


# a 65-point grid with 0, pi/4 and pi/2 exactly, and grids of 9, 8 and 7 of
# its points that keep those three, and of pi/4 alone
UNIFORM_GRID = default_theta_grid()
SUBGRIDS = (
    UNIFORM_GRID[::8],
    UNIFORM_GRID[:8:8] + UNIFORM_GRID[16::8],
    UNIFORM_GRID[:8:8] + UNIFORM_GRID[16:56:8] + UNIFORM_GRID[64:],
    UNIFORM_GRID[32:33],
)
GRID_ALGORITHMS = [a for a in ORACLE_ALGORITHMS if not isinstance(a, GroverSpec) or a.n <= 6]
# tracemalloc peak, in bytes, of a warm run_systematic_sweep at n = 8 with
# alpha averaged, on the default grid, when each (theta, item) point was
# its own closed form (239776 B measured; DECISIONS.md)
SYSTEMATIC_PEAK_BYTES = 240_000


def value_bytes(values) -> list:
    """The bytes of each float of ``values``, None kept as None."""
    return [None if value is None else np.float64(value).tobytes() for value in values]


def measure_bytes(row) -> list:
    """``value_bytes`` of a row's I_pa, I_au and success."""
    return value_bytes((row.interference_pa, row.interference_au, row.success))


class TestSweepGridsAsArrays:
    """A sweep evaluates its whole grid at once, with the bits of one point
    at a time: each Grover systematic row equals ``_unitary_point`` at its
    angle, and each decoherence row the mean of ``DecoherencePoint`` reads."""

    @pytest.mark.parametrize("measure_au", [True, False], ids=["au", "no-au"])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_grover_rows_are_their_points(self, n, measure_au, monkeypatch):
        items = [(GroverSpec(n, (1 << w) - 1), False) for w in range(n + 1)]
        for algorithm, average in [(GroverSpec(n, 0), True)] + items:

            def spec(grid):
                errors = SystematicErrors(grid)
                return ExperimentSpec(algorithm, errors, average, measure_au=measure_au)

            angles = algorithm.n_hadamards
            points = {
                theta: harness._unitary_point(spec(UNIFORM_GRID), None, [theta] * angles)
                for theta in UNIFORM_GRID
            }
            for grid in (UNIFORM_GRID,) + SUBGRIDS:
                if grid is SUBGRIDS[0] and not average:
                    # blocks of 8 angles: the subgrids end after, at and before an edge
                    ones = bin(algorithm.alpha).count("1")
                    classes = len(algorithms._bit_triple_classes(n - ones, ones)[0])
                    monkeypatch.setattr(algorithms, "THETA_BLOCK_ENTRIES", 8 * classes)
                rows = run_systematic_sweep(spec(grid))
                assert [row.sweep_value for row in rows] == list(grid)
                for row in rows:
                    expected = value_bytes(points[row.sweep_value])
                    assert measure_bytes(row) == expected, (algorithm, row)
            monkeypatch.undo()

    @pytest.mark.parametrize("measure_au", [True, False], ids=["au", "no-au"])
    @pytest.mark.parametrize("policy", ["prefix", "all"])
    @pytest.mark.parametrize("kind", [BITFLIP, PHASEFLIP])
    @pytest.mark.parametrize(
        "algorithm",
        GRID_ALGORITHMS,
        ids=lambda a: f"grover-{a.n}" if isinstance(a, GroverSpec) else f"shor-{a.R}-{a.a}",
    )
    def test_decoherence_rows_are_their_points(self, algorithm, kind, policy, measure_au):
        layer = tuple(range(algorithm.layer_width))
        n_f_values = tuple(range(1, len(layer) + 1))
        errors = DecoherenceErrors(kind, SWEEP_PROBABILITIES, n_f_values, policy)
        spec = ExperimentSpec(algorithm, errors, measure_au=measure_au)
        rows = run_decoherence_sweep(spec)
        grover = isinstance(algorithm, GroverSpec)
        unitaries = grover_unitaries(algorithm) if grover else shor_unitaries(algorithm)
        setup = noise_setup(unitaries, kind, measure_au)
        ideal = None if grover else setup.output_probabilities
        for row in rows:
            subsets = itertools.combinations(layer, row.n_f)
            pa, au, success = [], [], []
            for subset in [layer[: row.n_f]] if policy == "prefix" else subsets:
                point = decoherence_point(setup, ErrorModel(kind, row.sweep_value, subset))
                probs = point.probabilities
                if grover:
                    success.append(float(probs[algorithm.alpha]))
                else:
                    success.append(shor_success(ideal, probs))
                pa.append(point.interference_pa)
                if measure_au:
                    au.append(point.interference_au)
            expected = harness._make_row(spec, row.sweep_value, row.n_f, pa, au, success, len(pa))
            assert measure_bytes(row) == measure_bytes(expected), (row.sweep_value, row.n_f)

    def test_systematic_peak_memory(self):
        # the class tables are cached by the first run, so the second
        # measures the grid's working memory alone
        spec = ExperimentSpec(GroverSpec(8, 0), SystematicErrors(UNIFORM_GRID), True)
        run_systematic_sweep(spec)
        tracemalloc.start()
        try:
            run_systematic_sweep(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= SYSTEMATIC_PEAK_BYTES

    def test_every_row_of_the_success_grid_is_checked(self, monkeypatch):
        # one phase-flip row, p = 0.5, that does not sum to 1
        original = harness.subset_measures

        def nudged(setup, affected, ps):
            i_pa, i_au, probs = original(setup, affected, ps)
            probs = np.array(probs)
            probs[list(ps).index(0.5)] *= 1.25
            return i_pa, i_au, probs

        monkeypatch.setattr(harness, "subset_measures", nudged)
        errors = DecoherenceErrors(PHASEFLIP, SWEEP_PROBABILITIES, (1, 2), "all")
        with pytest.raises(ValueError, match=r"observed distribution sums to 1\.2[45]\d*, not 1"):
            run_decoherence_sweep(ExperimentSpec(ShorSpec.for_modulus(3, 2), errors))


class TestWorkerPool:
    @pytest.fixture
    def sizes(self, monkeypatch):
        # stands in for ProcessPoolExecutor: records the pool size and maps
        # in this process, so no worker is started
        sizes = []

        class RecordingExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingExecutor)
        return sizes

    def test_pool_never_exceeds_task_count(self, sizes):
        spec = ExperimentSpec(ShorSpec.for_modulus(3, 2), SystematicErrors(GRID3))
        assert run_systematic_sweep(spec, parallel=8) == run_systematic_sweep(spec)
        assert sizes == [3]

    def test_single_task_runs_without_pool(self, sizes):
        spec = ExperimentSpec(ShorSpec.for_modulus(3, 2), SystematicErrors((math.pi / 4,)))
        assert run_systematic_sweep(spec, parallel=64) == run_systematic_sweep(spec)
        assert sizes == []

    def test_grover_systematic_sweep_starts_no_pool(self, sizes):
        # the whole grid is one closed form per marked item, in this process
        spec = grover_spec(SystematicErrors(GRID3), average_over_alpha=True)
        assert run_systematic_sweep(spec, parallel=8) == run_systematic_sweep(spec)
        assert sizes == []


class TestCueBaseline:
    def test_deterministic(self):
        assert cue_baseline(4, 25, seed=9) == cue_baseline(4, 25, seed=9)

    def test_single_qubit_bound(self):
        stats = cue_baseline(1, 200, seed=1)
        assert 0.0 <= stats.mean <= 1.0

    def test_haar_unitary_is_unitary(self):
        u = haar_unitary(16, np.random.default_rng(0))
        np.testing.assert_allclose(u.conj().T @ u, np.eye(16), atol=1e-12)

    def test_caps(self):
        with pytest.raises(SizeLimitError):
            cue_baseline(9, 100)
        with pytest.raises(ValueError):
            cue_baseline(4, 5)


class TestResultsIO:
    def rows(self):
        spec = grover_spec(
            DecoherenceErrors(PHASEFLIP, (0.0, 0.5), (1, 4), "prefix"), master_seed=77
        )
        return run_decoherence_sweep(spec)

    def test_csv_header_and_quantized_roundtrip(self, tmp_path):
        rows = self.rows()
        path = tmp_path / "rows.csv"
        write_results(rows, path, "csv")
        text = path.read_text()
        assert text.splitlines()[0] == (
            "sweep_value,n,n_f,interference_pa,interference_au,ibits_pa,"
            "ibits_au,success,success_stderr,n_samples,seed"
        )
        back = read_results(path, "csv")
        for row, parsed in zip(rows, back):
            assert parsed.n == row.n and parsed.n_f == row.n_f
            assert parsed.seed == row.seed and parsed.n_samples == row.n_samples
            for name in ("sweep_value", "interference_pa", "interference_au", "success"):
                a, b = getattr(row, name), getattr(parsed, name)
                # 12 significant digits quantization
                assert b == pytest.approx(a, rel=5e-12, abs=1e-15)

    def test_small_magnitude_roundtrip_within_1e12(self, tmp_path):
        rows = self.rows()
        path = tmp_path / "rows.csv"
        write_results(rows, path, "csv")
        back = read_results(path, "csv")
        for row, parsed in zip(rows, back):
            assert abs(parsed.success - row.success) <= 1e-12

    def test_minus_infinity_roundtrips(self, tmp_path):
        rows = run_decoherence_sweep(
            grover_spec(DecoherenceErrors(PHASEFLIP, (0.5,), (4,), "prefix"))
        )
        assert rows[0].ibits_au == float("-inf")
        for fmt in ("csv", "json"):
            path = tmp_path / f"inf.{fmt}"
            write_results(rows, path, fmt)
            assert read_results(path, fmt)[0].ibits_au == float("-inf")

    def test_json_roundtrip_exact(self, tmp_path):
        rows = self.rows()
        path = tmp_path / "rows.json"
        write_results(rows, path, "json")
        assert read_results(path, "json") == list(rows)

    def test_empty_rows_header_only(self):
        buffer = io.StringIO()
        write_results([], buffer, "csv")
        assert buffer.getvalue().strip().count("\n") == 0

    def test_byte_identical_reruns(self, tmp_path):
        spec = grover_spec(RandomErrors((0.0, 0.9), 5), master_seed=123)
        texts = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            write_results(run_random_sweep(spec), path, "csv")
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            write_results([], io.StringIO(), "yaml")

    def test_missing_columns_roundtrip(self, tmp_path):
        # a systematic sweep without I_au leaves every optional field but
        # the I_pa and success columns empty
        rows = run_systematic_sweep(grover_spec(SystematicErrors(GRID3), measure_au=False))
        assert all(
            row.n_f is None and row.interference_au is None and row.ibits_au is None
            for row in rows
        )
        path = tmp_path / "rows.json"
        write_results(rows, path, "json")
        assert read_results(path, "json") == rows
        path = tmp_path / "rows.csv"
        write_results(rows, path, "csv")
        assert path.read_text().splitlines()[1].startswith("0,4,,0,,")
        back = read_results(path, "csv")
        assert [(r.n_f, r.interference_au, r.ibits_au) for r in back] == [(None,) * 3] * 3
        again = tmp_path / "again.csv"
        write_results(back, again, "csv")
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "edit, cells", [(lambda line: line.rsplit(",", 1)[0], 10), (lambda line: line + ",9", 12)],
        ids=["short", "long"],
    )
    def test_malformed_row_rejected(self, edit, cells, tmp_path):
        path = tmp_path / "rows.csv"
        write_results(self.rows(), path, "csv")
        lines = path.read_text().splitlines()
        lines[2] = edit(lines[2])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"CSV line 3 has {cells} cells, expected 11"):
            read_results(path, "csv")

    def json_with(self, tmp_path, edit):
        """The rows written as JSON with ``edit`` applied to record 2."""
        path = tmp_path / "rows.json"
        write_results(self.rows(), path, "json")
        records = json.loads(path.read_text())
        edit(records[1])
        path.write_text(json.dumps(records))
        return path

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda r: r.pop("seed"), "does not hold exactly the columns"),
            (lambda r: r.update(extra=1), "does not hold exactly the columns"),
            (lambda r: r.update(n=None), "n = None is not int"),
            (lambda r: r.update(success_stderr=None), "success_stderr = None is not float"),
            (lambda r: r.update(sweep_value="a"), "sweep_value = 'a' is not float"),
            (lambda r: r.update(sweep_value=""), "sweep_value = '' is not float"),
            (lambda r: r.update(sweep_value=[0.5]), r"sweep_value = \[0.5\] is not float"),
            (lambda r: r.update(n=4.0), "n = 4.0 is not int"),
            (lambda r: r.update(success=10**400), "success = 1000.* is not float"),
            (lambda r: r.update(seed=True), "seed = True is not int"),
            (lambda r: r.update(success=False), "success = False is not float"),
        ],
        ids=[
            "missing", "extra", "null-int", "null-float", "text", "empty", "list",
            "float-for-int", "huge-int-for-float", "bool-for-int", "bool-for-float",
        ],
    )
    def test_malformed_json_record_rejected(self, edit, message, tmp_path):
        with pytest.raises(ValueError, match=f"JSON record 2:? {message}"):
            read_results(self.json_with(tmp_path, edit), "json")

    def test_empty_csv_file_rejected(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="unexpected CSV header None"):
            read_results(path, "csv")

    def test_json_record_that_is_not_a_record_rejected(self, tmp_path):
        path = tmp_path / "rows.json"
        path.write_text("[[0.5, 4]]")
        with pytest.raises(ValueError, match="JSON record 1 does not hold exactly the columns"):
            read_results(path, "json")

    def test_json_values_typed_like_csv_cells(self, tmp_path):
        # an int passes for a float, and every optional column takes null
        def edit(record):
            record.update(sweep_value=1, n_f=None, interference_au=None, success=0)

        row = read_results(self.json_with(tmp_path, edit), "json")[1]
        assert (row.sweep_value, row.success) == (1.0, 0.0)
        assert type(row.sweep_value) is float and type(row.success) is float
        assert row.n_f is None and row.interference_au is None

    @pytest.mark.parametrize(
        "column, cell, message",
        [
            (0, "a", "sweep_value = 'a' is not float"),
            (1, "", "n = '' is not int"),
            (1, "4.0", "n = '4.0' is not int"),
            (8, "", "success_stderr = '' is not float"),
        ],
        ids=["text", "empty-int", "float-for-int", "empty-float"],
    )
    def test_malformed_csv_cell_rejected(self, column, cell, message, tmp_path):
        path = tmp_path / "rows.csv"
        write_results(self.rows(), path, "csv")
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[column] = cell
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"CSV line 3: {message}"):
            read_results(path, "csv")


class TestSampler:
    def test_streams_reproducible_and_distinct(self):
        sampler = RandomAngleSampler(42, "random:grover:n=4:alpha=2:k=3")
        a = sampler.stream(0, 0).uniform(size=4)
        b = sampler.stream(0, 0).uniform(size=4)
        c = sampler.stream(0, 1).uniform(size=4)
        d = sampler.stream(1, 0).uniform(size=4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_master_seed_changes_streams(self):
        base = RandomAngleSampler(1, "x").stream(0, 0).uniform(size=3)
        other = RandomAngleSampler(2, "x").stream(0, 0).uniform(size=3)
        assert not np.array_equal(base, other)


class TestSpecValidation:
    def test_grids_must_increase(self):
        with pytest.raises(ValueError):
            SystematicErrors((0.5, 0.5))
        with pytest.raises(ValueError):
            RandomErrors((1.0, 0.5), 3)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            DecoherenceErrors(BITFLIP, (), (1,), "all")

    @pytest.mark.parametrize(
        "grid", [(-0.1, 0.5), (0.0, 2.0), (0.0, float("nan"), 1.0)], ids=["below", "above", "nan"]
    )
    def test_probabilities_in_unit_interval(self, grid):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            DecoherenceErrors(BITFLIP, grid, (1,), "all")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "family, name",
        [(SystematicErrors, "theta"), (lambda grid: RandomErrors(grid, 3), "epsilon")],
        ids=["systematic", "random"],
    )
    def test_non_finite_grid_rejected(self, family, name, bad):
        for grid in ((0.0, bad), (bad, 1.0), (bad,)):
            with pytest.raises(ValueError, match=f"{name} grid values must be finite"):
                family(grid)

    def test_realizations_positive(self):
        with pytest.raises(ValueError):
            RandomErrors((0.1,), 0)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            grover_spec(SystematicErrors(GRID3), master_seed=1 << 64)

    @pytest.mark.parametrize("bad", [1.0, 1.5, "1", True], ids=["whole-float", "float", "string", "bool"])
    def test_n_f_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match="n_f must be an integer"):
            DecoherenceErrors(BITFLIP, (0.5,), (1, bad), "all")

    @pytest.mark.parametrize("bad", [2.0, 2.5, "2", True], ids=["whole-float", "float", "string", "bool"])
    def test_realizations_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match="realizations must be an integer"):
            RandomErrors((0.1,), bad)

    @pytest.mark.parametrize("bad", [1.0, 1.5, "1", True], ids=["whole-float", "float", "string", "bool"])
    def test_seed_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match="master seed must be an integer"):
            grover_spec(SystematicErrors(GRID3), master_seed=bad)
        with pytest.raises(ValueError, match="master seed must be an integer"):
            cue_baseline(1, 10, bad)

    def test_numpy_integers_pass_as_ints(self):
        decoherence = DecoherenceErrors(BITFLIP, (0.5,), (np.int64(1), np.uint8(2)), "all")
        random = RandomErrors((0.1,), np.int32(3))
        spec = grover_spec(random, master_seed=np.uint64(7))
        values = (*decoherence.n_f_values, random.realizations, spec.master_seed)
        assert values == (1, 2, 3, 7) and all(type(v) is int for v in values)
        assert json.loads(json.dumps([asdict(row) for row in run_random_sweep(spec)]))


class TestShorSuccessChecks:
    """Every Shor sweep checks its ideal distribution once and each point's
    own distribution and shape at that point; a decoherence sweep checks
    each subset's points together, row by row."""

    FAMILIES = {
        "systematic": (SystematicErrors(GRID3), run_systematic_sweep, 3),
        "random": (RandomErrors((0.0, 0.5), 4), run_random_sweep, 8),
        # 4 + 6 subsets, each checking every row of its p grid at once, and
        # shor_success(ideal, ideal) checks the ideal under both names for
        # the bit-flip points
        "decoherence": (
            DecoherenceErrors(PHASEFLIP, (0.0, 0.4), (1, 2), "all"),
            run_decoherence_sweep,
            4 + 6 + 1,
        ),
    }

    @pytest.fixture
    def checked(self, monkeypatch):
        names = []
        distribution = algorithms._distribution

        def recording(name, dist):
            names.append(name)
            return distribution(name, dist)

        for module in (algorithms, harness):
            monkeypatch.setattr(module, "_distribution", recording)
        return names

    @pytest.mark.parametrize("sweep", FAMILIES)
    def test_ideal_checked_once(self, sweep, checked):
        family, run, observed = self.FAMILIES[sweep]
        rows = run(ExperimentSpec(ShorSpec.for_modulus(3, 2), family))
        assert checked.count("ideal") == 1
        assert checked.count("observed") == observed
        assert all(0.0 <= row.success <= 1.0 for row in rows)

    @pytest.mark.parametrize("sweep", ["systematic", "random"])
    def test_refuses_an_ideal_that_does_not_sum_to_one(self, sweep, monkeypatch):
        family, run, _ = self.FAMILIES[sweep]
        monkeypatch.setattr(harness, "final_probabilities", lambda c: final_probabilities(c) / 2)
        with pytest.raises(ValueError, match=r"ideal distribution sums to 0\.[45]\d*, not 1"):
            run(ExperimentSpec(ShorSpec.for_modulus(3, 2), family))

    @pytest.mark.parametrize("sweep", FAMILIES)
    def test_points_check_their_own_distribution(self, sweep, monkeypatch):
        family, run, _ = self.FAMILIES[sweep]
        # halve every point's distribution, but not the sweep's ideal: a
        # phase-flip point reads the mixture table, the others U_full's column 0
        if sweep == "decoherence":
            table = algorithms._mixture_table
            monkeypatch.setattr(algorithms, "_mixture_table", lambda *rows: table(*rows) / 2)
        else:
            column_zero = harness.column_zero_probabilities
            monkeypatch.setattr(harness, "column_zero_probabilities", lambda *view: column_zero(*view) / 2)
        with pytest.raises(ValueError, match=r"observed distribution sums to 0\.[45]\d*, not 1"):
            run(ExperimentSpec(ShorSpec.for_modulus(3, 2), family))
