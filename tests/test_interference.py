import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    PAULI_X,
    apply_channel,
    apply_superoperator,
    density_from_state,
    layered_error_channel,
    noise_then_unitary_per_index,
    pauli_noise_kernel_every_row,
    pauli_noise_kernel_unblocked,
    sandwich,
    wht_last_unblocked,
)
from test_gates import grover_angles, perturbed_shor, with_rest, xor_split_circuit
from qimeter import acceptance, interference, linalg
from qimeter.acceptance import random_channel
from qimeter.algorithms import (
    GroverSpec,
    ShorSpec,
    build_grover,
    build_shor,
    grover_unitaries,
    representative_rows,
    shor_unitaries,
)
from qimeter.channels import BITFLIP, PHASEFLIP, ErrorModel, KrausChannel
from qimeter.errors import SizeLimitError, ValidationError
from qimeter.gates import circuit_unitary, perturbed_hadamard, walsh_layer, xor_row_copies
from qimeter.harness import (
    ExperimentSpec,
    RandomErrors,
    SystematicErrors,
    cue_baseline,
    default_probability_grid,
    run_random_sweep,
    run_systematic_sweep,
)
from qimeter.interference import (
    WHT_BLOCK_BYTES,
    PauliNoiseKernel,
    _sum_abs4,
    _unitary_interference,
    _wht_last,
    ibits,
    interference_kraus,
    interference_kraus_naive,
    interference_noise_then_unitary,
    interference_superoperator,
    interference_unitary,
    pauli_noise_kernel,
    superoperator_from_kraus,
)
from qimeter.linalg import HADAMARD, PAULI_Z, identity


def random_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return np.linalg.qr(z)[0]


class TestIbits:
    def test_one_hadamard_is_one_ibit(self):
        assert ibits(1.0) == 0.0

    def test_walsh_bound_value(self):
        assert abs(ibits(2**10 - 1) - math.log2(1023)) < 1e-12

    def test_zero_gives_minus_infinity(self):
        assert ibits(0.0) == float("-inf")

    def test_tiny_negative_clamps(self):
        assert ibits(-1e-10) == float("-inf")

    def test_large_negative_rejected(self):
        with pytest.raises(ValueError):
            ibits(-1e-8)


class TestMeasuresAreFloats:
    """Every route returns a plain float and refuses a negative value."""

    def test_every_route_returns_a_float(self):
        rng = np.random.default_rng(5)
        u = random_unitary(8, rng)
        ch = random_channel(4, 3, rng)
        values = [
            interference_unitary(u),
            interference_kraus(ch),
            interference_kraus_naive(ch),
            interference_superoperator(superoperator_from_kraus(ch)),
            interference_noise_then_unitary(
                pauli_noise_kernel(u), ErrorModel(BITFLIP, 0.3, (0, 2))
            ),
        ]
        assert [type(value) for value in values] == [float] * 5

    def test_negative_value_refused(self):
        # a kernel whose quartic term exceeds its autocorrelation sum
        zeros = np.zeros(2)
        kernel = PauliNoiseKernel(dim=2, sum_a2=5.0, fa2=zeros, autocorr=zeros, q=zeros)
        with pytest.raises(ValueError, match="interference value -5.0 is negative"):
            interference_noise_then_unitary(kernel, ErrorModel(PHASEFLIP, 0.3, (0,)))


class TestInterferenceUnitary:
    def test_hadamard_is_one(self):
        assert abs(interference_unitary(HADAMARD) - 1.0) < 1e-12

    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_identity_is_zero(self, dim):
        assert abs(interference_unitary(identity(dim))) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_walsh_hadamard(self, n):
        u = circuit_unitary(walsh_layer([math.pi / 4] * n))
        assert abs(interference_unitary(u) - (2**n - 1)) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-4, 4, allow_nan=False))
    def test_perturbed_hadamard_formula(self, theta):
        value = interference_unitary(perturbed_hadamard(theta))
        assert abs(value - math.sin(2 * theta) ** 2) < 1e-12

    def test_theta_pi_over_8(self):
        assert abs(interference_unitary(perturbed_hadamard(math.pi / 8)) - 0.5) < 1e-12

    @pytest.mark.parametrize("dim", [3, 400, 1500])
    def test_dimension_not_a_power_of_two(self, dim):
        u = random_unitary(dim, np.random.default_rng(dim))
        assert interference_unitary(identity(dim)) == 0
        assert interference_unitary(u) == dim - dense_sum_abs4(u, 1)

    def test_bound(self):
        rng = np.random.default_rng(12)
        for dim in (2, 8, 32):
            value = interference_unitary(random_unitary(dim, rng))
            assert -1e-9 <= value <= dim - 1 + 1e-9

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        u = random_unitary(16, rng)
        base = interference_unitary(u)
        for _ in range(5):
            p = np.eye(16)[rng.permutation(16)]
            q = np.eye(16)[rng.permutation(16)]
            assert abs(interference_unitary(p @ u @ q) - base) < 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            interference_unitary(np.ones((2, 2)))

    def test_hadamard_is_one_ibit(self):
        assert abs(ibits(interference_unitary(HADAMARD)) - 0.0) < 1e-12


@pytest.fixture
def unitarity_checks(monkeypatch):
    """The shape of every matrix ``linalg.check_unitary`` is called on, from
    whichever qimeter module holds the name."""
    calls = []
    original = linalg.check_unitary

    def counted(u, tol):
        calls.append(np.shape(u))
        return original(u, tol)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qimeter":
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


def circuit_built_views():
    """(label, circuit) for Grover n = 2..8 and Shor L = 2 and 3, exact and
    perturbed, each with its remainder after the initial layer."""
    for n in range(2, 9):
        spec = GroverSpec(n, (1 << n) - 2)
        for kind in ("pi/4", "random"):
            full = build_grover(spec, grover_angles(spec, kind))
            for view, c in zip(("full", "rest"), with_rest(full, spec)):
                yield f"grover-{n}-{kind}-{view}", c
    for L, R, a in [(2, 3, 2), (3, 7, 3)]:
        spec = ShorSpec(L, R, a)
        for kind, full in (("exact", build_shor(spec)), ("perturbed", perturbed_shor(L, R, a)[0])):
            for view, c in zip(("full", "rest"), with_rest(full, spec)):
                yield f"shor-{L}-{kind}-{view}", c


class TestUnitarityEstablishedByTheGates:
    """The sweeps reduce circuit-built unitaries without the O(N^3) check;
    matrices from outside still go through it."""

    @pytest.mark.parametrize("c", [pytest.param(c, id=label) for label, c in circuit_built_views()])
    def test_sweep_reduction_is_interference_unitary(self, c):
        u = circuit_unitary(c)
        assert _unitary_interference(u).hex() == interference_unitary(u).hex()

    def test_sweeps_never_check(self, unitarity_checks):
        grid = (0.0, 0.37, math.pi / 4)
        for algorithm, alpha in ((GroverSpec(3, 2), True), (ShorSpec(2, 3, 2), False)):
            systematic = ExperimentSpec(algorithm, SystematicErrors(grid), average_over_alpha=alpha)
            random = ExperimentSpec(
                algorithm, RandomErrors((0.0, 1.3), 3), average_over_alpha=alpha
            )
            assert len(run_systematic_sweep(systematic)) == 3
            assert len(run_random_sweep(random)) == 2
        assert unitarity_checks == []

    def test_matrices_from_outside_are_checked(self, unitarity_checks):
        with pytest.raises(ValidationError):
            interference_unitary(np.ones((2, 2)))
        assert unitarity_checks == [(2, 2)]
        passed, _ = acceptance._criterion_1()
        assert passed
        assert unitarity_checks[1:] == [(1 << n, 1 << n) for n in range(1, 11)]
        del unitarity_checks[:]
        cue_baseline(3, 12, seed=4)
        assert unitarity_checks == [(8, 8)] * 12


class TestInterferenceKraus:
    def test_single_op_matches_unitary(self):
        rng = np.random.default_rng(21)
        for dim in (2, 4, 16):
            u = random_unitary(dim, rng)
            ch = KrausChannel(u[None])
            diff = abs(interference_kraus(ch) - interference_unitary(u))
            assert diff < 1e-12

    def test_full_dephasing_is_zero(self):
        ch = KrausChannel(np.array([np.sqrt(0.5) * identity(2), np.sqrt(0.5) * PAULI_Z]))
        assert abs(interference_kraus(ch)) < 1e-12
        assert abs(interference_kraus_naive(ch)) < 1e-12

    def test_hadamard_then_half_bitflip_is_zero(self):
        ch = KrausChannel(
            np.array([np.sqrt(0.5) * HADAMARD, np.sqrt(0.5) * PAULI_X @ HADAMARD])
        )
        assert abs(interference_kraus(ch)) < 1e-12
        # cross-check against the brute-force superoperator route
        assert abs(interference_superoperator(superoperator_from_kraus(ch))) < 1e-12

    def test_gram_matches_naive(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            dim = int(rng.choice([2, 4, 8, 16]))
            ch = random_channel(dim, int(rng.integers(2, 9)), rng)
            gram = interference_kraus(ch)
            naive = interference_kraus_naive(ch)
            assert abs(gram - naive) < 1e-9

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(23)
        ch = random_channel(8, 4, rng)
        base = interference_kraus(ch)
        p = np.eye(8)[rng.permutation(8)]
        relabeled = KrausChannel(np.matmul(p, np.matmul(ch.ops, p.T)))
        assert abs(interference_kraus(relabeled) - base) < 1e-10

    def test_decomposition_redundancy_invariance(self):
        rng = np.random.default_rng(24)
        ch = random_channel(8, 3, rng)
        base = interference_kraus(ch)
        doubled = KrausChannel(
            np.concatenate([ch.ops * np.sqrt(0.5), ch.ops * np.sqrt(0.5)])
        )
        assert abs(interference_kraus(doubled) - base) < 1e-10

    def test_rejects_incomplete_channel(self):
        with pytest.raises(ValidationError):
            interference_kraus(KrausChannel(0.5 * identity(2)))

    def test_naive_size_cap(self):
        with pytest.raises(SizeLimitError):
            interference_kraus_naive(KrausChannel(identity(128)))


class TestSuperoperator:
    def test_identity_channel(self):
        p = superoperator_from_kraus(KrausChannel(identity(4)))
        np.testing.assert_allclose(p, identity(16), atol=1e-15)
        assert abs(interference_superoperator(p)) < 1e-12

    def test_hadamard_has_one_ibit(self):
        p = superoperator_from_kraus(KrausChannel(HADAMARD))
        assert abs(interference_superoperator(p) - 1.0) < 1e-12

    def test_pauli_x_permutes_density_indices(self):
        p = superoperator_from_kraus(KrausChannel(PAULI_X))
        rng = np.random.default_rng(31)
        rho = density_from_state(_state(2, rng))
        np.testing.assert_allclose(
            apply_superoperator(p, rho), PAULI_X @ rho @ PAULI_X, atol=1e-14
        )

    def test_vectorized_application_matches_channel(self):
        rng = np.random.default_rng(32)
        ch = random_channel(4, 5, rng)
        p = superoperator_from_kraus(ch)
        rho = density_from_state(_state(4, rng))
        np.testing.assert_allclose(
            apply_superoperator(p, rho), apply_channel(ch, rho), atol=1e-10
        )

    def test_matches_kraus_on_random_channels(self):
        rng = np.random.default_rng(33)
        for _ in range(8):
            dim = int(rng.choice([2, 4, 8, 16]))
            ch = random_channel(dim, int(rng.integers(1, 9)), rng)
            diff = abs(
                interference_superoperator(superoperator_from_kraus(ch))
                - interference_kraus(ch)
            )
            assert diff < 1e-9

    def test_propagates_hermitian_to_hermitian(self):
        rng = np.random.default_rng(34)
        ch = random_channel(4, 3, rng)
        p = superoperator_from_kraus(ch)
        rho = density_from_state(_state(4, rng))
        out = apply_superoperator(p, rho)
        np.testing.assert_allclose(out, out.conj().T, atol=1e-10)

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            superoperator_from_kraus(KrausChannel(identity(128)))


class TestNoiseFastPath:
    """The O(N log N) layered-noise path must match the explicit channel."""

    @pytest.mark.parametrize("kind", [BITFLIP, PHASEFLIP])
    @pytest.mark.parametrize("p", [0.0, 0.13, 0.5, 0.81, 1.0])
    def test_matches_gram_path(self, kind, p):
        rng = np.random.default_rng(41)
        n = 3
        u = random_unitary(1 << n, rng)
        for affected in [(0,), (1, 2), (0, 1, 2)]:
            model = ErrorModel(kind, p, affected)
            explicit = sandwich(
                layered_error_channel(n, model), identity(1 << n), u
            )
            expected = interference_kraus(explicit)
            fast = interference_noise_then_unitary(pauli_noise_kernel(u), model)
            assert abs(fast - expected) < 1e-9, (kind, p, affected)

    def test_zero_probability_reduces_to_unitary(self):
        rng = np.random.default_rng(43)
        u = random_unitary(32, rng)
        model = ErrorModel(BITFLIP, 0.0, (0, 1, 4))
        diff = abs(
            interference_noise_then_unitary(pauli_noise_kernel(u), model)
            - interference_unitary(u)
        )
        assert diff < 1e-10


class TestWalshHadamard:
    """The constant-geometry transform is bit for bit the one-stage-at-a-time one."""

    @pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 8, 64, 4096])
    def test_matches_unblocked(self, n, complex_input):
        rng = np.random.default_rng(n)
        for shape in [(n,), (37, n), (3, 5, n)]:
            a = rng.standard_normal(shape)
            if complex_input:
                a = a + 1j * rng.standard_normal(shape)
            fast = _wht_last(a)
            assert fast.shape == a.shape and fast.dtype == wht_last_unblocked(a).dtype
            assert fast.tobytes() == wht_last_unblocked(a).tobytes(), shape

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_input_untouched(self, n):
        a = np.arange(2.0 * n).reshape(2, n)
        for x in (a, a + 1j, a[:, None]):
            before = x.copy()
            _wht_last(x)
            assert x.tobytes() == before.tobytes()

    @pytest.mark.parametrize("dim", [2, 8, 64, 512])
    def test_kernel_fields_match_unblocked(self, dim):
        u = random_unitary(dim, np.random.default_rng(dim))
        fast = pauli_noise_kernel(u)
        slow = pauli_noise_kernel_unblocked(u)
        assert fast.dim == slow.dim
        assert np.float64(fast.sum_a2).tobytes() == np.float64(slow.sum_a2).tobytes()
        for field in ("fa2", "autocorr", "q"):
            assert getattr(fast, field).tobytes() == getattr(slow, field).tobytes(), field


def same_kernel(fast, slow):
    return (
        fast.dim == slow.dim
        and np.float64(fast.sum_a2).tobytes() == np.float64(slow.sum_a2).tobytes()
        and all(getattr(fast, f).tobytes() == getattr(slow, f).tobytes() for f in ("fa2", "autocorr", "q"))
    )


class TestKernelBlocks:
    """``pauli_noise_kernel`` is the one place that blocks rows: it hands
    ``_wht_last`` at most ``WHT_BLOCK_BYTES`` of rows per call, in blocks of
    as many complex rows as fit, and keeps the bytes of the every-row kernel."""

    @pytest.mark.parametrize(
        "uni",
        [
            pytest.param(grover_unitaries(GroverSpec(5, 3)), id="grover-5"),
            pytest.param(grover_unitaries(GroverSpec(8, 3)), id="grover-8"),
            pytest.param(shor_unitaries(ShorSpec(3, 7, 3)), id="shor-3"),
        ],
    )
    @pytest.mark.parametrize("view", ["full", "rest"])
    def test_blocks_fit_the_budget(self, uni, view, monkeypatch):
        circuit = uni.circuit if view == "full" else uni.rest_circuit
        u, copies = circuit_unitary(circuit), xor_row_copies(circuit)
        reps = u.shape[0] // copies
        sizes = []

        def recording(a):
            sizes.append(np.asarray(a).nbytes)
            return _wht_last(a)

        monkeypatch.setattr(interference, "_wht_last", recording)
        kernel = pauli_noise_kernel(representative_rows(u, copies), copies)
        monkeypatch.undo()
        assert same_kernel(kernel, pauli_noise_kernel_every_row(u))
        assert max(sizes) <= WHT_BLOCK_BYTES
        # three transforms per block, then one each for fa2 and cc2
        block = WHT_BLOCK_BYTES // (16 * u.shape[0])
        assert len(sizes) == 3 * -(-reps // block) + 2


class TestRowCopies:
    """With ``copies``, the kernel transforms one row per run of XOR-shifted
    rows and keeps the bytes of the kernel that transforms every row."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_grover_takes_one_copy(self, n):
        uni = grover_unitaries(GroverSpec(n, (1 << n) - 2))
        for u in map(circuit_unitary, (uni.circuit, uni.rest_circuit)):
            assert same_kernel(pauli_noise_kernel(u, 1), pauli_noise_kernel_every_row(u))

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "perturbed"])
    @pytest.mark.parametrize("R, a", [(3, 1), (3, 2)] + [(7, a) for a in range(1, 7)])
    def test_shor_views(self, R, a, exact):
        spec = ShorSpec.for_modulus(R, a)
        full = build_shor(spec) if exact else perturbed_shor(spec.L, R, a)[0]
        for c in with_rest(full, spec):
            u, copies = circuit_unitary(c), 1 << spec.L
            rows = representative_rows(u, copies)
            assert same_kernel(pauli_noise_kernel(rows, copies), pauli_noise_kernel_every_row(u))

    def test_random_xor_split_circuits(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            c = xor_split_circuit(rng)
            u, copies = circuit_unitary(c), xor_row_copies(c)
            assert copies > 1
            rows = representative_rows(u, copies)
            assert same_kernel(pauli_noise_kernel(rows, copies), pauli_noise_kernel_every_row(u)), c.ops

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_row_blocks(self, rows, monkeypatch):
        # blocks of `rows` representative rows; 3 leaves a short last block
        spec = ShorSpec(3, 7, 3)
        for c in with_rest(build_shor(spec), spec):
            u = circuit_unitary(c)
            monkeypatch.setattr(interference, "WHT_BLOCK_BYTES", rows * u.shape[0] * u.itemsize)
            reps = representative_rows(u, 8)
            assert same_kernel(pauli_noise_kernel(reps, 8), pauli_noise_kernel_every_row(u))

    @pytest.mark.parametrize("copies, rows", [(0, 64), (-2, 64), (3, 64), (4, 64), (4, 8)])
    def test_rows_must_make_n_by_n(self, copies, rows):
        # the rows' XOR promise is checked where they are taken
        # (``algorithms.representative_rows``); the kernel checks their shape
        u = circuit_unitary(build_shor(ShorSpec(2, 3, 2)))  # N = 64
        with pytest.raises(ValueError, match="do not make N x N"):
            pauli_noise_kernel(u[:rows], copies)


def random_rows(n, copies, seed):
    """N / copies random complex rows of N = 2^n entries, with no transient."""
    rows = np.empty((1 << n >> copies.bit_length() - 1, 1 << n), dtype=complex)
    np.random.default_rng(seed).random(out=rows.view(float))
    return rows


def dense_sum_abs4(rows, copies):
    """``np.sum`` of the dense |U|^4 array, U[(j, y), c] = rows[j, c XOR y]."""
    a = np.abs(rows) ** 2
    a *= a
    if copies > 1:
        a = np.take(a, np.arange(copies)[:, None] ^ np.arange(a.shape[1]), axis=1)
    return float(np.sum(a))


class TestSumAbs4:
    """sum |U|^4, summed a block of the dense array at a time and the block
    sums added by numpy's halving tree, has the bits of ``np.sum`` of the
    dense array; this rests on numpy's pairwise blocking (DECISIONS.md)."""

    @pytest.mark.parametrize(
        "n, copies", [(n, 1) for n in range(1, 13)] + [(3 * L, 1 << L) for L in (2, 3, 4)]
    )
    def test_bits_of_the_dense_sum(self, n, copies):
        rows = random_rows(n, copies, n)
        tracemalloc.start()
        try:
            value = _sum_abs4(rows, copies)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value.hex() == dense_sum_abs4(rows, copies).hex()
        # one block of the dense array at a time, never the N x N array
        assert peak < 3 * WHT_BLOCK_BYTES + 2 * rows.nbytes // (1 << n) * copies

    @pytest.mark.parametrize("n, copies", [(6, 1), (6, 4), (8, 1), (9, 8), (10, 1)])
    def test_small_blocks(self, n, copies, monkeypatch):
        # 128-entry blocks, the leaf of numpy's tree: fewer dense rows per block than copies at n = 6
        monkeypatch.setattr(interference, "WHT_BLOCK_BYTES", 1024)
        rows = random_rows(n, copies, 3)
        assert _sum_abs4(rows, copies).hex() == dense_sum_abs4(rows, copies).hex()

    @pytest.mark.parametrize("dim", [3, 400, 1500])
    @pytest.mark.parametrize("block", [1024, None])
    def test_dimension_not_a_power_of_two(self, dim, block, monkeypatch):
        # numpy's tree halves such an N unevenly: the dense array is one block
        if block:
            monkeypatch.setattr(interference, "WHT_BLOCK_BYTES", block)
        rows = np.random.default_rng(dim).random((dim, dim)) + 0j
        assert _sum_abs4(rows).hex() == dense_sum_abs4(rows, 1).hex()


class TestClassSums:
    """One subset's class sums, evaluated at any p, give the per-index dot
    product of ``tests/oracles.py`` up to summation order."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_equal_to_per_index_weights(self, n):
        # a kernel of random positive statistics: the formula is linear in them
        dim = 1 << n
        fa2, extra, autocorr = np.random.default_rng(n).uniform(0.1, 1.0, (3, dim))
        kernel = PauliNoiseKernel(dim=dim, sum_a2=0.0, fa2=fa2, autocorr=autocorr, q=fa2 + extra)
        masks = {(0,), (n - 1,), tuple(range(n)), tuple(range(0, n, 2)), tuple(range(1, n, 3))}
        grid = [*default_probability_grid(), 0.05, 0.123456789, 0.3, 0.95]
        for affected, kind, p in itertools.product(masks, (BITFLIP, PHASEFLIP), grid):
            model = ErrorModel(kind, p, affected)
            oracle = noise_then_unitary_per_index(kernel, model)
            fast = interference_noise_then_unitary(kernel, model)
            assert fast == pytest.approx(oracle, rel=1e-12, abs=1e-12), (affected, kind, p)


class TestNoiseKernelMemory:
    def test_peak_stays_below_three_float_matrices(self):
        # a whole-matrix WHT of U would hold an N x N complex transient
        # (two float matrices) next to |WHT[U]|^2, three in all
        dim = 1024
        u = random_unitary(dim, np.random.default_rng(3))
        tracemalloc.start()
        try:
            pauli_noise_kernel(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * dim * dim * 8


def _state(dim, rng):
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)
