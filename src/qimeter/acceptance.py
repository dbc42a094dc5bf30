"""Acceptance suite: every release-gating check, one function per criterion.

Each criterion returns a ``CriterionResult`` with a pass flag and a detail
string; ``run_criteria`` prints one line per criterion.  The suite doubles
as the ``qimeter verify`` CLI subcommand and as ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass

import numpy as np

from .algorithms import (
    GroverSpec,
    ShorSpec,
    build_grover,
    build_shor,
    final_probabilities,
    grover_iteration_count,
    grover_unitaries,
    register1_marginal,
    shor_success,
    shor_unitaries,
)
from .channels import BITFLIP, PHASEFLIP, KrausChannel
from .gates import circuit_apply, circuit_unitary, walsh_layer
from .harness import (
    DecoherenceErrors,
    ExperimentSpec,
    RandomErrors,
    SystematicErrors,
    cue_baseline,
    default_probability_grid,
    default_theta_grid,
    haar_unitary,
    run_decoherence_sweep,
    run_random_sweep,
    run_systematic_sweep,
    write_results,
)
from .interference import (
    interference_kraus,
    interference_kraus_naive,
    interference_superoperator,
    interference_unitary,
    superoperator_from_kraus,
)
from .linalg import basis_state


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: str
    elapsed: float
    runtime_limit: float | None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.index:2d} [{status}] {self.name} ({self.elapsed:.1f}s): {self.details}"


def random_channel(dim: int, num_ops: int, rng: np.random.Generator) -> KrausChannel:
    """A trace-preserving channel from Gaussian operators, normalized by
    the inverse square root of their completeness sum."""
    raw = rng.standard_normal((num_ops, dim, dim)) + 1j * rng.standard_normal((num_ops, dim, dim))
    total = np.einsum("lki,lkj->ij", raw.conj(), raw)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return KrausChannel(raw @ inv_sqrt)


def _criterion_1():
    """Walsh-Hadamard interference equals 2^n - 1 for n = 1..10."""
    worst = 0.0
    for n in range(1, 11):
        u = circuit_unitary(walsh_layer([math.pi / 4] * n))
        worst = max(worst, abs(interference_unitary(u) - (2**n - 1)))
    return worst <= 1e-9, f"max |I(W_n) - (2^n-1)| = {worst:.2e} (tol 1e-9)"


def _criterion_2():
    """Cross-oracle agreement on 50 random channels."""
    rng = np.random.default_rng(20240902)
    worst_super = worst_naive = worst_single = 0.0
    for index in range(50):
        dim = int(rng.choice([2, 4, 8, 16]))
        if index < 10:
            ch = KrausChannel(haar_unitary(dim, rng)[None])
            single = abs(
                interference_kraus(ch) - interference_unitary(ch.ops[0])
            )
            worst_single = max(worst_single, single)
        else:
            ch = random_channel(dim, int(rng.integers(2, 9)), rng)
        gram = interference_kraus(ch)
        naive = interference_kraus_naive(ch)
        sup = interference_superoperator(superoperator_from_kraus(ch))
        worst_super = max(worst_super, abs(sup - gram))
        worst_naive = max(worst_naive, abs(gram - naive))
    ok = worst_super <= 1e-9 and worst_naive <= 1e-9 and worst_single <= 1e-12
    return ok, (
        f"|Eq1-Eq2| = {worst_super:.2e} (tol 1e-9), |gram-naive| = {worst_naive:.2e} "
        f"(tol 1e-9), single-Kraus vs Eq3 = {worst_single:.2e} (tol 1e-12)"
    )


def _criterion_3():
    """Exact Grover: closed-form success, AU interference band, one-iteration value."""
    worst_s = 0.0
    au_values = {}
    for n in range(4, 9):
        k = grover_iteration_count(n)
        theta = math.asin(2.0 ** (-n / 2))
        closed = math.sin((2 * k + 1) * theta) ** 2
        for alpha in range(1 << n):
            psi = circuit_apply(build_grover(GroverSpec(n, alpha)), basis_state(1 << n))
            worst_s = max(worst_s, abs(abs(psi[alpha]) ** 2 - closed))
        rest = grover_unitaries(GroverSpec(n, 0)).rest_circuit
        au_values[n] = interference_unitary(circuit_unitary(rest))
    band_violations = {n: v for n, v in au_values.items() if not 3.0 <= v <= 4.5}

    one_iter = interference_unitary(
        circuit_unitary(grover_unitaries(GroverSpec(4, 2, k_override=1)).rest_circuit)
    )
    target = 8.0 - 24.0 / 16.0
    one_iter_ok = abs(one_iter - target) <= 0.05 * target

    ok = worst_s <= 1e-9 and not band_violations and one_iter_ok
    details = (
        f"max |S - closed form| = {worst_s:.2e} (tol 1e-9); "
        f"I_au by n = { {n: round(v, 4) for n, v in au_values.items()} } vs band [3, 4.5]; "
        f"one-iteration I_au = {one_iter:.4f} vs {target} (tol 5%)"
    )
    if band_violations:
        details += (
            f"; band violated at n = {sorted(band_violations)} - the exact values "
            "at the optimal iteration count sit above 4.5 (see DECISIONS.md)"
        )
    return ok, details


def _criterion_4(parallel: int):
    """Systematic sweep shape: argmax of S and I_pa at theta = pi/4, zero edges."""
    grid = default_theta_grid()
    pivot = int(np.argmin(np.abs(np.asarray(grid) - math.pi / 4)))
    problems = []
    edge_worst = 0.0

    def check(label, rows):
        nonlocal edge_worst
        s = np.array([r.success for r in rows])
        ipa = np.array([r.interference_pa for r in rows])
        if int(np.argmax(s)) != pivot:
            problems.append(f"{label}: argmax S at grid[{int(np.argmax(s))}]")
        if int(np.argmax(ipa)) != pivot:
            problems.append(
                f"{label}: argmax I_pa at grid[{int(np.argmax(ipa))}] "
                f"(I={ipa.max():.4f} vs {ipa[pivot]:.4f} at pi/4)"
            )
        edge_worst = max(edge_worst, abs(ipa[0]), abs(ipa[-1]))

    for n in (4, 5, 6):
        spec = ExperimentSpec(
            GroverSpec(n, 0), SystematicErrors(grid), average_over_alpha=True, measure_au=False
        )
        check(f"grover n={n}", run_systematic_sweep(spec, parallel))
    for shor in (ShorSpec.for_modulus(3, 2), ShorSpec.for_modulus(7, 3)):
        spec = ExperimentSpec(shor, SystematicErrors(grid), measure_au=False)
        check(f"shor L={shor.L}", run_systematic_sweep(spec, parallel))

    ok = not problems and edge_worst <= 1e-9
    details = f"edge I_pa max = {edge_worst:.2e} (tol 1e-9)"
    if problems:
        details += "; " + "; ".join(problems) + " (see DECISIONS.md)"
    else:
        details += "; all maxima on-grid at pi/4"
    return ok, details


def _grover_decoherence_rows(kind):
    spec = ExperimentSpec(
        GroverSpec(4, 2),
        DecoherenceErrors(kind, default_probability_grid(), (1, 2, 3, 4), "prefix"),
    )
    return run_decoherence_sweep(spec)


def _criterion_5():
    """Grover bit-flip immunity: constant success, PA dies, AU survives."""
    rows = _grover_decoherence_rows(BITFLIP)
    s0 = next(r.success for r in rows if r.sweep_value == 0.0 and r.n_f == 1)
    worst = max(abs(r.success - s0) for r in rows)
    half = {r.n_f: r for r in rows if r.sweep_value == 0.5}
    i_pa = half[4].interference_pa
    i_au = half[4].interference_au
    ok = worst <= 1e-9 and i_pa <= 1e-6 and i_au > 0.1
    return ok, (
        f"max |S(p) - S(0)| = {worst:.2e} (tol 1e-9); I_pa(0.5, nf=4) = {i_pa:.2e} "
        f"(tol 1e-6); I_au(0.5, nf=4) = {i_au:.4f} (need > 0.1)"
    )


def _criterion_6():
    """Grover phase-flip destruction: S(p=1) near 0.0025, monotone drop."""
    rows = _grover_decoherence_rows(PHASEFLIP)
    nf4 = [r for r in rows if r.n_f == 4]
    s_end = next(r.success for r in nf4 if r.sweep_value == 1.0)
    first_half = [r.success for r in nf4 if r.sweep_value <= 0.5 + 1e-12]
    monotone = all(b <= a + 1e-12 for a, b in zip(first_half, first_half[1:]))
    ok = abs(s_end - 0.0025) <= 0.001 and s_end < 0.0625 and monotone
    return ok, (
        f"S(p=1) = {s_end:.6f} (0.0025 +/- 0.001, < 0.0625); "
        f"monotone non-increasing on [0, 0.5]: {monotone}"
    )


def _criterion_7():
    """Exact Shor: L=2 register-1 distribution, Eq.-5 self-success, AU growth."""
    shor2 = ShorSpec.for_modulus(3, 2)
    probs = final_probabilities(build_shor(shor2))
    reg1 = register1_marginal(probs, shor2)
    expected = np.zeros(16)
    expected[0] = expected[8] = 0.5
    dist_err = float(np.max(np.abs(reg1 - expected)))
    self_success = shor_success(probs, probs)

    au2 = interference_unitary(circuit_unitary(shor_unitaries(shor2).rest_circuit))
    au3 = interference_unitary(
        circuit_unitary(shor_unitaries(ShorSpec.for_modulus(7, 3)).rest_circuit)
    )
    ratio = au3 / au2
    ok = dist_err <= 1e-9 and self_success == 1.0 and ratio > 4.0
    return ok, (
        f"register-1 distribution error = {dist_err:.2e} (tol 1e-9); "
        f"self-success = {self_success}; I_au(L=3)/I_au(L=2) = {ratio:.2f} (need > 4)"
    )


def _criterion_8():
    """Shor bit-flips on the first register never break the algorithm."""
    worst_s = 0.0
    min_pa = min_au = float("inf")
    for spec_algo in (ShorSpec.for_modulus(3, 2), ShorSpec.for_modulus(7, 3)):
        spec = ExperimentSpec(
            spec_algo,
            DecoherenceErrors(BITFLIP, default_probability_grid(), (1, 2, 3, 4), "all"),
        )
        rows = run_decoherence_sweep(spec)
        worst_s = max(worst_s, max(abs(r.success - 1.0) for r in rows))
        min_pa = min(min_pa, min(r.interference_pa for r in rows))
        min_au = min(min_au, min(r.interference_au for r in rows))
    ok = worst_s <= 1e-9 and min_pa > 0.0 and min_au > 0.0
    return ok, (
        f"max |S - 1| = {worst_s:.2e} (tol 1e-9); min I_pa = {min_pa:.4f}, "
        f"min I_au = {min_au:.4f} (need > 0)"
    )


def _criterion_9():
    """Shor phase-flips: AU reaches zero, PA residual survives, S decreases."""
    spec = ExperimentSpec(
        ShorSpec.for_modulus(3, 2),
        DecoherenceErrors(PHASEFLIP, default_probability_grid(), (4,), "all"),
    )
    rows = run_decoherence_sweep(spec)
    half = next(r for r in rows if r.sweep_value == 0.5)
    first_half = [r.success for r in rows if r.sweep_value <= 0.5 + 1e-12]
    decreasing = all(b < a for a, b in zip(first_half, first_half[1:]))
    ok = half.interference_au <= 1e-6 and half.interference_pa > 1e-4 and decreasing
    return ok, (
        f"I_au(p=0.5) = {half.interference_au:.2e} (tol 1e-6); "
        f"I_pa(p=0.5) = {half.interference_pa:.4f} (need > 1e-4); "
        f"S strictly decreasing on [0, 0.5]: {decreasing}"
    )


def _criterion_10(parallel: int):
    """Random errors: AU interference grows while success collapses."""
    spec = ExperimentSpec(
        GroverSpec(5, 0),
        RandomErrors((0.0, 2.0), 100),
        average_over_alpha=True,
        master_seed=1234,
    )
    rows = run_random_sweep(spec, parallel)
    s_ref = rows[0].success
    big = rows[1]
    dim = 1 << 5
    ok = big.interference_au > 0.5 * dim and big.success < 0.5 * s_ref
    return ok, (
        f"mean I_au(eps=2) = {big.interference_au:.2f} (need > {0.5 * dim}); "
        f"mean S(eps=2) = {big.success:.4f} (need < {0.5 * s_ref:.4f})"
    )


def _criterion_11():
    """CUE baseline: Haar-random interference sits near N - 2."""
    stats = cue_baseline(6, 100, seed=7)
    ok = 60.0 <= stats.mean <= 63.0
    return ok, f"mean I over 100 Haar samples = {stats.mean:.3f} (need within [60, 63])"


def _criterion_12():
    """Determinism: byte-identical CSV, parallelism-independent values."""
    spec = ExperimentSpec(
        GroverSpec(4, 2),
        RandomErrors((0.0, 0.7, 1.9), 8),
        master_seed=99,
    )

    def csv_bytes(rows):
        buffer = io.StringIO()
        write_results(rows, buffer, "csv")
        return buffer.getvalue()

    serial_a = run_random_sweep(spec, 1)
    serial_b = run_random_sweep(spec, 1)
    identical = csv_bytes(serial_a) == csv_bytes(serial_b)

    worst = 0.0
    for degree in (2, 8):
        rows = run_random_sweep(spec, degree)
        for row_a, row_b in zip(serial_a, rows):
            for name in ("interference_pa", "interference_au", "success", "success_stderr"):
                worst = max(worst, abs(getattr(row_a, name) - getattr(row_b, name)))
    ok = identical and worst <= 1e-12
    return ok, (
        f"repeat run byte-identical: {identical}; max |serial - parallel| over "
        f"degrees 2 and 8 = {worst:.2e} (tol 1e-12)"
    )


CRITERIA = {
    1: ("walsh-hadamard interference", _criterion_1, 5.0),
    2: ("cross-oracle equivalence", _criterion_2, 30.0),
    3: ("exact Grover", _criterion_3, 120.0),
    4: ("systematic sweep shape", _criterion_4, 600.0),
    5: ("Grover bit-flip immunity", _criterion_5, 300.0),
    6: ("Grover phase-flip destruction", _criterion_6, 300.0),
    7: ("exact Shor", _criterion_7, 60.0),
    8: ("Shor bit-flip first register", _criterion_8, 1800.0),
    9: ("Shor phase-flip", _criterion_9, 600.0),
    10: ("random-error anticorrelation", _criterion_10, 900.0),
    11: ("CUE baseline", _criterion_11, 60.0),
    12: ("determinism", _criterion_12, None),
}


def run_criterion(index: int, parallel: int = 1) -> CriterionResult:
    """Run one criterion against its runtime budget.  Criteria 4 and 10, whose
    functions take a parameter, get ``parallel`` for their sweeps; criterion
    12 compares its own fixed worker counts, 2 and 8."""
    name, fn, limit = CRITERIA[index]
    start = time.perf_counter()
    passed, details = fn(parallel) if fn.__code__.co_argcount else fn()
    elapsed = time.perf_counter() - start
    if limit is not None and elapsed >= limit:
        passed = False
        details += f"; runtime {elapsed:.1f}s exceeded the {limit:.0f}s budget"
    return CriterionResult(
        index=index, name=name, passed=passed, details=details, elapsed=elapsed, runtime_limit=limit
    )


def run_criteria(indices=None, parallel: int = 1) -> list:
    if indices is not None:
        unknown = sorted(set(indices) - set(CRITERIA))
        if unknown:
            raise ValueError(f"unknown criteria {unknown}; valid: 1..{len(CRITERIA)}")
    results = []
    for index in sorted(set(CRITERIA if indices is None else indices)):
        result = run_criterion(index, parallel)
        print(result.line(), flush=True)
        results.append(result)
    return results
