"""Declarative experiment sweeps over the error families.

A sweep is described by an ``ExperimentSpec`` (algorithm, error family,
averaging, master seed) and produces ``ResultRow`` records ready for CSV
or JSON emission.  Determinism contract: the same spec (including
``master_seed``) yields byte-identical output files at any degree of
parallelism; every random draw comes from a substream derived from
(master seed, experiment id, grid index, realization index), never from
scheduling order.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields
from typing import Sequence, Union, get_args, get_type_hints

import numpy as np

from .algorithms import (
    GroverSpec,
    ShorSpec,
    _distribution,
    _successes_against,
    build_shor,
    column_zero_probabilities,
    final_probabilities,
    grover_circuits,
    grover_uniform_measures,
    grover_unitaries,
    noise_setup,
    shor_success,
    shor_unitaries,
    subset_measures,
    view_rows,
)
from .channels import BITFLIP, PHASEFLIP
from .errors import SizeLimitError, as_int
from .gates import angle_list
from .interference import _unitary_interference, ibits, interference_unitary

PREFIX_SUBSETS = "prefix"
ALL_SUBSETS = "all"

# chunk size for parallel realization batches; fixed so that chunking (and
# therefore results) cannot depend on the worker count
REALIZATION_CHUNK = 32


def default_theta_grid() -> tuple:
    """Systematic sweep grid: [0, pi/2] with 65 points (pi/4 on-grid)."""
    return tuple(np.linspace(0.0, math.pi / 2, 65))


def default_epsilon_grid() -> tuple:
    """Random sweep grid: [0, pi] with 33 points."""
    return tuple(np.linspace(0.0, math.pi, 33))


def default_probability_grid() -> tuple:
    """Decoherence sweep grid: [0, 1] with 21 points (0.5 on-grid)."""
    return tuple(np.linspace(0.0, 1.0, 21))


def default_realizations(algorithm) -> int:
    if isinstance(algorithm, GroverSpec):
        return 1000 if algorithm.n == 4 else 100
    return {2: 5000, 3: 1000}.get(algorithm.L, 100)


@dataclass(frozen=True)
class SystematicErrors:
    """Every Hadamard angle set to the same theta, one value per grid point."""

    thetas: tuple

    def __post_init__(self):
        _check_grid(self.thetas, "theta")
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))


@dataclass(frozen=True)
class RandomErrors:
    """Angles drawn uniformly from pi/4 +/- eps/2 (QFT phase offsets from
    +/- eps/2), averaged over ``realizations`` independent draws."""

    epsilons: tuple
    realizations: int

    def __post_init__(self):
        _check_grid(self.epsilons, "epsilon")
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        object.__setattr__(self, "realizations", as_int(self.realizations, "realizations"))
        if self.realizations < 1:
            raise ValueError("need at least one realization")


@dataclass(frozen=True)
class DecoherenceErrors:
    """Bit- or phase-flip errors after the initial layer's Hadamard gates."""

    kind: str
    probabilities: tuple
    n_f_values: tuple
    subset_policy: str = ALL_SUBSETS

    def __post_init__(self):
        if self.kind not in (BITFLIP, PHASEFLIP):
            raise ValueError(f"unknown error kind {self.kind!r}")
        for p in self.probabilities:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"error probability {p} outside [0, 1]")
        _check_grid(self.probabilities, "probability")
        object.__setattr__(
            self, "probabilities", tuple(float(p) for p in self.probabilities)
        )
        object.__setattr__(self, "n_f_values", tuple(as_int(v, "n_f") for v in self.n_f_values))
        if not self.n_f_values or any(v < 1 for v in self.n_f_values):
            raise ValueError("n_f values must be positive")
        if self.subset_policy not in (PREFIX_SUBSETS, ALL_SUBSETS):
            raise ValueError(f"unknown subset policy {self.subset_policy!r}")


def _check_grid(grid, name):
    if len(grid) == 0:
        raise ValueError(f"empty {name} grid")
    if not all(map(math.isfinite, grid)):
        raise ValueError(f"{name} grid values must be finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{name} grid must be strictly increasing")


def _check_seed(seed: int) -> int:
    seed = as_int(seed, "master seed")
    if not 0 <= seed < 1 << 64:
        raise ValueError("master seed must fit in 64 bits")
    return seed


@dataclass(frozen=True)
class ExperimentSpec:
    algorithm: Union[GroverSpec, ShorSpec]
    error_family: Union[SystematicErrors, RandomErrors, DecoherenceErrors]
    average_over_alpha: bool = False
    master_seed: int = 0
    measure_au: bool = True

    def __post_init__(self):
        if self.average_over_alpha and not isinstance(self.algorithm, GroverSpec):
            raise ValueError("alpha averaging only applies to Grover search")
        if self.average_over_alpha and isinstance(self.error_family, DecoherenceErrors):
            raise ValueError("decoherence sweeps run at a fixed marked item")
        object.__setattr__(self, "master_seed", _check_seed(self.master_seed))

    @property
    def n(self) -> int:
        return self.algorithm.n


@dataclass(frozen=True)
class ResultRow:
    """One sweep point.  ``n_samples`` counts the values averaged into the
    row (realizations, marked items, or qubit subsets); an alpha-averaged
    systematic row counts all 2^n marked items, also when it evaluates
    one per Hamming weight.  ``success_stderr`` is the sample standard
    deviation over realizations divided by sqrt(n_samples) and zero for
    deterministic sweeps.  The fields, in order, are the CSV columns and
    JSON keys of ``write_results``."""

    sweep_value: float
    n: int
    n_f: int | None
    interference_pa: float | None
    interference_au: float | None
    ibits_pa: float | None
    ibits_au: float | None
    success: float | None
    success_stderr: float
    n_samples: int
    seed: int


@functools.cache
def _column_types(row_class) -> tuple:
    """(name, value type, optional) per field of ``row_class``, in order;
    ``float | None`` gives (name, float, True).  A CSV cell holds a float
    at 12 significant digits, an int as is and None as an empty cell,
    which reads back as None only in an optional field."""
    hints = get_type_hints(row_class)
    columns = []
    for f in fields(row_class):
        kinds = get_args(hints[f.name]) or (hints[f.name],)
        (kind,) = set(kinds) - {type(None)}
        columns.append((f.name, kind, type(None) in kinds))
    return tuple(columns)


@dataclass(frozen=True)
class RandomAngleSampler:
    """Derives one independent RNG substream per (grid point, realization).

    The stream seed is (master_seed, sha256(experiment_id), grid_index,
    realization_index), so draws are independent of scheduling and worker
    count.  Within a realization the angles are drawn in circuit order:
    all Hadamard angles first, then (Shor only) the QFT phase offsets.
    """

    master_seed: int
    experiment_id: str

    def stream(self, grid_index: int, realization: int) -> np.random.Generator:
        digest = hashlib.sha256(self.experiment_id.encode()).digest()
        tag = int.from_bytes(digest[:8], "big")
        seq = np.random.SeedSequence(
            entropy=[self.master_seed, tag, grid_index, realization]
        )
        return np.random.default_rng(seq)


def _algorithm_id(algorithm) -> str:
    if isinstance(algorithm, GroverSpec):
        return f"grover:n={algorithm.n}:alpha={algorithm.alpha}:k={algorithm.iterations}"
    return f"shor:L={algorithm.L}:R={algorithm.R}:a={algorithm.a}"


# ---------------------------------------------------------------------------
# single-point evaluation shared by the systematic and random sweeps


def _unitary_point(spec, ideal, thetas, deltas=None):
    """Mean (I_pa, I_au, success) over the marked items at one angle
    assignment, each weighted as ``_marked_items`` says; I_au is None
    unless the spec measures it.

    A Grover point whose Hadamard angles are all equal builds no circuit:
    it is a grid of one angle for ``_uniform_grid``.  Any other point reads
    its items' measures from their views.  U_full's rows give I_pa, and
    its column 0 (the image of |0...0>) the output distribution; U_rest
    only I_au, so it is built only when the spec measures it.  The items'
    circuits, built one at a time by ``grover_circuits``, share every gate
    object but the oracle, so ``view_rows`` builds the views of as many of
    them as fit in one stacked pass (both views together when I_au is
    measured), or, when one item's views do not fit, one view per pass,
    U_full first."""
    algo = spec.algorithm
    if isinstance(algo, GroverSpec):
        thetas = angle_list(thetas, algo.n_hadamards, math.pi / 4, "Hadamard angles")
        if all(theta == thetas[0] for theta in thetas):
            values = _uniform_grid(spec, thetas[:1])
            return tuple(None if column is None else float(column[0]) for column in values)
    items = _marked_items(spec, False)
    return _weighted_mean(spec, items, _view_measures(spec, ideal, items, thetas, deltas))


def _uniform_grid(spec, thetas):
    """``_unitary_point`` of a Grover spec at every Hadamard angle theta, for
    each theta of ``thetas``: (I_pa, I_au or None, success) arrays, one value
    per angle.  Each marked item of ``_marked_items`` is one closed form over
    the whole grid (``grover_uniform_measures``); the items are weighed in
    ``_weighted_mean``, elementwise, so each value has the bits of its
    one-angle point."""
    items = _marked_items(spec, True)
    points = (grover_uniform_measures(spec.algorithm, a, thetas, spec.measure_au) for a, _ in items)
    return _weighted_mean(spec, items, points)


def _weighted_mean(spec, items, points):
    """The mean (I_pa, I_au or None, success) of ``points``, one per item of
    ``items`` and weighted as it says, each sum added in item order from
    0.0; with array points, each element is summed as a scalar point is."""
    i_pa = i_au = success = 0.0
    for (_, weight), (pa, au, p_success) in zip(items, points):
        i_pa += weight * pa  # the first add to 0.0 makes each sum its own array
        success += weight * p_success
        if spec.measure_au:
            i_au += weight * au
    total = sum(weight for _, weight in items)
    return i_pa / total, (i_au / total if spec.measure_au else None), success / total


def _view_measures(spec, ideal, items, thetas, deltas):
    """(I_pa, I_au or None, success) of each marked item, from its views
    (``view_rows``).  U_full is dropped before U_rest is asked for, so a
    circuit whose views are built one per pass holds one at a time."""
    algo = spec.algorithm
    alphas = [alpha for alpha, _ in items]
    if isinstance(algo, GroverSpec):
        circuits = grover_circuits(algo, alphas, thetas)
    else:
        circuits = [build_shor(algo, thetas, deltas)]
    views = view_rows(circuits, algo.layer_width, spec.measure_au)
    for alpha in alphas:
        full, copies = next(views)
        i_pa = _unitary_interference(full, copies)
        success = _success(ideal, column_zero_probabilities(full, copies), alpha)
        del full  # before U_rest's pass
        yield i_pa, _unitary_interference(*next(views)) if spec.measure_au else None, success


def _marked_items(spec: ExperimentSpec, uniform: bool):
    """(marked item, weight) pairs a point averages over; ((None, 1),) for
    Shor.

    When every Hadamard angle is equal (``uniform``), the Grover circuit
    for alpha is the circuit for pi(alpha) conjugated by the qubit
    permutation pi, which leaves |0...0>, both interferences and the
    success probability as they are.  An alpha-averaged point then
    evaluates one marked item per Hamming weight w, alpha = 2^w - 1,
    weighted C(n, w).  Any other angle list counts every marked item once."""
    algo = spec.algorithm
    if not isinstance(algo, GroverSpec):
        return ((None, 1),)
    if not spec.average_over_alpha:
        return ((algo.alpha, 1),)
    n = algo.n
    if uniform:
        return tuple(((1 << w) - 1, math.comb(n, w)) for w in range(n + 1))
    return tuple((alpha, 1) for alpha in range(1 << n))


def _success(ideal, probabilities, alpha) -> float:
    """The marked item's probability, or for Shor (``alpha`` None) ``_successes_against``."""
    return _successes_against(ideal, probabilities)[0] if alpha is None else float(probabilities[alpha])


def _shor_ideal(algorithm):
    """Output distribution of the exact Shor circuit, checked once; None for Grover."""
    if isinstance(algorithm, GroverSpec):
        return None
    return _distribution("ideal", final_probabilities(build_shor(algorithm)))


# ---------------------------------------------------------------------------
# systematic sweep


def run_systematic_sweep(spec: ExperimentSpec, parallel: int = 1) -> list:
    """One row per theta; every Hadamard angle (Shor: QFT Hadamards too)
    is set to the grid value, QFT phases stay unperturbed.

    A Grover sweep evaluates its whole grid at once in the calling process
    (``_uniform_grid``); ``parallel`` worker processes reach only Shor's
    points, one per theta."""
    family = spec.error_family
    if not isinstance(family, SystematicErrors):
        raise ValueError("spec does not describe a systematic sweep")
    algo = spec.algorithm
    if isinstance(algo, GroverSpec):
        i_pa, i_au, success = _uniform_grid(spec, family.thetas)
        results = zip(i_pa, itertools.repeat(None) if i_au is None else i_au, success)
    else:
        point = functools.partial(_unitary_point, spec, _shor_ideal(algo))
        grid = [[theta] * algo.n_hadamards for theta in family.thetas]
        results = _map_ordered(point, grid, parallel)
    n_samples = 1 << spec.n if spec.average_over_alpha else 1
    return [
        _make_row(spec, theta, None, [i_pa], [i_au], [success], n_samples)
        for theta, (i_pa, i_au, success) in zip(family.thetas, results)
    ]


# ---------------------------------------------------------------------------
# random sweep


def _random_task(spec, ideal, args):
    grid_index, eps, lo, hi = args
    sampler = RandomAngleSampler(spec.master_seed, f"random:{_algorithm_id(spec.algorithm)}")
    n_thetas, n_deltas = spec.algorithm.n_hadamards, spec.algorithm.n_qft_phases
    out = []
    for realization in range(lo, hi):
        rng = sampler.stream(grid_index, realization)
        thetas = rng.uniform(math.pi / 4 - eps / 2, math.pi / 4 + eps / 2, n_thetas)
        deltas = rng.uniform(-eps / 2, eps / 2, n_deltas)
        out.append(_unitary_point(spec, ideal, thetas, deltas))
    return out


def run_random_sweep(spec: ExperimentSpec, parallel: int = 1) -> list:
    """One row per epsilon, averaged over ``realizations`` random draws
    (each alpha-averaged first when requested)."""
    family = spec.error_family
    if not isinstance(family, RandomErrors):
        raise ValueError("spec does not describe a random-error sweep")
    n_r = family.realizations
    tasks = []
    for g, eps in enumerate(family.epsilons):
        for lo in range(0, n_r, REALIZATION_CHUNK):
            tasks.append((g, eps, lo, min(lo + REALIZATION_CHUNK, n_r)))
    task = functools.partial(_random_task, spec, _shor_ideal(spec.algorithm))
    chunks = _map_ordered(task, tasks, parallel)

    per_grid = [[] for _ in family.epsilons]
    for (grid_index, *_), chunk in zip(tasks, chunks):
        per_grid[grid_index].extend(chunk)
    return [
        _make_row(spec, eps, None, *zip(*samples), n_r, stderr=True)
        for eps, samples in zip(family.epsilons, per_grid)
    ]


# ---------------------------------------------------------------------------
# decoherence sweep


def run_decoherence_sweep(spec: ExperimentSpec) -> list:
    """One row per (p, n_f), p-major.  Shor rows average over qubit subsets
    of the first register according to the subset policy; Grover uses the
    policy as given (prefix = first n_f qubits).

    The sweep runs in the calling process and builds its set-up once
    (``noise_setup``): it refuses a perturbed layer, then builds U_full's
    representative rows and noise kernel, its column 0 and, for phase flips,
    the column table of the output mixture, and only when the spec measures
    I_au, U_rest's rows and kernel.  Each dense unitary (256 MB at 12
    qubits) is alive only while it is built and its rows are taken (16 MB
    for Shor L = 4; Grover's rows are the whole matrix, dropped before
    U_rest is built), so the Shor L = 4 phase-flip sweep peaks at about
    320 MB.  The table is 8 MB for Shor L = 4 (128 MB for Grover).  All
    are freed on return.  Each subset then costs one O(N) pass per kernel,
    2^n_f table rows and one weighing of its mixtures for the whole p grid
    (``subset_measures``).  Per p, that is one dot of n_f + 1 terms per
    measure and, for a Shor phase-flip sweep, one O(N) row of the success
    grid (``_successes_against``)."""
    family = spec.error_family
    if not isinstance(family, DecoherenceErrors):
        raise ValueError("spec does not describe a decoherence sweep")
    algo = spec.algorithm
    if any(v > algo.layer_width for v in family.n_f_values):
        raise ValueError(
            f"n_f values {family.n_f_values} exceed the {algo.layer_width} qubits "
            "of the initial Hadamard layer"
        )
    grover = isinstance(algo, GroverSpec)
    unitaries = grover_unitaries(algo) if grover else shor_unitaries(algo)
    setup = noise_setup(unitaries, family.kind, spec.measure_au)
    ideal = None if grover else setup.output_probabilities
    alpha = algo.alpha if grover else None
    # a Shor bit-flip point observes ``ideal`` itself: its success is evaluated once
    exact = None if grover else shor_success(ideal, ideal)
    # (I_pa, I_au, success) samples per (p, n_f), in subset order
    ps = family.probabilities
    cells = [[([], [], []) for _ in family.n_f_values] for _ in ps]
    layer = tuple(range(algo.layer_width))
    prefix = family.subset_policy == PREFIX_SUBSETS
    for n_f, column in zip(family.n_f_values, zip(*cells)):
        for subset in [layer[:n_f]] if prefix else itertools.combinations(layer, n_f):
            i_pa, i_au, observed = subset_measures(setup, subset, ps)
            if grover:
                successes = observed[:, alpha].tolist()
            elif family.kind == BITFLIP:  # every row is the ideal itself
                successes = [exact] * len(ps)
            else:
                successes = _successes_against(ideal, observed)
            for samples, values in zip(column, zip(i_pa, i_au or itertools.repeat(None), successes)):
                for sample, value in zip(samples, values):
                    sample.append(value)
    return [
        _make_row(spec, p, n_f, pa, au, success, len(pa))
        for p, row in zip(ps, cells)
        for n_f, (pa, au, success) in zip(family.n_f_values, row)
    ]


# ---------------------------------------------------------------------------
# CUE baseline


@dataclass(frozen=True)
class SampleStatistics:
    """Interference of ``samples`` Haar-random unitaries on ``n`` qubits.
    The fields, in order, are the columns and keys of ``write_results``."""

    n: int
    samples: int
    mean: float
    stddev: float
    seed: int


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix with the
    R-diagonal phases folded back in."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def cue_baseline(n: int, samples: int, seed: int = 0) -> SampleStatistics:
    """Mean and spread of the interference of Haar-random unitaries."""
    if n > 8:
        raise SizeLimitError("CUE baseline capped at 8 qubits")
    if n < 1:
        raise ValueError(f"CUE baseline needs at least one qubit, got n = {n}")
    if samples < 10:
        raise ValueError("need at least 10 samples")
    seed = _check_seed(seed)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 0xC0E]))
    values = [interference_unitary(haar_unitary(1 << n, rng)) for _ in range(samples)]
    mean, stddev = float(np.mean(values)), float(np.std(values, ddof=1))
    return SampleStatistics(n, samples, mean, stddev, seed)


# ---------------------------------------------------------------------------
# result emission


def _make_row(spec, sweep_value, n_f, pa, au, success, n_samples, stderr=False):
    """One row from the I_pa, I_au and success samples of a sweep point,
    each column averaged in sample order; ``au`` is read only when the spec
    measures I_au.  ``stderr`` adds the standard error over ``n_samples``."""
    i_pa = float(np.mean(pa))
    i_au = float(np.mean(au)) if spec.measure_au else None
    spread = 0.0
    if stderr and n_samples > 1:
        spread = float(np.std(success, ddof=1)) / math.sqrt(n_samples)
    return ResultRow(
        sweep_value=float(sweep_value),
        n=spec.n,
        n_f=n_f,
        interference_pa=i_pa,
        interference_au=i_au,
        ibits_pa=ibits(i_pa),
        ibits_au=None if i_au is None else ibits(i_au),
        success=float(np.mean(success)),
        success_stderr=spread,
        n_samples=int(n_samples),
        seed=spec.master_seed,
    )


def _map_ordered(fn, tasks, parallel):
    # a pool starts all its workers at the first submit, so never ask for
    # more workers than there are tasks
    workers = min(parallel, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def write_results(rows: Sequence, path, format: str = "csv") -> None:
    """Write rows to a path or an open stream as CSV (one column per field
    of the rows' dataclass, ``ResultRow`` or ``SampleStatistics``) or as a
    JSON array of records with the same keys."""
    if format not in ("csv", "json"):
        raise ValueError(f"unknown output format {format!r}")
    columns = _column_types(type(rows[0]) if rows else ResultRow)
    with nullcontext(path) if hasattr(path, "write") else open(path, "w", newline="") as handle:
        if format == "json":
            json.dump([{n: getattr(r, n) for n, _, _ in columns} for r in rows], handle, indent=1)
            handle.write("\n")
            return
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(name for name, _, _ in columns)
        for row in rows:
            writer.writerow(
                "" if value is None else f"{value:.12g}" if kind is float else value
                for value, kind in ((getattr(row, name), kind) for name, kind, _ in columns)
            )


def read_results(path, format: str = "csv") -> list:
    """Parse a results file back into ``ResultRow`` records.  Each CSV cell
    and JSON value is typed by its column (``_column_types``; a JSON int
    passes for a float, and null for an empty cell); a value of another type,
    a missing or extra column or a short or long CSV row is a ``ValueError``."""
    if format not in ("csv", "json"):
        raise ValueError(f"unknown output format {format!r}")
    columns = _column_types(ResultRow)
    names = [name for name, _, _ in columns]
    with open(path, "r", newline="") as handle:
        if format == "json":
            records = [(f"JSON record {i}", r) for i, r in enumerate(json.load(handle), 1)]
        else:
            reader = csv.reader(handle)
            header = next(reader, None)  # None for an empty file
            if header != names:
                raise ValueError(f"unexpected CSV header {header}")
            records = [(f"CSV line {reader.line_num}", raw) for raw in reader]
    rows = []
    for where, record in records:
        if format == "csv":
            if len(record) != len(names):
                raise ValueError(f"{where} has {len(record)} cells, expected {len(names)}")
            record = dict(zip(names, record))
        if not isinstance(record, dict) or sorted(record) != sorted(names):
            raise ValueError(f"{where} does not hold exactly the columns {names}")
        values = []
        for name, kind, optional in columns:
            cell = record[name]
            empty = (cell is None or cell == "") and optional
            try:  # text is parsed; float(10**400) overflows
                if not (empty or isinstance(cell, str) and cell or type(cell) in (int, kind)):
                    raise ValueError
                values.append(None if empty else kind(cell))
            except (ValueError, OverflowError):
                raise ValueError(f"{where}: {name} = {cell!r} is not {kind.__name__}") from None
        rows.append(ResultRow(*values))
    return rows
