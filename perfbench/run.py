"""qimeter sweep benchmark: cold CLI sweeps, checked outputs, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --make-references

Every sweep runs ``qimeter.cli.main`` with the argv a user would type, in a
fresh interpreter (``sweep.py``), so no run reuses another's imports or the
harness's cached decoherence set-up.  A run measures as many whole sweeps
as fit in ``--seconds``, and at least one; each is killed past its time
budget.  Every output CSV is checked (``check.py``); a killed or crashed
sweep fails all of its rows.  With ``--trace 0`` the end-to-end metrics are
medians over the run's sweeps; with ``--trace 1`` traced sweeps
(``spans.py``) alternate with untraced ones and give the per-layer metrics.
``--workload all`` runs every workload in both modes.  The last line of
output is one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import check

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references")
OUT = os.path.join(HERE, "out")

# master seeds passed to qimeter are --seed mod this; references cover each
REFERENCE_SEEDS = 8
# a run stops starting work this long after it began, so it ends within 180 s
RUN_LIMIT_S = 165.0
# a sweep is killed after this many times its seed-commit sweep time
BUDGET_FACTOR = 5.0
SETUP_PROBES = 5


@dataclass(frozen=True)
class Workload:
    argv: tuple
    oracle: Callable
    sweep_s: float  # seed-commit sweep time
    peak_rss_mb: float  # seed-commit peak RSS; a sweep needs twice this available
    seeded: bool = False  # its rows depend on the master seed beyond the seed column
    traced_argv: tuple | None = None
    cold_spans: tuple = ()  # spans every cold decoherence sweep must enter


DECOHERENCE_SETUP = ("gates.circuit_unitary", "interference.pauli_kernel")
WORKLOADS = {
    "grover-sys-n5": Workload(
        argv=("grover-systematic", "--n", "5", "--alpha", "all"),
        oracle=lambda rows: check.oracle_grover_systematic(rows, 5),
        sweep_s=5.3,
        peak_rss_mb=36.2,
    ),
    "grover-rand-n5-p2": Workload(
        argv=("grover-random", "--n", "5", "--alpha", "0", "--realizations", "100", "--parallel", "2"),
        oracle=lambda rows: check.oracle_grover_random(rows, 5, 0),
        sweep_s=4.9,
        peak_rss_mb=67.1,
        seeded=True,
        # spans are collected in the traced process only, so trace serially
        traced_argv=("grover-random", "--n", "5", "--alpha", "0", "--realizations", "100", "--parallel", "1"),
    ),
    "shor-deco-L4-phase": Workload(
        argv=("shor-decoherence", "--L", "4", "--R", "11", "--a", "2", "--error-kind", "phaseflip"),
        oracle=check.oracle_shor_p0,
        sweep_s=44.0,
        peak_rss_mb=1572.4,
        cold_spans=DECOHERENCE_SETUP,
    ),
    "grover-deco-n10-bit": Workload(
        argv=("grover-decoherence", "--n", "10", "--alpha", "2", "--error-kind", "bitflip"),
        oracle=lambda rows: check.oracle_grover_bitflip(rows, 10),
        sweep_s=16.0,
        peak_rss_mb=135.9,
        cold_spans=DECOHERENCE_SETUP,
    ),
}

# (metric, unit, kind, key): kind "calls" and "self" read a span, "count" a counter
PER_LAYER = [
    ("gates.circuit_unitary.calls", "count", "calls", "gates.circuit_unitary"),
    ("gates.circuit_unitary.s", "s", "self", "gates.circuit_unitary"),
    ("gates.circuit_apply.calls", "count", "calls", "gates.circuit_apply"),
    ("gates.circuit_apply.s", "s", "self", "gates.circuit_apply"),
    ("gates.ops", "count", "count", "gates.ops"),
    ("gates.bytes_computed", "bytes", "count", "gates.bytes_computed"),
    ("algorithms.build.calls", "count", "calls", "algorithms.build"),
    ("algorithms.build.s", "s", "self", "algorithms.build"),
    ("algorithms.unitaries.self_s", "s", "self", "algorithms.unitaries"),
    ("algorithms.shor_success.s", "s", "self", "algorithms.shor_success"),
    ("algorithms.decoherence_point.calls", "count", "calls", "algorithms.decoherence_point"),
    ("algorithms.decoherence_point.self_s", "s", "self", "algorithms.decoherence_point"),
    ("algorithms.final_probs.calls", "count", "calls", "algorithms.final_probs"),
    ("algorithms.final_probs.s", "s", "self", "algorithms.final_probs"),
    ("algorithms.final_probs.columns", "count", "count", "algorithms.final_probs.columns"),
    ("interference.pauli_kernel.calls", "count", "calls", "interference.pauli_kernel"),
    ("interference.pauli_kernel.s", "s", "self", "interference.pauli_kernel"),
    ("interference.noise_then_unitary.calls", "count", "calls", "interference.noise_then_unitary"),
    ("interference.noise_then_unitary.s", "s", "self", "interference.noise_then_unitary"),
    ("interference.unitary.calls", "count", "calls", "interference.unitary"),
    ("interference.unitary.self_s", "s", "self", "interference.unitary"),
    ("linalg.check_unitary.calls", "count", "calls", "linalg.check_unitary"),
    ("linalg.check_unitary.s", "s", "self", "linalg.check_unitary"),
    ("linalg.check_unitary.flops_computed", "flop", "count", "linalg.check_unitary.flops_computed"),
    ("harness.rng_streams", "count", "calls", "harness.rng_stream"),
    ("harness.sweep.self_s", "s", "self", "harness.sweep"),
    ("harness.write_results.s", "s", "self", "harness.write_results"),
    ("harness.output_bytes", "bytes", "count", "harness.output_bytes"),
    ("cli.self_s", "s", "self", "cli"),
]


class Refused(Exception):
    """The run cannot start here; it prints no result."""


def _reference_path(name, workload, master_seed):
    suffix = f".seed{master_seed}" if workload.seeded else ""
    return os.path.join(REFERENCES, f"{name}{suffix}.csv")


def _child(args, budget_s):
    """Run ``sweep.py ARGS`` in its own process group; kill the group past
    the budget.  Returns (record or None, spawn time, stderr tail)."""
    with tempfile.NamedTemporaryFile(dir=OUT, suffix=".json", delete=False) as handle:
        record_path = handle.name
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "sweep.py"), record_path, *args],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=max(budget_s, 0.0))
    except subprocess.TimeoutExpired:
        err = b"killed past its time budget"
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            _wait_for_group(proc.pid)
    try:
        with open(record_path) as handle:
            record = json.load(handle) if proc.returncode == 0 else None
    except (OSError, ValueError):
        record = None
    finally:
        os.unlink(record_path)
    return record, spawned, err.decode(errors="replace").strip()[-2000:]


def _wait_for_group(pgid, timeout_s=10.0):
    """Wait until the killed group's orphaned workers are gone."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _check_memory(workload):
    """Refuse a workload whose recorded peak RSS would not fit twice over."""
    with open("/proc/meminfo") as handle:
        fields = dict(line.split(":", 1) for line in handle)
    available_mb = int(fields["MemAvailable"].split()[0]) / 1024.0
    if available_mb < 2 * workload.peak_rss_mb:
        raise Refused(
            f"refusing to run: MemAvailable is {available_mb:.0f} MB, below twice "
            f"this workload's recorded peak RSS of {workload.peak_rss_mb:.0f} MB"
        )


class Run:
    """One benchmark run of one workload: its sweeps and their checks."""

    def __init__(self, name, seed):
        self.name = name
        self.workload = WORKLOADS[name]
        self.master_seed = seed % REFERENCE_SEEDS
        self.reference = check.read_rows(_reference_path(name, self.workload, self.master_seed))
        if not self.reference:
            raise Refused(f"no reference output for {name} at master seed {self.master_seed}")
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def elapsed(self):
        return time.monotonic() - self.started

    def setup_probe(self):
        record, spawned, err = _child(["--setup-only", "--"], 30.0)
        if record is None:
            raise Refused(f"cannot import qimeter from {ROOT}/src: {err}")
        return record["entered"] - spawned

    def sweep(self, argv, traced=False):
        """One cold sweep; returns its record, or None if it failed to finish."""
        _check_memory(self.workload)
        out = os.path.join(OUT, f"{self.name}.csv")
        if os.path.exists(out):
            os.unlink(out)
        argv = [*argv, "--seed", str(self.master_seed), "--out", out]
        budget = min(BUDGET_FACTOR * self.workload.sweep_s, RUN_LIMIT_S - self.elapsed())
        options = ["--trace"] if traced else []
        record, spawned, err = _child([*options, "--", *argv], budget)
        self.attempted += len(self.reference)
        if record is None or record["exit_code"] != 0:
            self.failed += len(self.reference)
            self.errors.append(f"sweep failed: {err}")
            return None
        record["setup_s"] = record["entered"] - spawned
        bad = check.failed_rows(check.read_rows(out), self.reference, self.master_seed, self.workload.oracle)
        self.failed += bad
        if bad:
            self.errors.append(f"{bad} of {len(self.reference)} rows off reference or oracle")
        if traced:
            calls = record["trace"]["calls"]
            missing = [span for span in self.workload.cold_spans if not calls.get(span)]
            if missing:
                self.errors.append(f"traced sweep skipped the cold set-up: no calls to {missing}")
        return record

    def keep_going(self, seconds, since, rounds):
        """Another round of sweeps if it should end within ``seconds`` of
        ``since``, going by the rounds so far, and within the run's limit.
        A run measures as many whole rounds as fit, and at least one."""
        measured = time.monotonic() - since
        return measured * (rounds + 1) / rounds <= seconds and self.elapsed() + self.workload.sweep_s < RUN_LIMIT_S


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure_end_to_end(name, seed, seconds):
    run = Run(name, seed)
    run.setup_probe()  # untimed: fills the bytecode and file caches
    setups = [run.setup_probe() for _ in range(SETUP_PROBES)]
    records, since = [], time.monotonic()
    while True:
        records.append(run.sweep(run.workload.argv))
        if records[-1] is None or not run.keep_going(seconds, since, len(records)):
            break
    done = [r for r in records if r is not None]
    setups += [r["setup_s"] for r in done]
    metrics = {}
    if done:
        metrics = {
            "sweep_s": _metric(statistics.median(r["sweep_s"] for r in done), "s"),
            "cpu_s": _metric(statistics.median(r["cpu_s"] for r in done), "s"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(statistics.median(r["peak_rss_mb"] for r in done), "MB"),
        }
    notes = [
        f"{len(done)} of {len(records)} sweeps finished in " + " ".join(f"{r['sweep_s']:.2f}" for r in done) + " s",
        f"{len(setups)} set-up samples",
    ]
    return run, metrics, notes


def _layer_value(trace, kind, key):
    if kind == "calls":
        return trace["calls"].get(key, 0)
    if kind == "self":
        return trace["self_s"].get(key, 0.0)
    return trace["counts"].get(key, 0)


def measure_layers(name, seed, seconds):
    run = Run(name, seed)
    argv = run.workload.traced_argv or run.workload.argv
    plain, traced, since = [], [], time.monotonic()
    while True:
        plain.append(run.sweep(argv))
        traced.append(run.sweep(argv, traced=True))
        if None in plain + traced or not run.keep_going(seconds, since, len(plain)):
            break
    plain = [r for r in plain if r is not None]
    traced = [r for r in traced if r is not None]
    metrics = {}
    if plain and traced:
        for metric, unit, kind, key in PER_LAYER:
            # counts repeat exactly, so median_low reports one of them as measured
            median = statistics.median if kind == "self" else statistics.median_low
            value = median(_layer_value(r["trace"], kind, key) for r in traced)
            metrics[metric] = _metric(value, unit)
        overhead = statistics.median(r["sweep_s"] for r in traced) - statistics.median(r["sweep_s"] for r in plain)
        metrics["trace.overhead_s"] = _metric(overhead, "s")
    notes = [f"{len(traced)} traced and {len(plain)} untraced sweeps"]
    if WORKLOADS[name].traced_argv:
        notes.append("traced at " + " ".join(WORKLOADS[name].traced_argv))
    return run, metrics, notes


def provenance():
    rev = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):  # never look above the checkout
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy

    return (
        f"nproc={os.cpu_count()} OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')} "
        f"python={platform.python_version()} numpy={numpy.__version__} git_rev={rev or 'unknown'}"
    )


def report(name, run, metrics, notes):
    """Human-readable lines for one measured run."""
    print(f"== {name}: " + "; ".join(notes))
    for metric, m in metrics.items():
        print(f"  {metric:40s} {m['value']:>16.6g} {m['unit']}")
    fail_frac = run.failed / max(run.attempted, 1)
    print(f"  {'fail_frac':40s} {fail_frac:>16.6g} ({run.failed} of {run.attempted} rows)")
    for error in run.errors:
        print(f"  error: {error}", file=sys.stderr)


def result_line(runs, metrics):
    return json.dumps(
        {
            "correct": all(r.failed == 0 and not r.errors for r in runs),
            "attempted": sum(r.attempted for r in runs),
            "failed": sum(r.failed for r in runs),
            "metrics": metrics,
        }
    )


def make_references():
    """Write every workload's reference CSV from the code in this checkout."""
    os.makedirs(REFERENCES, exist_ok=True)
    for name, workload in WORKLOADS.items():
        for master_seed in range(REFERENCE_SEEDS if workload.seeded else 1):
            path = _reference_path(name, workload, master_seed)
            argv = [*workload.argv, "--seed", str(master_seed), "--out", path]
            record, _, err = _child(["--", *argv], 10 * workload.sweep_s)
            if record is None or record["exit_code"] != 0:
                raise SystemExit(f"{name}: {err}")
            print(f"wrote {os.path.relpath(path, ROOT)} in {record['sweep_s']:.1f} s")


def self_test() -> int:
    """Show that the checks count perturbed, missing and oracle-breaking rows."""
    failures = 0
    for name, workload in WORKLOADS.items():
        reference = check.read_rows(_reference_path(name, workload, 0))
        oracle_bad = workload.oracle(reference)
        broken = [dict(row) for row in reference]
        broken[1]["success"] = repr(float(broken[1]["success"]) * (1 + 1e-6) + 1e-6)
        # an oracle row altered in the reference too, so only the oracle sees it
        fake = [dict(row) for row in reference]
        row = next(i for i in range(len(fake)) if float(fake[i]["sweep_value"]) == 0.0)
        fake[row]["success"] = fake[row]["interference_pa"] = "0.5"
        cases = [
            ("reference itself", check.failed_rows(reference, reference, 0, workload.oracle), 0),
            ("reference under the oracle", len(oracle_bad), 0),
            ("one row perturbed by 1e-6", check.failed_rows(broken, reference, 0, workload.oracle), 1),
            ("wrong seed column", check.failed_rows(reference, reference, 1, workload.oracle), len(reference)),
            ("oracle row wrong in both", check.failed_rows(fake, fake, 0, workload.oracle), 1),
            ("output missing", check.failed_rows([], reference, 0, workload.oracle), len(reference)),
        ]
        for label, got, want in cases:
            ok = got == want
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {label}: {got} failed rows (expected {want})")
    print(json.dumps({"self_test_failures": failures}))
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--make-references", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "qimeter", "cli.py")):
        print(f"error: no qimeter source under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.self_test:
        return self_test()
    if args.make_references:
        make_references()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    print(f"provenance: {provenance()}")
    if args.workload == "all":
        plan = [(name, mode) for name in WORKLOADS for mode in (measure_end_to_end, measure_layers)]
    else:
        plan = [(args.workload, measure_layers if args.trace else measure_end_to_end)]
    runs, metrics = [], {}
    try:
        for name, measure in plan:
            run, run_metrics, notes = measure(name, args.seed, args.seconds)
            report(name, run, run_metrics, notes)
            runs.append(run)
            prefix = f"{name}/" if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in run_metrics.items()})
    except Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(result_line(runs, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
