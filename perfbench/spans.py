"""Timing wrappers on qimeter's public functions, installed from outside.

``install`` replaces each traced function in every qimeter module namespace
that holds it (``harness`` and ``algorithms`` import names directly, so
patching the defining module alone would miss their calls).  Each call is a
span; a span's self time is its duration minus the durations of the traced
calls it made.  Work counters are computed from the call arguments.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, attribute) of every function the span covers
SPANS = {
    "cli": [("qimeter.cli", "main")],
    "harness.sweep": [
        ("qimeter.harness", "run_systematic_sweep"),
        ("qimeter.harness", "run_random_sweep"),
        ("qimeter.harness", "run_decoherence_sweep"),
    ],
    "harness.write_results": [("qimeter.harness", "write_results")],
    "harness.rng_stream": [("qimeter.harness", "RandomAngleSampler.stream")],
    "algorithms.build": [
        ("qimeter.algorithms", "build_grover"),
        ("qimeter.algorithms", "build_shor"),
    ],
    "algorithms.unitaries": [
        ("qimeter.algorithms", "grover_unitaries"),
        ("qimeter.algorithms", "shor_unitaries"),
    ],
    "algorithms.decoherence_point": [("qimeter.algorithms", "decoherence_point")],
    "algorithms.final_probs": [("qimeter.algorithms", "decoherent_final_probabilities")],
    "algorithms.shor_success": [("qimeter.algorithms", "shor_success")],
    "gates.circuit_unitary": [("qimeter.gates", "circuit_unitary")],
    "gates.circuit_apply": [("qimeter.gates", "circuit_apply")],
    "interference.unitary": [("qimeter.interference", "interference_unitary")],
    "interference.pauli_kernel": [("qimeter.interference", "pauli_noise_kernel")],
    "interference.noise_then_unitary": [
        ("qimeter.interference", "interference_noise_then_unitary")
    ],
    "linalg.check_unitary": [("qimeter.linalg", "check_unitary")],
}


def _gate_work(columns):
    # every gate application reads and writes the (N, M) complex128 stack
    def count(circuit, *args, **kwargs):
        n_ops = len(circuit.ops)
        dim = 1 << circuit.n
        return {"gates.ops": n_ops, "gates.bytes_computed": 32 * dim * columns(dim) * n_ops}

    return count


def _check_unitary_work(u, *args, **kwargs):
    # U^dagger U on an N x N complex matrix: N^3 complex multiply-adds
    return {"linalg.check_unitary.flops_computed": 8 * len(u) ** 3}


def _mixture_columns(u_full, model):
    # columns of the full unitary that the phase-flip mixture sums
    if model.kind != "phaseflip":
        return {"algorithms.final_probs.columns": 0}
    n_f = len(model.affected)
    used = sum(
        model.p ** h * (1.0 - model.p) ** (n_f - h) != 0.0
        for h in (bin(s).count("1") for s in range(1 << n_f))
    )
    return {"algorithms.final_probs.columns": used}


COUNTERS = {
    "gates.circuit_unitary": _gate_work(lambda dim: dim),
    "gates.circuit_apply": _gate_work(lambda dim: 1),
    "linalg.check_unitary": _check_unitary_work,
    "algorithms.final_probs": _mixture_columns,
}


class Tracer:
    """Per-span call counts and self seconds, plus work counters."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._child_s = []  # traced time spent inside each open span

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                self.counts.update(count(*args, **kwargs))
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.calls[name] += 1
                self.self_s[name] += elapsed - self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += elapsed

        return traced

    def record(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s), "counts": dict(self.counts)}


def install() -> Tracer:
    """Wrap every function in ``SPANS`` wherever qimeter modules refer to it."""
    tracer = Tracer()
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "qimeter"]
    for name, targets in SPANS.items():
        for module_name, attr in targets:
            owner = sys.modules[module_name]
            if "." in attr:  # a method: patch the class that defines it
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, tracer.wrap(name, getattr(cls, method)))
                continue
            original = getattr(owner, attr)
            wrapper = tracer.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
    return tracer
