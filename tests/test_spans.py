"""The benchmark's tracer patches qimeter functions by name.

``perfbench/spans.py`` wraps the functions it lists wherever a qimeter module
refers to them, and feeds some of their arguments to work counters.  A
rename, a removal or a new required argument would break only traced
benchmark runs, so this checks the list against the library, and runs one
traced decoherence sweep in-process.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from qimeter import harness
from qimeter.algorithms import ShorSpec
from qimeter.channels import PHASEFLIP
from qimeter.harness import DecoherenceErrors, ExperimentSpec

SPANS_FILE = Path(__file__).parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, attr):
    target = importlib.import_module(module_name)
    for part in attr.split("."):
        target = getattr(target, part)
    return target


def test_every_span_target_resolves():
    spans = _spans_module()
    for name, targets in spans.SPANS.items():
        for module_name, attr in targets:
            assert callable(_resolve(module_name, attr)), (name, module_name, attr)


def test_counters_accept_the_traced_arguments():
    # a counter is called with the traced function's own arguments
    spans = _spans_module()
    for name, count in spans.COUNTERS.items():
        for module_name, attr in spans.SPANS[name]:
            params = inspect.signature(_resolve(module_name, attr)).parameters.values()
            required = [p.name for p in params if p.default is inspect.Parameter.empty]
            inspect.signature(count).bind(*required)



def test_traced_decoherence_sweep_enters_both_cold_spans():
    # the benchmark fails a traced decoherence sweep that makes no call to
    # either set-up function, or whose counters raise
    spans = _spans_module()
    errors = DecoherenceErrors(PHASEFLIP, (0.0, 0.3, 1.0), (1, 2), "all")
    spec = ExperimentSpec(ShorSpec.for_modulus(7, 3), errors)
    untraced = harness.run_decoherence_sweep(spec)
    for targets in spans.SPANS.values():
        for module_name, _ in targets:
            importlib.import_module(module_name)
    # install() rebinds module attributes and class methods; put every one back
    saved = {m: dict(vars(m)) for m in list(sys.modules.values()) if m.__name__.split(".")[0] == "qimeter"}
    classes = {
        _resolve(module_name, attr.split(".")[0])
        for targets in spans.SPANS.values()
        for module_name, attr in targets
        if "." in attr
    }
    saved_methods = {cls: dict(vars(cls)) for cls in classes}
    try:
        tracer = spans.install()
        traced = harness.run_decoherence_sweep(spec)
    finally:
        for owner, attrs in [*saved.items(), *saved_methods.items()]:
            for key, value in attrs.items():
                if vars(owner)[key] is not value:
                    setattr(owner, key, value)
    for owner, attrs in [*saved.items(), *saved_methods.items()]:
        assert all(vars(owner)[key] is value for key, value in attrs.items()), owner
    assert traced == untraced
    record = tracer.record()
    assert record["calls"]["gates.circuit_unitary"] == 2
    assert record["calls"]["interference.pauli_kernel"] == 2
    # points are evaluated from per-subset class sums, not one call per point
    per_point = (
        "algorithms.decoherence_point",
        "algorithms.final_probs",
        "interference.noise_then_unitary",
    )
    assert not set(per_point) & set(record["calls"])
