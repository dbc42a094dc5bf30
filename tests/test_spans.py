"""The benchmark's tracer patches qimeter functions by name.

``perfbench/spans.py`` wraps the functions it lists wherever a qimeter module
refers to them, and feeds some of their arguments to work counters.  A
rename, a removal or a new required argument would break only traced
benchmark runs, so this checks the list against the library.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

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
