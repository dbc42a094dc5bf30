"""Run one qimeter sweep in this fresh interpreter and record what it cost.

    python3 perfbench/sweep.py RECORD.json [--trace | --setup-only] -- ARGV...

Imports ``qimeter.cli`` from the checkout's ``src``, calls ``cli.main(ARGV)``
exactly as the ``qimeter`` command would, and writes a JSON record: the
monotonic clock on entering ``cli.main`` (the parent subtracts its spawn
time to get set-up time), the sweep's wall and CPU seconds, the peak RSS
and, with ``--trace``, the span statistics of ``spans.install``.
``--setup-only`` stops at the point where ``cli.main`` would be entered.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _usage():
    """CPU seconds and peak RSS (MB) of this process and its reaped workers.

    getrusage reports the largest worker's peak, not a sum over workers."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, (me.ru_maxrss + kids.ru_maxrss) / 1024.0


def main() -> int:
    record_path, *options = sys.argv[1 : sys.argv.index("--")]
    argv = sys.argv[sys.argv.index("--") + 1 :]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import qimeter.cli

    tracer = None
    if "--trace" in options:
        import spans

        tracer = spans.install()
    entered = time.monotonic()
    record = {"entered": entered}
    if "--setup-only" not in options:
        cpu_before, _ = _usage()
        code = qimeter.cli.main(argv)
        wall = time.monotonic() - entered
        cpu_after, peak = _usage()
        record.update(exit_code=code, sweep_s=wall, cpu_s=cpu_after - cpu_before, peak_rss_mb=peak)
        if tracer is not None:
            record["trace"] = tracer.record()
            out = argv[argv.index("--out") + 1]
            record["trace"]["counts"]["harness.output_bytes"] = os.path.getsize(out)
    with open(record_path, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
