"""Command-line front end for the sweep harness.

Exit codes: 0 success, 2 argument error, 3 size cap exceeded, 4 I/O error.
Flags may also be supplied through ``--config FILE`` holding ``key = value``
lines (keys are the flag names without dashes); command-line flags win.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .algorithms import GroverSpec, ShorSpec
from .channels import BITFLIP, PHASEFLIP
from .errors import SizeLimitError
from .harness import (
    ALL_SUBSETS,
    PREFIX_SUBSETS,
    DecoherenceErrors,
    ExperimentSpec,
    RandomErrors,
    SystematicErrors,
    cue_baseline,
    default_epsilon_grid,
    default_probability_grid,
    default_realizations,
    default_theta_grid,
    run_decoherence_sweep,
    run_random_sweep,
    run_systematic_sweep,
    write_results,
)

SWEEP_COMMANDS = {
    "grover-systematic": ("grover", "systematic"),
    "grover-random": ("grover", "random"),
    "grover-decoherence": ("grover", "decoherence"),
    "shor-systematic": ("shor", "systematic"),
    "shor-random": ("shor", "random"),
    "shor-decoherence": ("shor", "decoherence"),
}


def _parse_grid(text: str) -> tuple:
    """start:stop:points as a tuple of floats.  A NaN or infinite end is
    passed on as (start, stop) without interpolating, and finite ends whose
    span overflows space non-finite points without a numpy warning: either
    way the spec refuses the grid with its own message."""
    try:
        start, stop, points = text.split(":")
        start, stop, points = float(start), float(stop), int(points)
        if points < 1:
            raise ValueError
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"grid must look like start:stop:points, got {text!r}"
        ) from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        return (start, stop)
    with np.errstate(over="ignore", invalid="ignore"):
        return tuple(float(g) for g in np.linspace(start, stop, points))


def _parse_alpha(text: str):
    if text == "all":
        return "all"
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"alpha must be an integer or 'all', got {text!r}") from exc


def _parse_nf(text: str):
    if text == "all":
        return "all"
    try:
        if "-" in text:
            lo, hi = text.split("-")
            values = tuple(range(int(lo), int(hi) + 1))
            if not values:
                raise ValueError
            return values
        return (int(text),)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"nf must be an integer, a range like 1-4, or 'all', got {text!r}"
        ) from exc


def _parse_criteria(text: str) -> list:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"criteria must be comma-separated integers, got {text!r}"
        ) from exc


def _parse_workers(text: str) -> int:
    try:
        value = int(text)
        if value < 1:
            raise ValueError
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"parallel must be a positive integer, got {text!r}"
        ) from exc
    return value


def _add_output(parser):
    parser.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_parallel(parser):
    parser.add_argument("--parallel", type=_parse_workers, default=1, help="worker processes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qimeter",
        description="Interference and success-probability sweeps for Grover and Shor circuits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (algo, family) in SWEEP_COMMANDS.items():
        p = sub.add_parser(command, help=f"{family} error sweep for {algo}")
        if algo == "grover":
            p.add_argument("--n", type=int, required=True, help="number of qubits")
            p.add_argument(
                "--alpha", type=_parse_alpha, default="all" if family != "decoherence" else 2,
                help="marked item index, or 'all' to average",
            )
        else:
            p.add_argument("--L", type=int, required=True, help="second-register width")
            p.add_argument("--R", type=int, required=True, help="modulus")
            p.add_argument("--a", type=int, required=True, help="base, coprime to R")
        if family == "random":
            p.add_argument("--realizations", type=int, default=None)
        if family == "decoherence":
            p.add_argument("--error-kind", choices=(BITFLIP, PHASEFLIP), required=True)
            p.add_argument("--nf", type=_parse_nf, default="all")
            p.add_argument(
                "--subset-policy", choices=(ALL_SUBSETS, PREFIX_SUBSETS), default=None,
                help="average over all n_f-subsets or use the first n_f qubits",
            )
        elif command != "grover-systematic":  # its grid is one closed form, in this process
            _add_parallel(p)
        p.add_argument("--grid", type=_parse_grid, default=None, help="sweep grid start:stop:points")
        p.add_argument("--measure", choices=("pa", "both"), default="both")
        _add_output(p)

    p = sub.add_parser("cue-baseline", help="interference of Haar-random unitaries")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--realizations", type=int, default=100, help="number of samples")
    _add_output(p)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--criteria", type=_parse_criteria, help="comma-separated criterion numbers")
    _add_parallel(p)

    for p in sub.choices.values():
        p.add_argument("--config", default=None, help="key=value file of flag defaults")
    return parser


def _read_config(path: str) -> list:
    """Turn a key=value file into a flag list that is parsed before the
    real command line, so explicit flags win."""
    extra = []
    with open(path) as handle:
        for line in handle:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {line!r} is not key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            extra.extend([f"--{key}", value])
    return extra


def _build_algorithm(args, algo):
    if algo == "grover":
        alpha = 0 if args.alpha == "all" else args.alpha
        return GroverSpec(args.n, alpha), args.alpha == "all"
    return ShorSpec(args.L, args.R, args.a), False


def _run_sweep(args, algo, family):
    algorithm, average = _build_algorithm(args, algo)
    if family == "systematic":
        error_family = SystematicErrors(args.grid or default_theta_grid())
        runner = run_systematic_sweep
        options = {"parallel": args.parallel} if algo == "shor" else {}
    elif family == "random":
        realizations = args.realizations
        if realizations is None:
            realizations = default_realizations(algorithm)
        error_family = RandomErrors(args.grid or default_epsilon_grid(), realizations)
        runner, options = run_random_sweep, {"parallel": args.parallel}
    else:
        nf = tuple(range(1, algorithm.layer_width + 1)) if args.nf == "all" else args.nf
        policy = args.subset_policy
        if policy is None:
            policy = PREFIX_SUBSETS if algo == "grover" else ALL_SUBSETS
        error_family = DecoherenceErrors(args.error_kind, args.grid or default_probability_grid(), nf, policy)
        runner, options = run_decoherence_sweep, {}
    spec = ExperimentSpec(
        algorithm=algorithm,
        error_family=error_family,
        average_over_alpha=average,
        master_seed=args.seed,
        measure_au=args.measure == "both",
    )
    return runner(spec, **options)


def _run_verify(args):
    from . import acceptance

    results = acceptance.run_criteria(args.criteria, parallel=args.parallel)
    failed = sum(not r.passed for r in results)
    return 0 if failed == 0 else 1


def _extract_config_path(argv):
    for i, token in enumerate(argv):
        if token == "--config":
            return argv[i + 1] if i + 1 < len(argv) else None
        if token.startswith("--config="):
            return token.split("=", 1)[1]
    return None


def main(argv=None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    # config defaults are injected right after the subcommand, so explicit
    # flags (parsed later) win
    config_path = _extract_config_path(raw)
    if config_path and raw:
        try:
            extra = _read_config(config_path)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 4
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        raw = [raw[0]] + extra + raw[1:]
    parser = build_parser()
    args = parser.parse_args(raw)
    try:
        if args.command in SWEEP_COMMANDS:
            rows = _run_sweep(args, *SWEEP_COMMANDS[args.command])
        elif args.command == "cue-baseline":
            rows = [cue_baseline(args.n, args.realizations, args.seed)]
        else:
            return _run_verify(args)
        # ``args.out or sys.stdout`` would send ``--out ''`` to stdout, not exit 4
        write_results(rows, sys.stdout if args.out is None else args.out, args.format)
        return 0
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
