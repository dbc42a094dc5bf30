"""Output checks: every row against a reference CSV, plus oracles.

A row fails when any field is off its reference (reals beyond 1e-9
relative with an absolute floor of 1e-9, any other field not equal), when
its ``seed`` is not the master seed of the run, or when it breaks an
oracle.  Oracles hold for any correct implementation, whatever the
reference says; ``exact_grover`` uses numpy alone, not qimeter.
"""

from __future__ import annotations

import csv
import math

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-9
INT_COLUMNS = ("n", "n_f", "n_samples", "seed")


def read_rows(path) -> list:
    """CSV rows as dicts; an unreadable or headerless file gives no rows."""
    try:
        with open(path, newline="") as handle:
            return list(csv.DictReader(handle))
    except OSError:
        return []


def _real(text):
    return None if text == "" else float(text)


def _close(value, expected) -> bool:
    if value is None or expected is None:
        return value is expected
    if value == expected:  # also matches infinities
        return True
    return abs(value - expected) <= max(ABS_TOL, REL_TOL * abs(expected))


def _row_matches(row, ref, master_seed) -> bool:
    if set(row) != set(ref) or row["seed"] != str(master_seed):
        return False
    for key, expected in ref.items():
        if key == "seed":
            continue
        if key in INT_COLUMNS:
            if row[key] != expected:
                return False
        else:
            try:
                if not _close(_real(row[key]), _real(expected)):
                    return False
            except ValueError:
                return False
    return True


def grover_success(n: int) -> float:
    """sin^2((2k+1) asin(2^(-n/2))) for the optimal iteration count k."""
    angle = math.asin(2.0 ** (-n / 2))
    k = int(math.pi / (4.0 * angle))
    return math.sin((2 * k + 1) * angle) ** 2


def exact_grover(n: int, alpha: int):
    """(I_pa, I_au) of exact Grover search, from dense numpy algebra."""
    dim = 1 << n
    walsh = np.ones((1, 1))
    for _ in range(n):
        walsh = np.kron(walsh, np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))
    oracle = np.ones(dim)
    oracle[alpha] = -1.0
    zero = np.ones(dim)
    zero[0] = -1.0
    iterate = walsh @ (zero[:, None] * walsh) * oracle[None, :]
    rest = np.linalg.matrix_power(iterate, int(math.pi / (4.0 * math.asin(2.0 ** (-n / 2)))))
    full = rest @ walsh
    return dim - np.sum(full**4), dim - np.sum(rest**4)


def _matches_exact(row, n, alpha) -> bool:
    i_pa, i_au = exact_grover(n, alpha)
    return (
        _close(_real(row["interference_pa"]), i_pa)
        and _close(_real(row["interference_au"]), i_au)
        and _close(_real(row["success"]), grover_success(n))
        and abs(float(row["success_stderr"])) <= ABS_TOL
    )


def oracle_grover_systematic(rows, n):
    """At theta = pi/4 the sweep is exact Grover (for every marked item);
    at theta = 0 and pi/2 every gate is a signed permutation, so I_pa = 0."""
    bad = set()
    for i, row in enumerate(rows):
        theta = float(row["sweep_value"])
        if abs(theta - math.pi / 4) <= 1e-9 and not _matches_exact(row, n, 0):
            bad.add(i)
        if (theta == 0.0 or abs(theta - math.pi / 2) <= 1e-9) and not (
            abs(float(row["interference_pa"])) <= ABS_TOL
        ):
            bad.add(i)
    return bad


def oracle_grover_random(rows, n, alpha):
    """At eps = 0 every draw is pi/4, so the row is exact Grover."""
    return {
        i
        for i, row in enumerate(rows)
        if float(row["sweep_value"]) == 0.0 and not _matches_exact(row, n, alpha)
    }


def oracle_grover_bitflip(rows, n):
    """Bit flips after the exact initial layer leave Grover's output
    distribution unchanged, so success is the exact value at every p."""
    return {i for i, r in enumerate(rows) if not _close(float(r["success"]), grover_success(n))}


def oracle_shor_p0(rows):
    """Without errors Shor reproduces its own ideal distribution."""
    return {
        i
        for i, r in enumerate(rows)
        if float(r["sweep_value"]) == 0.0 and abs(float(r["success"]) - 1.0) > ABS_TOL
    }


def failed_rows(rows, reference, master_seed, oracle) -> int:
    """Rows of one sweep that fail; a missing or misshapen output fails all."""
    if len(rows) != len(reference):
        return len(reference)
    bad = {
        i for i, (row, ref) in enumerate(zip(rows, reference)) if not _row_matches(row, ref, master_seed)
    }
    try:
        bad |= oracle(rows)
    except (KeyError, ValueError):
        return len(reference)
    return len(bad)
