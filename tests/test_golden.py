"""Byte-identity of frozen CLI sweeps.

The CSV files under ``tests/golden/`` were written by the CLI at commit
4fa2e3d (before the gate model was reduced to three kinds), except
``shor-decoherence-phaseflip.csv``, written at commit 9664cfe (before the
phase-flip mixture was read from a column table and the Walsh-Hadamard
kernels were cache-blocked).  Each case also has a ``--format json`` twin,
written at commit 9bb1dac (before the explicit Kraus route moved into the
tests).  The Grover systematic and random twins were rewritten when an
alpha-averaged point at a uniform angle began to evaluate one marked item
per Hamming weight: the weighted sum moved 20 values of the systematic
sweep and 2 of the random sweep's eps = 0 row, each by at most 8.9e-16,
and left both CSV files unchanged.  Every sweep below is cheap, so any
change to the numbers the pipeline produces shows up as a byte difference.

Most values are far from rounding noise.  The exceptions are in the
phase-flip Shor sweep: at p = 1 and n_f = 2..4 the success is exactly 0 but
reads 1e-16 to 2e-16, and at p = 0.5, n_f = 4 the actually used
interference is exactly 0 and reads 0 (ibits -inf).  A correct change of
reduction order may move those rows.  The CSV files hold 12 significant
digits, so they miss a change in the last bits; the JSON twins hold every
float as its shortest round-trip repr, so they pin the last bit too.
Summing the phase-flip mixture in reverse order, for example, leaves both
decoherence CSVs unchanged but changes both JSON twins.

The three decoherence twins were rewritten when each (p, subset) point began
to be read from per-subset class sums (DECISIONS.md, "Decoherence points
from per-subset class sums").  That moved 251, 68 and 99 values of the
grover-decoherence, shor-decoherence and shor-decoherence-phaseflip twins
(interference and success values by at most 1.4e-14 absolute and 2.4e-13
relative, i-bits by at most 3.4e-13), and left all seven CSV files
unchanged.  The rounding-noise rows above read as before: success
2.0e-16, 1.7e-16 and 1.1e-16 at p = 1, n_f = 2..4, and I_au = 0 (ibits
-inf) at p = 0.5, n_f = 4.

The Grover systematic and random twins were rewritten again when a
uniform-angle Grover point began to be evaluated in closed form
(DECISIONS.md, "Uniform-angle Grover points in closed form").  That moved
33 values of the systematic twin, each by at most 1.1e-14, and the 5
values of the random twin's eps = 0 row, by at most 1.8e-15.  35 of the 38
moved values are now closer to their 50-digit values; the eps = 0 row,
exact Grover at pi/4, is now exact.  Three are farther, by at most one
ulp: I_pa and its i-bits at theta = pi/16 (now 3.2e-15 and 2.2e-15 off)
and the success at 7 pi/16 (now 7.6e-17 off).  One CSV cell changed: the
success at theta = 3 pi/8 in ``grover-systematic.csv``, from
0.650512695313 to 0.650512695312.  At theta = pi/8 and 3 pi/8 (the grid's
doubles) the 50-digit successes are 0.65051269531249998901 and
0.65051269531250003296.  The nearest double to both is 0.6505126953125, a
12-digit tie that ``.12g`` rounds to even, "...312".  The gate pass gave
one ulp above it at 3 pi/8, which printed "...313"; the closed form gives
that nearest double itself.  At pi/8 it gives one ulp below (the gate
pass gave three below), which prints "...312" as before.

The Grover random twin was rewritten when a random-angle Grover point began
to be assembled from per-qubit factors and a rank-2k correction
(DECISIONS.md, "Random-angle Grover points from per-qubit factors").  That
moved 14 of its 55 values, each by at most 1.8e-15 (1.1e-15 relative), in
the rows eps = pi/4 to pi; against 80-bit long-double values, 7 are now
closer and 7 farther.  The CSV file is unchanged.
"""

import io
import json
from pathlib import Path

import pytest

from qimeter.cli import main
from qimeter.harness import read_results, write_results

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "grover-systematic": "grover-systematic --n 3 --alpha all --grid 0:1.5707963267948966:9",
    "grover-random": (
        "grover-random --n 3 --alpha all --realizations 8 "
        "--grid 0:3.141592653589793:5 --seed 7"
    ),
    "grover-decoherence": "grover-decoherence --n 4 --alpha 2 --error-kind phaseflip",
    "shor-systematic": "shor-systematic --L 2 --R 3 --a 2 --grid 0:1.5707963267948966:5",
    "shor-random": (
        "shor-random --L 2 --R 3 --a 2 --realizations 8 "
        "--grid 0:3.141592653589793:5 --seed 7"
    ),
    "shor-decoherence": "shor-decoherence --L 2 --R 3 --a 2 --error-kind bitflip",
    "shor-decoherence-phaseflip": "shor-decoherence --L 2 --R 3 --a 2 --error-kind phaseflip",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert main(CASES[name].split() + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_json_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.json"
    assert main(CASES[name].split() + ["--format", "json", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(CASES) + ["cue-baseline"])
def test_json_records_carry_the_csv_columns(name, tmp_path):
    # one results format: a list of records keyed by the CSV header, in order
    argv = CASES.get(name, "cue-baseline --n 2 --realizations 10 --seed 3").split()
    csv_out, json_out = tmp_path / "rows.csv", tmp_path / "rows.json"
    assert main(argv + ["--out", str(csv_out)]) == 0
    assert main(argv + ["--format", "json", "--out", str(json_out)]) == 0
    header = csv_out.read_text().splitlines()[0].split(",")
    records = json.loads(json_out.read_text())
    assert isinstance(records, list) and records
    assert all(list(record) == header for record in records)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_files_read_back_to_their_bytes(name, fmt):
    # read_results gives every value its column's type, so writing the rows
    # back reproduces the file: an int read as a float would print as 4.0
    path = GOLDEN / f"{name}.{fmt}"
    buffer = io.StringIO()
    write_results(read_results(path, fmt), buffer, fmt)
    assert buffer.getvalue() == path.read_text()
