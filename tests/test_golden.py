"""Byte-identity of frozen CLI sweeps.

The files under ``tests/golden/`` were written by the CLI at commit
4fa2e3d (before the gate model was reduced to three kinds).  Every sweep
below is cheap and none of its values sits at rounding-noise level, so any
change to the numbers the pipeline produces shows up as a byte difference.
"""

from pathlib import Path

import pytest

from qimeter.cli import main

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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert main(CASES[name].split() + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
