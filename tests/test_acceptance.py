"""Release-gating acceptance suite.

Runs every numbered criterion at its stated tolerance and prints one
pass/fail line per criterion (visible with ``pytest -s`` or on failure).
Criteria 3 and 4 contain sub-checks whose stated bands are not attainable
by the exactly-computed quantities; they are asserted as specified and
fail honestly.  The analysis lives in DECISIONS.md at the repository root.
"""

import pytest

from qimeter import acceptance


@pytest.mark.parametrize("index", sorted(acceptance.CRITERIA))
def test_criterion(index):
    result = acceptance.run_criterion(index, parallel=2)
    print(result.line())
    assert result.passed, result.line()
