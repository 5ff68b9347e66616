"""The pipeline benchmark's self-test, run as part of the test suite.

``pipebench/selftest.py`` feeds the program's output on small seeded
instances to every benchmark check, with and without a planted fault.
Running it here makes a change to an output form the checks read (for
example the exponent-vector keys of ``Polynomial.terms``) fail the tests,
not only a benchmark run.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "pipebench" / "selftest.py"


def test_pipebench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
