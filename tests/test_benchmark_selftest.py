"""The benchmark's self-test passes on this checkout.

perfbench/run.py --self-test runs every workload at a tiny size and
checks every metric and output check, so a solver change that breaks a
benchmark check fails the test suite too.  It takes a few seconds.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_self_test_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-test"], cwd=ROOT,
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
