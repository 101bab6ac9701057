"""The benchmark harness's own self-test, run from the repository root.

A change that breaks a name ``perfbench/`` binds then fails here, not only
when the benchmark runs.  The self-test lives in ``perfbench/selftest.py``
and is not collected by pytest directly.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
