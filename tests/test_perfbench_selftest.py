"""The benchmark's own self-test, run as part of the suite.

perfbench wraps package functions by name (see perfbench/tracer.py), so a
refactor that renames or drops one passes every package test and breaks only
the benchmark. Running the self-test here catches that.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
