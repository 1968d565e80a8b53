"""The benchmark's own smoke test, run as part of the test suite: the
benchmark walks word DAGs and calls the word API, so a change to the
word layer that breaks the benchmark fails here."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench", "-p", "test_*.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
