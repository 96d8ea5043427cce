"""The benchmark harness still runs against the library.

``perfbench/run.py --selftest`` sends real requests of every workload
through the library calls the benchmark makes, checks each answer by an
independent route, and then confirms that corrupted answers are rejected.
A library change that would make a benchmark run fail fails here first.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--selftest"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all corruptions rejected" in proc.stdout
