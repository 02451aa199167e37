"""The benchmark's traced run still finds every layer where it wraps it.

`bench/run.py --trace 1` replaces module attributes (for example
`analysis.dephasing_factors`) with counting wrappers and fails when a
workload's expected placement records no call.  A refactor that re-routes
such a call then fails here, not only in a later benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_benchmark_reaches_every_expected_placement():
    argv = [sys.executable, "bench/run.py", "--workload", "all", "--seed", "1",
            "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
