"""Smoke test of the benchmark harness: every workload once at a tiny size
with all correctness gates and no timing assertions.

    python3 -m pytest perfbench
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_all_workloads_pass_their_gates():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count(" 0 failed") == 3, proc.stdout
