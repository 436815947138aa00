"""Smoke test of the benchmark harness: its self-check must pass."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_check_ok():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--check"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "ok"
