"""Smoke test of the benchmark harness: its self-check must pass, and its
tracer must read the arguments it counts from where they are."""

import ast
import inspect
import subprocess
import sys
from pathlib import Path

from cylscale import quantities

ROOT = Path(__file__).resolve().parents[1]


def test_bench_check_ok():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--check"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "ok"


def test_tracer_positions_match_the_grid_primitives():
    """perfbench/tracer.py reads each grid primitive's radius and mu by position
    (``_GRID_PRIMITIVES``); a signature that moves them would miscount cells."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["_GRID_PRIMITIVES"])
    for name, (radius_pos, mu_pos) in ast.literal_eval(table).items():
        params = inspect.signature(getattr(quantities, name)).parameters.values()
        positional = [p.name for p in params
                      if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        assert positional[radius_pos] in ("r", "R"), (name, positional)
        assert len(positional) <= mu_pos, (name, positional)
