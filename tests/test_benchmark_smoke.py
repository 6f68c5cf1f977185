"""One pass of the benchmark's structures workload runs, and every check in it passes.

perfbench/passrun.py calls the package's public functions by name and
signature (`golay_lift_section(code, frame)`, `n1_checks(lift, seed=...)`
and the lattice builders among them).  A change that breaks one of those
calls would otherwise show up only when the benchmark runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_structures_pass_checks_ok():
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "passrun.py"), "--workload", "structures", "--seed", "1"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300, check=True)
    checks = json.loads(run.stdout.splitlines()[-1])["checks"]
    assert checks, run.stderr
    assert [name for name, _, ok, _ in checks if not ok] == [], run.stderr
