"""One pass of the benchmark's structures and identities workloads runs,
and every check in it passes.

perfbench/passrun.py calls the package's public functions by name and
signature (`golay_lift_section(code, frame)`, `n1_checks(lift, seed=...)`
and the lattice builders among them).  A change that breaks one of those
calls would otherwise show up only when the benchmark runs.  The identities
pass ends in its `digest` check: the sha256 of every exact record the pass
made (lemma reports, series texts, super traces) against the pinned
perfbench/identities.sha256, so these outputs stay byte-identical."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _pass_checks(workload):
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "passrun.py"), "--workload", workload, "--seed", "1"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300, check=True)
    checks = json.loads(run.stdout.splitlines()[-1])["checks"]
    assert checks, run.stderr
    return checks, run.stderr


def test_structures_pass_checks_ok():
    checks, stderr = _pass_checks("structures")
    assert [name for name, _, ok, _ in checks if not ok] == [], stderr


def test_identities_pass_checks_ok():
    checks, stderr = _pass_checks("identities")
    assert [name for name, _, ok, _ in checks if not ok] == [], stderr
    assert checks[-1][0] == "digest", stderr
