"""One pass of each of the benchmark's three workloads runs, and every check
in it passes.

perfbench/passrun.py calls the package's public functions by name and
signature (`golay_lift_section(code, frame)`, `n1_checks(lift, seed=...)`,
the lattice builders, `TestMatrix(...)`, `invariance_check` on a
`FracPowerSeries` and `class_invariance_check(..., seed=...)` among them).
A change that breaks one of those calls would otherwise show up only when
the benchmark runs.  The invariance pass ends in its Fricke negative
control, which passes only when the check reports a large deviation.  The
identities pass ends in its `digest` check: the sha256 of every exact
record the pass made (lemma reports, series texts, super traces) against
the pinned perfbench/identities.sha256, so these outputs stay
byte-identical.  On a 2-core host a structures or identities pass takes
about a second, an invariance pass under half a second."""

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


def test_invariance_pass_checks_ok():
    checks, stderr = _pass_checks("invariance")
    assert [name for name, _, ok, _ in checks if not ok] == [], stderr
    assert checks[-1][0] == "control:2A-vs-3-fricke", stderr


def test_identities_pass_checks_ok():
    checks, stderr = _pass_checks("identities")
    assert [name for name, _, ok, _ in checks if not ok] == [], stderr
    assert checks[-1][0] == "digest", stderr
