#!/usr/bin/env python3
"""Benchmark of the conwaymoonshine verifier: the time to an exact verdict.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is identities, invariance or structures (see workloads.py for what each
runs and why), or `all`, which runs the three in turn and, with --trace 1,
each both untraced and traced, reporting the tracing overhead.  Run it from
the root of a checkout; the package is imported from its `src/`.

Every pass runs in a fresh interpreter (passrun.py), so each starts from
the state a fresh `conway-moonshine` process has after import.  A run first
times SETUP_SAMPLES set-ups, then runs passes one after another until S
seconds have gone and at least two passes are made (one, if a pass takes
longer than 2 S seconds), one process at a time so that the passes do not
compete with each other for the machine's cores.  It checks
every verdict, prints each metric with its unit, writes the result with its
provenance to `.perfbench/` and prints, as its last line, one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
untraced, the per-layer metrics traced.  It exits 1 if any check failed and
2 if there is no package to measure.

End-to-end metrics (untraced), the times at reference speed:
  wall_ref_s    seconds for one pass of the workload's checks: the sum over
                the checks of each check's median time across the passes
  setup_s       median seconds to import the package and load the registry
  peak_rss_mib  largest peak resident memory of a pass process
Reference speed: other tenants of a shared host change the speed at which
it runs Python by half again, for seconds to minutes at a time, so measured
times of the same code spread too far to compare two versions.  Each pass
therefore times a fixed pure-Python loop (passrun.reference_loop) before,
after and during every check, and each check's measured seconds t are
rescaled to t * REF_S / r, where r is that loop's mean time around it: the
seconds the check would take on a machine that runs the loop in REF_S.
Set-up is rescaled the same way by passrun.setup_ref_seconds and
SETUP_REF_S.  The constants are about what an idle 2-core Xeon host took,
so the rescaled times are close to wall-clock times on it; the measured
ones are printed and stored as `wall_s` and `setup_measured_s`.
Per-check latency, `check_p50_s` and `check_p90_s` over every check of the
run, and `fail_frac` are printed and stored with their sample counts but are
not in the JSON line.  The p90 is given only with at least ten samples beyond
it.  The p50 falls among a few checks of very different lengths on
invariance and structures, so it jumps between runs by more than any bound
could allow.  The failures are the line's `failed` out of `attempted`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

WORKLOADS = ("identities", "invariance", "structures")
SETUP_SAMPLES = 6
REF_S = 0.001  # seconds of passrun.reference_loop at reference speed
SETUP_REF_S = 0.006  # seconds of passrun.setup_ref_seconds at reference speed
DEADLINE_S = 170.0  # a run must end within 180 s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"


def _child(args, timeout):
    """Run passrun.py with `args`; its JSON, or None if it failed or ran
    past `timeout`."""
    # The package does no BLAS work, but importing numpy starts OpenBLAS's
    # thread pool, one thread per core: how long that takes on a shared
    # host swings the set-up time by a third, so the pool gets one thread.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "passrun.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(0.0, timeout))
    except subprocess.TimeoutExpired:
        print("pass %s ran past %.0f s" % (args, timeout), file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        print("pass %s exited with code %d" % (args, proc.returncode), file=sys.stderr)
        return None
    return json.loads(out.splitlines()[-1])


def _p90(samples):
    """Nearest-rank p90, or None unless at least ten samples lie beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(0.9 * len(ordered))
    if len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def run_workload(workload, seed, seconds, trace, min_passes=1):
    """Set-up samples plus cold passes, one after another; the summary dict."""
    start = time.perf_counter()
    setups = [_child(["--setup-only"], DEADLINE_S - (time.perf_counter() - start))
              for _ in range(SETUP_SAMPLES)]
    passes = []
    crashed = setups.count(None)
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if passes and elapsed + longest > DEADLINE_S:
            break
        # Two passes at least, so that each check's time is a median of two
        # and the number of passes does not change with the machine's speed,
        # unless a pass takes longer than two run lengths.
        least = max(min_passes, 2 if longest < 2 * seconds else 1)
        if len(passes) >= least and elapsed >= seconds:
            break
        args = ["--workload", workload, "--seed", str(seed)]
        if trace:
            OUT.mkdir(exist_ok=True)
            spans = "%s-seed%d-pass%d.spans.jsonl" % (workload, seed, len(passes) + 1)
            args += ["--trace", str(OUT / spans)]
        t0 = time.perf_counter()
        result = _child(args, DEADLINE_S - elapsed)
        longest = max(longest, time.perf_counter() - t0)
        if result is None:
            crashed += 1
            break
        passes.append(result)

    checks = [c for p in passes for c in p["checks"]]
    failed_checks = sorted({name for name, _, ok, _ in checks if not ok})
    attempted = len(checks) + crashed
    failed = sum(not ok for _, _, ok, _ in checks) + crashed
    summary = {"workload": workload, "seed": seed, "trace": trace, "passes": len(passes),
               "setup_samples": len(setups) - setups.count(None),
               "check_samples": len(checks), "pass_wall_s": [p["wall_s"] for p in passes]}
    setups = [s for s in setups if s]
    if passes and setups:
        durations = [secs for _, secs, _, _ in checks]
        summary["metrics"] = {
            "wall_ref_s": [_wall(passes, True), "s"],
            "setup_s": [statistics.median(s["setup_s"] * SETUP_REF_S / s["setup_ref_s"] for s in setups), "s"],
            "peak_rss_mib": [max(p["peak_rss_mib"] for p in passes), "MiB"],
        }
        summary["wall_s"] = _wall(passes, False)
        summary["setup_measured_s"] = statistics.median(s["setup_s"] for s in setups)
        summary["check_p50_s"] = statistics.median(durations)
        summary["check_p90_s"] = _p90(durations)
    if trace and "metrics" in summary:
        summary["layers"], repeat = _layers([p["layers"] for p in passes])
        if not repeat:
            print("per-layer counts differ between passes", file=sys.stderr)
            attempted += 1
            failed += 1
            failed_checks.append("layer-counts-repeat")
    summary.update(attempted=attempted, failed=failed, failed_checks=failed_checks,
                   fail_frac=failed / attempted if attempted else 1.0)
    return summary


def _wall(passes, rescale):
    """One pass's seconds, check by check: the sum of each check's median
    time over the passes, each time rescaled to reference speed if
    `rescale`.  A burst of load from elsewhere on the machine slows the
    checks it overlaps in one pass, not the same checks in the others, so
    it moves a median far less than a whole pass's time."""
    times = {}
    for p in passes:
        for name, secs, _, ref in p["checks"]:
            times.setdefault(name, []).append(secs * REF_S / ref if rescale else secs)
    return sum(statistics.median(v) for v in times.values())


def _layers(per_pass):
    """Per-layer metrics over passes: counts from the first pass, times as
    medians; and whether every pass recorded the same counts."""
    out = {}
    repeat = True
    for name, (value, unit) in per_pass[0].items():
        values = [p[name][0] for p in per_pass]
        if unit in ("s", "1/s"):
            value = statistics.median(values)
        else:
            repeat = repeat and all(v == value for v in values)
        out[name] = [value, unit]
    return out, repeat


def provenance():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True,
            )
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def _print_summary(s):
    print("%s  seed %d  trace %d  passes %d  setup samples %d  checks %d  failed %d  fail_frac %g"
          % (s["workload"], s["seed"], s["trace"], s["passes"], s["setup_samples"],
             s["check_samples"], s["failed"], s["fail_frac"]))
    for name in s["failed_checks"]:
        print("  FAILED %s" % name)
    rows = list(s.get("metrics", {}).items())
    if "metrics" in s:
        rows.append(("wall_s, measured", [s["wall_s"], "s"]))
        rows.append(("setup_s, measured", [s["setup_measured_s"], "s"]))
        p90 = s["check_p90_s"]
        rows.append(("check_p50_s", [s["check_p50_s"], "s"]))
        rows.append(("check_p90_s", [p90, "s"] if p90 is not None
                     else ["not given, under ten of %d samples beyond it" % s["check_samples"], ""]))
    if "trace_overhead_s" in s:
        rows.append(("trace_overhead_s", [s["trace_overhead_s"], "s"]))
    rows += list(s.get("layers", {}).items())
    for name, (value, unit) in rows:
        print("  %-36s %s %s" % (name, value, unit))


def _save(summary, prov, seconds):
    OUT.mkdir(exist_ok=True)
    path = OUT / ("%s-seed%d-trace%d.json" % (summary["workload"], summary["seed"], summary["trace"]))
    path.write_text(json.dumps(dict(summary, seconds=seconds, provenance=prov), indent=1) + "\n")


def _json_metrics(metrics, prefix=""):
    return {prefix + name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the conwaymoonshine verifier.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through the `finally` that stops a running pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "conwaymoonshine" / "__init__.py").is_file():
        print("no src/conwaymoonshine under %s: run from a checkout of the repository" % ROOT,
              file=sys.stderr)
        return 2

    prov = provenance()
    print("provenance: " + json.dumps(prov, sort_keys=True))
    if args.workload == "all":
        runs = []
        metrics = {}
        for workload in WORKLOADS:
            plain = run_workload(workload, args.seed, args.seconds, 0)
            runs.append(plain)
            metrics.update(_json_metrics(plain.get("metrics", {}), workload + "."))
            if args.trace:
                traced = run_workload(workload, args.seed, args.seconds, 1)
                runs.append(traced)
                metrics.update(_json_metrics(traced.get("layers", {}), workload + "."))
                if "metrics" in plain and "metrics" in traced:
                    overhead = traced["metrics"]["wall_ref_s"][0] - plain["metrics"]["wall_ref_s"][0]
                    traced["trace_overhead_s"] = overhead
                    metrics[workload + ".trace_overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        runs = [run_workload(args.workload, args.seed, args.seconds, args.trace)]
        key = "layers" if args.trace else "metrics"
        metrics = _json_metrics(runs[0].get(key, {}))
    for summary in runs:
        _print_summary(summary)
        _save(summary, prov, args.seconds)
    attempted = sum(s["attempted"] for s in runs)
    failed = sum(s["failed"] for s in runs)
    ok = failed == 0 and all("metrics" in s for s in runs)
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
