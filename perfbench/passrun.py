"""One cold pass of a benchmark workload, in the fresh interpreter it runs in.

    PYTHONPATH=src python3 perfbench/passrun.py --workload NAME --seed N [--trace FILE]
    PYTHONPATH=src python3 perfbench/passrun.py --setup-only

A fresh interpreter per pass means that no pass reuses an earlier pass's
caches (the `lru_cache`d Golay code, Leech lattice, code words and derived
partners among them).  Prints one JSON line.  With --setup-only it holds
`setup_s` (import plus `classdata.registry()`) and `setup_ref_s`; otherwise
`wall_s`, `peak_rss_mib`, `checks` as [name, seconds, ok, ref seconds] rows
and, with --trace, the per-layer `layers` metrics; the spans are written to
FILE as JSON lines.

The ref seconds of a check are the mean time of reference_loop, run just
before it, just after it and, in an untraced pass, every PROBE_EVERY_S
seconds inside it: how fast this machine ran Python while the check ran.
run.py uses them to rescale the measured times to a fixed speed, because
other load on a shared host changes that speed by half again within
seconds.  The time the loop takes inside a check is not counted in the
check's seconds.  A traced pass samples only between checks, so that the
per-layer times do not include the loop.  Set-up is mostly loading numpy,
which maps and fills fresh memory as much as it runs Python, so its
reference, setup_ref_seconds, runs reference_loop and memory_loop, just
before and just after it.
"""

from __future__ import annotations

import argparse
import json
import mmap
import resource
import signal
import statistics
import sys
import time
import traceback

PROBE_EVERY_S = 0.05


def reference_loop():
    """A fixed piece of pure-Python work, integer arithmetic and dict
    updates as in the package's series code."""
    counts = {}
    x = 1
    for i in range(3000):
        x = (x * 1103515245 + 12345) % 2147483648
        counts[x & 1023] = counts.get(x & 1023, 0) + i
    return counts


def memory_loop():
    """Maps 8 MiB of fresh memory and writes to every page of it, as loading
    numpy's libraries maps and fills fresh pages."""
    with mmap.mmap(-1, 8 << 20) as fresh:
        for offset in range(0, len(fresh), mmap.PAGESIZE):
            fresh[offset] = 1


def setup_ref_seconds():
    t0 = time.perf_counter()
    reference_loop()
    memory_loop()
    return time.perf_counter() - t0


def time_setup():
    """Seconds to import the package and load the registry, and the mean
    time of setup_ref_seconds just before and just after."""
    before = setup_ref_seconds()
    t0 = time.perf_counter()
    import conwaymoonshine.cli  # noqa: F401  loads every module, as the command does
    from conwaymoonshine import classdata

    classdata.registry()
    secs = time.perf_counter() - t0
    return {"setup_s": secs, "setup_ref_s": (before + setup_ref_seconds()) / 2}


class SpeedProbe:
    """Samples of reference_loop's time, as (start, seconds)."""

    def __init__(self, every=None):
        self.samples = []
        if every:
            signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
            signal.setitimer(signal.ITIMER_REAL, every, every)
        self.sample()

    def sample(self):
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append((t0, time.perf_counter() - t0))

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def time(self, fn, *args):
        """fn(*args); its seconds less the samples taken inside it; and the
        mean sample time from the sample before it to the one after it."""
        first = len(self.samples) - 1
        t0 = time.perf_counter()
        result = fn(*args)
        secs = time.perf_counter() - t0
        secs -= sum(s for start, s in self.samples[first + 1:] if start >= t0)
        self.sample()
        return result, secs, statistics.mean(s for _, s in self.samples[first:])


def _checked(check, ctx, tracer, name):
    try:
        if tracer is None:
            return check(ctx)
        tracer.check = name
        return tracer.call("bench.check", True, check, (ctx,))
    except Exception:
        traceback.print_exc()
        return False, None


def run_pass(workload, seed, tracer, probe):
    import workloads

    checks = workloads.WORKLOADS[workload](seed)
    ctx = {"records": {}}
    rows = []
    for name, check in checks:
        (ok, record), secs, ref = probe.time(_checked, check, ctx, tracer, name)
        rows.append([name, secs, bool(ok), ref])
        if not ok:
            print("check %s failed: %s" % (name, json.dumps(record)), file=sys.stderr)
        if record is not None:
            ctx["records"][name] = record
    return {
        "wall_s": sum(row[1] for row in rows),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", help="write spans here and report per-layer metrics")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    reference_loop()  # the first run is slower: the interpreter specializes its code
    if args.setup_only:
        memory_loop()
        out = time_setup()
    else:
        import conwaymoonshine.cli  # noqa: F401

        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        from conwaymoonshine import classdata

        classdata.registry()
        probe = SpeedProbe(None if args.trace else PROBE_EVERY_S)
        out = run_pass(args.workload, args.seed, tracer, probe)
        probe.stop()
        if tracer is not None:
            out["layers"] = tracer.metrics()
            tracer.write_spans(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
