"""Per-layer tracing of the conwaymoonshine modules, installed from outside.

`Tracer.install()` replaces the public functions and methods listed in
`WRAPPED` by timing wrappers: methods on their class, functions in every
loaded conwaymoonshine module that holds them (so `from .x import f` is
covered).  The package source is not edited, and nothing is installed in an
untraced pass.

For each wrapped key the tracer keeps calls, busy time (inclusive, counted
once for recursive activations), self time (busy time minus the time of
wrapped calls made inside it) and the number of calls that raised.  Calls
of keys marked with `span` also leave a span (layer, function, start, end,
parent span, check) in memory; `write_spans` writes them as JSON lines.
Hot leaf keys (hundreds of thousands of calls) are aggregated only.
"""

from __future__ import annotations

import functools
import json
import sys
import time

_clock = time.perf_counter


def _max_terms(tracer, args, result):
    tracer.bump_max("qseries.max_terms", len(result.terms))


def _coeff_bits(c):
    if isinstance(c, int):
        return abs(c).bit_length()
    if hasattr(c, "coords"):  # CycNumber
        return max((_coeff_bits(x) for x in c.coords), default=0)
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length())


def _eta_quotient_bits(tracer, args, result):
    bits = max((_coeff_bits(c) for c in result.terms.values()), default=0)
    tracer.bump_max("frameshape.max_coeff_bits", bits)


def _series_build(tracer, args, result):
    """Count a T_s_tw build made inside class_invariance_check, and add its
    order to orders_built."""
    if tracer.active("modgroups.class_invariance_check"):
        tracer.extra["modgroups.series_builds"] += 1
        tracer.extra["modgroups.orders_built"] += int(result.order)


def _shell_key(lattice, norm):
    return "lattice.shell%d" % norm


def _shell_vectors(tracer, args, result):
    tracer.extra["lattice.shell%d.vectors" % args[1]] = result


# (module, attribute, key, keep spans, after-call hook)
WRAPPED = (
    ("qseries", "FracPowerSeries.__mul__", "qseries.mul", False, _max_terms),
    ("qseries", "FracPowerSeries.__rmul__", "qseries.mul", False, _max_terms),
    ("qseries", "FracPowerSeries.invert", "qseries.invert", False, _max_terms),
    ("qseries", "FracPowerSeries.scale_tau", "qseries.scale_tau", False, _max_terms),
    ("qseries", "eta", "qseries.eta", False, _max_terms),
    ("frameshape", "FrameShape.eta_quotient", "frameshape.eta_quotient", True, _eta_quotient_bits),
    ("cyclotomic", "CycNumber.__add__", "cyclotomic.ops", False, None),
    ("cyclotomic", "CycNumber.__radd__", "cyclotomic.ops", False, None),
    ("cyclotomic", "CycNumber.__neg__", "cyclotomic.ops", False, None),
    ("cyclotomic", "CycNumber.__sub__", "cyclotomic.ops", False, None),
    ("cyclotomic", "CycNumber.__rsub__", "cyclotomic.ops", False, None),
    ("cyclotomic", "CycNumber.__mul__", "cyclotomic.ops", False, None),
    ("cyclotomic", "CycNumber.__rmul__", "cyclotomic.ops", False, None),
    ("cyclotomic", "CycNumber.__truediv__", "cyclotomic.ops", False, None),
    ("cyclotomic", "CycNumber.inverse", "cyclotomic.ops", False, None),
    ("cyclotomic", "CycNumber.conj", "cyclotomic.ops", False, None),
    ("moonshine", "solve_c_neg", "moonshine.solve_c_neg", True, None),
    ("moonshine", "t_tilde", "moonshine.t_tilde", True, None),
    ("moonshine", "T_s_tw", "moonshine.T_s_tw", True, _series_build),
    ("modgroups", "eval_series", "modgroups.eval_series", False, None),
    ("modgroups", "kernel_matrices", "modgroups.kernel_matrices", True, None),
    ("modgroups", "invariance_check", "modgroups.invariance_check", True, None),
    ("modgroups", "class_invariance_check", "modgroups.class_invariance_check", True, None),
    ("fockoracle", "untwisted_supertrace", "fockoracle.untwisted", True, None),
    ("fockoracle", "twisted_supertrace", "fockoracle.twisted", True, None),
    ("fockoracle", "subset_enumeration_supertrace", "fockoracle.subset", True, None),
    ("cliffordcm", "spinor_supertrace_closed", "cliffordcm.supertrace_closed", True, None),
    ("cliffordcm", "spinor_supertrace_oracle", "cliffordcm.supertrace_oracle", True, None),
    ("cliffordcm", "golay_lift_section", "cliffordcm.lift", True, None),
    ("cliffordcm", "GolayLift.tables", "cliffordcm.tables", True, None),
    ("cliffordcm", "GolayLift.verify_squares", "cliffordcm.verify_squares", True, None),
    ("cliffordcm", "GolayLift.apply_t_dense", "cliffordcm.apply_t_dense", True, None),
    ("cliffordcm", "WordTable.apply_into", "cliffordcm.apply_into", False, None),
    ("cliffordcm", "n1_checks", "cliffordcm.n1_checks", True, None),
    ("lattice", "build_leech", "lattice.build_leech", True, None),
    ("lattice", "IntegerLattice.__init__", "lattice.init", True, None),
    ("lattice", "IntegerLattice.verify", "lattice.verify", True, None),
    ("lattice", "IntegerLattice.shell_count", _shell_key, True, _shell_vectors),
    ("lattice", "coordinate_frame", "lattice.coordinate_frame", True, None),
    ("classdata", "registry", "classdata.registry", True, None),
)


class Tracer:
    """Wrapper-based call statistics and spans for one benchmark pass."""

    def __init__(self):
        self.origin = _clock()
        self.stats = {}  # key -> [calls, busy_s, self_s, raised]
        self.extra = {
            "modgroups.series_builds": 0,
            "modgroups.orders_built": 0,
            "qseries.max_terms": 0,
            "frameshape.max_coeff_bits": 0,
        }
        self.spans = []
        self.check = None  # name of the check being run; spans carry it
        self._depth = {}
        self._frames = []  # [start, wrapped child time] per active call
        self._open = []  # ids of the active spans

    # -- installation ----------------------------------------------------

    def install(self):
        packages = [
            m for name, m in list(sys.modules.items())
            if name == "conwaymoonshine" or name.startswith("conwaymoonshine.")
        ]
        for module_name, attr, key, span, after in WRAPPED:
            module = sys.modules["conwaymoonshine." + module_name]
            owner_name, _, name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, name, self._wrap(vars(owner)[name], key, span, after))
                continue
            original = getattr(module, name)
            wrapper = self._wrap(original, key, span, after)
            for mod in packages:
                for ref, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, ref, wrapper)

    def _wrap(self, fn, key, span, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = key(*args, **kwargs) if callable(key) else key
            result = tracer.call(k, span, fn, args, kwargs)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    # -- recording -------------------------------------------------------

    def call(self, key, span, fn, args=(), kwargs=None):
        """Run fn(*args, **kwargs) as one traced call of `key`."""
        depth = self._depth
        depth[key] = depth.get(key, 0) + 1
        if span:
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else None
            self._open.append(span_id)
        frame = [_clock(), 0.0]
        self._frames.append(frame)
        raised = True
        try:
            result = fn(*args, **(kwargs or {}))
            raised = False
        finally:
            end = _clock()
            self._frames.pop()
            duration = end - frame[0]
            stat = self.stats.get(key)
            if stat is None:
                stat = self.stats[key] = [0, 0.0, 0.0, 0]
            stat[0] += 1
            stat[2] += duration - frame[1]
            stat[3] += raised
            depth[key] -= 1
            if not depth[key]:
                stat[1] += duration
            if self._frames:
                self._frames[-1][1] += duration
            if span:
                self._open.pop()
                layer, _, function = key.partition(".")
                self.spans[span_id] = (
                    span_id, parent, layer, function,
                    frame[0] - self.origin, end - self.origin, self.check,
                )
        return result

    def active(self, key) -> bool:
        return self._depth.get(key, 0) > 0

    def bump_max(self, name, value):
        if value > self.extra[name]:
            self.extra[name] = value

    def write_spans(self, path):
        fields = ("id", "parent", "layer", "function", "start", "end", "check")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(fields, span))) + "\n")

    # -- per-layer metrics -----------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric as name -> [value, unit]; layers a
        workload never reaches read 0."""

        def stat(key):
            return self.stats.get(key, (0, 0.0, 0.0, 0))

        out = {}
        for key in (
            "qseries.mul", "qseries.invert", "qseries.eta",
            "frameshape.eta_quotient", "moonshine.T_s_tw",
            "modgroups.eval_series", "cliffordcm.apply_t_dense",
            "cliffordcm.apply_into",
        ):
            out[key + ".calls"] = [stat(key)[0], "count"]
        for key in (
            "frameshape.eta_quotient", "moonshine.solve_c_neg",
            "moonshine.t_tilde", "moonshine.T_s_tw",
            "modgroups.kernel_matrices", "modgroups.invariance_check",
            "fockoracle.untwisted", "fockoracle.twisted", "fockoracle.subset",
            "cliffordcm.lift", "cliffordcm.tables", "cliffordcm.verify_squares",
            "cliffordcm.n1_checks", "lattice.build_leech", "lattice.init",
            "lattice.verify", "lattice.coordinate_frame", "lattice.shell4",
            "classdata.registry",
        ):
            out[key + ".busy_s"] = [stat(key)[1], "s"]
        for key in (
            "qseries.mul", "qseries.invert", "qseries.eta", "qseries.scale_tau",
            "frameshape.eta_quotient", "modgroups.eval_series",
            "cliffordcm.supertrace_closed", "cliffordcm.supertrace_oracle",
            "cliffordcm.apply_t_dense", "cliffordcm.apply_into",
            "lattice.build_leech",
        ):
            out[key + ".self_s"] = [stat(key)[2], "s"]
        out["qseries.max_terms"] = [self.extra["qseries.max_terms"], "count"]
        out["frameshape.max_coeff_bits"] = [self.extra["frameshape.max_coeff_bits"], "bits"]
        out["cyclotomic.ops"] = [stat("cyclotomic.ops")[0], "count"]
        out["cyclotomic.self_s"] = [stat("cyclotomic.ops")[2], "s"]
        builds = self.extra["modgroups.series_builds"]
        classes = stat("modgroups.class_invariance_check")[0]
        out["modgroups.series_builds"] = [builds, "count"]
        out["modgroups.build_useful_ratio"] = [classes / builds if builds else 0.0, "ratio"]
        out["modgroups.orders_built"] = [self.extra["modgroups.orders_built"], "count"]
        calls, _, _, raised = stat("modgroups.eval_series")
        out["modgroups.eval_series.fail_ratio"] = [raised / calls if calls else 0.0, "ratio"]
        shell_busy = stat("lattice.shell4")[1]
        vectors = self.extra.get("lattice.shell4.vectors", 0)
        out["lattice.shell4.vectors_per_s"] = [vectors / shell_busy if shell_busy else 0.0, "1/s"]
        return out
