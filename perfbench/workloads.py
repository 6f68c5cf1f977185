"""The benchmark's three workloads, as lists of named checks.

A check is a callable taking a shared context dict and returning
(ok, record).  `record` is None or a JSON-able value that pins the exact
output; the identities records are hashed into one digest that must match
`identities.sha256`.  Checks call the package through module attributes, so
the wrappers a tracer installs are seen.

Why these workloads:
  identities  many short exact series over 90 distinct Frame shapes, heavy on
              invert and powers: the lemma, normalization, spinor super
              traces, the delta / Hecke / half-shift identities and the Fock
              oracle playlist.  The seed permutes the class order.
  invariance  the same series layers used the opposite way: few shapes, orders
              128 to 8192, adaptive doubling that rebuilds each series, and
              float evaluation in modgroups.  The 13 classes reach every final
              adaptive order, the worst case (30A) included.  The checks use
              the command's default sampling seed, INVARIANCE_SEED: final
              orders depend on that seed (13A costs four times more under
              some seeds than under others), so runs with different workload
              seeds would not measure the same work.  The workload seed
              permutes the class order.
  structures  the Golay code, the Leech lattice (LLL, frame, shell 4) and the
              dense spinor engine (lift, n1 checks); no series work.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from conwaymoonshine import classdata, cliffordcm, fockoracle, lattice, modgroups, moonshine
from conwaymoonshine.frameshape import parse as parse_shape

DIGEST_FILE = Path(__file__).with_name("identities.sha256")

INVARIANCE_SEED = 2024
INVARIANCE_CLASSES = (
    "2A", "3A", "7A", "13A", "4A", "8B", "30A", "20C", "42C", "84A", "56AB", "60B", "24B",
)
FOCK_PLAYLIST = (None, "2A", "3A", "4A", "6C")  # None is the identity element
SPINOR_SPOTS = {"2A": 4096, "3A": 729, "4A": 64, "6C": -8}
GOLAY_WEIGHTS = {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}


def _report_check(report):
    return report.passed and report.max_residual == 0, report.to_json()


# -- identities --------------------------------------------------------------


def _lemma(rec):
    def check(ctx):
        _, report = moonshine.solve_c_neg(rec, 25)
        return _report_check(report)

    return check


def _normalization(rec):
    def check(ctx):
        """Constant term of T^s is exactly 0 for the shape and its negation."""
        texts = []
        for pi in (rec.frame_shape, rec.frame_shape.negate()):
            series = moonshine.T_s(pi, 6)
            if series.coeff(0) != 0:
                return False, None
            texts.append(series.to_text())
        return True, texts

    return check


def _supertrace(rec):
    def check(ctx):
        closed, oracle = cliffordcm.class_supertraces(rec.frame_shape)
        value = closed.to_rational()
        ok = closed == oracle and abs(value) == abs(rec.c_hat_g)
        ok = ok and SPINOR_SPOTS.get(rec.co0_name, rec.c_hat_g) == rec.c_hat_g
        return ok, str(value)

    return check


def _hecke(ctx):
    fit, report = moonshine.verify_hecke(40)
    ok, record = _report_check(report)
    return ok and fit == (2048, 24, 0), record


def _fock(name):
    def check(ctx):
        if name is None:
            pi, c_val = parse_shape("1^24"), 0
        else:
            rec = classdata.lookup(name)
            pi, c_val = rec.frame_shape, rec.c_hat_g
        ms_u = fockoracle.ModeSystem.from_shape(pi, fockoracle.UNTWISTED, 6)
        ms_t = fockoracle.ModeSystem.from_shape(pi, fockoracle.TWISTED, 6)
        ms3 = fockoracle.ModeSystem.from_shape(pi, fockoracle.UNTWISTED, 3)
        formula_u = moonshine.t_tilde(pi, 6)
        formula_t = pi.eta_quotient(1, 7) * c_val
        ok = (
            fockoracle.untwisted_supertrace(ms_u).agrees_with(formula_u)
            and fockoracle.twisted_supertrace(ms_t, c_val).agrees_with(formula_t)
            and fockoracle.subset_enumeration_supertrace(ms3, budget=3).agrees_with(
                fockoracle.untwisted_supertrace(ms3)
            )
        )
        return ok, [formula_u.to_text(), formula_t.to_text()]

    return check


def _digest(ctx):
    """sha256 of every earlier record, in check-name order, against the pin."""
    text = json.dumps(sorted(ctx["records"].items()), sort_keys=True, separators=(",", ":"))
    got = hashlib.sha256(text.encode()).hexdigest()
    pinned = DIGEST_FILE.read_text().strip()
    return got == pinned, {"digest": got, "pinned": pinned}


def identities(seed):
    rows = list(classdata.registry())
    random.Random(seed).shuffle(rows)
    checks = [("lemma:" + r.co0_name, _lemma(r)) for r in rows]
    checks += [("normalization:" + r.co0_name, _normalization(r)) for r in rows]
    checks += [("supertrace:" + r.co0_name, _supertrace(r)) for r in rows]
    checks += [
        ("delta-identity", lambda ctx: _report_check(moonshine.verify_delta_identity(50))),
        ("hecke-T2", _hecke),
        ("half-shift", lambda ctx: _report_check(moonshine.half_shift_relation(30))),
    ]
    checks += [("fock:" + (n or "identity"), _fock(n)) for n in FOCK_PLAYLIST]
    checks.append(("digest", _digest))
    return checks


# -- invariance --------------------------------------------------------------


def _invariance(name):
    def check(ctx):
        report = modgroups.class_invariance_check(
            classdata.lookup(name), points=20, tol=1e-6, seed=INVARIANCE_SEED
        )
        return report["pass"] and len(report["matrices"]) >= 12, None

    return check


def _control(ctx):
    """Negative control: the order-two trace against the level-3 Fricke."""
    series = moonshine.T_s_tw(classdata.lookup("2A"), 512)
    wrong = modgroups.TestMatrix(Fraction(0), Fraction(-1), Fraction(3), Fraction(0), 3, "fricke")
    report = modgroups.invariance_check(
        series, modgroups.parse_label("2-"), matrices=[wrong], points=6, tol=1e-6,
        seed=INVARIANCE_SEED,
    )
    return report["max_dev"] > 1e-2, None


def invariance(seed):
    names = list(INVARIANCE_CLASSES)
    random.Random(seed).shuffle(names)
    checks = [("invariance:" + n, _invariance(n)) for n in names]
    checks.append(("control:2A-vs-3-fricke", _control))
    return checks


# -- structures --------------------------------------------------------------


def _golay(ctx):
    ctx["code"] = lattice.build_golay()
    return ctx["code"].weight_distribution() == GOLAY_WEIGHTS, None


def _leech(ctx):
    ctx["lattice"] = lattice.build_leech(ctx["code"])  # verifies det 1, even, no norms 1-3
    return ctx["lattice"].gram_determinant() == 1, None


def _frame(ctx):
    ctx["frame"] = lattice.coordinate_frame(ctx["lattice"])
    return len(ctx["frame"]) == 24, None


def _shell4(ctx):
    count = ctx["lattice"].shell_count(4)
    return count == 196560, None


def _lift(ctx):
    # raises VerificationFailure unless some section has t v != 0
    ctx["lift"] = cliffordcm.golay_lift_section(ctx["code"], ctx["frame"])
    return True, None


def _n1(seed):
    def check(ctx):
        report = cliffordcm.n1_checks(ctx["lift"], seed=seed, orth_samples=220)
        return bool(report["passed"]) and report["group_order"] == 8192, None

    return check


def structures(seed):
    return [
        ("golay-weights", _golay),
        ("leech", _leech),
        ("frame", _frame),
        ("shell4", _shell4),
        ("lift", _lift),
        ("n1", _n1(seed)),
    ]


WORKLOADS = {"identities": identities, "invariance": invariance, "structures": structures}
