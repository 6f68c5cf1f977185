"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
All residual checks are exact (rational zero); only the invariance sweep
and its negative control are floating point, at the stated tolerances.
"""

import time
from fractions import Fraction as F

from conwaymoonshine.classdata import lookup, registry
from conwaymoonshine.cliffordcm import class_supertraces, n1_checks
from conwaymoonshine.fockoracle import (
    ModeSystem,
    TWISTED,
    UNTWISTED,
    subset_enumeration_supertrace,
    twisted_supertrace,
    untwisted_supertrace,
)
from conwaymoonshine.frameshape import parse
from conwaymoonshine.lattice import sign_change_frameshape
from conwaymoonshine.modgroups import (
    TestMatrix,
    class_invariance_check,
    invariance_check,
    parse_label,
)
from conwaymoonshine.moonshine import (
    T_s,
    T_s_tw,
    derived_partner,
    dichotomy_check,
    solve_c_neg,
    t_tilde,
    verify_delta_identity,
    verify_hecke,
)

IDENT = parse("1^24")


def _announce(number, text):
    print("criterion %2d: PASS - %s" % (number, text))


def test_criterion_01_identity_series():
    t0 = time.time()
    series = T_s(IDENT, 20).scale_tau(2)
    elapsed = time.time() - t0
    assert series.coeff(-1) == 1
    assert series.coeff(0) == 0
    assert series.coeff(1) == 276
    assert series.coeff(2) == -2048
    assert elapsed < 1.0, "took %.2fs" % elapsed
    _announce(1, "identity-class series q^-1 + 276 q - 2048 q^2 + ... in %.2fs" % elapsed)


def test_criterion_02_lemma_sweep():
    t0 = time.time()
    reports = [solve_c_neg(rec, 25)[1] for rec in registry()]
    elapsed = time.time() - t0
    assert len(reports) == 90
    for rep in reports:
        assert rep.passed and rep.max_residual == 0, rep.name
    assert elapsed < 30.0, "took %.1fs" % elapsed
    _announce(2, "eta identity solved and exactly zero to order 25 for 90 rows in %.1fs" % elapsed)


def test_criterion_03_normalization():
    for rec in registry():
        for pi in (rec.frame_shape, rec.frame_shape.negate()):
            assert T_s(pi, 2).coeff(0) == 0, rec.co0_name
    _announce(3, "constant term of the main trace is exactly 0 on all shapes and partners")


def test_criterion_04_fixed_point_dichotomy(golay):
    checked = 0
    for rec in registry():
        assert dichotomy_check(rec.frame_shape, rec.c_hat_g) == "non-constant"
        shape, scalar = derived_partner(rec)
        expected = "constant" if shape.fixed_points() > 0 else "non-constant"
        assert dichotomy_check(shape, scalar) == expected, rec.co0_name
        checked += 2
    octad = next(w for w in golay.words() if bin(w).count("1") == 8)
    dodecad = next(w for w in golay.words() if bin(w).count("1") == 12)
    for word in (octad, dodecad):
        shape, chi = sign_change_frameshape(word, golay)
        assert dichotomy_check(shape, 0) == "constant"
        series = T_s_tw(shape, 6, c_value=0)
        assert series.coeff(0) == -chi
        checked += 1
    _announce(4, "twisted trace constant exactly when fixed points exist (%d shapes)" % checked)


def test_criterion_05_spinor_traces():
    t0 = time.time()
    spots = {"2A": 4096, "3A": 729, "4A": 64, "6C": -8}
    for rec in registry():
        closed, oracle = class_supertraces(rec.frame_shape)
        assert closed == oracle, rec.co0_name
        value = closed.to_rational()
        assert abs(value) == abs(rec.c_hat_g), rec.co0_name
        if rec.co0_name in spots:
            assert rec.c_hat_g == spots[rec.co0_name]
    elapsed = time.time() - t0
    assert elapsed < 5.0, "took %.1fs" % elapsed
    _announce(5, "closed form = 4096-subset oracle and |value| = table on 90 rows in %.1fs" % elapsed)


def test_criterion_06_hecke():
    (a, b, c), report = verify_hecke(40)
    assert (a, b, c) == (2048, 24, 0)
    assert report.passed and report.max_residual == 0
    _announce(6, "averaging-operator fit (2048, 24, 0) with zero residual to order 40")


def test_criterion_07_delta_identity():
    report = verify_delta_identity(50)
    assert report.passed and report.max_residual == 0
    _announce(7, "discriminant identity residual exactly zero to order 50")


def test_criterion_08_fock_oracle():
    t0 = time.time()
    playlist = [None, "2A", "3A", "4A", "6C"]  # None = identity element
    for name in playlist:
        if name is None:
            pi, c_val = IDENT, 0
        else:
            rec = lookup(name)
            pi, c_val = rec.frame_shape, rec.c_hat_g
        ms_u = ModeSystem.from_shape(pi, UNTWISTED, 6)
        assert untwisted_supertrace(ms_u).agrees_with(t_tilde(pi, 6)), name
        ms_t = ModeSystem.from_shape(pi, TWISTED, 6)
        formula = pi.eta_quotient(1, 7) * c_val
        assert twisted_supertrace(ms_t, c_val).agrees_with(formula), name
        ms3 = ModeSystem.from_shape(pi, UNTWISTED, 3)
        assert subset_enumeration_supertrace(ms3, budget=3).agrees_with(
            untwisted_supertrace(ms3)
        ), name
    elapsed = time.time() - t0
    assert elapsed < 15.0, "took %.1fs" % elapsed
    _announce(8, "mode products match eta formulas to degree 6; subset enumeration agrees to 3"
              " in %.1fs" % elapsed)


def test_criterion_09_golay_and_leech(golay, leech):
    t0 = time.time()
    dist = golay.weight_distribution()
    assert dist == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}
    assert 4 not in dist
    assert leech.gram_determinant() == 1
    gram8 = leech.gram8()
    assert all(gram8[i][i] % 16 == 0 for i in range(24))
    assert leech.shell_count(1) == 0 == leech.shell_count(2) == leech.shell_count(3)
    count = leech.shell_count(4)
    assert count == 196560
    elapsed = time.time() - t0
    assert elapsed < 15.0, "took %.1fs" % elapsed
    _announce(9, "Golay weights (1,759,2576,759,1); Leech det 1, no roots, shell 196560 in %.0fs" % elapsed)


def test_criterion_10_n1_checks(lift):
    t0 = time.time()
    report = n1_checks(lift)
    elapsed = time.time() - t0
    assert report["passed"]
    assert report["group_order"] == 8192
    assert (report["tv_components"], report["invariance_checked"]) == (2048, 4096)
    assert report["orthogonality_subsets"] == 10902  # every C of size 2 or 4, proved
    assert not report["tv_norm"].is_zero()
    assert report["alpha"] * report["alpha"] == report["alpha_squared"]
    assert str(report["alpha"]) == "1024*z^3 @ level 8"  # as `n1 check` prints them
    assert str(report["tv_norm"]) == "1/131072*z^1 @ level 4"
    assert elapsed < 10.0, "took %.1fs" % elapsed
    _announce(10, "lifted group order 8192, all squares +1, idempotent and orthogonality in %.1fs" % elapsed)


def test_criterion_11_numeric_invariance():
    t0 = time.time()
    worst = 0.0
    for rec in registry():
        report = class_invariance_check(rec, points=20, tol=1e-6)
        assert report["pass"], (rec.co0_name, report["max_dev"])
        assert len(report["matrices"]) >= 12
        worst = max(worst, report["max_dev"])
    # negative control: the order-two trace against the level-three Fricke
    control_series = T_s_tw(lookup("2A"), 512)
    wrong = TestMatrix(F(0), F(-1), F(3), F(0), 3, "fricke")
    control = invariance_check(
        control_series, parse_label("2-"), matrices=[wrong], points=6, tol=1e-6
    )
    assert control["max_dev"] > 1e-2
    elapsed = time.time() - t0
    assert elapsed < 10.0, "took %.1fs" % elapsed
    _announce(11, "invariance <= 1e-6 on 90 classes (worst %.2e); control deviates %.2e; %.1fs" % (
        worst, control["max_dev"], elapsed))
