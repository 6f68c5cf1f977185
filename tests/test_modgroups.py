import dataclasses
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from conwaymoonshine import frameshape, modgroups, moonshine
from conwaymoonshine.classdata import lookup, registry
from conwaymoonshine.errors import ParseError, PrecisionError, ValidationError
from conwaymoonshine.modgroups import (
    GroupLabel,
    TestMatrix,
    TwistedTrace,
    _bezout,
    class_invariance_check,
    eval_series,
    invariance_check,
    kernel_matrices,
    parse_label,
    sample_matrices,
)
from conwaymoonshine.moonshine import T_s_tw
from conwaymoonshine.qseries import FracPowerSeries as S
from test_qseries import monomial


def test_parse_label_examples():
    gl = parse_label("2-")
    assert (gl.n, gl.h, gl.minus) == (2, 1, True) and not gl.al_set
    gl = parse_label("12|2+6")
    assert (gl.n, gl.h, set(gl.al_set)) == (12, 2, {6})
    gl = parse_label("30+6,10,15")
    assert (gl.n, gl.h, set(gl.al_set)) == (30, 1, {6, 10, 15})
    gl = parse_label("12+3")  # 3 divides 12 exactly: 3 and 12/3 are coprime
    assert (gl.n, gl.h, set(gl.al_set)) == (12, 1, {3})


def test_parse_label_errors_carry_position():
    with pytest.raises(ParseError):
        parse_label("12|")
    with pytest.raises(ParseError):
        parse_label("12*3")
    with pytest.raises(ParseError) as err:
        parse_label("6+4")  # 4 does not exactly divide 6
    assert err.value.position == 2
    for n in (12, 8):  # 2 divides n but not exactly: it is not prime to n/2
        with pytest.raises(ParseError, match="2 is not an exact divisor of n/h = %d" % n):
            parse_label("%d+2" % n)
    for text, n, at in (("12+0", 12, 3), ("6+0,2", 6, 2)):  # 0 divides nothing
        with pytest.raises(ParseError, match="0 is not an exact divisor of n/h = %d" % n) as err:
            parse_label(text)
        assert err.value.position == at  # the 0
    # a refused label points at the number at fault: the first in the text
    for text, message, at in (
        ("6+2,4", "4 is not an exact divisor of n/h = 6", 4),
        ("12|5+", "h = 5 must divide n = 12", 3),
        ("16|16-", "h = 16 must divide 24", 3),
        ("12|0+", "level data must be positive", 3),
        ("0-", "level data must be positive", 0),
    ):
        with pytest.raises(ParseError, match=message) as err:
            parse_label(text)
        assert err.value.position == at, text
    # surrounding whitespace is accepted, and positions index the text as given
    with pytest.raises(ParseError, match=r"expected '-' or '\+' \(at position 3 in '  2x'\)") as err:
        parse_label("  2x")
    assert err.value.position == 3 and err.value.text[3] == "x"
    with pytest.raises(ParseError, match="5 is not an exact divisor of n/h = 6") as err:
        parse_label(" 12|2+5")
    assert err.value.position == 6 and err.value.text[6] == "5"
    assert str(parse_label("  12|2+6 ")) == "12|2+6"
    with pytest.raises(ValidationError, match="-3 is not an exact divisor of n/h = 12"):
        GroupLabel(12, 1, frozenset({-3}), False)


def test_labels_round_trip():
    for rec in registry():
        gl = parse_label(rec.gamma_tw_label)
        assert parse_label(str(gl)) == gl


def test_fricke_matrix_for_level_two():
    mats = sample_matrices(parse_label("2+2"), count=4)
    fricke = [m for m in mats if m.provenance == "fricke"]
    assert fricke and (fricke[0].a, fricke[0].b, fricke[0].c, fricke[0].d) == (
        0,
        -1,
        2,
        0,
    )
    assert fricke[0].scale_sq == 2


def test_sampled_matrices_have_unit_determinant():
    for label in ("2-", "12|2+6", "30+6,10,15", "8|4-"):
        gl = parse_label(label)
        for m in sample_matrices(gl, count=10):
            assert m.a * m.d - m.b * m.c == m.scale_sq


def test_sampled_matrices_satisfy_membership_predicate():
    # a, d integral up to the scale, h*b integral, lower-left = 0 mod n
    for label in ("2-", "12|2+6", "24|4+6", "30+6,10,15"):
        gl = parse_label(label)
        for m in sample_matrices(gl, count=10):
            assert (m.b * gl.h).denominator == 1
            assert (m.c / gl.n).denominator == 1


def test_atkin_lehner_solve_for_12_2():
    # the determinant relation for W_6 on the index-two level-12 group is
    # integrally solvable via the extended gcd
    u, v = _bezout(6, 1)
    assert 6 * u + v == 1
    gl = parse_label("12|2+6")
    w6 = [m for m in sample_matrices(gl, count=6) if m.scale_sq == 6]
    assert w6
    m = w6[0]
    assert m.a * m.d - m.b * m.c == 6


def test_eval_constant_and_pole_examples():
    [value], [estimate] = eval_series(monomial(24, 0, 6), [complex(0.2, 1.3)], 1e-12)
    assert abs(value - 24) < 1e-12 and estimate < 1e-12
    [value], _ = eval_series(monomial(1, F(-1, 2), 6), [1j], 1e-9)
    assert abs(value - math.exp(math.pi)) < 1e-9


def test_eval_refuses_insufficient_order():
    series = T_s_tw(lookup("2A"), 6)
    with pytest.raises(PrecisionError):
        eval_series(series, [complex(0.0, 0.05)], 1e-9)


def test_translation_invariance_numeric():
    series = T_s_tw(lookup("2A"), 24)
    (v1, v2), _ = eval_series(series, [1j, 1j + 1], 1e-10)
    assert abs(v1 - v2) < 1e-8


def test_invariance_2a_and_6c():
    for name in ("2A", "6C"):
        report = class_invariance_check(lookup(name), points=20, tol=1e-6)
        assert report["pass"], report
        assert report["max_dev"] <= 1e-6


def test_invariance_character_label_12a():
    report = class_invariance_check(lookup("12A"), points=20, tol=1e-6)
    assert report["pass"]


def test_negative_control_wrong_group():
    # the order-two twisted trace is not invariant under the level-three
    # Fricke involution
    rec = lookup("2A")
    series = T_s_tw(rec, 512)
    wrong = TestMatrix(F(0), F(-1), F(3), F(0), 3, "fricke")
    report = invariance_check(
        series, parse_label("2-"), matrices=[wrong], points=6, tol=1e-6
    )
    assert not report["pass"]
    assert report["max_dev"] > 1e-2


def test_tol_must_be_finite_and_positive():
    # a series too short for any tail estimate: the tolerance is refused before evaluation
    series, gl = S(1, {0: 1}, 1), parse_label("2-")
    for tol in (float("inf"), -1.0, 0.0, float("nan")):
        with pytest.raises(ValidationError, match="tol"):
            invariance_check(series, gl, matrices=sample_matrices(gl), tol=tol)
        with pytest.raises(ValidationError, match="tol"):
            class_invariance_check(lookup("2A"), tol=tol)


def test_zero_requests_are_refused():
    # no point or no matrix would make a vacuous pass
    rec = lookup("2A")
    f, gl = TwistedTrace.of(rec), parse_label(rec.gamma_tw_label)
    with pytest.raises(ValidationError, match="no matrices"):
        invariance_check(f, gl, matrices=[])
    with pytest.raises(ValidationError, match="points must be at least 1, got 0"):
        invariance_check(f, gl, matrices=sample_matrices(gl), points=0)
    with pytest.raises(ValidationError, match="points must be at least 1, got 0"):
        class_invariance_check(rec, points=0)
    with pytest.raises(ValidationError, match="samples must be at least 1, got 0"):
        class_invariance_check(rec, samples=0)
    one = class_invariance_check(rec, points=1, samples=1)
    assert one["pass"] and one["points"] == len(one["matrices"])


def test_reports_are_seed_deterministic():
    a = class_invariance_check(lookup("6C"), points=12, tol=1e-6, seed=5)
    b = class_invariance_check(lookup("6C"), points=12, tol=1e-6, seed=5)
    assert a == b


def test_level_n_h_kills_the_eta_character():
    # every cycle length divides N = n*h and sum (N/m)*k_m = 0 mod 24, so
    # the sampled Hecke elements at level N lie in the label's group
    levels = {}
    for rec in registry():
        gl = parse_label(rec.gamma_tw_label)
        level = gl.n * gl.h
        exps = rec.frame_shape.exps
        assert all(level % m == 0 for m in exps), rec.co0_name
        assert sum((level // m) * k for m, k in exps.items()) % 24 == 0, rec.co0_name
        levels[rec.co0_name] = level
    assert len(levels) == 90
    assert [levels[n] for n in ("2A", "6C", "12A", "12B")] == [2, 6, 24, 72]


def test_kernel_coset_for_index_two_label():
    # 20|2+5: the bare W_5 carries the order-two character, its coset
    # W_5*T^(1/2) is in the group
    rec = lookup("20B")
    series = T_s_tw(rec, 512)
    gl = parse_label(rec.gamma_tw_label)
    picked = [m.provenance for m in kernel_matrices(rec, series)]
    assert "atkin-lehner-5*T^(1/2)" in picked
    bare = [m for m in sample_matrices(gl) if m.provenance == "atkin-lehner-5"]
    report = invariance_check(series, gl, matrices=bare, points=6, tol=1e-6)
    assert report["max_dev"] > 1e-1


@pytest.mark.parametrize("name, order", [("20B", 128), ("12F", 64), ("24G", 64)])
def test_kernel_coset_probe_refuses_a_short_series(name, order):
    # no coset probe converges at this order; the bare Atkin-Lehner matrix
    # (the wrong coset for 20B) must not stand in for the kernel coset
    rec = lookup(name)
    with pytest.raises(PrecisionError):
        kernel_matrices(rec, T_s_tw(rec, order))


def test_kernel_matrices_unprobed_for_h_one():
    rec = lookup("30A")
    gl = parse_label(rec.gamma_tw_label)
    assert gl.h == 1
    assert kernel_matrices(rec, T_s_tw(rec, 1024)) == sample_matrices(gl)


def test_group_label_invariants():
    with pytest.raises(Exception):
        GroupLabel(12, 5, frozenset(), True)  # 5 does not divide 12
    with pytest.raises(Exception):
        GroupLabel(12, 2, frozenset({4}), False)  # 4 not exact in 6


@pytest.mark.parametrize("name, order", [("2A", 128), ("30A", 1024), ("60B", 8192), ("20B", 512)])
def test_product_evaluation_matches_the_exact_series(name, order):
    # the sweep evaluates C*eta_pi - chi from the product; the exact series
    # it no longer builds must give the same values wherever its tail is
    # negligible: here Im tau from 1/N (N = n*h, the balanced points of the
    # sweep lie near it) up to 3/2.  The series' error estimate, its
    # rounding bound included, stays below 1e-10 there (at most 5.8e-11,
    # for 30A)
    rec = lookup(name)
    gl = parse_label(rec.gamma_tw_label)
    level = gl.n * gl.h
    rng = random.Random(1)
    taus = [complex(rng.uniform(-0.5, 0.5), (1.5 * level) ** rng.random() / level)
            for _ in range(200)]
    series_values, _ = eval_series(T_s_tw(rec, order), taus, 1e-10)
    values, bounds, _ = TwistedTrace.of(rec).evaluate(taus)
    assert np.max(np.abs(values - series_values)) <= 1e-9
    assert np.max(bounds) <= 1e-9


def test_eval_series_error_covers_the_rounding():
    # at the sweep's sample points of 30A the float dot over the series'
    # coefficients is off by up to 3.9e-9, far above the tail estimate
    # (at most 4.4e-11): the reported error, rounding bound included,
    # still covers the distance to 40-digit values of C*eta_pi - chi
    mpmath = pytest.importorskip("mpmath")
    rec = lookup("30A")
    matrices = kernel_matrices(rec, TwistedTrace.of(rec))
    rng = random.Random(2024)  # as class_invariance_check samples, points=20
    per_matrix = -(-20 // len(matrices))
    taus = [t for m in matrices for tau in modgroups._sample_points(m, per_matrix, rng)
            for t in (tau, m.mobius(tau))]
    values, errors = eval_series(T_s_tw(rec, 1024), taus, 1e-6)
    with mpmath.workdps(40):
        for tau, value, error in zip(taus, values, errors):
            t = mpmath.mpc(tau.real, tau.imag)
            eta_pi = mpmath.fprod(
                (mpmath.exp(2j * mpmath.pi * m * t / 24) * mpmath.qp(mpmath.exp(2j * mpmath.pi * m * t))) ** k
                for m, k in rec.frame_shape.exps.items())
            exact = complex(rec.c_hat_g * eta_pi - rec.frame_shape.chi())
            assert abs(value - exact) <= error, tau


def test_product_path_negative_controls():
    # 3A's shape and C under 2A's label 2-: not invariant under its Fricke
    rec = lookup("2A")
    wrong = dataclasses.replace(rec, frame_shape=lookup("3A").frame_shape,
                                c_hat_g=lookup("3A").c_hat_g)
    report = class_invariance_check(wrong)
    assert not report["pass"] and report["max_dev"] > 1
    # 20|2+5: the bare W_5 carries the order-two character
    rec = lookup("20B")
    gl = parse_label(rec.gamma_tw_label)
    bare = [m for m in sample_matrices(gl) if m.provenance == "atkin-lehner-5"]
    report = invariance_check(TwistedTrace.of(rec), gl, matrices=bare, points=6, tol=1e-6)
    assert report["max_dev"] > 1e-1
    # negating C is not a control: invariance is blind to the scale of
    # C*eta_pi, so the negated trace passes as well
    negated = dataclasses.replace(rec, c_hat_g=-rec.c_hat_g)
    assert class_invariance_check(negated)["pass"]
    # 30A with k_30 lowered by one: w_j changes only at the multiples of 30
    rec = lookup("30A")
    f = TwistedTrace.of(rec)
    wrong = dataclasses.replace(f, exps=tuple((m, k - (m == 30)) for m, k in f.exps))
    report = invariance_check(wrong, parse_label(rec.gamma_tw_label), kernel_matrices(rec, f))
    assert not report["pass"] and report["max_dev"] > 1


def test_sweep_builds_no_series(monkeypatch):
    calls = []

    def spy(original):
        def wrapped(*args, **kwargs):
            calls.append(original.__name__)
            return original(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(moonshine, "T_s_tw", spy(moonshine.T_s_tw))
    monkeypatch.setattr(frameshape.FrameShape, "eta_quotient",
                        spy(frameshape.FrameShape.eta_quotient))
    for rec in registry():
        assert class_invariance_check(rec)["pass"], rec.co0_name
    assert calls == []


def test_evaluator_temporaries_stay_within_the_block_cap(monkeypatch):
    # 5000 points on a level-72 class: the product terms of all points
    # would be millions of entries, each temporary holds at most _BLOCK
    sizes = []
    original = modgroups._log_product

    def spy(z, js, ws):
        sizes.append(len(z) * len(js))
        return original(z, js, ws)

    monkeypatch.setattr(modgroups, "_log_product", spy)
    report = class_invariance_check(lookup("12B"), points=5000)
    assert report["pass"] and report["points"] >= 5000
    assert sum(sizes) > 50 * modgroups._BLOCK
    assert max(sizes) <= modgroups._BLOCK


def per_factor_log(taus, exps):
    """The evaluation that the weighted sum replaced, kept as its oracle:
    sum_m k_m sum_(n <= M_m) log(1 - q^(m*n)), each cycle length's product
    truncated where its own tail bound B(M_m) is at most 1e-15."""
    taus = np.asarray(taus, dtype=complex)
    total = np.zeros(len(taus), dtype=complex)
    for m, k in exps:
        z = m * taus
        z = np.mod(z.real, 1.0) + 1j * z.imag
        terms, _ = modgroups._product_terms(-2 * math.pi * z.imag.min(), 1)
        q = np.exp(2j * np.pi * np.outer(z, np.arange(1, terms + 1)))
        log_abs = 0.5 * np.log1p(np.abs(q) ** 2 - 2 * q.real)
        total += k * (log_abs + 1j * np.arctan2(-q.imag, 1 - q.real)).sum(axis=1)
    return total


def test_weighted_sum_matches_the_per_factor_products(monkeypatch):
    # every point that the sweep of all 90 classes evaluates, kernel probes
    # included: the one weighted sum over the j with w_j != 0 gives eta_pi
    # to 1e-12 relative of the per-factor products
    calls = []
    original = modgroups.log_eta_product

    def spy(taus, exps):
        sums, terms, bound = original(taus, exps)
        calls.append((taus, exps, sums))
        return sums, terms, bound

    monkeypatch.setattr(modgroups, "log_eta_product", spy)
    for rec in registry():
        assert class_invariance_check(rec)["pass"], rec.co0_name
    assert len(calls) >= 90
    for taus, exps, sums in calls:
        assert np.max(np.abs(np.expm1(sums - per_factor_log(taus, exps)))) <= 1e-12, exps


def test_weights_are_divisor_sums_with_period_the_lcm():
    for rec in registry():
        exps = rec.frame_shape.exps
        weights = modgroups._weights(exps.items())
        assert len(weights) == math.lcm(*exps)
        for j in range(1, 3 * len(weights) + 1):
            assert weights[(j - 1) % len(weights)] == sum(k for m, k in exps.items() if j % m == 0)


def test_no_points_give_empty_arrays():
    sums, terms, bound = modgroups.log_eta_product([], ((1, -3), (30, 3)))
    assert sums.shape == (0,) and (terms, bound) == (0, 0.0)
    values, bounds, terms = TwistedTrace.of(lookup("30A")).evaluate([])
    assert values.shape == bounds.shape == (0,) and terms == 0


def test_log_product_reduces_the_real_part_mod_one():
    # a shift by 2^20 is exact in floats; unreduced, the phases 2*pi*j*Re(tau)
    # of the j up to J = 300 would move the sums by about 1e-8
    exps = TwistedTrace.of(lookup("30A")).exps
    taus = np.array([0.375 + 0.02j, -0.125 + 0.05j])
    near, terms, _ = modgroups.log_eta_product(taus, exps)
    far, _, _ = modgroups.log_eta_product(taus + 2**20, exps)
    assert terms == 300
    assert np.max(np.abs(far - near)) <= 1e-12
