from dataclasses import replace
from fractions import Fraction as F
from math import ceil

import pytest

from conwaymoonshine import moonshine
from conwaymoonshine.classdata import lookup, registry
from conwaymoonshine.cliffordcm import spinor_supertrace_closed
from conwaymoonshine.errors import ValidationError
from conwaymoonshine.frameshape import parse
from conwaymoonshine.moonshine import (
    T_s,
    _lemma_terms,
    _report,
    T_s_tw,
    dichotomy_check,
    half_shift_relation,
    normalization_reports,
    solve_c_neg,
    t_tilde,
    verify_delta_identity,
    verify_hecke,
)
from conwaymoonshine.qseries import FracPowerSeries as S, eta_product
from test_qseries import monomial, shifted

IDENT = parse("1^24")


def lemma_residual(pi, c_g, c_neg, order):
    """The five-term combination that the eta identity asserts vanishes:

        2*chi + t~(pi) - t~(negate pi) + c_neg*eta_{negate pi} - c_g*eta_pi.
    """
    rest, partner = _lemma_terms(pi, c_g, order)
    return rest + partner * c_neg


def test_t_tilde_identity_expansion():
    tt = t_tilde(IDENT, 4)
    assert tt.coeff(F(-1, 2)) == 1
    assert tt.coeff(0) == -24
    assert tt.coeff(F(1, 2)) == 276
    assert tt.coeff(1) == -2048


def test_t_tilde_2a_delta_rearrangement():
    # eta(tau/2)-quotient for the negated identity equals
    # Delta(tau)^2 / (Delta(2 tau) Delta(tau/2)) up to rearrangement
    lhs = t_tilde(parse("2^24/1^24"), 30)
    d1 = IDENT.eta_quotient(1, 34)
    d2 = IDENT.eta_quotient(2, 34)
    dh = IDENT.eta_quotient(F(1, 2), 32)
    rhs = d1 * d1 * (d2 * dh).invert()
    assert lhs.agrees_with(rhs, through=30)


def test_t_tilde_constant_term_is_minus_chi():
    for rec in registry():
        for pi in (rec.frame_shape, rec.frame_shape.negate()):
            assert t_tilde(pi, 2).coeff(0) == -pi.chi(), rec.co0_name


def test_series_grid_divides_48_lcm():
    # every construction lands on the (1/48K)-grid promised for exponents
    from math import gcd

    for rec in list(registry())[::9]:
        pi = rec.frame_shape
        lcm = 1
        for m in pi.exps:
            lcm = lcm * m // gcd(lcm, m)
        series = t_tilde(pi, 3)
        assert (48 * lcm) % series.denom == 0, rec.co0_name


def test_T_s_identity_reparametrized():
    series = T_s(IDENT, 10).scale_tau(2)
    assert series.coeff(-1) == 1
    assert series.coeff(0) == 0
    assert series.coeff(1) == 276
    assert series.coeff(2) == -2048


def test_T_s_negation_flips_integer_exponent_coefficients():
    # coefficients agree at half-odd exponents and flip sign at integer
    # exponents (the two reparametrized series differ by signs on even
    # powers); the constant term is zero on both sides
    for name in ("3A", "6C", "5A"):
        pi = lookup(name).frame_shape
        a = T_s(pi, 6)
        b = T_s(pi.negate(), 6)
        k = a.denom * b.denom
        for p in set(a.rescaled(k).terms) | set(b.rescaled(k).terms):
            expo = F(p, k)
            ca = a.coeff(expo)
            cb = b.coeff(expo)
            if expo.denominator == 1:
                assert ca == -cb, (name, expo)
            else:
                assert ca == cb, (name, expo)


def test_T_s_tw_2a_expansion():
    tw = T_s_tw(lookup("2A"), 6)
    assert tw.coeff(0) == 24
    assert tw.coeff(1) == 4096


def test_T_s_tw_constant_for_fixed_point_shapes():
    for shape_text in ("1^24", "1^8.2^8", "2^12"):
        pi = parse(shape_text)
        series = T_s_tw(pi, 8, c_value=0)
        assert all(p == 0 for p in series.terms)
        assert series.coeff(0) == -pi.chi()
        assert dichotomy_check(pi, 0) == "constant"


def test_T_s_tw_monster_class_relation_for_2a():
    # 1/eta_g for the order-two class is the level-two hauptmodul with its
    # constant removed: q^-1 prod (1 - q^(2n-1))^24 = T - 24 for the
    # monster partner series
    rec = lookup("2A")
    inv_eta = rec.frame_shape.eta_quotient(1, 20).invert()
    odd = monomial(1, 0, 21)
    n = 1
    while 2 * n - 1 < 21:
        odd = odd * (monomial(1, 0, 21) - monomial(1, 2 * n - 1, 21)) ** 24
        n += 1
    assert inv_eta.agrees_with(shifted(odd, -1))


def test_solve_c_neg_registry_spot_values():
    s3, rep3 = solve_c_neg(lookup("3A"))
    assert s3 == 1 and rep3.passed
    s6, rep6 = solve_c_neg(lookup("6A"))
    assert s6 == 729 and rep6.passed
    s2, rep2 = solve_c_neg(lookup("2A"))
    assert s2 == 0 and rep2.passed


def test_solve_c_neg_magnitude_matches_closed_form():
    for name in ("3A", "6C", "10C", "12E"):
        rec = lookup(name)
        solved, report = solve_c_neg(rec)
        assert report.passed
        closed = spinor_supertrace_closed(rec.frame_shape.negate().eigenvalue_pairs())
        assert abs(solved) == abs(closed.to_rational()), name


def operator_lemma_terms(pi, c_g, order):
    """Oracle: the lemma's rest and partner by the chain of series operators."""
    order = F(order)
    pin = pi.negate()
    rest = t_tilde(pi, order) - t_tilde(pin, order) - pi.eta_quotient(1, order) * c_g + 2 * pi.chi()
    return rest, pin.eta_quotient(1, order)


def operator_solve_c_neg(rec, order):
    """Oracle: solve_c_neg on the operator chain, scaling by the Fraction."""
    rest, partner = operator_lemma_terms(rec.frame_shape, rec.c_hat_g, order)
    solved = -F(rest.coeff(1))
    residual = rest + partner * solved
    return solved, _report("lemma:%s" % rec.co0_name, residual, {"c_neg": solved})


def assert_same_lemma(rec, order):
    rest, partner = _lemma_terms(rec.frame_shape, rec.c_hat_g, order)
    want_rest, want_partner = operator_lemma_terms(rec.frame_shape, rec.c_hat_g, order)
    for got, want in ((rest, want_rest), (partner, want_partner)):
        assert got == want and got.to_json() == want.to_json()
    solved, report = solve_c_neg(rec, order)
    want_solved, want_report = operator_solve_c_neg(rec, order)
    assert solved == want_solved and type(solved) is F
    assert report.to_json() == want_report.to_json()
    return solved, report


@pytest.mark.parametrize("order", [F(3, 2), 2, 6, 25])
def test_fused_lemma_matches_operator_chain(order):
    for rec in registry():
        solved, report = assert_same_lemma(rec, order)
        assert solved.denominator == 1 and report.passed, rec.co0_name


def test_fused_lemma_negative_controls():
    for rec in registry():
        solved, _ = solve_c_neg(rec, 6)
        wrong, report = assert_same_lemma(replace(rec, c_hat_g=rec.c_hat_g + 1), 6)
        if rec.frame_shape.negate() == rec.frame_shape:
            # only even cycles: eta_pi is the partner, which absorbs the change
            assert report.passed and wrong == solved + 1, rec.co0_name
        else:
            # otherwise a wrong tabulated scalar leaves a nonzero residual
            assert not report.passed and report.max_residual != 0, rec.co0_name
    # c_g = 1/2 makes the solved scalar non-integral: the Fraction branch
    solved, report = assert_same_lemma(replace(lookup("3A"), c_hat_g=F(1, 2)), 6)
    assert solved.denominator != 1 and not report.passed
    # c_g = 0: the chain's 0 * eta_pi sits on grid 1, the sum keeps eta_pi's
    # grid, which divides the grid of the two t~ terms
    for pi, c_neg in ((IDENT, 4096), (parse("2^24/1^24"), 0)):
        got = lemma_residual(pi, 0, c_neg, 25)
        rest, partner = operator_lemma_terms(pi, 0, 25)
        assert got.to_json() == (rest + partner * c_neg).to_json()
    # eta_pi refuses an order at or below its valuation 1 before 2*chi is added
    for order in (F(-1, 4), F(1, 2), 1):
        with pytest.raises(ValidationError) as got:
            _lemma_terms(IDENT, 1, order)
        with pytest.raises(ValidationError) as want:
            operator_lemma_terms(IDENT, 1, order)
        assert str(got.value) == str(want.value)


def test_lemma_reduces_to_delta_identity_for_identity_element():
    residual = lemma_residual(IDENT, 0, 4096, 25)
    assert residual.max_residual() == 0
    wrong = lemma_residual(IDENT, 0, 2048, 25)
    assert wrong.max_residual() != 0


def test_lemma_sweep_small_order():
    reports = [solve_c_neg(rec, 8)[1] for rec in registry()]
    assert len(reports) == 90
    assert all(r.passed for r in reports)


def test_delta_identity_and_leading_terms():
    report = verify_delta_identity(50)
    assert report.passed and report.max_residual == 0
    # both sides start 24 + 2048 q (the right side is 24 + 2^11 q + ...)
    ident = IDENT
    d1 = ident.eta_quotient(1, 8)
    d2 = ident.eta_quotient(2, 8)
    dh = ident.eta_quotient(F(1, 2), 6)
    lhs = (d1 * d1 * (d2 * dh).invert() - dh * d1.invert()) * F(1, 2)
    rhs = d2 * d1.invert() * 2048 + 24
    assert lhs.coeff(0) == 24 and lhs.coeff(1) == 2048
    assert rhs.coeff(0) == 24 and rhs.coeff(1) == 2048


def test_delta_identity_negative_control():
    # perturbing 2^11 to 2^10 must break the identity
    ident = IDENT
    d1 = ident.eta_quotient(1, 14)
    d2 = ident.eta_quotient(2, 14)
    dh = ident.eta_quotient(F(1, 2), 12)
    lhs = (d1 * d1 * (d2 * dh).invert() - dh * d1.invert()) * F(1, 2)
    rhs_bad = d2 * d1.invert() * 1024 + 24
    assert not lhs.agrees_with(rhs_bad, through=10)


def test_hecke_fit_and_residual():
    (a, b, c), report = verify_hecke(40)
    assert (a, b, c) == (2048, 24, 0)
    assert report.passed and report.max_residual == 0


def test_hecke_input_expansion():
    f = parse("2^24/1^24").eta_quotient(1, 5)
    assert f.coeff(1) == 1 and f.coeff(2) == 24


def test_half_shift_relation():
    assert half_shift_relation(30).passed


# -- the identities against their operator chains ------------------------------


def shift_by_one(series):
    """Oracle: series(tau + 1), the sign (-1)^(2r) at q^r for r in (1/2)Z."""
    pairs = [(F(p, series.denom), c) for p, c in series.terms.items()]
    assert all((2 * r).denominator == 1 for r, _ in pairs)
    return S.from_fraction_terms([(r, -c if (2 * r).numerator % 2 else c) for r, c in pairs],
                                 series.order)


def below(series, order):
    """Oracle: the terms of series whose Fraction exponent lies below `order`."""
    return S(series.denom, {p: c for p, c in series.terms.items() if F(p, series.denom) < order},
             order)


def operator_delta(eta_product, order):
    half = F(1, 2)
    lhs = (eta_product({1: 48, 2: -24, half: -24}, order + 1)
           - eta_product({half: 24, 1: -24}, order + 1)) * half
    rhs = eta_product({2: 24, 1: -24}, order + 1) * 2048 + 24
    return below(lhs - rhs, order)


def operator_hecke(eta_product, order):
    f = eta_product({2: 24, 1: -24}, order + 1)
    fh = eta_product({1: 24, F(1, 2): -24}, order + 1)
    t2f = (fh + shift_by_one(fh)) * F(1, 2)
    f2 = eta_product({2: 48, 1: -48}, order + 1)
    c, b = F(t2f.coeff(0)), F(t2f.coeff(1))
    a = F(t2f.coeff(2)) - b * F(f.coeff(2))
    return below(t2f - (f2 * a + f * b + c), order), (a, b, c)


def operator_half_shift(eta_product, order):
    half = F(1, 2)
    lhs = shift_by_one(eta_product({1: 24, half: -24}, order))
    return lhs - eta_product({2: 24, half: 24, 1: -48}, order) * -1


def bumped(exps, order):
    """eta_product plus a map-dependent series on the half-integers below
    `order`, so that no residual vanishes."""
    weight = sum(abs(k) for k in exps.values()) % 7
    pairs = [(F(n, 2), n + weight + 1) for n in range(-1, ceil(2 * F(order)))]
    return eta_product(exps, order) + S.from_fraction_terms(pairs, order)


@pytest.mark.parametrize("bump", [False, True])
@pytest.mark.parametrize("check, chain, orders", [
    (verify_delta_identity, operator_delta, (1, 7, 50)),
    (lambda order: verify_hecke(order)[1], lambda e, order: operator_hecke(e, order)[0], (2, 7, 40)),
    (half_shift_relation, operator_half_shift, (1, 7, 30)),
], ids=["delta", "hecke", "half-shift"])
def test_identities_match_their_operator_chains(monkeypatch, bump, check, chain, orders):
    """Each identity's residual against its chain of series operators, at
    its edge order (a part's valuation meets the order), at 7 and at its
    default order; with every eta product bumped, the residuals are nonzero
    and must still agree term for term."""
    expand = bumped if bump else eta_product
    monkeypatch.setattr(moonshine, "eta_product", expand)
    seen = []
    monkeypatch.setattr(moonshine, "_report", lambda name, series, solved=None: seen.append(series)
                        or _report(name, series, solved))
    for order in orders:
        report = check(order)
        want = chain(expand, F(order))
        assert seen.pop() == want
        assert report.to_json() == _report(report.name, want, report.solved).to_json()
        assert report.passed != bump and report.checked_order == order


def test_hecke_fit_matches_operator_chain(monkeypatch):
    monkeypatch.setattr(moonshine, "eta_product", bumped)
    for order in (2, 7, 40):
        fit, _ = verify_hecke(order)
        assert fit == operator_hecke(bumped, order)[1] != (2048, 24, 0)


def test_normalization_sweep():
    reports = normalization_reports(4)
    assert len(reports) == 180
    assert all(r.passed for r in reports)


def test_dichotomy_non_constant_for_registry():
    for name in ("2A", "6C", "46AB"):
        rec = lookup(name)
        assert dichotomy_check(rec.frame_shape, rec.c_hat_g) == "non-constant"


def test_dichotomy_rejects_wrong_constant():
    from conwaymoonshine.errors import VerificationFailure

    with pytest.raises(VerificationFailure):
        dichotomy_check(IDENT, 1)  # fixed points but a nonzero scalar
