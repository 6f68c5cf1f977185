import re
import time
from collections import Counter
from fractions import Fraction as F

import pytest

from conwaymoonshine.classdata import registry
from conwaymoonshine.errors import PairingError, ParseError, ValidationError
from conwaymoonshine.fockoracle import (
    ModeSystem,
    TWISTED,
    UNTWISTED,
    twisted_supertrace,
    untwisted_supertrace,
)
from conwaymoonshine.frameshape import FrameShape, parse
from conwaymoonshine.moonshine import t_tilde
from test_qseries import monomial, shifted


def test_parse_table_strings():
    assert parse("2^24/1^24").exps == {2: 24, 1: -24}
    shape = parse("1^3 6^9/2^3 3^9")
    assert shape.exps == {1: 3, 6: 9, 2: -3, 3: -9}


def test_parse_rejects_wrong_degree():
    with pytest.raises(ParseError):
        parse("1^23")


def test_parse_rejects_ambiguous_typesetting():
    # the table's undelimited "2^66^6" form is a grammar violation here
    with pytest.raises(ParseError):
        parse("2^66^6/1^63^6")


def test_parse_rejects_negative_multiplicity():
    # degree is 24 but the -1 eigenvalue would have multiplicity -1
    with pytest.raises(ParseError):
        parse("1^26/2^1")
    # and here 36 - 48 = -12
    with pytest.raises(ParseError, match=re.escape("e^(2*pi*i*1/2) has multiplicity -12")):
        parse("1^48/2^12")
    # the cube roots (-1) and the sixth roots (-1) are both refused: the first in ascending order is named
    with pytest.raises(ParseError, match=re.escape("e^(2*pi*i*1/3) has multiplicity -1")):
        parse("2^15/6^1")
    # whatever order the factors are written in (the 3 before the 2 named 1/3)
    for text in ("1^29/2^1.3^1", "1^29/3^1.2^1"):
        with pytest.raises(ParseError, match=re.escape("1/2) has multiplicity -1 in shape 1^29/2^1.3^1")):
            parse(text)


def test_parse_error_position():
    # each grammar refusal, at the position where the factor matches stop; a
    # digit that int() does not read, like the superscript 2, is not a digit here
    for text, message, position in (
        ("1^24/2^1/3^1", "more than one '/'", 8),
        ("1^", "expected an exponent after '^'", 2),
        ("2^24/1^", "expected an exponent after '^'", 7),
        ("1^24/", "empty factor list", 5),
        ("2^24/ .", "empty factor list", 5),
        ("1^24x", "expected a factor", 4),
        ("2^24/1^24 .x", "expected a factor", 11),
        ("2^24/^", "expected a factor", 5),
        ("1^2\u00b2", "expected a factor", 3),
    ):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == "%s (at position %d in %r)" % (message, position, text)
        assert err.value.position == position, text


def test_huge_cycle_length_is_refused_quickly():
    m = 10**12  # divisors by trial division up to m would take hours
    start = time.perf_counter()
    with pytest.raises(ParseError, match=re.escape("e^(2*pi*i*1/3) has multiplicity -1")):
        parse("1^23.%d^1/%d^1" % (m, m - 1))
    assert time.perf_counter() - start < 1.0


def test_shape_refuses_values_that_are_not_integers():
    # int() would truncate each of these to a valid shape: 1^24, 1^24 and 2^12
    for exps in ({1: 24.5}, {1: F(49, 2)}, {2.7: 12}):
        with pytest.raises(ValidationError, match="cycle lengths and exponents must be integers"):
            FrameShape(exps)
    assert FrameShape({1: 24, 2: 0}).exps == {1: 24}


def test_shape_exponents_are_read_only():
    # the hash reads exps, and registry shapes are shared cache keys
    exps = {2: 24, 1: -24}
    shape = FrameShape(exps)
    before = hash(shape)
    with pytest.raises(TypeError):
        shape.exps[3] = 0
    exps[2] = 0  # nor does the caller's dict reach it
    assert shape.exps == {2: 24, 1: -24} and hash(shape) == before == hash(parse("2^24/1^24"))


def test_chi():
    assert parse("1^24").chi() == 24
    assert parse("2^24/1^24").chi() == -24
    assert parse("3^12/1^12").chi() == -12


def test_negate_known_pairs():
    assert parse("1^24").negate() == parse("2^24/1^24")
    assert parse("3^12/1^12").negate() == parse("1^12.6^12/2^12.3^12")
    assert parse("5^6/1^6").negate() == parse("1^6.10^6/2^6.5^6")


def test_negate_is_involution_on_registry():
    for rec in registry():
        assert rec.frame_shape.negate().negate() == rec.frame_shape


def test_negate_negates_eigenvalues_pointwise():
    for rec in registry():
        ev = rec.frame_shape.eigenvalues()
        flipped = {(t + F(1, 2)) % 1: m for t, m in ev.items()}
        assert rec.frame_shape.negate().eigenvalues() == flipped


def brute_eigenvalues(exps):
    """The eigenvalue multiset of prod_m (1 - x^m)^(k_m), one Fraction(j, m)
    per root of each factor; multiplicities may be negative or zero."""
    mult = Counter()
    for m, k in exps.items():
        for j in range(m):
            mult[F(j, m)] += k
    return mult


def test_divisor_sum_eigenvalues_match_brute_force_on_registry():
    for rec in registry():
        for shape in (rec.frame_shape, rec.frame_shape.negate()):
            brute = brute_eigenvalues(shape.exps)
            assert shape.eigenvalues() == {t: k for t, k in brute.items() if k}, str(shape)


def fraction_eigenvalue_pairs(shape):
    """Oracle: the 12 pair angles by sorting the Fraction eigenvalue
    multiset and comparing each angle with 1/2."""
    mult = shape.eigenvalues()
    pairs = []
    for theta in sorted(mult):
        count = mult[theta]
        if theta == 0 or 2 * theta == 1:
            if count % 2:
                raise PairingError(
                    "eigenvalue at theta=%s has odd multiplicity %d" % (theta, count)
                )
            pairs.extend([theta] * (count // 2))
        elif theta < F(1, 2):
            if mult.get(1 - theta, 0) != count:
                raise PairingError(
                    "multiplicities at theta=%s and %s differ" % (theta, 1 - theta)
                )
            pairs.extend([theta] * count)
    if len(pairs) != 12:
        raise PairingError("expected 12 inverse pairs, got %d" % len(pairs))
    return pairs


def pairing_outcome(pairs_of, shape):
    """The pairs, or the PairingError message."""
    try:
        return pairs_of(shape)
    except PairingError as exc:
        return str(exc)


def test_divisor_sum_pairs_match_fraction_oracle_on_registry():
    for rec in registry():
        for shape in (rec.frame_shape, rec.frame_shape.negate()):
            pairs = shape.eigenvalue_pairs()
            assert pairs == fraction_eigenvalue_pairs(shape), str(shape)
            assert all(type(t) is F for t in pairs)


def test_determinant_minus_one_shape_has_no_pairing():
    shape = parse("1^2.2^1.4^1.16^1")
    with pytest.raises(PairingError, match=re.escape("eigenvalue at theta=0 has odd multiplicity 5")):
        shape.eigenvalue_pairs()
    assert pairing_outcome(fraction_eigenvalue_pairs, shape) == (
        "eigenvalue at theta=0 has odd multiplicity 5")


def test_eigenvalue_examples():
    assert parse("2^24/1^24").eigenvalues() == {F(1, 2): 24}
    assert parse("1^24").eigenvalues() == {F(0): 24}
    assert parse("3^12/1^12").eigenvalues() == {F(1, 3): 12, F(2, 3): 12}


def test_eigenvalues_closed_under_inversion_product_one():
    for rec in list(registry())[::7]:
        ev = rec.frame_shape.eigenvalues()
        assert sum(ev.values()) == 24
        total = sum(t * m for t, m in ev.items())
        assert total.denominator == 1  # product of eigenvalues is +1
        assert ev == {(1 - t) % 1: m for t, m in ev.items()}


def test_fixed_point_count_is_exponent_sum():
    for rec in registry():
        shape = rec.frame_shape
        assert shape.fixed_points() == sum(shape.exps.values()) == 0
        partner = shape.negate()
        assert partner.eigenvalues().get(F(0), 0) == partner.fixed_points()


def test_eta_quotient_delta():
    delta = parse("1^24").eta_quotient(1, 8)
    assert delta.valuation() == 1
    assert [delta.coeff(n) for n in range(1, 6)] == [1, -24, 252, -1472, 4830]


def test_eta_quotient_2a_product_form():
    f = parse("2^24/1^24").eta_quotient(1, 10)
    prod = monomial(1, 0, 9)
    for n in range(1, 9):
        prod = prod * (monomial(1, 0, 9) + monomial(1, n, 9))
    assert f.agrees_with(shifted(prod**24, 1))


def test_eta_quotient_valuation_scaling():
    for rec in list(registry())[::11]:
        pi = rec.frame_shape
        half = pi.eta_quotient(F(1, 2), 3)
        full = pi.eta_quotient(1, 3)
        assert half.valuation() == F(1, 2) and full.valuation() == 1
        assert (half * full.invert()).valuation() == F(-1, 2)


def test_eta_quotient_matches_eigenvalue_mode_product():
    # the defining products q * prod_n prod_i (1 - eps_i q^n) and
    # q^(-1/2) * prod_n prod_i (1 - eps_i q^(n-1/2)), computed from the
    # eigenvalues with no eta series at all, for every class and its partner
    for rec in registry():
        for shape in (rec.frame_shape, rec.frame_shape.negate()):
            ms = ModeSystem.from_shape(shape, TWISTED, 2)
            assert shape.eta_quotient(1, 3).agrees_with(twisted_supertrace(ms, 1)), rec.co0_name
            ms = ModeSystem.from_shape(shape, UNTWISTED, 2)
            assert t_tilde(shape, 2).agrees_with(untwisted_supertrace(ms)), rec.co0_name


def test_canonical_string_round_trip():
    for rec in registry():
        assert parse(str(rec.frame_shape)) == rec.frame_shape
