"""The one rule for exact inputs (errors.integer and errors.rational), checked
at every entry point that reads a number: bools, floats and strings are refused
with the site's message, and numpy integers give what the equal int gives,
held as Python ints."""

import re
from fractions import Fraction as F

import numpy as np
import pytest

from conwaymoonshine.cliffordcm import DenseState, WordTable
from conwaymoonshine.cyclotomic import CycNumber, cyclotomic_polynomial
from conwaymoonshine.errors import ValidationError, integer, rational
from conwaymoonshine.fockoracle import UNTWISTED, ModeSystem, subset_enumeration_supertrace
from conwaymoonshine.frameshape import FrameShape, parse
from conwaymoonshine.lattice import BinaryCode, IntegerLattice
from conwaymoonshine.moonshine import T_s_tw, verify_delta_identity, verify_hecke
from conwaymoonshine.qseries import FracPowerSeries as S, combination, eta_product

REFUSED = (True, np.True_, 2.0, 0.1, "2")
SERIES = eta_product({1: 24}, 4)  # q - 24 q^2 + 252 q^3 + O(q^4)
ZETA = CycNumber(4, (1, 1))  # 1 + i
IDENT = parse("1^24")
SCALED_CUBE = [[8 * (i == j) for j in range(24)] for i in range(24)]
OPERAND = "series operands must be series, ints or Fractions"
CYC_OPERAND = "cyclotomic operands must be cyclotomic numbers, ints or Fractions"


def sites(golay, leech, lift):
    """(site, call taking the number, the site's refusal message, a valid int there)."""
    octad = next(w for w in golay.words() if w.bit_count() == 8)

    def lattice_with(v):
        basis = [row[:] for row in SCALED_CUBE]
        basis[0][0] = v
        return IntegerLattice(basis)

    return [
        ("series coefficient", lambda v: S(1, {0: v}, 3), "series coefficients must be ints or Fractions", 2),
        ("series order", lambda v: S(1, {0: 1}, v), "series orders must be ints or Fractions", 2),
        ("series denominator", lambda v: S(v, {0: 1}, 3), "series denominators must be integers", 2),
        ("coeff exponent", SERIES.coeff, "exponents must be ints or Fractions", 2),
        ("scale_tau", SERIES.scale_tau, "scale factors must be ints or Fractions", 2),
        ("series +", lambda v: SERIES + v, OPERAND, 2),
        ("series -", lambda v: SERIES - v, OPERAND, 2),
        ("series *", lambda v: SERIES * v, OPERAND, 2),
        ("combination order", lambda v: combination(((SERIES, 1),), v), "series orders must be ints or Fractions", 2),
        ("combination scale", lambda v: combination(((SERIES, v),), 3), OPERAND, 2),
        ("combination constant", lambda v: combination(((SERIES, 1),), 3, v), OPERAND, 2),
        ("eta_product order", lambda v: eta_product({1: 24}, v), "series orders must be ints or Fractions", 2),
        ("eta_product scale", lambda v: eta_product({v: 24}, 5), "eta scales must be ints or Fractions", 2),
        ("eta_product exponent", lambda v: eta_product({1: v}, 5), "eta exponents must be integers", 2),
        ("cyclotomic coordinate", lambda v: CycNumber(4, (v, 0)), "cyclotomic coordinates must be ints or Fractions", 2),
        ("cyclotomic level", lambda v: CycNumber(v, (1,)), "cyclotomic levels must be integers", 2),
        ("cyclotomic *", lambda v: ZETA * v, CYC_OPERAND, 2),
        ("cyclotomic -", lambda v: ZETA - v, CYC_OPERAND, 2),
        ("cyclotomic /", lambda v: ZETA / v, CYC_OPERAND, 2),
        ("shape cycle length", lambda v: FrameShape({v: 12}), "cycle lengths and exponents must be integers", 2),
        ("shape exponent", lambda v: FrameShape({1: 20, 2: v}), "cycle lengths and exponents must be integers", 2),
        ("eta_quotient scale", lambda v: IDENT.eta_quotient(v, 3), "eta quotient scales must be ints or Fractions", 2),
        ("delta identity order", verify_delta_identity, "orders must be ints or Fractions", 2),
        ("Hecke order", verify_hecke, "orders must be ints or Fractions", 3),
        ("mode angle", lambda v: ModeSystem((v,) * 24, UNTWISTED, 2), "eigenvalue angles must be ints or Fractions", 1),
        ("mode max_degree", lambda v: ModeSystem.from_shape(IDENT, UNTWISTED, v), "max_degree must be an int or a Fraction", 2),
        ("subset budget", lambda v: subset_enumeration_supertrace(ModeSystem((0,) * 24, UNTWISTED, 2), budget=v),
         "budget must be an int or a Fraction", 1),
        ("code generator", lambda v: BinaryCode(golay.generators[:11] + (v,)), "generators must be integer masks",
         golay.generators[11]),
        ("code membership", golay.contains, "masks must be integers", octad),
        ("lattice basis entry", lattice_with, "basis entries must be integers", 8),
        ("shell norm", leech.shell_count, "shell norms must be integers", 4),
        ("basis state mask", DenseState.basis, "basis mask must be an integer", 5),
        ("word mask", WordTable, "word masks must be integers", 3),
        ("word masks", lambda v: WordTable([3, v]), "word masks must be integers", 3),
        ("lifted word mask", lift.word_table, "word masks must be integers", golay.generators[0]),
    ]


def numbers(x):
    """The numbers a result holds; a truth value holds none."""
    if isinstance(x, bool):
        return []
    if isinstance(x, (int, F, np.integer, float)):
        return [x]
    if isinstance(x, S):
        return [x.denom, *x.terms.values()]
    if isinstance(x, CycNumber):
        return [x.level, *x.coords]
    if isinstance(x, FrameShape):
        return [*x.exps, *x.exps.values()]
    if isinstance(x, ModeSystem):
        return [*x.eigen_thetas, x.max_degree]
    if isinstance(x, BinaryCode):
        return list(x.generators)
    if isinstance(x, IntegerLattice):
        return [c for row in x.basis for c in row]
    return []  # a report, a dense state or a word table: compared whole


def same(a, b):
    if isinstance(a, DenseState):
        return a.equals(b)
    if isinstance(a, (BinaryCode, IntegerLattice)):
        return numbers(a) == numbers(b)
    return a == b


def test_every_site_refuses_inexact_numbers_and_reads_numpy_integers_as_ints(golay, leech, lift):
    for site, call, message, good in sites(golay, leech, lift):
        for bad in REFUSED:
            with pytest.raises(ValidationError, match=message):
                call(bad)
        want = call(good)
        for cast in (np.int64, np.uint32):
            got = call(cast(good))
            assert same(got, want), (site, cast)
            for n in numbers(got):
                assert type(n) is int or (type(n) is F and n.denominator != 1), (site, cast, n)


def test_numpy_integers_are_python_ints_before_any_arithmetic():
    # int64 coefficients wrapped: 2^62 * 2 was -2^63
    assert (S(1, {0: np.int64(2**62)}, 3) * 2).coeff(0) == 2**63
    assert type(S(1, {0: np.int64(3)}, 3).coeff(0)) is int
    assert (SERIES * np.int64(2**62)).coeff(1) == 2**62
    assert (ZETA * np.int64(2**62)).coords == (2**62, 2**62)


def test_refusals_of_malformed_input_are_validation_errors():
    cases = [
        (lambda: S(0, {}, 1), "denominator must be positive"),
        (lambda: S(2, {}, 1).rescaled(3), "can only refine the exponent grid"),
        (lambda: SERIES.scale_tau(0), "scale factor must be positive"),
        (lambda: SERIES.scale_tau(F(-1, 2)), "scale factor must be positive"),
        (lambda: eta_product({0: 1}, 5), "eta scales must be positive"),
        (lambda: eta_product({1.5: 1}, 5), "eta scales must be ints or Fractions: 1.5"),
        (lambda: eta_product({1: 1.5}, 5), "eta exponents must be integers: 1.5"),
        (lambda: cyclotomic_polynomial(0), "level must be a positive integer"),
        (lambda: ZETA.raise_level(6), "new level must be a multiple of the old one"),
        (lambda: T_s_tw(IDENT, 3), "supply c_value when passing a bare Frame shape"),
    ]
    for call, message in cases:
        with pytest.raises(ValidationError, match=re.escape(message)):
            call()


def test_the_rule_itself():
    assert integer(np.uint32(7), "m") == 7 and type(integer(np.int64(7), "m")) is int
    assert rational(F(6, 3), "m") == 2 and type(rational(F(6, 3), "m")) is int
    assert rational(F(1, 3), "m") == F(1, 3)
    for bad in (True, False, np.False_, 1.0, F(1), "1", None, np.array([1])):
        with pytest.raises(ValidationError, match="^%s$" % re.escape("no good: %r" % (bad,))):
            integer(bad, "no good: %r", bad)
    for bad in (True, np.True_, 0.5, "1/2", None):
        with pytest.raises(ValidationError, match="^no good$"):
            rational(bad, "no good")
