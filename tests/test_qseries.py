import ast
import random
from collections import Counter
from fractions import Fraction as F
from math import comb, gcd, prod
from operator import mul
from pathlib import Path

import pytest

from conwaymoonshine import modgroups, qseries
from conwaymoonshine.classdata import lookup, registry
from conwaymoonshine.errors import NotInvertibleError, NotRationalError, PrecisionError
from conwaymoonshine.frameshape import parse
from conwaymoonshine.moonshine import T_s, T_s_tw, solve_c_neg
from conwaymoonshine.qseries import FracPowerSeries as S, combination, eta, eta_product


def monomial(coeff, expo, order):
    """coeff * q^expo + O(q^order); PrecisionError unless expo < order."""
    return S.from_fraction_terms([(F(expo), coeff)], order)


def shifted(series, expo):
    """series times the exact monomial q^expo: exponents and order move."""
    pairs = [(F(p, series.denom) + expo, c) for p, c in series.terms.items()]
    return S.from_fraction_terms(pairs, series.order + expo)


def geometric(order):
    return S.from_fraction_terms([(F(n), F(1)) for n in range(order)], order)


def test_monomial_examples():
    m = monomial(1, F(-1, 2), 10)
    assert m.valuation() == F(-1, 2) and m.order == 10
    assert monomial(0, 0, 5).is_zero()
    c = monomial(24, 0, 3)
    assert c.coeff(0) == 24
    with pytest.raises(PrecisionError):
        monomial(1, 10, 10)


def test_off_grid_order_keeps_exactly_the_terms_below_it():
    # order 7/3 on grid 2: q^2 (p = 4) lies below it, q^(5/2) (p = 5) does not
    order = F(7, 3)
    assert S(2, {4: 1}, order).coeff(2) == 1
    with pytest.raises(PrecisionError):
        S(2, {5: 1}, order)
    full = S(2, {4: 1, 5: 1}, 3)
    cut = combination(((full, 1),), order)
    assert cut.order == order and cut.terms == {4: 1}
    total = full + S(1, {2: 1}, order)  # grids 2 and 1, order min(3, 7/3)
    assert total.order == order and total.terms == {4: 2}
    other = S(2, {4: 1, 5: 2}, 3)
    assert full.agrees_with(other, through=order)
    assert full.agrees_with(other, through=F(5, 2))  # p < 5: q^(5/2) excluded
    assert not full.agrees_with(other, through=F(8, 3))  # p < 16/3 takes in p = 5
    assert not full.agrees_with(S(2, {4: 2, 5: 1}, 3), through=order)


def test_mul_geometric_inverse():
    one_minus_q = monomial(1, 0, 8) - monomial(1, 1, 8)
    assert (one_minus_q * geometric(8)).agrees_with(monomial(1, 0, 8))


def test_mul_keeps_terms_below_an_off_grid_order():
    half = monomial(1, 0, F(1, 2)) * monomial(1, 0, 5)
    assert half.order == F(1, 2) and half.coeff(0) == 1


def test_mul_by_constant_identity():
    e = eta(9)
    assert e * 1 == e
    assert (e * F(3, 2)).coeff(F(1, 24)) == F(3, 2)


def test_eta_eta_inverse():
    e = eta(12)
    prod = e * e.invert()
    assert prod.agrees_with(monomial(1, 0, prod.order))


def test_invert_examples():
    inv = (monomial(1, 0, 9) - monomial(1, 1, 9)).invert()
    assert all(inv.coeff(n) == 1 for n in range(9))
    assert eta(10).invert().valuation() == F(-1, 24)
    with pytest.raises(NotInvertibleError):
        S(1, {}, 5).invert()


def test_invert_at_orders_off_the_grid():
    # order * denom is not an integer here: the last computed term lies just
    # below the order, and the inverse is the eta product of negated exponents
    for exps, order in (({1: 1}, F(3, 48)), ({1: 1}, F(121, 48)), ({1: 24}, F(49, 48))):
        series = eta_product(exps, order)
        inv = series.invert()
        assert inv.order == order - 2 * series.valuation()
        assert inv == eta_product({a: -k for a, k in exps.items()}, inv.order)
    assert eta(F(3, 48)).invert() == eta_product({1: -1}, F(-1, 48))


def test_invert_matches_long_division():
    # divide 1 by eta term by term, the schoolbook way
    e = eta(8)
    inv = e.invert()
    k = e.denom
    terms = dict(e.terms)
    v = min(terms)
    lead = terms[v]
    remainder = {0: F(1)}
    quotient = {}
    for step in range(int(inv.order * k) - (-v)):
        n = min(remainder) if remainder else None
        if n is None:
            break
        c = F(remainder[n], lead)
        quotient[n - v] = c
        for p, a in terms.items():
            key = n - v + p
            remainder[key] = remainder.get(key, F(0)) - c * a
            if remainder[key] == 0:
                del remainder[key]
    for p, c in quotient.items():
        if F(p, k) < inv.order:
            assert inv.coeff(F(p, k)) == c


def test_eta_first_terms_and_minimal_order():
    e = eta(10)
    base = F(1, 24)
    expected = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1}
    for n, c in expected.items():
        assert e.coeff(base + n) == c
    first = eta(F(1, 12))
    assert [F(p, first.denom) for p in sorted(first.terms)] == [F(1, 24)]


def product_eta(order):
    """eta by the term-by-term product q^(1/24) * prod_(n < order) (1 - q^n)."""
    series = monomial(1, 0, order)
    n = 1
    while n < order:
        series = series * (monomial(1, 0, order) - monomial(1, n, order))
        n += 1
    return shifted(series, F(1, 24))


def pentagonal_eta(order):
    """eta by Euler's pentagonal theorem: sum_k (-1)^k q^(1/24 + k(3k-1)/2)."""
    order = F(order)
    terms = {}
    limit = order - F(1, 24)  # pentagonal exponents must stay below this
    k = 0
    while True:
        placed = False
        for kk in ((k, -k) if k else (0,)):
            e = F(kk * (3 * kk - 1), 2)
            if e < limit:
                terms[e * 24 + 1] = 1 if kk % 2 == 0 else -1
                placed = True
        if not placed and k > 0:
            break
        k += 1
    return S(24, {int(p): c for p, c in terms.items()}, order)


def product_eta_product(exps, order):
    """prod_a eta(a*tau)^(k_a) from product_eta, scale_tau and powers."""
    order = F(order)
    valuation = F(sum(k * F(a) for a, k in exps.items()), 24)
    base = (order - valuation) / min(map(F, exps)) + 1
    return prod(product_eta(base).scale_tau(a) ** k for a, k in exps.items())


@pytest.mark.parametrize("order", [F(7, 2), 11, F(49, 3)])
def test_eta_against_product_oracle(order):
    assert eta(order).agrees_with(product_eta(order))


@pytest.mark.parametrize(
    "exps",
    [
        {F(1, 2): 3, 1: -2, F(3, 2): 1, 2: -1},
        {F(1, 2): -5, 1: 4, F(3, 2): -2, 2: 3},
        {F(1, 2): 8, 1: 0, 2: -8},  # t~ of 1^8.2^8: the scale-1 exponents cancel
    ],
)
def test_eta_product_against_product_oracle(exps):
    order = F(13, 2)
    got = eta_product(exps, order)
    want = product_eta_product(exps, order)
    assert got.order == order and want.order >= order
    assert got.agrees_with(want)


def test_eta_product_against_pentagonal_theorem():
    # 500 coefficients: past the crossover, so the blocked recurrence
    assert eta_product({1: 1}, 500) == pentagonal_eta(500)
    assert eta_product({3: 1}, 500) == pentagonal_eta(F(500, 3)).scale_tau(3)


def binomial_product_24(count):
    """c_0 .. c_(count-1) of prod_(n>=1) (1 + x^n)^24, one sparse binomial
    (1 + x^n)^24 = sum_k C(24, k) x^(nk) at a time."""
    coeffs = [1] + [0] * (count - 1)
    for n in range(1, count):
        out = coeffs[:]
        for k in range(1, min(24, (count - 1) // n) + 1):
            ck, shift = comb(24, k), n * k
            out[shift:] = [o + ck * c for o, c in zip(out[shift:], coeffs)]
        coeffs = out
    return coeffs


def test_eta_product_past_the_crossover_against_binomial_product():
    # eta(2 tau)^24 / eta(tau)^24 = q prod (1 + q^n)^24, with a negative
    # exponent and coefficients of up to 271 bits, several limbs each
    got = eta_product({2: 24, 1: -24}, 512)
    assert got == S(1, dict(enumerate(binomial_product_24(511), 1)), 512)


def test_eta_product_errors_and_empty_map():
    with pytest.raises(PrecisionError):
        eta_product({1: 24}, 1)  # valuation 1
    with pytest.raises(PrecisionError):
        eta_product({F(1, 2): 24, 1: -24}, F(-1, 2))
    with pytest.raises(ValueError):
        eta_product({0: 1}, 5)
    with pytest.raises(ValueError):
        eta_product({F(-1, 2): 2, 1: 1}, 5)
    assert eta_product({}, 5) == monomial(1, 0, 5)
    assert eta_product({3: 0}, F(1, 2)) == monomial(1, 0, F(1, 2))


def test_eta_product_grid_is_lcm_of_factor_grids():
    assert parse("1^24").eta_quotient(1, 3).denom == 24
    assert eta_product({3: 8}, 4).denom == 8
    assert eta_product({F(1, 2): 1, 3: -1}, 4).denom == 48
    rows = {
        "2A": (
            [[-24, 48, 1, 1], [24, 48, 276, 1], [48, 48, 2048, 1], [72, 48, 11202, 1]],
            [[0, 24, 24, 1], [24, 24, 4096, 1]],
        ),
        "30A": (
            [[-24, 48, 1, 1], [24, 48, 3, 1], [48, 48, 1, 1]],
            [[0, 24, 3, 1], [24, 24, 1, 1]],
        ),
    }
    for name, (untwisted, twisted) in rows.items():
        rec = lookup(name)
        assert T_s(rec.frame_shape, 2).to_json() == {"terms": untwisted, "order": [2, 1]}
        assert T_s_tw(rec, 2).to_json() == {"terms": twisted, "order": [2, 1]}


def test_hash_agrees_with_equality_across_grids():
    s = eta(5)
    assert s == s.rescaled(48)
    assert len({s, s.rescaled(48)}) == 1


def test_scale_tau():
    e = eta(10)
    assert e.scale_tau(2).valuation() == F(2, 24)
    assert e.scale_tau(F(1, 2)).valuation() == F(1, 48)
    round_trip = e.scale_tau(2).scale_tau(F(1, 2))
    assert round_trip == e


def test_scale_tau_multiplicative():
    rng = random.Random(5)
    a = _random_series(rng)
    s1, s2 = F(3, 2), F(2, 5)
    assert a.scale_tau(s1).scale_tau(s2) == a.scale_tau(s1 * s2)


def test_combination_shift_examples():
    e = eta(6).scale_tau(24)  # integer exponents
    assert combination(((e, 1, 1),), e.order) == e
    m = monomial(1, F(1, 2), 3)
    assert combination(((m, 1, 1),), 3).coeff(F(1, 2)) == -1
    assert combination(((m, 1, 1), (m, 1)), 3).is_zero()


def _random_series(rng, maxdenom=6):
    k = rng.choice([1, 2, 3, 4, 6])
    order = F(rng.randrange(3, 9))
    pairs = []
    for _ in range(rng.randrange(1, 7)):
        p = rng.randrange(-4 * k, int(order) * k)
        pairs.append((F(p, k), F(rng.randrange(-5, 6), rng.randrange(1, maxdenom))))
    return S.from_fraction_terms(pairs, order)


def test_ring_laws_on_random_triples():
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (_random_series(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert (a * (b + c)).agrees_with(a * b + a * c)


def test_invert_two_sided_on_random_units():
    rng = random.Random(8)
    for _ in range(100):
        a = _random_series(rng)
        if a.is_zero():
            continue
        inv = a.invert()
        one = monomial(1, 0, (a * inv).order)
        assert (a * inv).agrees_with(one)
        assert (inv * a).agrees_with(one)


def test_order_tracking_soundness():
    # same pipeline at two orders must agree below the smaller one
    lo = eta(9) * eta(9).scale_tau(2).invert()
    hi = eta(20) * eta(20).scale_tau(2).invert()
    assert lo.agrees_with(hi, through=6)


def test_strict_equality_needs_matching_orders():
    with pytest.raises(PrecisionError):
        eta(8) == eta(9)
    assert combination(((eta(9), 1),), 8) == eta(8)


def test_coeff_beyond_order_errors():
    with pytest.raises(PrecisionError):
        eta(5).coeff(7)


def test_text_round_trip():
    a = eta(7) * 3 - monomial(F(7, 2), F(5, 8), 4)
    assert S.from_text(a.to_text()) == a


def fraction_text(series):
    """Oracle: to_text with a Fraction made for each coefficient and exponent."""
    lines = []
    for p in sorted(series.terms):
        c = F(series.terms[p])
        e = F(p, series.denom)
        lines.append("%d/%d q^{%d/%d}" % (c.numerator, c.denominator, e.numerator, e.denominator))
    lines.append("O(q^{%d/%d})" % (series.order.numerator, series.order.denominator))
    return "\n".join(lines)


def fraction_max_residual(series):
    """Oracle: max_residual over the coefficients made Fractions."""
    return max((abs(F(c)) for c in series.terms.values()), default=F(0))


def assert_text_and_residual_match_oracle(series):
    assert series.to_text() == fraction_text(series)
    worst = series.max_residual()
    assert worst == fraction_max_residual(series) and type(worst) is F


def test_text_and_max_residual_match_fraction_oracle():
    zero = S(48, {}, F(-7, 3))
    assert zero.to_text() == "O(q^{-7/3})" and zero.max_residual() == 0
    assert_text_and_residual_match_oracle(zero)
    cases = [
        S(6, {-13: F(-5, 4), -6: 3, 0: -1, 4: F(7, 2), 9: 2}, 2),  # q^{-13/6} ... q^{3/2}
        eta(7) * 3 - monomial(F(7, 2), F(5, 8), 4),
        T_s(parse("1^3.6^9/2^3.3^9"), 6),
        T_s_tw(lookup("30A"), 4) * F(1, 3),
    ]
    for series in cases:
        assert_text_and_residual_match_oracle(series)


def test_json_round_trip():
    a = eta(7).scale_tau(F(3, 2)) - monomial(2, -1, 5)
    assert S.from_json(a.to_json()) == a


def test_combination_shift_with_a_phase_other_than_a_sign_is_not_rational():
    with pytest.raises(NotRationalError):
        combination(((monomial(1, F(1, 3), 2), 1, 1),), 2)


def test_series_layer_does_not_import_cyclotomic():
    # the series coefficients are rational; roots of unity stay out of this layer
    for module in (qseries, modgroups):
        names = set()
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.ImportFrom):
                names.add(node.module or "")
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
        assert not [n for n in names if "cyclotomic" in n.split(".")], module.__name__


# -- the eta-product coefficient cache and the s_i table ----------------------


def fresh_eta_product(exps, order):
    """eta_product expanded from nothing: the cache is emptied for the call
    and restored afterwards."""
    saved = qseries._ETA_CACHE, qseries._eta_cached
    qseries._ETA_CACHE, qseries._eta_cached = {}, 0
    try:
        return eta_product(exps, order)
    finally:
        qseries._ETA_CACHE, qseries._eta_cached = saved


@pytest.fixture
def empty_eta_cache(monkeypatch):
    monkeypatch.setattr(qseries, "_ETA_CACHE", {})
    monkeypatch.setattr(qseries, "_eta_cached", 0)


def assert_fresh(exps, order):
    got = eta_product(exps, order)
    want = fresh_eta_product(exps, order)
    assert got == want and got.to_json() == want.to_json()
    return got


def assert_cache_consistent():
    lengths = [len(c) for c in qseries._ETA_CACHE.values()]
    assert sum(lengths) == qseries._eta_cached <= qseries._ETA_CACHE_TERMS


CACHE_MAPS = [
    {1: 24},
    {F(1, 2): 8, 1: -16, 2: 8},  # t~ of 1^8.2^8
    {F(1, 2): -5, 1: 4, F(3, 2): -2, 2: 3},
    {F(7, 2): 1, F(5, 3): -2},
]


@pytest.mark.parametrize("exps", CACHE_MAPS)
def test_eta_cache_long_then_short_and_short_then_long(empty_eta_cache, exps):
    v = F(sum(k * F(a) for a, k in exps.items()), 24)
    for orders in ((v + 30, v + 3, v + F(1, 7)), (v + F(1, 7), v + 3, v + 30)):
        qseries._ETA_CACHE.clear()
        qseries._eta_cached = 0
        for order in orders:
            assert_fresh(exps, order)
        assert_cache_consistent()


def test_eta_cache_extends_across_several_orders(empty_eta_cache):
    exps = {F(1, 2): 24, 1: -24}
    key = qseries._grid_key(exps)
    lengths = []
    for order in (F(1, 2), 2, F(13, 3), 9, 25, 60):
        assert_fresh(exps, order)
        lengths.append(len(qseries._ETA_CACHE[key]))
    assert lengths == sorted(lengths) and lengths[0] < lengths[-1]
    assert_fresh(exps, 5)  # a prefix once more
    assert len(qseries._ETA_CACHE[key]) == lengths[-1]


def test_eta_cache_keeps_two_maps_on_one_grid_apart(empty_eta_cache):
    a, b = {1: 24, 2: -24}, {2: 24, 1: -24}
    assert qseries._grid_key(a)[0] == qseries._grid_key(b)[0] == 24
    assert qseries._grid_key(a) != qseries._grid_key(b)
    for order in (3, 8, 2, 12):
        assert_fresh(a, order)
        assert_fresh(b, order)
    assert len(qseries._ETA_CACHE) == 2


def test_eta_cache_empty_map(empty_eta_cache):
    for order in (5, 9, F(1, 2), 2):
        assert assert_fresh({}, order) == monomial(1, 0, order)
    assert assert_fresh({3: 0}, 4) == monomial(1, 0, 4)


def test_eta_cache_invalid_orders_raise_as_before(empty_eta_cache):
    eta_product({1: 24}, 20)
    eta_product({F(1, 2): 24, 1: -24}, 20)
    cases = [
        ({1: 24}, 1, PrecisionError),
        ({1: 24}, F(1, 2), PrecisionError),
        ({F(1, 2): 24, 1: -24}, F(-1, 2), PrecisionError),
        ({0: 1}, 5, ValueError),
        ({F(-1, 2): 2, 1: 1}, 5, ValueError),
    ]
    for exps, order, error in cases:
        with pytest.raises(error) as cached:
            eta_product(exps, order)
        with pytest.raises(error) as fresh:
            fresh_eta_product(exps, order)
        assert str(cached.value) == str(fresh.value)
    assert_cache_consistent()


def test_eta_cache_is_not_changed_through_a_returned_series(empty_eta_cache):
    exps = {F(1, 2): 8, 1: -16, 2: 8}
    first = eta_product(exps, 10)
    first.terms.clear()
    first.terms[0] = 99
    assert_fresh(exps, 10)
    shorter = eta_product(exps, 4)
    shorter.terms[-12] = 7
    assert_fresh(exps, 4)
    assert_fresh(exps, 10)


def test_eta_cache_bound_evicts_least_recently_used(empty_eta_cache, monkeypatch):
    monkeypatch.setattr(qseries, "_ETA_CACHE_TERMS", 60)
    a, b, c = {1: 1}, {1: 2}, {1: 3}
    assert_fresh(a, 20)  # 20 coefficients
    assert_fresh(b, 20)
    assert_fresh(a, 10)  # a is now the most recently used
    assert_fresh(c, 30)  # 70 > 60: b goes, a stays
    assert_cache_consistent()
    assert list(qseries._ETA_CACHE) == [qseries._grid_key(a), qseries._grid_key(c)]
    assert_fresh({1: 4}, 100)  # longer than the bound: made, not kept, evicts nothing
    assert list(qseries._ETA_CACHE) == [qseries._grid_key(a), qseries._grid_key(c)]
    assert_cache_consistent()


def test_normalization_after_the_lemma_sweep_runs_no_recurrence_step(
        empty_eta_cache, monkeypatch):
    steps = []
    run = qseries._continue

    def spy(coeffs, sigma, count):
        steps.append(count - len(coeffs))
        run(coeffs, sigma, count)

    monkeypatch.setattr(qseries, "_continue", spy)
    for rec in registry():
        solve_c_neg(rec, 25)
    assert sum(steps) > 0  # the spy sees the lemma's expansions
    del steps[:]
    for rec in registry():
        for pi in (rec.frame_shape, rec.frame_shape.negate()):
            assert T_s(pi, 6).coeff(0) == 0
    assert sum(steps) == 0


def test_sigma1_table_matches_brute_force():
    table = qseries._sigma1(600)
    assert len(table) >= 600
    assert table[:600] == [sum(d for d in range(1, m + 1) if m % d == 0) for m in range(1, 601)]


def test_sigma1_sieve_matches_the_divisor_loop(monkeypatch):
    """The sieve against the loop it replaced (one slice update per divisor
    d): built from an empty table at every size up to 2048 and at 4095,
    4096, 4097 and 5000, and grown by doubling from 1 through 5000; the
    entries are Python ints."""
    def divisor_loop(n):
        table = [0] * n
        for d in range(1, n + 1):
            table[d - 1::d] = [t + d for t in table[d - 1::d]]
        return table

    want = divisor_loop(5000)
    for size in [*range(2, 2049), 4095, 4096, 4097, 5000]:
        monkeypatch.setattr(qseries, "_SIGMA1", [1])
        assert qseries._sigma1(size) == want[:size]
    monkeypatch.setattr(qseries, "_SIGMA1", [1])
    lengths = {len(qseries._sigma1(size)) for size in range(1, 5001)}
    assert lengths == {2**j for j in range(14)}
    assert qseries._sigma1(5000)[:5000] == want
    assert all(type(v) is int for v in qseries._sigma1(5000))


def nested_divisor_log_derivative(on_grid, count):
    """Oracle: s_1 .. s_(count-1) by the nested divisor loop, s_i += k*j for
    every factor (1 - x^j)^k with j | i."""
    unit = gcd(*(a for a, _ in on_grid)) or 1
    sigma = [0] * count
    for a, k in on_grid:
        for j in range(a // unit, count, a // unit):
            for i in range(j, count, j):
                sigma[i - 1] += k * j
    return sigma[:count - 1]


def assert_log_derivative_matches_oracle(exps, count):
    _, on_grid = qseries._grid_key(exps)
    unit = gcd(*(a for a, _ in on_grid)) or 1
    got = qseries._log_derivative({a // unit: k for a, k in on_grid}, count)
    assert got == nested_divisor_log_derivative(on_grid, count), exps


def test_log_derivative_matches_nested_divisor_loop_on_registry_maps():
    for rec in registry():
        for pi in (rec.frame_shape, rec.frame_shape.negate()):
            t_map = Counter({F(m, 2): k for m, k in pi.exps.items()})
            t_map.subtract(pi.exps)
            for exps in (t_map, dict(pi.exps)):
                for count in (1, 2, 60, 400):
                    assert_log_derivative_matches_oracle(exps, count)


# -- the blocked recurrence past the crossover --------------------------------


def plain_continue(coeffs, sigma, count):
    """Reference: the recurrence with every sum one Python dot product."""
    for n in range(len(coeffs), count):
        coeffs.append(-sum(map(mul, sigma, reversed(coeffs))) // n)


def registry_steps():
    """{step: k} of the t~ and eta_pi maps of every registry shape and its
    negation, once per distinct map, as _eta_coefficients passes them."""
    steps = {}
    for rec in registry():
        for pi in (rec.frame_shape, rec.frame_shape.negate()):
            t_map = Counter({F(m, 2): k for m, k in pi.exps.items()})
            t_map.subtract(pi.exps)
            for exps in (t_map, dict(pi.exps)):
                key = qseries._grid_key(exps)
                unit = gcd(*(a for a, _ in key[1])) or 1
                steps[key] = {a // unit: k for a, k in key[1]}
    return list(steps.values())


CONTINUE_COUNTS = (127, 128, 129, 160, 511)
# mid-block, on a block boundary, and on either side of the crossover
CONTINUE_STARTS = (1, 31, 32, 33, 127, 128, 300)


def test_limbs_recombine_exactly_and_stay_balanced():
    for width in (2, 3, 41, 62):
        half = 1 << (width - 1)
        values = [s * ((1 << j) + d) for j in range(3 * width) for d in (-1, 0, 1)
                  for s in (1, -1)]
        # alone, each value sets the row length; together, the largest does
        for batch in [[c] for c in values] + [values]:
            rows = qseries._limbs(batch, width).tolist()
            for c, row in zip(batch, rows):
                assert sum(v << (width * k) for k, v in enumerate(row)) == c, (width, c)
                assert max(map(abs, row)) <= half, (width, c)


def assert_continue_matches_plain_loop(steps, counts, starts):
    want = [1]
    plain_continue(want, qseries._log_derivative(steps, max(counts)), max(counts))
    for count, start in zip(counts, starts):
        got = want[:min(start, count)]
        qseries._continue(got, qseries._log_derivative(steps, count), count)
        assert got == want[:count], (steps, count, start)


def test_blocked_continue_matches_plain_loop_on_registry_maps():
    assert qseries._CROSSOVER == 128 and qseries._BLOCK == 32
    maps = registry_steps()
    assert len(maps) > 200
    for index, steps in enumerate(maps):
        # each map from five of the starts; every (count, start) pair over the maps
        starts = [CONTINUE_STARTS[(index + k) % 7] for k in range(5)]
        assert_continue_matches_plain_loop(steps, CONTINUE_COUNTS, starts)


@pytest.mark.parametrize("steps, limbs", [
    ({2: 24, 1: -24}, (4, 7)),  # 2A's eta_pi, 41-bit limbs: c_127 has 128 bits, c_510 271
    ({1: -1}, (1, 2)),  # the partition numbers, 45-bit limbs: p(127) has 32 bits, p(510) 72
])
def test_blocked_continue_from_every_start_while_the_limb_table_widens(
        monkeypatch, steps, limbs):
    widths = []
    split = qseries._limbs

    def spy(values, width):
        rows = split(values, width)
        widths.append(rows.shape[1])
        return rows

    monkeypatch.setattr(qseries, "_limbs", spy)
    for start in CONTINUE_STARTS:
        assert_continue_matches_plain_loop(steps, CONTINUE_COUNTS, [start] * 5)
    del widths[:]
    assert_continue_matches_plain_loop(steps, (511,), (1,))
    # the first 128 coefficients are split at once, then each block of 32 as made
    assert len(widths) == 1 + (511 - 128 - 1) // 32
    assert (widths[0], max(widths)) == limbs


def test_blocked_continue_guard_falls_back_to_the_plain_loop(monkeypatch):
    """sum |s_i| < 2^(63 - width) keeps the int64 far sums exact; with no
    width of 2 bits the plain loop runs and gives the same list."""
    split = qseries._limbs
    calls = []

    def spy(values, width):
        calls.append(width)
        return split(values, width)

    monkeypatch.setattr(qseries, "_limbs", spy)
    count = 160
    total = sum(qseries._sigma1(count)[:count - 1]).bit_length()  # of sum sigma_1(i), i < 160
    for k, width in ((2 ** (61 - total), 2), (2 ** (62 - total), 1), (-2 ** 50, None),
                     (2 ** 61, None)):
        del calls[:]
        assert_continue_matches_plain_loop({1: k}, (count,), (1,))
        assert calls == ([width] if width == 2 else []), k  # one block: 128 .. 159
