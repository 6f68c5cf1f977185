import random
from fractions import Fraction as F

import pytest

from conwaymoonshine.cyclotomic import (
    CycNumber,
    cyclotomic_polynomial,
    euler_phi,
    zeta,
)
from conwaymoonshine.errors import NotRationalError


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert len(cyclotomic_polynomial(12)) - 1 == euler_phi(12) == 4


def _poly_div_exact(num, den):
    """Exact division of integer polynomials (ascending coefficients)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        q, r = divmod(num[k + len(den) - 1], den[-1])
        assert r == 0, "non-exact polynomial division"
        out[k] = q
        if q:
            for j, dj in enumerate(den):
                num[k + j] -= q * dj
    assert not any(num), "non-exact polynomial division"
    return out


def _cyclotomic_by_division(limit):
    """Phi_n for n <= limit as x^n - 1 divided by Phi_d for every proper
    divisor d of n: an oracle independent of the Mobius product."""
    phi = {}
    for n in range(1, limit + 1):
        poly = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                poly = _poly_div_exact(poly, phi[d])
        phi[n] = tuple(poly)
    return phi


def test_cyclotomic_polynomial_matches_division_oracle():
    for n, poly in _cyclotomic_by_division(300).items():
        assert cyclotomic_polynomial(n) == poly, n


def test_cyclotomic_polynomials_multiply_to_x_n_minus_1():
    for n in range(1, 301):
        prod = {0: 1}  # sparse ascending coefficients
        for d in range(1, n + 1):
            if n % d == 0:
                out = {}
                for i, a in prod.items():
                    for j, b in enumerate(cyclotomic_polynomial(d)):
                        if b:
                            out[i + j] = out.get(i + j, 0) + a * b
                prod = {e: c for e, c in out.items() if c}
        assert prod == {0: -1, n: 1}, n


def test_zeta_relations():
    assert (zeta(4, 1) + zeta(4, -1)).is_zero()
    v = (1 - zeta(3, 1)) * (1 - zeta(3, -1))
    assert v.to_rational() == 3
    assert zeta(6, 1) * zeta(6, 1) == zeta(3, 1)
    assert zeta(5, 7) == zeta(5, 2)


def test_twelve_pair_product_is_729():
    # the product behind the order-3 twisted trace value; the twelve
    # half-angle roots e^(pi*i/3) multiply to e^(4*pi*i) = 1
    prod = CycNumber.from_rational(1)
    for _ in range(12):
        prod = prod * (1 - zeta(3, -1))
    nu = zeta(6, 12)
    assert nu == CycNumber.from_rational(1)
    assert (prod * nu).to_rational() == 729


def test_to_rational_errors_on_irrational():
    with pytest.raises(NotRationalError):
        zeta(8, 1).to_rational()


def _random_cyc(rng, level):
    deg = euler_phi(level)
    return CycNumber(level, [F(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(deg)])


@pytest.mark.parametrize("level", [3, 4, 5, 8, 12, 24])
def test_field_axioms(level):
    rng = random.Random(level)
    for _ in range(12):
        a, b, c = (_random_cyc(rng, level) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == CycNumber.from_rational(1)


def test_conj_is_involution_and_norm_nonnegative():
    rng = random.Random(99)
    for level in (5, 8, 12):
        for _ in range(8):
            x = _random_cyc(rng, level)
            assert x.conj().conj() == x
        # a root of unity times a rational has rational nonnegative norm
        x = zeta(level, rng.randrange(level)) * F(rng.randrange(-7, -1))
        norm = x * x.conj()
        assert norm.to_rational() >= 0


def test_embedding_compatibility():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(2, 13)
        m = rng.randrange(1, 5)
        k = rng.randrange(-n, 2 * n)
        assert zeta(n, k) == zeta(m * n, m * k)


def test_level_raising_preserves_value():
    x = zeta(6, 1) + 2
    y = x.raise_level(24)
    assert y == x and y.level == 24


def test_hash_agrees_with_equality_across_levels():
    assert len({zeta(4), zeta(4).raise_level(8)}) == 1
    assert len({zeta(6, 1) + 2, (zeta(6, 1) + 2).raise_level(24)}) == 1
    assert hash(CycNumber.from_rational(F(3, 7), 12)) == hash(F(3, 7))
    assert hash(CycNumber.from_rational(5, 9)) == hash(5)


def test_zz8_squares_to_two():
    root2 = zeta(8, 1) + zeta(8, -1)
    assert (root2 * root2).to_rational() == 2


def test_coordinates_are_ints_when_integral_and_print_as_before():
    x = CycNumber(4, (F(6, 2), F(1, 2)))
    assert x.coords == (3, F(1, 2)) and type(x.coords[0]) is int
    assert repr(x) == "3 + 1/2*z^1 @ level 4"
    assert x.to_json() == {"level": 4, "coords": [[3, 1], [1, 2]]}
    y = zeta(8, 3) * 1024
    assert all(type(c) is int for c in y.coords)
    assert repr(y) == "1024*z^3 @ level 8"
    assert y.to_json() == {"level": 8, "coords": [[0, 1], [0, 1], [0, 1], [1024, 1]]}
    assert repr(CycNumber.from_rational(0, 3)) == "0 @ level 3"
    minus_two = CycNumber.from_rational(F(-4, 2), 6)
    assert minus_two.to_json() == {"level": 6, "coords": [[-2, 1], [0, 1]]}
    value = (zeta(3, 1) + zeta(3, 2)).to_rational()
    assert value == -1 and type(value) is F


@pytest.mark.parametrize("level", [84, 120, 168])
def test_inverse_and_galois_action_at_spinor_levels(level):
    # the spinor super traces of the registry shapes reach these levels
    rng = random.Random(level)
    x, y = _random_cyc(rng, level), _random_cyc(rng, level)
    x_inv, y_inv = x.inverse(), y.inverse()
    assert x * x_inv == 1 and y * y_inv == 1
    assert (x * y).inverse() == x_inv * y_inv
    assert (x * y).conj() == x.conj() * y.conj()
    k = rng.randrange(level)
    assert zeta(level, k).inverse() == zeta(level, -k)
    r = F(-7, 3)
    assert CycNumber.from_rational(r, level).inverse() == 1 / r
    assert x.raise_level(2 * level).inverse() == x_inv.raise_level(2 * level)
    with pytest.raises(ZeroDivisionError):
        CycNumber.from_rational(0, level).inverse()
