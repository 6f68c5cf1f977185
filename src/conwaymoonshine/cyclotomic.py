"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Numbers are stored at a fixed level N as rational coordinate vectors in
the power basis 1, z, ..., z^(phi(N)-1), z = e^(2*pi*i/N), reduced
eagerly modulo the N-th cyclotomic polynomial.  A coordinate is a Python
int, or a Fraction when it is not integral.  Mixed-level arithmetic raises
both operands to the lcm level first.  Numbers taken in follow errors.rational.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import NotRationalError, ValidationError, integer, rational

_COORD = "cyclotomic coordinates must be ints or Fractions: %r"
_OPERAND = "cyclotomic operands must be cyclotomic numbers, ints or Fractions: %r"


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Coefficients (ascending, integer) of the n-th cyclotomic polynomial.

    Computed as the Mobius product prod_(d|n) (1 - x^d)^mu(n/d), negated
    for n = 1, expanded as a power series through degree phi(n): a factor
    1 - x^d is c_i -= c_(i-d) for descending i, its inverse c_i += c_(i-d)
    for ascending i.
    """
    if n < 1:
        raise ValidationError("level must be a positive integer")
    deg = euler_phi(n)
    poly = [1] + [0] * deg
    for d in range(1, n + 1):
        if n % d == 0:
            mu = _mobius(n // d)
            if mu == 1:
                for i in range(deg, d - 1, -1):
                    poly[i] -= poly[i - d]
            elif mu == -1:
                for i in range(d, deg + 1):
                    poly[i] += poly[i - d]
    return tuple(-c for c in poly) if n == 1 else tuple(poly)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    count = 0
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            count += 1
    return count


@lru_cache(maxsize=None)
def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


@lru_cache(maxsize=None)
def _phi_tail(n: int) -> tuple:
    """(j - phi(n), Phi_n[j]) for the nonzero coefficients below the
    leading one of the monic Phi_n."""
    poly = cyclotomic_polynomial(n)
    deg = len(poly) - 1
    return tuple((j - deg, c) for j, c in enumerate(poly[:deg]) if c)


def _reduce_mod_phi(coeffs, n):
    """Reduce a rational polynomial modulo Phi_n; returns phi(n) coords."""
    deg = euler_phi(n)
    tail = _phi_tail(n)
    coeffs = [c if c.__class__ is int else rational(c, _COORD, c) for c in coeffs]
    for k in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs.pop()  # z^k = -sum_j Phi_n[j] z^(k - deg + j)
        if c:
            for j, p in tail:
                coeffs[k + j] -= c * p
    coeffs += [0] * (deg - len(coeffs))
    return tuple([c if c.__class__ is int else rational(c, _COORD, c) for c in coeffs])


class CycNumber:
    """An element of Q(zeta_N) in reduced power-basis coordinates."""

    __slots__ = ("level", "coords")

    def __init__(self, level: int, coords):
        """coords: rational coefficients of 1, z, z^2, ..., reduced mod Phi_N."""
        if level.__class__ is not int:
            level = integer(level, "cyclotomic levels must be integers: %r", level)
        self.level = level
        self.coords = _reduce_mod_phi(coords, level)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(value, level: int = 1) -> "CycNumber":
        return CycNumber(level, (value,) + (0,) * (euler_phi(level) - 1))

    @staticmethod
    def from_exponents(level: int, weights: dict) -> "CycNumber":
        """Build sum_j weights[j] * zeta_level^j from an exponent dict."""
        coeffs = [0] * level
        for j, w in weights.items():
            coeffs[j % level] += w
        return CycNumber(level, coeffs)

    # -- level handling ----------------------------------------------------

    def raise_level(self, m: int) -> "CycNumber":
        if m == self.level:
            return self
        if m % self.level != 0:
            raise ValidationError("new level must be a multiple of the old one")
        return self._map_exponents(m, m // self.level)

    def _map_exponents(self, level: int, a: int) -> "CycNumber":
        """sum_j c_j zeta_level^(a*j).  For a prime to the level this is
        the Galois automorphism sigma_a; for a = level / self.level it is
        the same value at the higher level."""
        return CycNumber.from_exponents(level, {a * j: c for j, c in enumerate(self.coords) if c})

    def _common(self, other):
        if not isinstance(other, CycNumber):
            other = CycNumber.from_rational(other)
        lev = self.level * other.level // gcd(self.level, other.level)
        return self.raise_level(lev), other.raise_level(lev)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        a, b = self._common(other)
        return CycNumber(a.level, tuple(x + y for x, y in zip(a.coords, b.coords)))

    __radd__ = __add__

    def __neg__(self):
        return CycNumber(self.level, tuple(-c for c in self.coords))

    def __sub__(self, other):
        return self + (-other if isinstance(other, CycNumber) else -rational(other, _OPERAND, other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, CycNumber):
            other = rational(other, _OPERAND, other)
            return CycNumber(self.level, tuple(c * other for c in self.coords))
        a, b = self._common(other)
        out = [0] * (2 * len(a.coords))
        for i, x in enumerate(a.coords):
            if x:
                for j, y in enumerate(b.coords):
                    if y:
                        out[i + j] += x * y
        return CycNumber(a.level, out)

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        """Multiplicative inverse from the field norm.  With y = d * x
        integral (d the lcm of the denominators) and rest the product of
        the conjugates sigma_a(y), 1 < a < N prime to N, y * rest is the
        norm N(y), a nonzero integer; so x * rest = N(y) / d is rational
        and x^(-1) = rest / (x * rest).  Scaling first keeps the product
        in integers."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        n = self.level
        y = self * lcm(*(c.denominator for c in self.coords))
        rest = CycNumber.from_rational(1, n)
        for a in range(2, n):
            if gcd(a, n) == 1:
                rest = rest * y._map_exponents(n, a)
        return rest / (self * rest).to_rational()

    def __truediv__(self, other):
        if isinstance(other, CycNumber):
            return self * other.inverse()
        return self * Fraction(1, rational(other, _OPERAND, other))

    def conj(self) -> "CycNumber":
        """Complex conjugation, zeta -> zeta^(-1)."""
        return self._map_exponents(self.level, -1)

    # -- predicates and coercions ------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise NotRationalError("value is not rational: %s" % self)
        return Fraction(self.coords[0])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coords[0] == other
        if not isinstance(other, CycNumber):
            return NotImplemented
        a, b = self._common(other)
        return a.coords == b.coords

    def __hash__(self):
        """Hash of the normalized trace Tr_{K/Q}(x)/[K:Q], which does not
        depend on the level: z^k is a primitive (N/g)-th root of unity,
        g = gcd(k, N), with normalized trace mu(N/g)/phi(N/g).  For a
        rational x this is hash(x), as for the equal int or Fraction."""
        n = self.level
        return hash(sum(Fraction(c * _mobius(n // gcd(k, n)), euler_phi(n // gcd(k, n)))
                        for k, c in enumerate(self.coords) if c))

    def __repr__(self):
        terms = []
        for j, c in enumerate(self.coords):
            if c:
                terms.append("%s*z^%d" % (c, j) if j else str(c))
        body = " + ".join(terms) if terms else "0"
        return "%s @ level %d" % (body, self.level)
