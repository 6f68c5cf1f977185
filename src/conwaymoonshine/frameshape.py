"""Frame shapes: formal products prod_m m^(k_m) describing lattice
automorphisms by their characteristic polynomial prod_m (1 - x^m)^(k_m).

A valid shape has degree sum_m m*k_m = 24 and induces a genuine
eigenvalue multiset (no negative multiplicities after cancellation).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, lcm
from types import MappingProxyType

from .errors import PairingError, ParseError, ValidationError, integer, rational
from .qseries import FracPowerSeries, eta_product

DEGREE = 24  # rank of the lattice whose automorphisms shapes describe


class FrameShape:
    """Immutable mapping m -> k_m (`exps`, a read-only view) with the two validity invariants."""

    __slots__ = ("exps",)

    def __init__(self, exps: dict):
        message = "cycle lengths and exponents must be integers: %r"
        clean = {m if m.__class__ is int else integer(m, message, exps):
                 k if k.__class__ is int else integer(k, message, exps) for m, k in exps.items()}
        clean = {m: k for m, k in clean.items() if k}
        for m in clean:
            if m <= 0:
                raise ValidationError("cycle length %d must be positive" % m)
        object.__setattr__(self, "exps", MappingProxyType(clean))
        degree = sum(m * k for m, k in clean.items())
        if degree != DEGREE:
            raise ValidationError(
                "degree %d != %d for shape %s" % (degree, DEGREE, _format(clean))
            )
        for d, mult in sorted(_root_multiplicities(clean).items()):
            if mult < 0:
                raise ValidationError(
                    "eigenvalue e^(2*pi*i*%s) has multiplicity %d in shape %s"
                    % (Fraction(1, d) % 1, mult, _format(clean))
                )

    def __setattr__(self, name, value):
        raise AttributeError("FrameShape is immutable")

    # -- basic data ------------------------------------------------------

    def chi(self) -> int:
        """Trace on the 24-dimensional space: the exponent of 1."""
        return self.exps.get(1, 0)

    def fixed_points(self) -> int:
        """Multiplicity of eigenvalue +1, which equals sum_m k_m."""
        return sum(self.exps.values())

    def eigenvalues(self) -> dict:
        """Multiset of eigenvalues as {theta: multiplicity}, lambda=e^(2*pi*i*theta)."""
        return {Fraction(j, d): mult for d, mult in _root_multiplicities(self.exps).items()
                if mult for j in range(d) if gcd(j, d) == 1}

    def eigenvalue_pairs(self):
        """Split the 24 eigenvalues into 12 inverse pairs.

        Returns a sorted list of 12 Fractions theta in [0, 1/2]; the pair is
        (e^(2*pi*i*theta), e^(-2*pi*i*theta)).  Raises PairingError when the
        multiset does not decompose (odd multiplicity at a self-inverse
        eigenvalue, which cannot happen for determinant-one shapes).

        The pairs come from the divisor sums: the self-inverse roots (d = 1
        and 2) give mult/2 pairs each, and every other order d gives mult
        pairs at each j/d with j < d/2 coprime to d, since j/d and 1 - j/d
        share a multiplicity.  The count is 12 because sum_d phi(d) * mult
        is the degree.  Angles are sorted as integer steps on the lcm of the
        orders present, and only the 12 results are made Fractions.
        """
        mult = _root_multiplicities(self.exps)
        for d, theta in ((1, "0"), (2, "1/2")):
            if mult.get(d, 0) % 2:
                raise PairingError(
                    "eigenvalue at theta=%s has odd multiplicity %d" % (theta, mult[d])
                )
        level = lcm(*(d for d, count in mult.items() if count))
        steps = []
        for d, count in mult.items():
            if d <= 2:
                steps += [(d - 1) * level // 2] * (count // 2)
            else:
                step = level // d
                steps += [j * step for j in range(1, (d + 1) // 2) if gcd(j, d) == 1] * count
        steps.sort()
        return [Fraction(n, level) for n in steps]

    def negate(self) -> "FrameShape":
        """Shape of -g, via (1 - x^m) -> (1 + x^m) = (1 - x^(2m))/(1 - x^m)
        for odd m; even parts are unchanged.  An involution."""
        out = {}
        for m, k in self.exps.items():
            if m % 2:
                out[2 * m] = out.get(2 * m, 0) + k
                out[m] = out.get(m, 0) - k
            else:
                out[m] = out.get(m, 0) + k
        return FrameShape(out)

    def eta_quotient(self, s, order) -> FracPowerSeries:
        """prod_m eta(m*s*tau)^(k_m) as an exact series valid below `order`.

        The valuation is s (= s * degree/24); eta_product refuses an order
        at or below it.  An integral s is an int (errors.rational), so int
        scales make no Fraction product per factor.
        """
        s = rational(s, "eta quotient scales must be ints or Fractions: %r", s)
        return eta_product({m * s: k for m, k in self.exps.items()}, order)

    # -- formatting --------------------------------------------------------

    def __str__(self):
        return _format(self.exps)

    def __repr__(self):
        return "FrameShape(%s)" % self

    def __eq__(self, other):
        if not isinstance(other, FrameShape):
            return NotImplemented
        return self.exps == other.exps

    def __hash__(self):
        return hash(tuple(sorted(self.exps.items())))


def _root_multiplicities(exps):
    """{d: multiplicity of each primitive d-th root of unity}.  The factor
    (1 - x^m)^(k_m) holds every d-th root of unity with d | m, so that
    multiplicity is the divisor sum of k_m over the m that d divides, one
    pass over the divisor pairs d, m/d with d <= sqrt(m), keys unordered."""
    mult = {}
    for m, k in exps.items():
        for d in range(1, isqrt(m) + 1):
            q, r = divmod(m, d)
            if not r:
                mult[d] = mult.get(d, 0) + k
                if q != d:
                    mult[q] = mult.get(q, 0) + k
    return mult


def _format(exps):
    num = [(m, k) for m, k in sorted(exps.items()) if k > 0]
    den = [(m, -k) for m, k in sorted(exps.items()) if k < 0]
    top = ".".join("%d^%d" % p for p in num) or "1^0"
    if not den:
        return top
    return top + "/" + ".".join("%d^%d" % p for p in den)


# one factor, INT["^"INT], after any run of separators; group 2 is "" for a bare "^"
_FACTOR = re.compile(r"[ \t.]*(\d+)(?:\^(\d*))?")


def parse(text: str) -> FrameShape:
    """Parse a Frame-shape string like "1^3.6^9/2^3.3^9" or "2^24/1^24".

    Grammar: a factor list, optionally "/" and a second one; a list is one
    or more matches of `_FACTOR`, then separators only.  A refusal carries
    the position where the matches stop, or 0 when FrameShape refuses.
    """
    halves = text.split("/")
    if len(halves) > 2:
        raise ParseError("more than one '/'", text, text.index("/", text.index("/") + 1))
    exps = {}
    start = 0
    for sign, half in zip((1, -1), halves):
        pos, end = start, start + len(half)
        while match := _FACTOR.match(text, pos, end):
            m, k = match.groups()
            pos = match.end()
            if k == "":
                raise ParseError("expected an exponent after '^'", text, pos)
            exps[int(m)] = exps.get(int(m), 0) + sign * int(k or 1)
        rest = text[pos:end].lstrip(" \t.")
        if rest:
            raise ParseError("expected a factor", text, end - len(rest))
        if pos == start:
            raise ParseError("empty factor list", text, start)
        start = end + 1
    try:
        return FrameShape(exps)
    except ValidationError as exc:
        raise ParseError(str(exc), text, 0) from exc
