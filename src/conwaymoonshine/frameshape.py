"""Frame shapes: formal products prod_m m^(k_m) describing lattice
automorphisms by their characteristic polynomial prod_m (1 - x^m)^(k_m).

A valid shape has degree sum_m m*k_m = 24 and induces a genuine
eigenvalue multiset (no negative multiplicities after cancellation).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import PairingError, ParseError, ValidationError
from .qseries import FracPowerSeries, eta_product

DEGREE = 24  # rank of the lattice whose automorphisms shapes describe


class FrameShape:
    """Immutable mapping m -> k_m with the two validity invariants."""

    __slots__ = ("exps",)

    def __init__(self, exps: dict):
        clean = {int(m): int(k) for m, k in exps.items() if k != 0}
        for m in clean:
            if m <= 0:
                raise ValidationError("cycle length %d must be positive" % m)
        object.__setattr__(self, "exps", clean)
        degree = sum(m * k for m, k in clean.items())
        if degree != DEGREE:
            raise ValidationError(
                "degree %d != %d for shape %s" % (degree, DEGREE, _format(clean))
            )
        for d, mult in _root_multiplicities(clean).items():
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

        The valuation is s (= s * degree/24); an order at or below it is
        refused.
        """
        s, order = Fraction(s), Fraction(order)
        if order <= s:
            raise ValidationError("order %s does not reach the valuation %s" % (order, s))
        if s.denominator == 1:  # int scales: no Fraction product per factor
            s = s.numerator
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
    multiplicity is the divisor sum of k_m over the m that d divides."""
    mult = {}
    for m, k in exps.items():
        for d in range(1, m + 1):
            if m % d == 0:
                mult[d] = mult.get(d, 0) + k
    return mult


def _format(exps):
    num = [(m, k) for m, k in sorted(exps.items()) if k > 0]
    den = [(m, -k) for m, k in sorted(exps.items()) if k < 0]
    top = ".".join("%d^%d" % p for p in num) or "1^0"
    if not den:
        return top
    return top + "/" + ".".join("%d^%d" % p for p in den)


def parse(text: str) -> FrameShape:
    """Parse a Frame-shape string like "1^3.6^9/2^3.3^9" or "2^24/1^24".

    Grammar: factor list, optionally "/" and a second factor list; factors
    are INT["^"INT], separated by "." or whitespace.  Both validity
    invariants are checked; errors carry the offending position.
    """
    halves = text.split("/")
    if len(halves) > 2:
        raise ParseError("more than one '/'", text, text.index("/", text.index("/") + 1))
    exps = {}
    offset = 0
    for half_idx, half in enumerate(halves):
        sign = 1 if half_idx == 0 else -1
        for m, k, pos in _scan_factors(half, text, offset):
            exps[m] = exps.get(m, 0) + sign * k
        offset += len(half) + 1
    try:
        return FrameShape(exps)
    except ValidationError as exc:
        raise ParseError(str(exc), text, 0) from exc


def _scan_factors(half, full_text, offset):
    i = 0
    found = False
    while i < len(half):
        ch = half[i]
        if ch in " \t.":
            i += 1
            continue
        if not ch.isdigit():
            raise ParseError("expected a factor", full_text, offset + i)
        start = i
        while i < len(half) and half[i].isdigit():
            i += 1
        m = int(half[start:i])
        k = 1
        if i < len(half) and half[i] == "^":
            i += 1
            estart = i
            while i < len(half) and half[i].isdigit():
                i += 1
            if estart == i:
                raise ParseError("expected an exponent after '^'", full_text, offset + i)
            k = int(half[estart:i])
        found = True
        yield m, k, offset + start
    if not found:
        raise ParseError("empty factor list", full_text, offset)
