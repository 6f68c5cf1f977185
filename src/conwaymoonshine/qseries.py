"""Truncated formal series in fractional powers of q with exact coefficients.

A series stores a validity order O: every term with exponent below O is
exact, nothing at or beyond O is known.  Exponents live on the grid
(1/K)*Z for a per-series positive integer K; binary operations renormalize
to the lcm of the two grids.  Coefficients are rational: a Python int, or
a Fraction when the value is not integral.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, gcd, lcm
from operator import mul

from .errors import NotInvertibleError, NotRationalError, PrecisionError


def _norm_coeff(c):
    """Canonical coefficient: an int when integral, else a Fraction."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


def _grid_bound(order: Fraction, denom: int) -> int:
    """ceil(order * denom): an int exponent p on the (1/denom)-grid lies
    below `order` exactly when p < this bound."""
    return -(-order.numerator * denom // order.denominator)


class FracPowerSeries:
    """A truncated Laurent series sum_r c_r q^r, r in (1/K)*Z, r < order."""

    __slots__ = ("denom", "terms", "order")

    def __init__(self, denom: int, terms: dict, order):
        if order.__class__ is not Fraction:
            order = Fraction(order)
        if denom <= 0:
            raise ValueError("denominator must be positive")
        clean = {}
        bound = _grid_bound(order, denom)
        for p, c in terms.items():
            if c.__class__ is not int:
                c = _norm_coeff(c)
            if not c:
                continue
            if p >= bound:
                raise PrecisionError(
                    "term q^(%d/%d) at or beyond order %s" % (p, denom, order)
                )
            clean[p] = c
        self.denom = denom
        self.terms = clean
        self.order = order

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(order) -> "FracPowerSeries":
        return FracPowerSeries(1, {}, order)

    @staticmethod
    def monomial(coeff, expo, order) -> "FracPowerSeries":
        expo = Fraction(expo)
        order = Fraction(order)
        if expo >= order:
            raise PrecisionError("exponent %s not below order %s" % (expo, order))
        k = expo.denominator
        return FracPowerSeries(k, {expo.numerator: coeff}, order)

    @staticmethod
    def from_fraction_terms(pairs, order) -> "FracPowerSeries":
        """Build a series from (Fraction exponent, coeff) pairs."""
        order = Fraction(order)
        k = 1
        for e, _ in pairs:
            k = k * e.denominator // gcd(k, e.denominator)
        terms = {}
        for e, c in pairs:
            p = e.numerator * (k // e.denominator)
            terms[p] = terms.get(p, 0) + c
        return FracPowerSeries(k, terms, order)

    # -- inspection ----------------------------------------------------

    def exponents(self):
        """Sorted exponents with nonzero coefficient, as Fractions."""
        return [Fraction(p, self.denom) for p in sorted(self.terms)]

    def coeff(self, expo):
        expo = Fraction(expo)
        if expo >= self.order:
            raise PrecisionError(
                "coefficient at %s requested, series valid below %s"
                % (expo, self.order)
            )
        if self.denom % expo.denominator != 0:
            return 0
        p = expo.numerator * (self.denom // expo.denominator)
        return self.terms.get(p, 0)

    def valuation(self):
        """Lowest exponent present, or None for a (known-)zero series."""
        if not self.terms:
            return None
        return Fraction(min(self.terms), self.denom)

    def is_zero(self) -> bool:
        return not self.terms

    def slack(self):
        """order - valuation; invariant under mul, pow and invert."""
        v = self.valuation()
        return self.order - (v if v is not None else self.order)

    # -- grid handling ---------------------------------------------------

    def rescaled(self, k: int) -> "FracPowerSeries":
        if k == self.denom:
            return self
        if k % self.denom != 0:
            raise ValueError("can only refine the exponent grid")
        step = k // self.denom
        return FracPowerSeries(k, {p * step: c for p, c in self.terms.items()}, self.order)

    def _common_grid(self, other):
        k = self.denom * other.denom // gcd(self.denom, other.denom)
        return self.rescaled(k), other.rescaled(k)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            if self.order <= 0:
                return self
            terms = dict(self.terms)
            terms[0] = terms.get(0, 0) + other
            return FracPowerSeries(self.denom, terms, self.order)
        a, b = self._common_grid(other)
        order = min(a.order, b.order)
        bound = _grid_bound(order, a.denom)
        terms = {p: c for p, c in a.terms.items() if p < bound}
        for p, c in b.terms.items():
            if p < bound:
                terms[p] = terms.get(p, 0) + c
        return FracPowerSeries(a.denom, terms, order)

    __radd__ = __add__

    def __neg__(self):
        return FracPowerSeries(self.denom, {p: -c for p, c in self.terms.items()}, self.order)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return FracPowerSeries(1, {}, self.order)
            return FracPowerSeries(
                self.denom, {p: c * other for p, c in self.terms.items()}, self.order
            )
        a, b = self._common_grid(other)
        k = a.denom
        va = min(a.terms) if a.terms else a.order * k
        vb = min(b.terms) if b.terms else b.order * k
        order_num = min(va + b.order * k, vb + a.order * k)
        bound = ceil(order_num)
        terms = {}
        b_items = sorted(b.terms.items())
        for p, c in sorted(a.terms.items()):
            for p2, c2 in b_items:
                e = p + p2
                if e >= bound:
                    break
                terms[e] = terms.get(e, 0) + c * c2
        return FracPowerSeries(k, terms, Fraction(order_num, k))

    __rmul__ = __mul__

    def invert(self) -> "FracPowerSeries":
        """Multiplicative inverse; self * invert(self) = 1 + O(q^(O-v))."""
        if not self.terms:
            raise NotInvertibleError("cannot invert a series with no known terms")
        k = self.denom
        v = min(self.terms)
        lead_inv = 1 / Fraction(self.terms[v])
        # u = tail / leading term, exponents shifted to start above 0
        span = ceil(self.order * k) - v  # exponents of u run in (0, span)
        u = {p - v: c * lead_inv for p, c in self.terms.items() if p != v}
        inv = {0: 1}
        for n in range(1, span):
            acc = 0
            for p, c in u.items():
                if p > n:
                    continue
                prev = inv.get(n - p)
                if prev is not None:
                    acc = acc + c * prev
            if acc:
                inv[n] = -acc
        out = {p - v: c * lead_inv for p, c in inv.items()}
        return FracPowerSeries(k, out, self.order - Fraction(2 * v, k))

    def __pow__(self, n: int) -> "FracPowerSeries":
        if n < 0:
            return self.invert() ** (-n)
        if n == 0:
            return FracPowerSeries(1, {0: 1}, self.slack())
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- tau substitutions -------------------------------------------------

    def scale_tau(self, s) -> "FracPowerSeries":
        """Replace tau by s*tau: exponent r becomes r*s, order becomes O*s."""
        s = Fraction(s)
        if s <= 0:
            raise ValueError("scale factor must be positive")
        pairs = [(Fraction(p, self.denom) * s, c) for p, c in self.terms.items()]
        return FracPowerSeries.from_fraction_terms(pairs, self.order * s)

    def shift_tau(self, t) -> "FracPowerSeries":
        """Replace tau by tau + t: coefficient at q^r picks up e^(2*pi*i*r*t),
        which must be +1 or -1 for every r present (NotRationalError if not)."""
        t = Fraction(t)
        terms = {}
        for p, c in self.terms.items():
            half_turns = 2 * t * p / self.denom  # the phase is (-1)^half_turns
            if half_turns.denominator != 1:
                raise NotRationalError("tau -> tau + %s gives q^(%s) a phase other than +-1"
                                       % (t, Fraction(p, self.denom)))
            terms[p] = -c if half_turns.numerator % 2 else c
        return FracPowerSeries(self.denom, terms, self.order)

    def shifted(self, expo) -> "FracPowerSeries":
        """Multiply by the exact monomial q^expo: exponents and order move."""
        expo = Fraction(expo)
        pairs = [(Fraction(p, self.denom) + expo, c) for p, c in self.terms.items()]
        return FracPowerSeries.from_fraction_terms(pairs, self.order + expo)

    def truncate(self, order) -> "FracPowerSeries":
        order = Fraction(order)
        if order > self.order:
            raise PrecisionError("cannot extend validity from %s to %s" % (self.order, order))
        bound = _grid_bound(order, self.denom)
        return FracPowerSeries(self.denom, {p: c for p, c in self.terms.items() if p < bound}, order)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FracPowerSeries):
            return NotImplemented
        if self.order != other.order:
            raise PrecisionError(
                "strict equality across mismatched orders %s and %s; "
                "use agrees_with for comparison up to the smaller order"
                % (self.order, other.order)
            )
        a, b = self._common_grid(other)
        return a.terms == b.terms

    def __hash__(self):
        return hash((self.order, tuple(
            (Fraction(p, self.denom), c) for p, c in sorted(self.terms.items())
        )))

    def agrees_with(self, other, through=None) -> bool:
        """Equality of all coefficients below min(orders) (or `through`)."""
        bound = min(self.order, other.order)
        if through is not None:
            through = Fraction(through)
            if through > bound:
                raise PrecisionError(
                    "comparison through %s exceeds common order %s" % (through, bound)
                )
            bound = through
        a, b = self._common_grid(other)
        cut = _grid_bound(bound, a.denom)
        for p in set(a.terms) | set(b.terms):
            if p < cut and a.terms.get(p, 0) != b.terms.get(p, 0):
                return False
        return True

    def max_residual(self):
        """Largest absolute coefficient as a Fraction (0 for the zero series)."""
        return Fraction(max(map(abs, self.terms.values()), default=0))

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        k = self.denom
        lines = []
        for p in sorted(self.terms):
            c = self.terms[p]  # an int or a Fraction: both carry numerator and denominator
            g = gcd(p, k)
            lines.append("%d/%d q^{%d/%d}" % (c.numerator, c.denominator, p // g, k // g))
        lines.append("O(q^{%d/%d})" % (self.order.numerator, self.order.denominator))
        return "\n".join(lines)

    @staticmethod
    def from_text(text: str) -> "FracPowerSeries":
        pairs = []
        order = None
        for raw in text.strip().splitlines():
            line = raw.strip()
            if not line:
                continue
            if line.startswith("O("):
                inner = line[len("O(q^{") : -len("})")]
                num, den = inner.split("/")
                order = Fraction(int(num), int(den))
                continue
            coeff_part, expo_part = line.split(" q^{")
            cn, cd = coeff_part.split("/")
            en, ed = expo_part.rstrip("}").split("/")
            pairs.append((Fraction(int(en), int(ed)), Fraction(int(cn), int(cd))))
        if order is None:
            raise ValueError("missing O(...) trailer")
        return FracPowerSeries.from_fraction_terms(pairs, order)

    def to_json(self) -> dict:
        rows = []
        for p in sorted(self.terms):
            c = Fraction(self.terms[p])
            rows.append([p, self.denom, c.numerator, c.denominator])
        return {
            "terms": rows,
            "order": [self.order.numerator, self.order.denominator],
        }

    @staticmethod
    def from_json(obj) -> "FracPowerSeries":
        order = Fraction(obj["order"][0], obj["order"][1])
        pairs = [
            (Fraction(p, k), Fraction(cn, cd)) for p, k, cn, cd in obj["terms"]
        ]
        return FracPowerSeries.from_fraction_terms(pairs, order)

    def pretty(self) -> str:
        if not self.terms:
            return "0 + O(q^%s)" % self.order
        chunks = []
        for p in sorted(self.terms):
            c = self.terms[p]
            e = Fraction(p, self.denom)
            sign = "-" if c < 0 else "+"
            body = str(abs(c))
            if e == 0:
                term = body
            else:
                power = "" if e == 1 else "^%s" % e
                term = ("%s q%s" % (body, power)) if body != "1" else "q%s" % power
            chunks.append((sign, term))
        first_sign, first = chunks[0]
        out = ("-" if first_sign == "-" else "") + first
        for sign, term in chunks[1:]:
            out += " %s %s" % (sign, term)
        return out + " + O(q^%s)" % self.order

    def __repr__(self):
        return "FracPowerSeries(%s)" % self.pretty()


def eta(order) -> FracPowerSeries:
    """Dedekind eta: q^(1/24) * prod_(n>=1) (1 - q^n), truncated below `order`."""
    return eta_product({1: 1}, order)


# sigma_1(m) = the sum of the divisors of m, at index m - 1; grown by doubling
_SIGMA1 = [1]

# The longest coefficient list made so far per eta-product key, most recently
# used last, and the number of coefficients they hold in all: at most
# _ETA_CACHE_TERMS, evicting the least recently used key first.
_ETA_CACHE = {}
_ETA_CACHE_TERMS = 1 << 16
_eta_cached = 0


def _sigma1(size: int) -> list:
    """The sigma_1 table with at least `size` entries."""
    if len(_SIGMA1) < size:
        n = max(size, 2 * len(_SIGMA1))
        table = [0] * n
        for d in range(1, n + 1):
            table[d - 1::d] = [t + d for t in table[d - 1::d]]
        _SIGMA1[:] = table
    return _SIGMA1


def _log_derivative(steps, count: int) -> list:
    """[s_1, ..., s_(count-1)] of prod (1 - x^j)^k over the j = step*m,
    m >= 1, for steps = {step: k}: s_i sums k*j over the factors with j | i,
    which is k*step*sigma_1(i/step) when step | i."""
    sigma = [0] * (count - 1)  # sigma[i - 1] = s_i
    for step, k in steps.items():
        w = k * step
        table = _sigma1(count // step)
        sigma[step - 1::step] = [s + w * t for s, t in zip(sigma[step - 1::step], table)]
    return sigma


def _continue(coeffs: list, sigma: list, count: int) -> None:
    """Extend coeffs = [c_0, ..., c_(n-1)] to c_(count-1) by the recurrence
    n*c_n = -sum_(1<=i<=n) s_i*c_(n-i), sigma[i - 1] = s_i."""
    for n in range(len(coeffs), count):
        coeffs.append(-sum(map(mul, sigma, reversed(coeffs))) // n)


def _grid_key(exps):
    """(K, ((a*K, k_a), ...)) for prod_a eta(a*tau)^(k_a): the exponent grid
    K, the lcm of the denominators of the a/24, and the scales on it, sorted,
    with k_a = 0 dropped."""
    if any(a.numerator <= 0 for a in exps):
        raise ValueError("eta scales must be positive")
    scales = {(a.numerator, a.denominator): k for a, k in exps.items() if k}  # a = n/d
    denom = lcm(*(24 * d // gcd(n, 24) for n, d in scales))  # of each a/24 = n/(24d)
    return denom, tuple(sorted((n * denom // d, k) for (n, d), k in scales.items()))


def _eta_coefficients(key, unit: int, count: int) -> list:
    """The cached list of c_n for a _grid_key, holding at least c_0 ..
    c_(count-1); a shorter one is continued.  Callers must not change it."""
    global _eta_cached
    coeffs = _ETA_CACHE.pop(key, None)
    if coeffs is None:
        coeffs = [1]
    else:
        _eta_cached -= len(coeffs)
    if len(coeffs) < count:
        sigma = _log_derivative({a // unit: k for a, k in key[1]}, count)
        _continue(coeffs, sigma, count)
    if len(coeffs) <= _ETA_CACHE_TERMS:
        _ETA_CACHE[key] = coeffs
        _eta_cached += len(coeffs)
        while _eta_cached > _ETA_CACHE_TERMS:
            _eta_cached -= len(_ETA_CACHE.pop(next(iter(_ETA_CACHE))))
    return coeffs


def eta_product(exps, order) -> FracPowerSeries:
    """prod_a eta(a*tau)^(k_a) for exps = {a: k_a}, scales a > 0, below `order`.

    The product is q^v * sum_n c_n x^n with v = sum_a k_a*a/24, x = q^step
    and step the gcd of the scales.  The integers c_n are filled by the
    log-derivative recurrence n*c_n = -sum_(i<=n) s_i*c_(n-i), where s_i is
    the sum of k*j over the factors (1 - x^j)^k with j | i.  The exponent
    grid is the lcm of the denominators of the a/24.  The recurrence is
    online, so the longest list of c_n made for a map is kept (see
    _ETA_CACHE): a lower order reads a prefix of it, a higher one continues it.
    """
    order = Fraction(order)
    key = denom, on_grid = _grid_key(exps)
    lead = sum(k * a // 24 for a, k in on_grid)  # valuation * denom
    top = _grid_bound(order, denom)
    if top <= lead:
        raise PrecisionError("order %s does not reach the valuation %s"
                             % (order, Fraction(lead, denom)))
    unit = gcd(*(a for a, _ in on_grid)) or 1  # step * denom; the empty map is the constant 1
    count = -((lead - top) // unit)
    coeffs = _eta_coefficients(key, unit, count)
    return FracPowerSeries(denom, dict(zip(range(lead, top, unit), coeffs)), order)
