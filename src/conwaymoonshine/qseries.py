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

import numpy as np
from numpy.lib.stride_tricks import as_strided

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
        return combination(((self, 1), (other, 1)), min(self.order, other.order))

    __radd__ = __add__

    def __neg__(self):
        return FracPowerSeries(self.denom, {p: -c for p, c in self.terms.items()}, self.order)

    def __sub__(self, other):
        return self + (-other)

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
        if n == 0:  # order - valuation is invariant under mul, pow and invert
            v = self.valuation()
            return FracPowerSeries(1, {0: 1}, self.order - (v if v is not None else self.order))
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
        """Equality of all coefficients below min(orders), or below `through`
        (PrecisionError past min(orders))."""
        through = min(self.order, other.order) if through is None else through
        return combination(((self, 1), (other, -1)), through).is_zero()

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


def combination(parts, order, constant=0) -> FracPowerSeries:
    """sum_i scale_i * series_i + constant below `order`, one coefficient map
    on the lcm of the parts' grids.  A part is (series, scale), or (series,
    scale, 1) for series(tau + 1): the sign (-1)^(2r) at q^r, NotRationalError
    for an r outside (1/2)Z.  A term q^(p/K) is kept while p < ceil(order*K);
    an order above a part's raises PrecisionError; the constant goes in only
    when the order is positive.  The scales are taken times the lcm of their
    denominators, so int series sum in ints, divided once per term at the end."""
    order = Fraction(order)
    reach = min((part[0].order for part in parts), default=order)
    if order > reach:
        raise PrecisionError("cannot extend validity from %s to %s" % (reach, order))
    denom = lcm(*(part[0].denom for part in parts))
    unit = lcm(*(part[1].denominator for part in parts))  # ints have denominator 1
    bound = _grid_bound(order, denom)
    terms = {0: constant * unit} if order > 0 and constant else {}
    for series, scale, *shift in parts:
        k, step = int(scale * unit), denom // series.denom
        for p, c in series.terms.items():
            if shift:
                turns, off = divmod(2 * p, series.denom)  # the phase at q^r is (-1)^(2r)
                if off:
                    raise NotRationalError("tau -> tau + 1 gives q^(%s) a phase other than +-1"
                                           % Fraction(p, series.denom))
                c = -c if turns % 2 else c
            p *= step
            if p < bound:
                terms[p] = terms.get(p, 0) + k * c
    if unit != 1:
        terms = {p: Fraction(c, unit) for p, c in terms.items() if c}
    return FracPowerSeries(denom, terms, order)


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

# _continue makes _BLOCK outputs at a time once a list passes _CROSSOVER
# coefficients.  Against the plain loop (best of 5 on a 2-core Xeon, Python
# 3.11.7, numpy 2.4.6) blocks of 32 from 128 ran 1.1-1.25x at 160, 3.6-5.3x
# at 511 and 4.4-10x at 1024 coefficients; blocks of 16 ran the same and of
# 64 2-21% slower.  Blocks from 64 already ran 1.0-1.1x at 103: the crossover
# at 128 keeps every expansion of the lemma sweep and the identity reports
# (at most 103 coefficients) on the plain loop.
_CROSSOVER = 128
_BLOCK = 32


def _sigma1(size: int) -> list:
    """The sigma_1 table with at least `size` entries, as Python ints: one
    sieve that adds d at index d*m - 1 for every pair d*m <= n."""
    if len(_SIGMA1) < size:
        n = max(size, 2 * len(_SIGMA1))
        d = np.arange(1, n + 1)
        count = n // d  # the multiples d*m <= n of d
        ends = np.cumsum(count)
        divisor = np.repeat(d, count)
        multiple = divisor * (np.arange(ends[-1]) - np.repeat(ends - count, count) + 1)
        table = np.zeros(n, dtype=np.int64)
        np.add.at(table, multiple - 1, divisor)
        _SIGMA1[:] = table.tolist()
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


def _limbs(values: list, width: int):
    """The ints c of `values` as rows of balanced limbs of `width` bits:
    c = sum_k row[k] << (width*k), every |row[k]| <= 2^(width-1).  The limbs
    are the width-bit digits of c + H, H = 2^(width-1) * sum_k 2^(width*k),
    each less 2^(width-1); the row is long enough that 0 <= c + H < 2^(width*len)."""
    size = (max(map(abs, values)).bit_length() + 1) // width + 1  # |c| < 2^(width*size - 2)
    half, mask = 1 << (width - 1), (1 << width) - 1
    shifted = np.array(values, dtype=object) + half * ((1 << width * size) - 1) // mask
    rows = np.empty((len(values), size), dtype=np.int64)
    for k in range(size):
        rows[:, k] = (shifted >> width * k) & mask
    return rows - half


def _continue(coeffs: list, sigma: list, count: int) -> None:
    """Extend coeffs = [c_0, ..., c_(n-1)] to c_(count-1) by the recurrence
    n*c_n = -sum_(1<=i<=n) s_i*c_(n-i), sigma[i - 1] = s_i.

    Up to _CROSSOVER coefficients each sum is one Python dot product.  Past
    it the outputs come in blocks of _BLOCK.  For the block m0 <= m < m0 + b
    the far parts sum_(j<m0) s_(m-j)*c_j are one int64 matrix product: a
    window of the Toeplitz matrix of the s_i (a strided view, no copy) times
    the c_j as balanced limbs of `width` bits (_limbs), recombined exactly
    in Python ints.  Only the near part, m0 <= j < m, stays a dot product.
    The width is 63 - bit_length(sum |s_i|), so with every limb at most
    2^(width-1) in size no partial sum of the product reaches 2^62; when no
    width of 2 bits or more fits, the plain loop runs throughout."""
    width = 63 - sum(map(abs, sigma)).bit_length() if count > _CROSSOVER else 0
    stop = min(count, max(len(coeffs), _CROSSOVER)) if width >= 2 else count
    for n in range(len(coeffs), stop):
        coeffs.append(-sum(map(mul, sigma, reversed(coeffs))) // n)
    if stop == count:
        return
    padded = np.zeros(2 * count, dtype=np.int64)
    padded[count + 1:] = sigma[:count - 1]  # padded[count + i] = s_i, 0 for i <= 0
    toeplitz = as_strided(padded[count:], shape=(count, count),
                          strides=(padded.itemsize, -padded.itemsize))  # [m, j] = s_(m-j)
    limbs = np.zeros((count, 0), dtype=np.int64)  # row j: the limbs of c_j
    done = 0
    for m0 in range(stop, count, _BLOCK):
        new = _limbs(coeffs[done:m0], width)
        if new.shape[1] > limbs.shape[1]:
            limbs = np.hstack((limbs, np.zeros((count, new.shape[1] - limbs.shape[1]), np.int64)))
        limbs[done:m0, :new.shape[1]] = new
        done = m0
        for m, row in enumerate((toeplitz[m0:m0 + _BLOCK, :m0] @ limbs[:m0]).tolist(), m0):
            far = 0
            for v in reversed(row):
                far = (far << width) + v
            coeffs.append(-(far + sum(map(mul, sigma, reversed(coeffs[m0:])))) // m)


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
    Up to 128 coefficients each sum is a Python dot product; past that they
    come in blocks of 32, each block's far part (the c_j made before it) one
    int64 matrix product over limbs of the c_j whose width keeps every sum
    below 2^62, and only the near part a dot product (see _continue): 3.6-5.3x
    faster than the dot products alone at 511 coefficients, the same lists.
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
