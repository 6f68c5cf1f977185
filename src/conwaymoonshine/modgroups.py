"""Group labels of the twisted trace functions, test matrices, and
numeric invariance checks.

Labels follow the n|h+e convention: n|h- is an index-h subgroup of a
conjugated Hecke group, and +e adjoins Atkin-Lehner involutions for exact
divisors e of n/h.  The invariance check here is sound but partial, by
design: it samples

  * Hecke-group elements at level n*h, where the eta-multiplier
    character of every registry shape dies,
  * the unit translation, and
  * one representative of each listed Atkin-Lehner coset, composed with
    the translation T^(j/h), 0 <= j < h, that lands in the character
    kernel (the unit translation lies in the kernel, so only j mod h
    matters; for h = 1 the bare matrix is used)

and measures max |f(gamma tau) - f(tau)| over sample points chosen so
both evaluations converge.  Evaluation is floating point; everything
upstream stays exact.  The class sweep evaluates the twisted trace
C*eta_pi - chi (TwistedTrace) from one weighted sum of log(1 - q^j) over
the j whose weight sum_(m | j) k_m is nonzero, truncated where a proven
bound holds; a truncated series can still be checked, with a heuristic
tail estimate plus a rounding bound (eval_series).
"""

from __future__ import annotations

import cmath
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .errors import ParseError, PrecisionError, ValidationError
from .qseries import FracPowerSeries


@dataclass(frozen=True)
class GroupLabel:
    n: int
    h: int
    al_set: frozenset
    minus: bool

    def __post_init__(self):
        if self.n <= 0 or self.h <= 0:
            raise ValidationError("level data must be positive")
        if self.n % self.h:
            raise ValidationError("h = %d must divide n = %d" % (self.h, self.n))
        if 24 % self.h:
            raise ValidationError("h = %d must divide 24" % self.h)
        quotient = self.n // self.h
        for e in sorted(self.al_set):
            if e <= 0 or quotient % e or gcd(e, quotient // e) != 1:
                raise ValidationError("%d is not an exact divisor of n/h = %d" % (e, quotient))

    def __str__(self):
        base = str(self.n) if self.h == 1 else "%d|%d" % (self.n, self.h)
        if self.minus:
            return base + "-"
        if not self.al_set:
            return base + "+"
        return base + "+" + ",".join(str(e) for e in sorted(self.al_set))


_LABEL = re.compile(r"(\d+)(?:\|(\d+))?(-|\+(?:\d+(?:,\d+)*)?)")


def parse_label(text: str) -> GroupLabel:
    """Parse labels like "2-", "12|2+6", "30+6,10,15"; surrounding whitespace
    is skipped.  A refused label raises ParseError at position 0."""
    match = _LABEL.fullmatch(text.strip())
    if match is None:
        raise ParseError("expected a label n[|h]- or n[|h]+e,...", text, 0)
    n, h, tail = match.groups()
    al = frozenset(int(e) for e in tail[1:].split(",") if e)
    try:
        return GroupLabel(int(n), int(h or 1), al, tail == "-")
    except ValidationError as exc:
        raise ParseError(str(exc), text, 0) from exc


@dataclass(frozen=True)
class TestMatrix:
    """Rational 2x2 matrix with determinant scale_sq; the projective
    transformation is that of the matrix divided by sqrt(scale_sq)."""

    __test__ = False  # not a pytest case despite the name

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    scale_sq: int
    provenance: str

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if det != self.scale_sq:
            raise ValidationError(
                "determinant %s does not match scaling %s" % (det, self.scale_sq)
            )

    def mobius(self, tau: complex) -> complex:
        return (float(self.a) * tau + float(self.b)) / (
            float(self.c) * tau + float(self.d)
        )

    def compose_translation(self, shift: Fraction) -> "TestMatrix":
        """This matrix times (1, shift; 0, 1)."""
        shift = Fraction(shift)
        return TestMatrix(
            self.a,
            self.a * shift + self.b,
            self.c,
            self.c * shift + self.d,
            self.scale_sq,
            self.provenance + "*T^(%s)" % shift,
        )

    def to_json(self):
        def enc(x):
            return [x.numerator, x.denominator]

        return {
            "a": enc(self.a),
            "b": enc(self.b),
            "c": enc(self.c),
            "d": enc(self.d),
            "scale_sq": self.scale_sq,
            "provenance": self.provenance,
        }


def _gamma0_element(c: int, d: int) -> TestMatrix:
    a = pow(d, -1, c)
    b = (a * d - 1) // c
    return TestMatrix(
        Fraction(a), Fraction(b), Fraction(c), Fraction(d), 1, "gamma0-sample"
    )


def sample_matrices(gl: GroupLabel, count: int = 12, seed: int = 2024):
    """Test matrices for the label: the unit translation, one Atkin-Lehner
    matrix per listed divisor (Fricke-tagged when e = n/h), and Hecke-group
    samples at level n*h.

    The Atkin-Lehner matrix for e uses the exact-divisor solve
    u*e + v*(n/(h*e)) = 1:  (u*e, -v/h; n, e)/sqrt(e).
    """
    rng = random.Random(seed)
    level = gl.n * gl.h
    out = [TestMatrix(Fraction(1), Fraction(1), Fraction(0), Fraction(1), 1, "translation-1")]
    quotient = gl.n // gl.h
    for e in sorted(gl.al_set):
        if e == quotient:
            out.append(
                TestMatrix(
                    Fraction(0), Fraction(-1, gl.h), Fraction(gl.n), Fraction(0),
                    e, "fricke",
                )
            )
        else:
            u, v = _bezout(e, quotient // e)
            out.append(
                TestMatrix(
                    Fraction(u * e), Fraction(-v, gl.h), Fraction(gl.n), Fraction(e),
                    e, "atkin-lehner-%d" % e,
                )
            )
    while len(out) < count:
        k = rng.choice((1, 1, 1, 2)) if level <= 30 else 1
        c = level * k
        d = rng.randrange(1, max(2, c))
        if gcd(d, c) != 1:
            continue
        out.append(_gamma0_element(c, d))
    return out


def _bezout(x: int, y: int):
    """(u, v) with u*x + v*y = 1 for coprime x, y."""
    old_r, r = x, y
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r != 1:
        raise ValidationError("%d and %d are not coprime" % (x, y))
    return old_s, old_t


def eval_series(series: FracPowerSeries, taus, tail_target: float):
    """Numeric values of the truncated series at the points taus, with an
    error estimate at each: a heuristic tail estimate plus a bound on the
    rounding, gamma_n * sum_r |c_r| |q^r| for the float dot over n terms
    (gamma_n = n*u/(1 - n*u), u the unit roundoff) and u times the same sum
    for rounding the coefficients to floats.  The coefficients are
    converted to floats once per call and each point is one dot product
    over the terms.  Raises PrecisionError at the first point whose
    estimate exceeds tail_target.  Returns (values, estimates), one entry
    per point."""
    items = sorted(series.terms.items())
    expos = np.array([p / series.denom for p, _ in items])
    coeffs = np.array([float(c) for _, c in items], dtype=complex)
    magnitudes = np.abs(coeffs)
    u = np.finfo(float).eps / 2
    rounding = len(items) * u / (1 - len(items) * u) + u
    tail = _tail_estimate(series, expos, coeffs)
    values, estimates = [], []
    for tau in taus:
        if tau.imag <= 0:
            raise ValidationError("evaluation point must be in the upper half plane")
        powers = np.exp(2j * np.pi * tau * expos)
        values.append(complex(np.dot(coeffs, powers)))
        tail_part = tail(abs(cmath.exp(2j * cmath.pi * tau)))
        round_part = rounding * float(np.dot(magnitudes, np.abs(powers)))
        estimate = tail_part + round_part
        if estimate > tail_target:
            raise PrecisionError(
                "error estimate %.3g (tail %.3g, rounding %.3g) exceeds target %.3g "
                "at Im(tau)=%.4f" % (estimate, tail_part, round_part, tail_target, tau.imag)
            )
        estimates.append(estimate)
    return values, estimates


def _tail_estimate(series: FracPowerSeries, expos, coeffs):
    """Geometric extrapolation of the last ten coefficient magnitudes,
    anchored at the validity order (below it all omitted terms are zero);
    returns the estimate as a function of |q|.

    Coefficient magnitudes of these series oscillate, so the growth rate
    is taken peak-to-peak across two trailing windows of five terms.
    """
    trailing = [(abs(c), r) for c, r in zip(coeffs[-10:].tolist(), expos[-10:].tolist()) if c]
    if not trailing:
        return lambda qabs: 0.0
    mags, expos = zip(*trailing)
    if len(mags) >= 4:
        half = len(mags) // 2
        i1 = max(range(half), key=lambda i: mags[i])
        i2 = half + max(range(len(mags) - half), key=lambda i: mags[half + i])
        peak1, r1 = mags[i1], expos[i1]
        peak2, r2 = mags[i2], expos[i2]
        growth = max(1.0, (peak2 / peak1) ** (1.0 / (r2 - r1))) if r2 > r1 else 1.0
        step = min(b - a for a, b in zip(expos, expos[1:]) if b > a)
    else:
        peak2 = max(mags)
        r2 = expos[mags.index(peak2)]
        growth = 1.0
        step = 1.0 / series.denom
    start = float(series.order)
    anchor = peak2 * growth ** max(0.0, start - r2)

    def estimate(qabs):
        ratio = (growth * qabs) ** step
        if ratio >= 0.999:
            return float("inf")
        return 4.0 * anchor * qabs**start / (1.0 - ratio)

    return estimate


_TAIL = 1e-15  # proven bound on the omitted tail of the weighted log product
_BLOCK = 4096  # entries (points x summed j) that one evaluator temporary holds at most


def _product_terms(log_x: float, weight: int):
    """The least J >= 0 with W*B(J) <= _TAIL, W = weight, and W*B(J), where
    B(J) = x^(J+1) / ((1 - x) (1 - x^(J+1))), x = e^log_x < 1, bounds
    sum_(j>J) |log(1 - q^j)| for |q| <= x: each term is at most |q|^j / (1 -
    |q|^j) <= x^j / (1 - x^(J+1)), and those x^j sum to x^(J+1) / (1 - x)."""
    one_minus_x = -math.expm1(log_x)

    def bound(terms):
        return weight * math.exp((terms + 1) * log_x) / (one_minus_x * -math.expm1((terms + 1) * log_x))

    # W*B(J) <= _TAIL exactly when x^(J+1) <= t; start there, then undo rounding
    t = _TAIL * one_minus_x / (weight + _TAIL * one_minus_x)
    terms = max(0, math.ceil(math.log(t) / log_x) - 1)
    while bound(terms) > _TAIL:
        terms += 1
    while terms and bound(terms - 1) <= _TAIL:
        terms -= 1
    return terms, bound(terms)


def _weights(exps):
    """[w_1, ..., w_N], w_r = sum_(m | r) k_m the power of (1 - q^r) in
    eta_pi, N = lcm(m); w_j = w_r when j = r mod N."""
    period = math.lcm(*(m for m, _ in exps))
    return [sum(k for m, k in exps if r % m == 0) for r in range(1, period + 1)]


def _log_product(z, js, ws):
    """sum_j ws_j log(1 - e^(2*pi*i*j*z)) over js at each z, with temporaries
    of len(z) x len(js) entries.  Each real part is log1p of a real, accurate
    for terms below one ulp of 1, which numpy's complex log1p loses."""
    r = np.exp(np.outer(-2 * np.pi * z.imag, js))  # |q^j|
    arg = np.outer(2 * np.pi * z.real, js)
    re = r * np.cos(arg)
    log_abs = 0.5 * np.log1p(r * r - 2 * re)  # |1 - q^j|^2 = 1 - 2 Re q^j + |q^j|^2
    phase = np.arctan2(-r * np.sin(arg), 1 - re)
    return (log_abs * ws).sum(axis=1) + 1j * (phase * ws).sum(axis=1)


def log_eta_product(taus, exps):
    """sum_(j <= J) w_j log(1 - q^j), q = e^(2*pi*i*tau), at each tau: the log
    of eta_pi / q^(sum_m m*k_m / 24), eta_pi = prod_m eta(m*tau)^(k_m) for the
    pairs (m, k_m) in exps, whose products prod_n (1 - q^(m*n))^(k_m) collect
    into prod_j (1 - q^j)^(w_j) (_weights).  Only the j with w_j != 0 are
    summed, in blocks of at most _BLOCK entries, with Re(tau) reduced mod 1.
    J is the least value whose W*B(J) (see _product_terms), W = max |w_j|,
    is at most _TAIL for x the largest |q| over taus, so at every tau the
    omitted terms sum to at most W*B(J) in modulus.  Returns (sums, J, W*B(J))."""
    z = np.asarray(taus, dtype=complex)
    low = float(z.imag.min(initial=math.inf))  # no points: x = 0, so J = 0
    if low <= 0:
        raise ValidationError("evaluation point must be in the upper half plane")
    z = np.mod(z.real, 1.0) + 1j * z.imag
    weights = _weights(exps)
    terms, bound = _product_terms(-2 * math.pi * low, max(map(abs, weights)))
    tiled = (weights * (terms // len(weights) + 1))[:terms]  # w_1, ..., w_J
    js = np.array([j for j, w in enumerate(tiled, 1) if w])  # the j <= J with w_j != 0
    ws = np.array([w for w in tiled if w], dtype=float)
    sums = np.zeros(len(z), dtype=complex)
    cols = max(1, min(len(js), _BLOCK))
    for r in range(0, len(z), _BLOCK // cols):
        rows = slice(r, r + _BLOCK // cols)
        for c in range(0, len(js), cols):
            sums[rows] += _log_product(z[rows], js[c : c + cols], ws[c : c + cols])
    return sums, terms, bound


@dataclass(frozen=True)
class TwistedTrace:
    """tau -> c * prod_m eta(m*tau)^(k_m) - chi for the Frame shape
    prod_m m^(k_m), evaluated with no series: the exact leading power of q
    times the exponential of the truncated log product (log_eta_product)."""

    exps: tuple  # ((m, k_m), ...)
    c: int
    chi: int

    @classmethod
    def of(cls, rec) -> "TwistedTrace":
        """The twisted trace C*eta_pi - chi of a registry record."""
        shape = rec.frame_shape
        return cls(tuple(sorted(shape.exps.items())), rec.c_hat_g, shape.chi())

    def evaluate(self, taus):
        """(values, bounds, J): the values at taus, at each a proven bound on
        the error that truncating the product makes, and log_eta_product's J.
        With |delta| <= b = W*B(J) the error of the log of the product, the
        value is off by |C*eta_pi| * |e^delta - 1| <= |C*eta_pi| * (e^b - 1)."""
        taus = np.asarray(taus, dtype=complex)
        sums, terms, bound = log_eta_product(taus, self.exps)
        scaled = self.c * np.exp(2j * np.pi * sum(m * k for m, k in self.exps) / 24 * taus + sums)
        return scaled - self.chi, np.abs(scaled) * math.expm1(bound), terms


def _sample_points(matrix: TestMatrix, count: int, rng) -> list:
    """Points where both tau and matrix(tau) can be summed accurately:
    high in the strip for translations, balanced near Im = 1/|c| for
    matrices with a lower-left entry."""
    pts = []
    c = abs(float(matrix.c))
    for _ in range(count):
        if c == 0:
            pts.append(complex(rng.uniform(-1, 1), rng.uniform(0.8, 2.0)))
        else:
            u = rng.uniform(-0.12, 0.12)
            v = rng.uniform(0.95, 1.2)
            pts.append(complex((-float(matrix.d) + u) / c, v / c))
    return pts


def _check_request(tol: float, points: int):
    if not 0 < tol < float("inf"):
        raise ValidationError("tol must be finite and positive, got %r" % tol)
    if points < 1:
        raise ValidationError("points must be at least 1, got %d" % points)


def _values(f, taus, target: float):
    """f at taus, an error at each point, and the report fields that say how
    f was evaluated.  f is a truncated FracPowerSeries, whose errors are
    eval_series's estimates (heuristic tail plus rounding bound), or a
    TwistedTrace, whose errors are proven truncation bounds.  Raises
    PrecisionError when an error exceeds target."""
    if isinstance(f, FracPowerSeries):
        values, errors = eval_series(f, taus, target)
        return values, errors, {"order": [f.order.numerator, f.order.denominator]}
    values, errors, terms = f.evaluate(taus)
    worst = float(errors.max(initial=0.0))
    if worst > target:
        raise PrecisionError("truncation bound %.3g exceeds target %.3g" % (worst, target))
    return values.tolist(), errors.tolist(), {"product_terms": terms, "truncation_bound": worst}


def invariance_check(
    f,
    gl: GroupLabel,
    matrices,
    points: int = 20,
    tol: float = 1e-6,
    seed: int = 2024,
    name: str = "",
):
    """max |f(gamma tau) - f(tau)| over the sample; pass iff <= tol.

    f is a TwistedTrace or a truncated series (see _values); an error
    above tol/10 at a sample point raises PrecisionError.  The report says
    how f was evaluated: `product_terms` and `truncation_bound` for a
    TwistedTrace, `order` for a series.
    """
    _check_request(tol, points)
    if not matrices:
        raise ValidationError("no matrices to check")
    rng = random.Random(seed)
    per_matrix = -(-points // len(matrices))
    taus = []
    for m in matrices:
        for tau in _sample_points(m, per_matrix, rng):
            taus += (tau, m.mobius(tau))
    values, _, accuracy = _values(f, taus, tol / 10)
    rows = []
    for i, m in enumerate(matrices):
        chunk = values[2 * per_matrix * i : 2 * per_matrix * (i + 1)]
        dev = max(abs(v1 - v2) for v1, v2 in zip(chunk[::2], chunk[1::2]))
        rows.append({"matrix": m.to_json(), "deviation": dev})
    worst = max(row["deviation"] for row in rows)
    return {
        "class": name,
        "label": str(gl),
        "matrices": rows,
        "max_dev": worst,
        "pass": worst <= tol,
        "seed": seed,
        "points": per_matrix * len(matrices),
        **accuracy,
    }


def kernel_matrices(rec, f, seed: int = 2024, count: int = 12):
    """Sound sample of the label's group for the twisted trace f (a
    TwistedTrace or a truncated series): Hecke elements at level n*h, the
    unit translation, and each Atkin-Lehner representative composed into
    the character kernel.  Raises PrecisionError when a series is too short
    to find a coset."""
    gl = parse_label(rec.gamma_tw_label)
    return [
        _into_kernel(m, gl.h, f) if m.provenance.startswith(("fricke", "atkin-lehner")) else m
        for m in sample_matrices(gl, count=count, seed=seed)
    ]


def _into_kernel(matrix: TestMatrix, h: int, f) -> TestMatrix:
    """The coset matrix*T^(j/h), 0 <= j < h, whose one-point probe sees no
    character.  The label's group is the character kernel and contains the
    unit translation, so only j mod h matters and for h = 1 the matrix is
    returned unprobed.  Each candidate is probed at its own balanced point,
    all in one evaluation; a candidate whose errors exceed 1e-9 is skipped,
    and when none is left PrecisionError asks the caller for a longer
    series."""
    if h == 1:
        return matrix
    cands, taus = [], []
    for j in range(h):
        cand = matrix.compose_translation(Fraction(j, h)) if j else matrix
        c = max(1.0, abs(float(cand.c)))
        probe = complex((-float(cand.d) + 0.03) / c, 1.0 / c)
        cands.append(cand)
        taus += [probe, cand.mobius(probe)]
    values, errors, _ = _values(f, taus, float("inf"))
    best, best_dev = None, float("inf")
    for j, cand in enumerate(cands):
        if any(e > 1e-9 for e in errors[2 * j : 2 * j + 2]):
            continue
        dev = abs(values[2 * j + 1] - values[2 * j])
        if dev < best_dev:
            best, best_dev = cand, dev
    if best is None:
        raise PrecisionError("no kernel coset probe of %s converged" % matrix.provenance)
    return best


def class_invariance_check(
    rec,
    points: int = 20,
    tol: float = 1e-6,
    seed: int = 2024,
    samples: int = 12,
):
    """invariance_check of the record's twisted trace C*eta_pi - chi,
    evaluated from its product formula (TwistedTrace), over kernel_matrices
    of its label."""
    _check_request(tol, points)
    if samples < 1:
        raise ValidationError("samples must be at least 1, got %d" % samples)
    f = TwistedTrace.of(rec)
    matrices = kernel_matrices(rec, f, seed=seed, count=samples)
    return invariance_check(
        f, parse_label(rec.gamma_tw_label), matrices,
        points=points, tol=tol, seed=seed, name=rec.co0_name,
    )
