"""Trace functions of the Conway-group modules and exact identity checks.

For an automorphism with Frame shape pi (chi = k_1, twisted super trace C):

    t~(tau)     = eta_pi(tau/2) / eta_pi(tau)          valuation -1/2
    T^s         = t~ + chi                             constant term 0
    t~_tw(tau)  = C * eta_pi(tau)
    T^s_tw      = t~_tw - chi

Every check below is exact: residuals are rational coefficient vectors
and pass means identically zero.  Each residual is one qseries.combination
call over the identity's eta products.  Numeric evaluation lives in modgroups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .classdata import ConjugacyClassRecord, registry
from .errors import PrecisionError, ValidationError, VerificationFailure, rational
from .frameshape import FrameShape
from .qseries import FracPowerSeries, combination, eta_product


@dataclass
class IdentityReport:
    name: str
    checked_order: Fraction
    max_residual: Fraction
    passed: bool
    solved: dict = field(default_factory=dict)

    def to_json(self):
        solved = {}
        for k, v in self.solved.items():
            f = Fraction(v)
            solved[k] = f.numerator if f.denominator == 1 else [f.numerator, f.denominator]
        return {
            "name": self.name,
            "checked_order": [self.checked_order.numerator, self.checked_order.denominator],
            "max_residual": [self.max_residual.numerator, self.max_residual.denominator],
            "pass": self.passed,
            "solved": solved,
        }


def _report(name, series: FracPowerSeries, solved=None) -> IdentityReport:
    worst = series.max_residual()
    return IdentityReport(
        name=name,
        checked_order=series.order,
        max_residual=worst,
        passed=(worst == 0),
        solved=solved or {},
    )


def t_tilde(pi: FrameShape, order) -> FracPowerSeries:
    """eta_pi(tau/2)/eta_pi(tau), the untwisted graded super trace."""
    exps = {m: -k for m, k in pi.exps.items()}
    for m, k in pi.exps.items():
        half = Fraction(m, 2) if m % 2 else m // 2
        exps[half] = exps.get(half, 0) + k
    return eta_product(exps, order)


def T_s(pi: FrameShape, order) -> FracPowerSeries:
    """The normalized trace function t~ + chi (constant term zero)."""
    return t_tilde(pi, order) + pi.chi()


def T_s_tw(source, order, c_value=None) -> FracPowerSeries:
    """The twisted trace function C*eta_pi - chi.

    source: a registry record (tabulated C) or a FrameShape with c_value
    supplied explicitly (e.g. 0 for any shape with fixed points).
    """
    if isinstance(source, ConjugacyClassRecord):
        pi, c = source.frame_shape, source.c_hat_g
    else:
        pi = source
        if c_value is None:
            raise ValidationError("supply c_value when passing a bare Frame shape")
        c = c_value
    return pi.eta_quotient(1, order) * c - pi.chi()


def _lemma_terms(pi: FrameShape, c_g, order):
    """The lemma combination without its partner term, and eta_{negate pi}:
    t~(pi) - t~(negate pi) - c_g*eta_pi + 2*chi as one combination."""
    pin = pi.negate()
    parts = ((t_tilde(pi, order), 1), (t_tilde(pin, order), -1), (pi.eta_quotient(1, order), -c_g))
    return combination(parts, order, 2 * pi.chi()), pin.eta_quotient(1, order)


def solve_c_neg(rec: ConjugacyClassRecord, order=25):
    """Solve the eta identity for the single unknown partner scalar, then
    verify the full identity to the requested order.

    The scalar is pinned by the q^1 coefficient; all remaining
    coefficients (about order * 48 of them) are then genuine checks.
    """
    rest, partner = _lemma_terms(rec.frame_shape, rec.c_hat_g, order)
    # eta of the partner shape has valuation exactly 1 with leading coefficient 1
    solved = -Fraction(rest.coeff(1))
    residual = combination(((rest, 1), (partner, solved)), order)
    report = _report("lemma:%s" % rec.co0_name, residual, {"c_neg": solved})
    return solved, report


@lru_cache(maxsize=None)
def derived_partner(rec: ConjugacyClassRecord):
    """Frame shape and super-trace scalar for -g, with provenance.

    The shape is negate(pi_g); the scalar is solved from the five-term eta
    identity at solve_c_neg's default order 25, and is therefore pinned by
    ~25*48 coefficient constraints.  Results are cached per class.
    """
    scalar, report = solve_c_neg(rec)
    if not report.passed:
        raise ValidationError(
            "eta identity residual nonzero while deriving partner of %s" % rec.co0_name
        )
    return rec.frame_shape.negate(), scalar


def verify_delta_identity(order=50) -> IdentityReport:
    """The discriminant-function identity

        (1/2) (D(t)^2/(D(2t) D(t/2)) - D(t/2)/D(t)) = 24 + 2^11 D(2t)/D(t)

    with D = eta^24, checked as an exact residual series."""
    order = rational(order, "orders must be ints or Fractions: %r", order)
    if order <= 0:
        raise PrecisionError("order %s is too small: the delta identity needs 1 or more" % order)
    half = Fraction(1, 2)
    # built one unit beyond `order` so that D(2t)/D(t), of valuation 1, has
    # a known term at every positive order
    parts = ((eta_product({1: 48, 2: -24, half: -24}, order + 1), half),
             (eta_product({half: 24, 1: -24}, order + 1), -half),
             (eta_product({2: 24, 1: -24}, order + 1), -2048))
    return _report("delta-identity", combination(parts, order, -24))


def verify_hecke(order=40):
    """Apply the weight-zero degree-2 averaging operator to
    f = D(2t)/D(t) and fit T2 f = a f^2 + b f + c from the first three
    coefficients; verify the rest of the expansion and return
    ((a, b, c), report).  The expected fit is (2048, 24, 0)."""
    order = rational(order, "orders must be ints or Fractions: %r", order)
    if order <= 1:
        raise PrecisionError("order %s is too small: the Hecke fit needs 2 or more" % order)
    half = Fraction(1, 2)
    f = eta_product({2: 24, 1: -24}, order + 1)
    fh = eta_product({1: 24, half: -24}, order + 1)  # f(tau/2)
    t2f = combination(((fh, half), (fh, half, 1)), order + 1)
    f2 = eta_product({2: 48, 1: -48}, order + 1)
    # f = q + 24 q^2 + ..., f^2 = q^2 + ...: solve on coefficients 0, 1, 2
    c = Fraction(t2f.coeff(0))
    b = Fraction(t2f.coeff(1))
    a = Fraction(t2f.coeff(2)) - b * Fraction(f.coeff(2))
    residual = combination(((t2f, 1), (f2, -a), (f, -b)), order, -c)
    report = _report("hecke-T2", residual, {"a": a, "b": b, "c": c})
    return (a, b, c), report


def half_shift_relation(order=30) -> IdentityReport:
    """f((tau+1)/2) = -f(tau)/f(tau/2) for f = D(2t)/D(t)."""
    half = Fraction(1, 2)
    parts = ((eta_product({1: 24, half: -24}, order), 1, 1),
             (eta_product({2: 24, half: 24, 1: -48}, order), 1))
    return _report("half-shift", combination(parts, order))


def normalization_reports(order=6):
    """Constant term of T^s vanishes for every registry shape and partner."""
    return [
        _report("normalization:%s%s" % (rec.co0_name, tag),
                FracPowerSeries(1, {0: T_s(pi, order).coeff(0)}, order))
        for rec in registry()
        for tag, pi in (("", rec.frame_shape), ("-partner", rec.frame_shape.negate()))
    ]


def dichotomy_check(pi: FrameShape, c_value, order=8):
    """Twisted trace is the constant -chi exactly when the shape has fixed
    points (then c_value must be 0); non-constant otherwise."""
    series = T_s_tw(pi, order, c_value)
    constant = (series - series.coeff(0)).is_zero()
    if pi.fixed_points() > 0:
        if not constant or series.coeff(0) != -pi.chi():
            raise VerificationFailure("twisted trace not constant -chi for %s" % pi)
        return "constant"
    if constant:
        raise VerificationFailure("twisted trace unexpectedly constant for %s" % pi)
    return "non-constant"
