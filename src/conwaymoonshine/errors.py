"""Exception types shared across the package, and its one rule for exact
inputs: `integer` takes an int or a numpy integer, `rational` a Fraction too,
each in normal form; anything else, a bool or a float too, raises ValidationError."""

from fractions import Fraction

import numpy as np


class MoonshineError(Exception):
    """Base class for all package errors."""


class PrecisionError(MoonshineError):
    """A series was asked for data beyond its tracked validity order."""


class NotInvertibleError(MoonshineError):
    """Series inversion failed (zero series or unknown leading term)."""


class NotRationalError(MoonshineError):
    """A value that must be rational is not (a cyclotomic number or a tau-shift phase)."""


class ParseError(MoonshineError):
    """Grammar violation while parsing a Frame shape or group label.

    Carries the offending position so callers can point at it; a group
    label, read from the shipped table, is refused at position 0.
    """

    def __init__(self, message, text=None, position=None):
        if text is not None and position is not None:
            message = "%s (at position %d in %r)" % (message, position, text)
        super().__init__(message)
        self.text = text
        self.position = position


class ValidationError(MoonshineError):
    """A domain invariant failed (degree, eigenvalue multiplicity, ...)."""


def integer(value, message, *args):
    """value, an int or a numpy integer but not a bool, as a Python int; else ValidationError(message % args)."""
    if value.__class__ is int or value.__class__ is not bool and isinstance(value, (int, np.integer)):
        return int(value)
    raise ValidationError(message % args if args else message)


def rational(value, message, *args):
    """value as an int when integral, else a Fraction; refuses what `integer` does, but a Fraction."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    return integer(value, message, *args)


class PairingError(MoonshineError):
    """An eigenvalue multiset does not split into inverse pairs."""


class MembershipError(MoonshineError):
    """A word or vector does not belong to the claimed code or lattice."""


class NotFoundError(MoonshineError):
    """Registry lookup failed; carries near matches for the message."""

    def __init__(self, name, candidates=()):
        self.name = name
        self.candidates = list(candidates)
        hint = ""
        if self.candidates:
            hint = "; close matches: " + ", ".join(self.candidates)
        super().__init__("unknown class name %r%s" % (name, hint))


class VerificationFailure(MoonshineError):
    """An identity or structural check that must hold did not."""
