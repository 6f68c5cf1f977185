"""Exact-arithmetic computations for the Conway group's trace functions:
q-series and cyclotomic kernels, Frame shapes and their eta quotients, the
4096-dimensional spinor module, the Golay code and Leech lattice, and
machine checks of every identity tying them together.
"""

from .cyclotomic import CycNumber, cyclotomic_polynomial
from .errors import (
    MembershipError,
    MoonshineError,
    NotFoundError,
    NotInvertibleError,
    NotRationalError,
    PairingError,
    ParseError,
    PrecisionError,
    ValidationError,
    VerificationFailure,
)
from .frameshape import FrameShape, parse as parse_frame_shape
from .qseries import FracPowerSeries, eta

__all__ = [
    "CycNumber",
    "FracPowerSeries",
    "FrameShape",
    "MoonshineError",
    "eta",
    "parse_frame_shape",
    "cyclotomic_polynomial",
]

__version__ = "0.1.0"
