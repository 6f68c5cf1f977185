"""Brute-force graded super traces on the free-fermion Fock spaces.

This module deliberately avoids eta functions and pentagonal-number
shortcuts: traces are assembled mode by mode from the raw eigenvalues of
a lattice automorphism, as products of per-mode binomials on an integer
exponent ledger over (energy, root-of-unity power) that is converted once
to rational coefficients, checked by reduction mod Phi_N, so they can
serve as an independent oracle for the eta-quotient formulas.  A second,
brute-force oracle fills the same ledger state by state: it lists the
subsets of two halves of the modes and forms every state once, as the sum
of one key from each half, in numpy chunks of at most _BLOCK keys.

Conventions (central charge 12, so the grading prefactor is q^(-1/2)):
  untwisted sector: 24 fermionic modes at each energy n + 1/2, n >= 0;
  twisted sector:   24 fermionic modes at each energy n >= 1, plus the
                    4096-dimensional zero-mode space contributing its
                    super trace as a scalar and anchoring the series at q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm

import numpy as np

from .cyclotomic import CycNumber
from .errors import ValidationError, rational
from .qseries import FracPowerSeries

UNTWISTED = "untwisted"
TWISTED = "twisted"

# sector -> (anchor, scale): a state of ledger energy x sits at q^(x/scale + anchor)
_GRID = {UNTWISTED: (Fraction(-1, 2), 2), TWISTED: (Fraction(1), 1)}
_BLOCK = 4096  # states that one bincount chunk of the subset enumeration holds at most


@dataclass(frozen=True)
class ModeSystem:
    """Eigenvalue data for one automorphism and one sector.

    eigen_thetas: the 24 eigenvalues as rationals theta, ints or Fractions
    (eigenvalue e^(2*pi*i*theta)), with repetition.  max_degree: exponent
    up to which the trace series is to be exact.
    """

    eigen_thetas: tuple
    sector: str
    max_degree: Fraction

    def __post_init__(self):
        if len(self.eigen_thetas) != 24:
            raise ValidationError("expected 24 eigenvalues, got %d" % len(self.eigen_thetas))
        # a float's exact Fraction has a denominator near 2^55: the level of the ledger
        object.__setattr__(self, "eigen_thetas", tuple(
            rational(t, "eigenvalue angles must be ints or Fractions") for t in self.eigen_thetas))
        object.__setattr__(self, "max_degree", rational(self.max_degree, "max_degree must be an int or a Fraction"))
        if self.sector not in (UNTWISTED, TWISTED):
            raise ValidationError("unknown sector %r" % self.sector)
        if self.max_degree <= 0:
            raise ValidationError("max_degree must be positive")

    @staticmethod
    def from_shape(shape, sector, max_degree) -> "ModeSystem":
        thetas = []
        for t, mult in sorted(shape.eigenvalues().items()):
            thetas.extend([t] * mult)
        return ModeSystem(tuple(thetas), sector, max_degree)


def _sector(ms: ModeSystem, order):
    """Level N of the eigenvalues, the modes (x, z) in ascending energy and
    the ledger bound.  A mode of ledger energy x and eigenvalue zeta_N^z
    sits at q-energy x / scale; a state is kept exactly when its exponent
    x / scale + anchor is below `order`, that is when x <= bound."""
    anchor, scale = _GRID[ms.sector]
    level = lcm(*(t.denominator for t in ms.eigen_thetas))
    zexps = [int(t * level) for t in ms.eigen_thetas]
    bound = ceil((order - anchor) * scale) - 1
    modes = [(x, z) for x in range(1, bound + 1, scale) for z in zexps]
    return level, modes, bound


def _ledger_series(ms: ModeSystem, ledger, level, order, c_value) -> FracPowerSeries:
    """The series c_value * sum_x sum_z ledger[x][z] zeta_N^z q^(x/scale +
    anchor), valid below `order`.  Each energy row is reduced mod Phi_N once
    and must be rational (NotRationalError otherwise)."""
    anchor, scale = _GRID[ms.sector]
    pairs = []
    for x, row in enumerate(ledger):
        coeff = CycNumber(level, row).to_rational() * c_value
        if coeff:
            pairs.append((Fraction(x, scale) + anchor, coeff))
    return FracPowerSeries.from_fraction_terms(pairs, order)


def _mode_product(ms: ModeSystem, order, c_value=1) -> FracPowerSeries:
    """prod over modes of (1 - zeta_N^z q^(x/scale)), one binomial at a
    time, each an update of the integer ledger ledger[x][z]."""
    level, modes, bound = _sector(ms, order)
    ledger = [[0] * level for _ in range(bound + 1)]
    ledger[0][0] = 1
    for x, z in modes:
        for t in range(bound, x - 1, -1):  # descending: read rows not yet updated
            src, dst = ledger[t - x], ledger[t]
            for e, count in enumerate(src):
                if count:
                    dst[(e + z) % level] -= count
    return _ledger_series(ms, ledger, level, order, c_value)


def untwisted_supertrace(ms: ModeSystem) -> FracPowerSeries:
    """str on the half-integer-moded Fock space: each mode of energy r and
    eigenvalue eps contributes a factor (1 - eps q^r); prefactor q^(-1/2)."""
    if ms.sector != UNTWISTED:
        raise ValidationError("mode system is not untwisted")
    return _mode_product(ms, ms.max_degree)


def twisted_supertrace(ms: ModeSystem, c_value) -> FracPowerSeries:
    """str on the integer-moded Fock space: modes at energies n >= 1 and
    the zero-mode factor c_value; the series is anchored at q^1 (ground
    energy 3/2 minus c/24 = 1/2)."""
    if ms.sector != TWISTED:
        raise ValidationError("mode system is not twisted")
    return _mode_product(ms, ms.max_degree + 1, c_value)


def _half_subsets(modes, bound, stride, size):
    """Every subset of `modes` (ascending energy) whose ledger energy is at
    most `bound`, one list per subset size of bound + 1 key arrays, the t-th
    holding the subsets of energy t; a key carries `size` times the parity
    of its subset's size.  The subsets are built breadth first by size: a
    subset's children add one mode each from its next index on, up to the
    last mode that still fits, a contiguous range of the modes.  Grouping
    gathers from a boolean table instead of comparing keys, which would map
    numpy's comparison loops (about 0.1 MiB of code) into a process that
    otherwise never runs them."""
    xs = np.array([x for x, _ in modes], dtype=np.int64)
    mode_keys = xs * stride + np.array([z for _, z in modes], dtype=np.int64)
    # a subset of key k has ledger energy t exactly when in_energy[t, k], and
    # may still add the modes below limit[k]
    in_energy = np.zeros((bound + 1, (bound + 1) * stride), dtype=bool)
    for t in range(bound + 1):
        in_energy[t, t * stride:(t + 1) * stride] = True
    limit = np.repeat(np.searchsorted(xs, bound - np.arange(bound + 1), side="right"), stride)
    nxt = key = np.zeros(1, dtype=np.int64)  # the empty subset
    parity = 0
    while len(key):
        yield [key[in_energy[t, key]] + parity for t in range(bound + 1)]
        width = np.maximum(limit[key] - nxt, 0)
        mode = np.repeat(nxt - (np.cumsum(width) - width), width)
        mode += np.arange(len(mode))
        key = np.repeat(key, width) + mode_keys[mode]
        nxt = mode + 1
        parity = size - parity


def _by_energy(levels):
    """The keys of `levels` (as _half_subsets yields them) in ascending
    energy, and the cumulative counts: the keys of energy <= t are
    keys[:ends[t]]."""
    buckets = list(zip(*levels))
    keys = np.concatenate([group for bucket in buckets for group in bucket])
    return keys, np.cumsum([sum(map(len, bucket)) for bucket in buckets])


def subset_enumeration_supertrace(ms: ModeSystem, budget=3, c_value=1) -> FracPowerSeries:
    """Second oracle: explicitly enumerate every finite set of distinct
    fermionic modes whose state exponent is below the reported order,
    `budget` plus one grid step (1/2 untwisted, 1 twisted), and sum the
    signed eigenvalue products, state by state.

    Generation-independent of the mode products (no binomial is ever
    multiplied in, and no two generating functions are): the states are
    met in the middle (Horowitz-Sahni).  The modes, in ascending energy,
    are split by position into halves A (even positions) and B (odd), and
    every subset of each half with ledger energy at most `bound` is listed
    (_half_subsets).  A state is a pair (a, b) with e(a) + e(b) <= bound.  A
    key is a ledger energy times `stride` plus the sum of the modes'
    root-of-unity powers, not reduced mod N: a state holds at most `bound`
    modes, so that sum is below stride = bound*(N-1) + 1 and the key is
    exact; energies and power sums add, so the state's key is key(a) +
    key(b).  Each half-key also carries size * (its parity), so a state's
    parity digit is 0, 1 or 2, with 0 and 2 even.  For each A-energy e the
    outer sum of the A-keys of energy e with the B-keys of energy at most
    bound - e forms every state once, as one key, in chunks of at most
    _BLOCK keys; each chunk is counted with one bincount.  The even minus
    the odd counts, their power sums folded mod N, are the exponent ledger.
    A budget <= 0 puts the order at or below the sector's anchor, where
    there is no state to count, and is refused.
    """
    budget = rational(budget, "budget must be an int or a Fraction")
    if budget <= 0:
        raise ValidationError("budget must be positive")
    order = budget + Fraction(1, _GRID[ms.sector][1])
    level, modes, bound = _sector(ms, order)
    stride = bound * (level - 1) + 1
    size = (bound + 1) * stride
    b_keys, b_ends = _by_energy(_half_subsets(modes[1::2], bound, stride, size))
    counts = np.zeros(3 * size, dtype=np.int64)  # [parity digit, key]
    for groups in _half_subsets(modes[0::2], bound, stride, size):
        for e, rows in enumerate(groups):
            cols = b_keys[: b_ends[bound - e]]  # B's subsets of energy <= bound - e
            for start in range(0, len(cols), _BLOCK):
                block = cols[start:start + _BLOCK]
                step = _BLOCK // len(block)
                for row in range(0, len(rows), step):
                    chunk = rows[row:row + step, None] + block
                    counts += np.bincount(chunk.ravel(), minlength=3 * size)
    even, odd, even2 = counts.reshape(3, bound + 1, stride)
    diff = np.pad(even + even2 - odd, ((0, 0), (0, -stride % level)))  # fold the power sums mod N
    ledger = diff.reshape(bound + 1, -1, level).sum(axis=1).tolist()
    return _ledger_series(ms, ledger, level, order, c_value)
