"""The 2^12-dimensional spinor module CM of the rank-24 Clifford algebra.

Basis and polarization.  The 24 real generators e_1..e_24 (frame vectors
over sqrt(8)) satisfy e_i e_j = -e_j e_i and e_i^2 = -1.  Coordinates are
paired (e_{2k-1}, e_{2k}) into isotropic combinations

    a^-_k = (e_{2k-1} + i e_{2k})/sqrt(2),   a^+_k = (e_{2k-1} - i e_{2k})/sqrt(2),

normalized so <a^-_j, a^+_k> = delta_jk; a^+_k annihilates the ground
state v.  CM has basis m_S = (prod_{k in S, ascending} a^-_k) v for S a
subset of the 12 pairs, encoded as a bitmask.

Engine.  In this basis every Clifford word acts as a tensor product of 12
monomial 2x2 matrices (its Jordan-Wigner string) with entries of the form
i^u * 2^t, times (1/sqrt(2))^(word length).  A WordTable stores that
operator as the pairs it toggles and the exponents u, t as affine functions
of the bits of S, built straight from the word's mask.  Word products,
traces, squares and dense applications reduce to this per-pair
bookkeeping; nothing irrational is ever stored, and odd-length words use
exact level-8 cyclotomic scalars for the leftover sqrt(2).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

from .cyclotomic import CycNumber, zeta
from .errors import PairingError, ValidationError, VerificationFailure

PAIRS = 12
DIM = 1 << PAIRS  # 4096
NGEN = 24
_FULL = DIM - 1


_INV_ROOT2 = (zeta(8, 1) + zeta(8, -1)) * Fraction(1, 2)


# ---------------------------------------------------------------------------
# public Clifford words


class CliffordWord:
    """scalar * e_{i1} e_{i2} ... with strictly ascending indices."""

    __slots__ = ("indices", "scalar")

    def __init__(self, indices, scalar=1):
        idx, sign = _canonicalize(tuple(int(i) for i in indices))
        self.indices = idx
        if isinstance(scalar, CycNumber):
            self.scalar = scalar * sign
        else:
            self.scalar = Fraction(scalar) * sign

    def __mul__(self, other: "CliffordWord") -> "CliffordWord":
        return CliffordWord(self.indices + other.indices, self.scalar * other.scalar)

    def __neg__(self):
        return CliffordWord(self.indices, self.scalar * -1)

    def __eq__(self, other):
        if not isinstance(other, CliffordWord):
            return NotImplemented
        return self.indices == other.indices and self.scalar == other.scalar

    def __hash__(self):
        return hash(self.indices)

    def mask(self) -> int:
        m = 0
        for i in self.indices:
            m |= 1 << (i - 1)
        return m

    def __repr__(self):
        return "CliffordWord(%s, scalar=%s)" % (list(self.indices), self.scalar)


def _canonicalize(indices):
    idx = list(indices)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(idx) - 1):
            if idx[i] > idx[i + 1]:
                idx[i], idx[i + 1] = idx[i + 1], idx[i]
                sign = -sign
                changed = True
    out = []
    i = 0
    while i < len(idx):
        if i + 1 < len(idx) and idx[i] == idx[i + 1]:
            sign = -sign  # e_i^2 = -1
            i += 2
        else:
            out.append(idx[i])
            i += 1
    return tuple(out), sign


def word_from_mask(mask: int, sign: int = 1) -> CliffordWord:
    """e_C for a 24-bit coordinate mask (bit i-1 <-> generator i)."""
    return CliffordWord([i + 1 for i in range(NGEN) if mask >> i & 1], sign)


def reorder_sign(cmask: int, dmask: int) -> int:
    """Sign with e_C e_D = sign * e_{C xor D} for canonical ascending words."""
    swaps = 0
    for d in range(NGEN):
        if dmask >> d & 1:
            swaps += bin(cmask >> (d + 1)).count("1")
    swaps += bin(cmask & dmask).count("1")  # repeated generators square to -1
    return -1 if swaps % 2 else 1


# ---------------------------------------------------------------------------
# spinor states


class SpinorState:
    """Element of CM: mapping from pair-subset bitmasks to CycNumber."""

    __slots__ = ("coords",)

    def __init__(self, coords: dict):
        clean = {}
        for mask, c in coords.items():
            if not isinstance(c, CycNumber):
                c = CycNumber.from_rational(Fraction(c), 4)
            if not c.is_zero():
                clean[int(mask)] = c
        self.coords = clean

    @staticmethod
    def basis(mask: int) -> "SpinorState":
        return SpinorState({mask: 1})

    @staticmethod
    def vacuum() -> "SpinorState":
        return SpinorState.basis(0)

    def __add__(self, other):
        out = dict(self.coords)
        for m, c in other.coords.items():
            out[m] = out[m] + c if m in out else c
        return SpinorState(out)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c) -> "SpinorState":
        return SpinorState({m: v * c for m, v in self.coords.items()})

    def is_zero(self) -> bool:
        return not self.coords

    def __eq__(self, other):
        if not isinstance(other, SpinorState):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        picks = sorted(self.coords)[:4]
        body = ", ".join("%03x: %s" % (m, self.coords[m]) for m in picks)
        more = "" if len(self.coords) <= 4 else ", ... (%d terms)" % len(self.coords)
        return "SpinorState({%s%s})" % (body, more)


def act(word: CliffordWord, state: SpinorState) -> SpinorState:
    """Apply a Clifford word to a spinor state, exactly: the unscaled word's
    table maps each basis vector, then the word's scalar (times 1/sqrt(2)
    for an odd word) multiplies the image once."""
    table = WordTable(word.mask())
    out = {}
    for mask, c in state.coords.items():
        target, g = table.basis_image(mask)
        val = g * c
        out[target] = out[target] + val if target in out else val
    scalar = word.scalar * _INV_ROOT2 if table.odd else word.scalar
    return SpinorState(out).scaled(scalar)


# ---------------------------------------------------------------------------
# the invariant bilinear form on CM


@lru_cache(maxsize=1)
def _pair_signs():
    """beta[S] = <m_S, m_(complement of S)>, the only nonzero pairings.

    From the normalization <v, m_Omega> = 1 and <a^-_j x, y> = -<x, a^-_j y>:
    peel the a^- factors of m_S from the left, apply them to the complement
    in ascending order, and track creation signs.
    """
    beta = np.zeros(DIM, dtype=np.int8)
    for mask in range(DIM):
        sign = -1 if bin(mask).count("1") % 2 else 1
        current = _FULL ^ mask
        total = 0
        for k in range(PAIRS):
            if mask >> k & 1:
                total += bin(current & ((1 << k) - 1)).count("1")
                current |= 1 << k
        if total % 2:
            sign = -sign
        beta[mask] = sign
    return beta


def bilinear_cm(a: SpinorState, b: SpinorState) -> CycNumber:
    """The unique form with <a1- ... a12- v, v> = 1 and <u x, y> = -<x, u y>."""
    beta = _pair_signs()
    total = CycNumber.from_rational(0, 4)
    for mask, ca in a.coords.items():
        cb = b.coords.get(_FULL ^ mask)
        if cb is not None:
            total = total + ca * cb * int(beta[mask])
    return total


def gram_determinant_unit() -> int:
    """det of the Gram matrix of the form on the m_S basis.

    The matrix is a signed permutation (S pairs only with its complement),
    so the determinant is the permutation sign times the product of the
    4096 pairing signs; nonzero means nondegenerate."""
    beta = _pair_signs()
    if not np.all(np.abs(beta) == 1):
        return 0
    # the permutation S -> complement(S) is a product of 2048 transpositions
    perm_sign = 1 if (DIM // 2) % 2 == 0 else -1
    return perm_sign * int(np.prod(beta.astype(np.int64)))


# ---------------------------------------------------------------------------
# super traces from eigenvalue data


def _trace_level(thetas):
    level = 2
    for t in thetas:
        d = 2 * Fraction(t).denominator
        level = level * d // gcd(level, d)
    return level


def spinor_supertrace_closed(thetas, nu_choice: int = 1) -> CycNumber:
    """nu * prod_i (1 - lambda_i^(-1)) with lambda_i = e^(2*pi*i*theta_i).

    thetas: 12 rationals in [0, 1/2] choosing one eigenvalue per inverse
    pair; nu = nu_choice * prod_i e^(pi*i*theta_i) is the half-angle
    square root of prod lambda_i.
    """
    thetas = [Fraction(t) for t in thetas]
    if len(thetas) != PAIRS:
        raise PairingError("expected 12 eigenvalue pairs, got %d" % len(thetas))
    level = _trace_level(thetas)
    nu_exp = sum(int(t * level) // 2 for t in thetas)
    weights = {nu_exp % level: nu_choice}
    for t in thetas:
        shift = -int(t * level)
        new = {}
        for e, w in weights.items():
            new[e] = new.get(e, 0) + w
            e2 = (e + shift) % level
            new[e2] = new.get(e2, 0) - w
        weights = new
    return CycNumber.from_exponents(level, weights)


def spinor_supertrace_oracle(thetas, nu_choice: int = 1) -> CycNumber:
    """The same value by explicit summation over all 4096 subsets S of the
    pair set: nu * sum_S (-1)^|S| prod_{i in S} lambda_i^(-1).
    No product formula is used; subsets are walked in Gray-code order."""
    thetas = [Fraction(t) for t in thetas]
    if len(thetas) != PAIRS:
        raise PairingError("expected 12 eigenvalue pairs, got %d" % len(thetas))
    level = _trace_level(thetas)
    shifts = [-int(t * level) for t in thetas]
    nu_exp = sum(int(t * level) // 2 for t in thetas)
    weights = {nu_exp % level: nu_choice}
    exp = 0
    parity = 1
    members = 0
    for n in range(1, DIM):
        k = (n & -n).bit_length() - 1
        if members >> k & 1:
            exp -= shifts[k]
            members &= ~(1 << k)
        else:
            exp += shifts[k]
            members |= 1 << k
        parity = -parity
        e = (nu_exp + exp) % level
        weights[e] = weights.get(e, 0) + parity * nu_choice
    return CycNumber.from_exponents(level, weights)


def class_supertraces(shape, nu_choice: int = 1):
    """(closed form, subset oracle) for a Frame shape's eigenvalue pairs."""
    thetas = shape.eigenvalue_pairs()
    return (
        spinor_supertrace_closed(thetas, nu_choice),
        spinor_supertrace_oracle(thetas, nu_choice),
    )


# ---------------------------------------------------------------------------
# dense engine: Gaussian-integer arrays over a common denominator 2^e

_ARANGE = np.arange(DIM, dtype=np.int64)
_BITS = [((_ARANGE >> k) & 1).astype(np.int64) for k in range(PAIRS)]
_SIGN_RE = np.array([1, 0, -1, 0], dtype=np.int64)
_SIGN_IM = np.array([0, 1, 0, -1], dtype=np.int64)
_INPUT_LIMIT = 1 << 26


class DenseState:
    """State as Gaussian-integer arrays: value_S = (re_S + i im_S)/2^e."""

    __slots__ = ("re", "im", "e")

    def __init__(self, re, im, e: int):
        self.re = re
        self.im = im
        self.e = e

    @staticmethod
    def from_state(state: SpinorState) -> "DenseState":
        re = np.zeros(DIM, dtype=np.int64)
        im = np.zeros(DIM, dtype=np.int64)
        emax = 0
        items = []
        for mask, c in state.coords.items():
            if 4 % c.level:
                raise ValidationError("dense engine needs Gaussian coordinates")
            x, y = c.raise_level(4).coords
            for v in (x, y):
                if v.denominator & (v.denominator - 1):
                    raise ValidationError("dense engine needs dyadic coordinates")
                emax = max(emax, v.denominator.bit_length() - 1)
            items.append((mask, x, y))
        for mask, x, y in items:
            re[mask] = x.numerator << (emax - (x.denominator.bit_length() - 1))
            im[mask] = y.numerator << (emax - (y.denominator.bit_length() - 1))
        return DenseState(re, im, emax)

    def to_state(self) -> SpinorState:
        coords = {}
        den = 1 << self.e
        for mask in np.nonzero(self.re | self.im)[0]:
            coords[int(mask)] = CycNumber(
                4,
                (Fraction(int(self.re[mask]), den), Fraction(int(self.im[mask]), den)),
            )
        return SpinorState(coords)

    def equals(self, other: "DenseState") -> bool:
        e = max(self.e, other.e)
        return bool(
            np.array_equal(self.re << (e - self.e), other.re << (e - other.e))
            and np.array_equal(self.im << (e - self.e), other.im << (e - other.e))
        )

    def max_abs(self) -> int:
        m = 0
        if self.re.size:
            m = max(int(np.abs(self.re).max()), int(np.abs(self.im).max()))
        return m

    def reduced(self) -> "DenseState":
        """The same value with the common power of two taken out of re, im
        and the denominator 2^e."""
        bits = int(np.bitwise_or.reduce(self.re | self.im))
        k = min(self.e, (bits & -bits).bit_length() - 1) if bits else self.e
        return DenseState(self.re >> k, self.im >> k, self.e - k)


def _unit_power(u: int, t: int) -> CycNumber:
    """i^u * 2^t as a level-4 number."""
    scale = Fraction(2) ** t
    return CycNumber(4, (int(_SIGN_RE[u & 3]) * scale, int(_SIGN_IM[u & 3]) * scale))


# Pair k of sqrt(2)^|C| e_C, by which of e_(2k+1) (bit 0) and e_(2k+2) (bit 1)
# C holds: (ua, ta, ub, tb) with input bit 0 -> i^ua 2^ta and input bit 1 ->
# i^ub 2^tb.  A pair holding one of the two is toggled; an odd number of
# C-generators above the pair (the Jordan-Wigner Z-string) adds 2 to ub.
_PAIR_RULES = (
    (0, 0, 0, 0),  # 1
    (0, 0, 2, 1),  # a^+ + a^-
    (3, 0, 3, 1),  # i (a^+ - a^-)
    (1, 1, 3, 1),  # the product of the two
)


class WordTable:
    """Monomial word: m_S -> i^U(S) 2^T(S) (1/sqrt(2))^odd m_(S ^ toggle),
    with U = u0 + sum_k du_k S_k (mod 4) and T = t0 + sum_k dt_k S_k.

    WordTable(cmask, sign) is sign * e_C for the 24-bit mask of C (bit i-1
    for generator i); the fields are a normal form, so equal operators
    compare equal."""

    __slots__ = ("toggle", "u0", "t0", "du", "dt", "odd")

    def __init__(self, cmask: int, sign: int = 1):
        if sign not in (1, -1):
            raise ValidationError("word sign must be +1 or -1")
        length = bin(cmask).count("1")
        self.odd = length % 2
        self.toggle = 0
        u0 = 0 if sign == 1 else 2
        t0 = -(length // 2)
        du = []
        dt = []
        for k in range(PAIRS):
            code = cmask >> (2 * k) & 3
            ua, ta, ub, tb = _PAIR_RULES[code]
            if bin(cmask >> (2 * k + 2)).count("1") % 2:
                ub += 2
            if code in (1, 2):
                self.toggle |= 1 << k
            u0 += ua
            t0 += ta
            du.append((ub - ua) % 4)
            dt.append(tb - ta)
        self.u0 = u0 % 4
        self.t0 = t0
        self.du = tuple(du)
        self.dt = tuple(dt)

    def __mul__(self, other: "WordTable") -> "WordTable":
        """self after other.  Where other toggles pair k, self reads the
        flipped bit: its du_k, dt_k join u0, t0 and change sign."""
        out = WordTable.__new__(WordTable)
        out.toggle = self.toggle ^ other.toggle
        out.odd = self.odd ^ other.odd
        u0 = self.u0 + other.u0
        t0 = self.t0 + other.t0 - (self.odd & other.odd)  # (1/sqrt(2))^2 = 1/2
        du = []
        dt = []
        for k in range(PAIRS):
            su, st = self.du[k], self.dt[k]
            if other.toggle >> k & 1:
                u0 += su
                t0 += st
                su, st = -su, -st
            du.append((su + other.du[k]) % 4)
            dt.append(st + other.dt[k])
        out.u0 = u0 % 4
        out.t0 = t0
        out.du = tuple(du)
        out.dt = tuple(dt)
        return out

    def _key(self):
        return (self.toggle, self.odd, self.u0, self.t0, self.du, self.dt)

    def __eq__(self, other):
        if not isinstance(other, WordTable):
            return NotImplemented
        return self._key() == other._key()

    def is_identity(self) -> bool:
        return self._key() == (0, 0, 0, 0, (0,) * PAIRS, (0,) * PAIRS)

    def trace(self) -> CycNumber:
        """0 unless no pair is toggled; then the sum over S factors as
        i^u0 2^t0 prod_k (1 + i^du_k 2^dt_k).  An odd word holds one
        generator of some pair, so it toggles that pair: its trace is 0."""
        if self.toggle:
            return CycNumber.from_rational(0, 4)
        total = _unit_power(self.u0, self.t0)
        for du, dt in zip(self.du, self.dt):
            total = total * (_unit_power(du, dt) + 1)
        return total

    def supertrace(self) -> CycNumber:
        """str_CM = tr(zz * self), zz = e_1 e_2 ... e_24 the lift of -Id
        fixed by the polarization; it acts on m_S as (-1)^|S|."""
        return (WordTable((1 << NGEN) - 1) * self).trace()

    def min_shift(self) -> int:
        return self.t0 + sum(d for d in self.dt if d < 0)

    def basis_image(self, mask: int):
        """(S ^ toggle, i^U(S) 2^T(S) as a level-4 number) for S = mask;
        the odd 1/sqrt(2) is left to the caller."""
        u, t = self.u0, self.t0
        for k in range(PAIRS):
            if mask >> k & 1:
                u += self.du[k]
                t += self.dt[k]
        return mask ^ self.toggle, _unit_power(u, t)

    def apply(self, state: DenseState) -> DenseState:
        """The word applied to a dense state, over the smallest denominator
        that keeps every image entry integral."""
        out_re = np.zeros(DIM, dtype=np.int64)
        out_im = np.zeros(DIM, dtype=np.int64)
        out_e = state.e + max(0, -self.min_shift())
        self.apply_into(state, out_re, out_im, out_e)
        return DenseState(out_re, out_im, out_e)

    def apply_into(self, state: DenseState, out_re, out_im, out_e: int):
        """Accumulate 2^out_e * (word applied to state) into out arrays."""
        if self.odd:
            raise ValidationError("dense tables require an even word length")
        u = np.full(DIM, self.u0, dtype=np.int64)
        t = np.full(DIM, self.t0 + out_e - state.e, dtype=np.int64)
        for k in range(PAIRS):
            if self.du[k]:
                u += self.du[k] * _BITS[k]
            if self.dt[k]:
                t += self.dt[k] * _BITS[k]
        if int(t.min()) < 0:
            raise ValidationError("denominator headroom exhausted; raise out_e")
        # products stay below 2^61, so adding two of them cannot wrap
        if int(t.max()) + state.max_abs().bit_length() > 61:
            raise ValidationError("int64 headroom exhausted")
        pow2 = np.int64(1) << t
        u &= 3
        sr = _SIGN_RE[u]
        si = _SIGN_IM[u]
        idx = _ARANGE ^ self.toggle
        out_re[idx] += pow2 * (sr * state.re - si * state.im)
        out_im[idx] += pow2 * (sr * state.im + si * state.re)


def bilinear_dense(a: DenseState, b: DenseState) -> CycNumber:
    """bilinear_cm on dense states, with exact big-integer accumulation."""
    beta = _pair_signs().astype(object)
    idx = _ARANGE ^ _FULL
    ar, ai = a.re.astype(object), a.im.astype(object)
    br, bi = b.re[idx].astype(object), b.im[idx].astype(object)
    re = int(np.sum(beta * (ar * br - ai * bi)))
    im = int(np.sum(beta * (ar * bi + ai * br)))
    den = 1 << (a.e + b.e)
    return CycNumber(4, (Fraction(re, den), Fraction(im, den)))


# ---------------------------------------------------------------------------
# the lifted sign-change group and the idempotent


class GolayLift:
    """Multiplicative section C -> s(C) e_C over the Golay code.

    Signed generator words are extended along xor-subsets; since all lift
    words have doubly-even supports with pairwise even intersections, they
    commute and square to +1, so {+- s(C) e_C} is an elementary abelian
    group of order 8192 lifting the sign-change group.

    Because s(C) e_C is the ordered product of the signed generator words
    s(G_j) e_{G_j} over the generators in C, the averaging idempotent
    factors: t = 2^(-12) sum_C s(C) e_C = prod_j (1 + s(G_j) e_{G_j})/2.
    """

    def __init__(self, code, frame=None, generator_signs=None):
        self.code = code
        self.frame = tuple(frame) if frame is not None else None
        if self.frame is not None and len(self.frame) != NGEN:
            raise ValidationError("coordinate frame must have 24 vectors")
        self.generator_signs = tuple(generator_signs or (1,) * 12)
        section = {0: 1}
        masks = [0]
        for j, gen in enumerate(code.generators):
            for prev in list(masks):
                nxt = prev ^ gen
                section[nxt] = section[prev] * self.generator_signs[j] * reorder_sign(prev, gen)
                masks.append(nxt)
        self.section = section
        self._masks = sorted(section)
        self._factors = [self.word_table(g) for g in code.generators]

    # -- signed words ------------------------------------------------------

    def signed_word(self, cmask: int) -> CliffordWord:
        if cmask not in self.section:
            raise ValidationError("mask %06x is not a codeword" % cmask)
        return word_from_mask(cmask, self.section[cmask])

    def word_table(self, cmask: int) -> WordTable:
        return WordTable(cmask, self.section[cmask])

    def tables(self):
        """A WordTable for each lifted word in mask order, built one at a time."""
        return (self.word_table(c) for c in self._masks)

    # -- group structure ----------------------------------------------------

    def verify_squares(self):
        """(s(C) e_C)^2 = +1 for all 4096 codewords, exhaustively."""
        for c, table in zip(self._masks, self.tables()):
            if not (table * table).is_identity():
                raise VerificationFailure("square of lifted %06x is not +1" % c)
        return True

    def verify_closure(self, samples: int = 1000, seed: int = 7):
        """s(C)e_C * s(D)e_D = s(C+D)e_{C+D} on random codeword pairs."""
        rng = random.Random(seed)
        for _ in range(samples):
            c, d = rng.choice(self._masks), rng.choice(self._masks)
            if self.signed_word(c) * self.signed_word(d) != self.signed_word(c ^ d):
                raise VerificationFailure("closure fails at %06x * %06x" % (c, d))
        return True

    def group_order(self) -> int:
        """Order of {+- s(C) e_C}: the 4096 distinct supports, doubled."""
        return 2 * len(set(self._masks))

    # -- the idempotent t = prod_j (1 + s(G_j) e_{G_j})/2 ---------------------

    def idempotent_apply(self, state: SpinorState) -> SpinorState:
        return self.apply_t_dense(DenseState.from_state(state)).to_state()

    def apply_t_dense(self, dense: DenseState) -> DenseState:
        """t applied factor by factor as (state + W_j state)/2, with the
        common power of two removed after each factor."""
        if dense.max_abs() > _INPUT_LIMIT:
            raise ValidationError("dense state too large for the exact int64 path")
        state = dense
        for table in self._factors:
            image = table.apply(state)
            shift = image.e - state.e
            state = DenseState(
                (state.re << shift) + image.re, (state.im << shift) + image.im, image.e + 1
            ).reduced()
        return state

    def apply_signed_word(self, cmask: int, state: SpinorState) -> SpinorState:
        return act(self.signed_word(cmask), state)

    def invariant_vector(self) -> SpinorState:
        return self.idempotent_apply(SpinorState.vacuum())


def golay_lift_section(code, frame=None) -> GolayLift:
    """Construct the lift, searching generator signs until the idempotent
    t = prod_j (1 + s(G_j) e_{G_j})/2 over the 12 code generators has a
    nonzero image of the ground state (a property of the chosen section;
    the extension itself always splits here)."""
    candidates = [(1,) * 12]
    candidates += [tuple(-1 if i == j else 1 for i in range(12)) for j in range(12)]
    for signs in candidates:
        lift = GolayLift(code, frame, signs)
        if not lift.invariant_vector().is_zero():
            return lift
    raise VerificationFailure("no generator-sign section with t v != 0 found")


def n1_checks(lift: GolayLift, seed: int = 11, orth_samples: int = 220):
    """Structure checks backing the supersymmetry element: lifted group of
    order 8192 with all squares +1, t idempotent, ground image invariant
    and non-isotropic, orthogonality over short subsets.

    Returns a report dict; raises VerificationFailure on any failure.
    """
    rng = random.Random(seed)
    report = {}

    lift.verify_squares()
    lift.verify_closure(seed=seed)
    report["group_order"] = lift.group_order()
    if report["group_order"] != 8192:
        raise VerificationFailure("lifted group has order %d" % report["group_order"])

    tv = lift.invariant_vector()
    if tv.is_zero():
        raise VerificationFailure("t v is zero")
    report["tv_components"] = len(tv.coords)
    dense_tv = DenseState.from_state(tv)

    # idempotency on the ground state image and on random states
    if not lift.apply_t_dense(dense_tv).equals(dense_tv):
        raise VerificationFailure("t is not idempotent on t v")
    for _ in range(10):
        coords = {}
        for _ in range(4):
            coords[rng.randrange(DIM)] = CycNumber(
                4, (Fraction(rng.randrange(-8, 9)), Fraction(rng.randrange(-8, 9)))
            )
        s = SpinorState(coords)
        ts = lift.apply_t_dense(DenseState.from_state(s))
        if not lift.apply_t_dense(ts).equals(ts):
            raise VerificationFailure("t not idempotent on a random state")
    report["idempotent_states_checked"] = 11

    # invariance of t v under every lifted sign change, exhaustively
    for cmask, table in zip(lift._masks, lift.tables()):
        if not table.apply(dense_tv).equals(dense_tv):
            raise VerificationFailure("t v moved by lifted %06x" % cmask)
    report["invariance_checked"] = len(lift._masks)

    # norm and orthogonality of the invariant vector
    norm = bilinear_dense(dense_tv, dense_tv)
    if norm.is_zero():
        raise VerificationFailure("<t v, t v> = 0")
    checked = 0
    seen = set()
    while checked < orth_samples:
        size = rng.choice((2, 4))
        csub = tuple(sorted(rng.sample(range(1, NGEN + 1), size)))
        if csub in seen:
            continue
        seen.add(csub)
        mask = 0
        for i in csub:
            mask |= 1 << (i - 1)
        val = bilinear_dense(WordTable(mask).apply(dense_tv), dense_tv)
        if not val.is_zero():
            raise VerificationFailure("<e_C tv, tv> != 0 for C=%s" % (csub,))
        checked += 1
    report["orthogonality_samples"] = checked

    report["tv_norm"] = norm
    alpha_sq = CycNumber.from_rational(8, 4) / norm
    report["alpha_squared"] = alpha_sq
    report["alpha"] = _monomial_sqrt(alpha_sq)
    report["passed"] = True
    return report


def _monomial_sqrt(value: CycNumber):
    """Exact square root of i^u * 2^m values, as a level-8 number; None
    when the value is not of that shape (a root still exists in C)."""
    if 4 % value.level:
        return None
    re, im = value.raise_level(4).coords
    if (re == 0) == (im == 0):
        return None
    mag = abs(re or im)
    if mag.numerator & (mag.numerator - 1) or mag.denominator & (mag.denominator - 1):
        return None
    m = mag.numerator.bit_length() - mag.denominator.bit_length()
    u = (0 if re > 0 else 2) if re else (1 if im > 0 else 3)
    root = zeta(8, u)
    if m % 2:
        root = root * (zeta(8, 1) + zeta(8, -1))
        m -= 1
    half = m // 2
    scale = Fraction(1 << half) if half >= 0 else Fraction(1, 1 << (-half))
    return root * scale
