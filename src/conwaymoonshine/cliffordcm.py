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
i^u * 2^t, times (1/sqrt(2))^(word length).  A WordTable stores words as
arrays, one row per word: the pairs each toggles and the exponents u, t as
affine functions of the bits of S, built straight from the word's mask.  A
single word is a table of one row; the 4096 lifted Golay words are one table,
squared in one pass and shown to be products of the 12 generator words, so
only those 12 need to act on t v.  A word acts on a dense state as one
gather (the image entry's source and phase) and one shift (its power of
two), from int16 and int8 tables built on a table's first application and
kept on it.  t updates a state in place from the kept tables of the lift's 12
generator words, and the orthogonality check's 220 forms <W t v, t v> are one
kernel over the rows where t v is nonzero at the complement (warm, on a 2-core
Xeon: 0.018-0.020 s for the 22 applications of t in n1_checks and 0.011 s for
the forms, from 0.022-0.024 s and 0.026-0.027 s).  Nothing irrational is
stored; only even-length words act on dense states.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, lcm

import numpy as np

from .cyclotomic import CycNumber
from .errors import MembershipError, PairingError, ValidationError, VerificationFailure

PAIRS = 12
DIM = 1 << PAIRS  # 4096
NGEN = 24


# ---------------------------------------------------------------------------
# Clifford word signs


def reorder_sign(cmask: int, dmask: int) -> int:
    """Sign with e_C e_D = sign * e_{C xor D} for canonical ascending words."""
    swaps = 0
    for d in range(NGEN):
        if dmask >> d & 1:
            swaps += bin(cmask >> (d + 1)).count("1")
    swaps += bin(cmask & dmask).count("1")  # repeated generators square to -1
    return -1 if swaps % 2 else 1


def _parity(x):
    """Parity of the set bits of each 24-bit entry."""
    for k in (16, 8, 4, 2, 1):
        x = x ^ x >> k
    return x & 1


# ---------------------------------------------------------------------------
# super traces from eigenvalue data


def _angle_steps(thetas):
    """The level N of 12 pair angles theta_i (ints or Fractions), and each
    angle as the integer step theta_i * N."""
    thetas = list(thetas)
    if len(thetas) != PAIRS:
        raise PairingError("expected 12 eigenvalue pairs, got %d" % len(thetas))
    level = lcm(2, *(2 * t.denominator for t in thetas))
    return level, [t.numerator * (level // t.denominator) for t in thetas]


def spinor_supertrace_closed(thetas) -> CycNumber:
    """nu * prod_i (1 - lambda_i^(-1)) with lambda_i = e^(2*pi*i*theta_i).

    thetas: 12 rationals in [0, 1/2] choosing one eigenvalue per inverse
    pair; nu = prod_i e^(pi*i*theta_i) is the half-angle square root of
    prod lambda_i.
    """
    level, steps = _angle_steps(thetas)
    weights = [0] * level  # weights[e]: the coefficient of zeta_level^e
    weights[sum(step // 2 for step in steps) % level] = 1  # nu
    for step in steps:  # times 1 - zeta^(-step): w_e -= w_(e + step)
        r = step % level
        weights = [w - v for w, v in zip(weights, weights[r:] + weights[:r])]
    return CycNumber(level, weights)


def spinor_supertrace_oracle(thetas) -> CycNumber:
    """The same value by explicit summation over all 4096 subsets S of the
    pair set: nu * sum_S (-1)^|S| prod_{i in S} lambda_i^(-1).
    No product formula is used: each subset's exponent is summed from its
    members, one pair at a time over all subsets, and the even and odd
    subsets are counted per exponent."""
    level, steps = _angle_steps(thetas)
    exps = np.array([sum(step // 2 for step in steps)])  # [S]: exponent of the S term
    odd = np.zeros(1, dtype=bool)
    for step in steps:  # S + 2^k is S with pair k added, for the subsets S of the pairs below k
        exps, odd = np.concatenate((exps, exps - step)), np.concatenate((odd, ~odd))
    exps %= level
    counts = np.bincount(exps[~odd], minlength=level) - np.bincount(exps[odd], minlength=level)
    return CycNumber(level, counts.tolist())


def class_supertraces(shape):
    """(closed form, subset oracle) for a Frame shape's eigenvalue pairs."""
    thetas = shape.eigenvalue_pairs()
    return spinor_supertrace_closed(thetas), spinor_supertrace_oracle(thetas)


# ---------------------------------------------------------------------------
# dense engine: Gaussian-integer arrays over a common denominator 2^e

_ARANGE = np.arange(DIM, dtype=np.int64)
_PAIR_BITS = np.stack([(_ARANGE >> k & 1).astype(np.int8) for k in range(PAIRS)], 1)  # [S, k]: S_k
_INPUT_LIMIT = 1 << 26


class DenseState:
    """State as Gaussian-integer arrays: value_S = (re_S + i im_S)/2^e."""

    __slots__ = ("re", "im", "e")

    def __init__(self, re, im, e: int):
        if e < 0:  # reduced() takes out powers of two only down to 2^0
            raise ValidationError("dense state exponent %d is negative" % e)
        self.re = re
        self.im = im
        self.e = e

    @staticmethod
    def basis(mask: int) -> "DenseState":
        """The basis vector m_S for the pair-subset bitmask S."""
        re = np.zeros(DIM, dtype=np.int64)
        re[mask] = 1
        return DenseState(re, np.zeros(DIM, dtype=np.int64), 0)

    def equals(self, other: "DenseState") -> bool:
        a, b = self.reduced(), other.reduced()  # a normal form, so no shift can wrap int64
        return a.e == b.e and np.array_equal(a.re, b.re) and np.array_equal(a.im, b.im)

    def max_abs(self) -> int:
        return max(int(np.abs(self.re).max(initial=0)), int(np.abs(self.im).max(initial=0)))

    def reduced(self) -> "DenseState":
        """The same value with the common power of two taken out of re, im
        and the denominator 2^e."""
        bits = int(np.bitwise_or.reduce(self.re | self.im))
        k = min(self.e, (bits & -bits).bit_length() - 1) if bits else self.e
        return DenseState(self.re >> k, self.im >> k, self.e - k)

    def nonzero_count(self) -> int:
        return int(np.count_nonzero(self.re | self.im))


def _unit_power(u: int, t: int) -> CycNumber:
    """i^u * 2^t as a level-4 number."""
    re, im = ((1, 0), (0, 1), (-1, 0), (0, -1))[u & 3]
    return CycNumber(4, (re * Fraction(2) ** t, im * Fraction(2) ** t))


# Pair k of sqrt(2)^|C| e_C, by which of e_(2k+1) (bit 0) and e_(2k+2) (bit 1)
# C holds: (ua, ta, ub, tb) with input bit 0 -> i^ua 2^ta and input bit 1 ->
# i^ub 2^tb.  A pair holding one of the two is toggled; an odd number of
# C-generators above the pair (the Jordan-Wigner Z-string) adds 2 to ub.
_PAIR_RULES = np.array([(0, 0, 0, 0),  # 1
                        (0, 0, 2, 1),  # a^+ + a^-
                        (3, 0, 3, 1),  # i (a^+ - a^-)
                        (1, 1, 3, 1)])  # the product of the two
_HALF_BITS = _PAIR_BITS[:64, :6].T.copy()  # bits of pairs 0-5 (or 6-11)
_SOURCES = _ARANGE.astype(np.int16)  # the image entries R, as gather indices


def _affine(c0, d):
    """c0 + sum_k d_k S_k per row and S: 64-entry tables for pairs 0-5 and 6-11, broadcast.
    In d's dtype; int8 holds a phase sum (at most 3 + 12 * 3) and an exponent (at most 12)."""
    low = d[:, :6] @ _HALF_BITS + c0.astype(d.dtype)[:, None]
    high = d[:, 6:] @ _HALF_BITS
    return (high[:, :, None] + low[:, None, :]).reshape(len(d), DIM)


def _rotations(x, y, out, k=0):
    """i^u (x + i y) / 2^k for u = 0..3 into out: Im at u * DIM + S, Re one block later."""
    np.right_shift(y, k, out=out[:DIM])
    np.right_shift(x, k, out=out[DIM:2 * DIM])
    np.negative(out[:2 * DIM], out=out[2 * DIM:4 * DIM])
    out[4 * DIM:] = out[:DIM]
    return out


def _check_headroom(bits: int, size: int):
    """Refuse to shift entries of `size` bits left by up to `bits`, unless they
    stay below 2^61, so that adding two of them cannot wrap int64."""
    if bits + size > 61:
        raise ValidationError("int64 headroom exhausted")


class WordTable:
    """Monomial words, one row each: row r maps
    m_S -> i^U(S) 2^T(S) (1/sqrt(2))^odd m_(S ^ toggle),
    with U = u0 + sum_k du_k S_k (mod 4) and T = t0 + sum_k dt_k S_k.

    WordTable(cmasks, signs) holds the words signs * e_C for 24-bit masks C
    (bit i-1 for generator i), built over all masks one pair at a time;
    WordTable(cmask, sign) is a table of one row.  The fields are a normal
    form, so equal operators compare equal."""

    __slots__ = ("toggle", "odd", "u0", "t0", "du", "dt", "_gathers")

    def __init__(self, cmasks, signs=1):
        cmasks = np.array(cmasks, dtype=np.int64, ndmin=1)
        signs = np.broadcast_to(signs, cmasks.shape)
        if (np.abs(signs) != 1).any():
            raise ValidationError("word sign must be +1 or -1")
        du, dt = np.zeros((2, len(cmasks), PAIRS), dtype=np.int8)
        toggle, above, u0, t0 = np.zeros((4, len(cmasks)), dtype=np.int64)
        u0[signs == -1] = 2
        for k in reversed(range(PAIRS)):
            code = cmasks >> 2 * k & 3
            ua, ta, ub, tb = _PAIR_RULES[code].T
            parity = (code ^ code >> 1) & 1  # the pair holds one generator: toggled
            toggle |= parity << k
            u0 += ua
            t0 += 2 * ta - (code & 1) - (code >> 1)  # twice t0, less the word length
            du[:, k] = (ub + 2 * above - ua) % 4  # above: parity of the generators above
            dt[:, k] = tb - ta
            above ^= parity
        self.toggle, self.odd, self.u0, self.t0, self.du, self.dt = (
            toggle, above, u0 % 4, (t0 + above) // 2, du, dt)
        self._gathers = None

    @staticmethod
    def _of(toggle, odd, u0, t0, du, dt) -> "WordTable":
        table = WordTable.__new__(WordTable)
        table.toggle, table.odd, table.u0, table.t0, table.du, table.dt = toggle, odd, u0, t0, du, dt
        table._gathers = None
        return table

    def __len__(self):
        return len(self.toggle)

    def __getitem__(self, rows) -> "WordTable":
        if isinstance(rows, (int, np.integer)):
            raise TypeError("WordTable rows are taken by slice or index array")
        return WordTable._of(self.toggle[rows], self.odd[rows], self.u0[rows], self.t0[rows],
                             self.du[rows], self.dt[rows])

    def __iter__(self):
        """The rows as one-row tables."""
        return (self[i:i + 1] for i in range(len(self)))

    def __mul__(self, other: "WordTable") -> "WordTable":
        """self after other, row by row; a one-row operand broadcasts.  Where
        other toggles pair k, self reads the flipped bit: its du_k, dt_k join
        u0, t0 and change sign."""
        flip = _PAIR_BITS[other.toggle]
        u0 = self.u0 + other.u0 + (flip * self.du).sum(1)
        t0 = self.t0 + other.t0 - (self.odd & other.odd) + (flip * self.dt).sum(1)  # (1/sqrt(2))^2 = 1/2
        sign = 1 - 2 * flip
        return WordTable._of(
            self.toggle ^ other.toggle, self.odd ^ other.odd, u0 % 4, t0,
            (sign * self.du + other.du) % 4, sign * self.dt + other.dt)

    def differs(self, other: "WordTable"):
        """Per row, whether self and other are different words."""
        return ((self.toggle != other.toggle) | (self.odd != other.odd) | (self.u0 != other.u0)
                | (self.t0 != other.t0) | (self.du != other.du).any(1) | (self.dt != other.dt).any(1))

    def __eq__(self, other):
        if not isinstance(other, WordTable):
            return NotImplemented
        return len(self) == len(other) and not self.differs(other).any()

    def is_identity(self) -> bool:
        return not self.differs(WordTable(0)).item()

    def trace(self) -> CycNumber:
        """0 unless no pair is toggled; then the sum over S factors as
        i^u0 2^t0 prod_k (1 + i^du_k 2^dt_k).  An odd word holds one
        generator of some pair, so it toggles that pair: its trace is 0."""
        (toggle,), (u0,), (t0,), (du,), (dt,) = (
            f.tolist() for f in (self.toggle, self.u0, self.t0, self.du, self.dt))
        if toggle:
            return CycNumber.from_rational(0, 4)
        total = _unit_power(u0, t0)
        for d, t in zip(du, dt):
            total = total * (_unit_power(d, t) + 1)
        return total

    def supertrace(self) -> CycNumber:
        """str_CM = tr(zz * self), zz = e_1 e_2 ... e_24 the lift of -Id
        fixed by the polarization; it acts on m_S as (-1)^|S|."""
        return (WordTable((1 << NGEN) - 1) * self).trace()

    def apply(self, state: DenseState) -> DenseState:
        """The word applied to a dense state, over the smallest denominator
        that keeps every image entry integral."""
        (re,), (im,), shift = self.images(state)
        return DenseState(re, im, state.e + shift.item())

    def apply_into(self, state: DenseState, out_re, out_im, out_e: int):
        """Accumulate 2^out_e * (word applied to state) into out arrays."""
        (re,), (im,), shift = self.images(state)
        extra = out_e - state.e - shift.item()
        if extra < 0:
            raise ValidationError("denominator headroom exhausted; raise out_e")
        _check_headroom(extra, DenseState(re, im, 0).max_abs().bit_length())
        out_re += re << extra
        out_im += im << extra

    def images(self, state: DenseState):
        """(re, im, shift): each word's image of state as a row over 2^(e + shift),
        shift a column holding each word's -min T (floored at 0), the smallest
        denominator that keeps its image integral.  Entry R of an image is
        i^U(S) 2^T(S) x_S for S = R ^ toggle, read off the diagonal word (the word
        after its own toggle): one gather of i^U(S) x_S from `_rotations` and one
        shift by T(S) + shift, both from `_tables`."""
        idx, t, shift, bits = self._tables()
        _check_headroom(bits, state.max_abs().bit_length())
        rotated = _rotations(state.re, state.im, np.empty(5 * DIM, dtype=np.int64))
        return rotated[DIM:].take(idx) << t, rotated.take(idx) << t, shift

    def _diagonal(self):
        """(diag, shift, top): the diagonal words, whose U and T `images` reads at the image
        entry, and per row shift = -min T (floored at 0) and top, the largest T + shift."""
        if self.odd.any():
            raise ValidationError("dense tables require an even word length")
        diag = self * WordTable._of(self.toggle, 0, 0, 0, 0, 0)
        shift = np.maximum(-diag.t0 - np.minimum(diag.dt, 0).sum(1), 0)
        return diag, shift, diag.t0 + shift + np.maximum(diag.dt, 0).sum(1)

    def _tables(self):
        """(gather index, T + shift, shift, most bits added), built on the first call as int16
        (below 4 * DIM) and int8 (0 to PAIRS) and kept.  T runs from -m/2 to m/2 for m toggled
        pairs, so the most bits added, 2 * shift, also cover the state shifted by shift."""
        if self._gathers is None:
            diag, shift, top = self._diagonal()
            toggle = self.toggle.astype(np.int16)[:, None]
            idx = (_affine(diag.u0, diag.du) & 3) * np.int16(DIM) + (_SOURCES ^ toggle)
            self._gathers = idx, _affine(diag.t0 + shift, diag.dt), shift[:, None], int(top.max())
        return self._gathers


# ---------------------------------------------------------------------------
# the invariant bilinear form on CM

# beta[S] = <m_S, m_(complement of S)>, the only nonzero pairings.  From
# <v, m_Omega> = 1 and <a^-_k x, y> = -<x, a^-_k y>: move the a^- factors
# of m_S onto the complement in ascending order; a^-_k then passes the k
# lower pairs, all present, so beta[S] = (-1)^(sum over k in S of (k + 1)).
_PAIR_SIGNS = 1 - 2 * _parity(_ARANGE & 0x555)  # k + 1 is odd for the even k


def bilinear_dense(a: DenseState, b: DenseState) -> CycNumber:
    """The invariant form <a, b> on dense states, summed exactly in int64."""
    # 4096 terms of at most 2 |a| |b| < 2^50 stay below 2^62
    if a.max_abs().bit_length() + b.max_abs().bit_length() > 49:
        raise ValidationError("dense states too large for the exact int64 form")
    br, bi = b.re[::-1], b.im[::-1]  # m_(complement of S) is m_(4095 - S)
    re, im = (_PAIR_SIGNS * (a.re * br - a.im * bi)).sum(), (_PAIR_SIGNS * (a.re * bi + a.im * br)).sum()
    return CycNumber(4, (Fraction(int(re), 1 << a.e + b.e), Fraction(int(im), 1 << a.e + b.e)))


def _word_forms(words: WordTable, b: DenseState):
    """(re, im, shift): <W b, b> for each even word W as numerators over 2^(2 b.e + shift),
    shift as `images` gives it, summed exactly in int64: each term is below 2 |b|^2 2^top.
    Term R is beta[R] i^U(R) 2^T(R) b[R ^ toggle] b[R ^ 4095] (U, T of `images`), so only
    the R where b is nonzero at the complement count (2048 of 4096 for t v).  U and T are
    one int32 table P = DIM (U + 64 T), P mod 4 DIM = DIM (U mod 4) as 0 <= U < 64; the
    temporaries stay under glibc's mmap threshold."""
    diag, shift, top = words._diagonal()
    rows = np.flatnonzero(b.re[::-1] | b.im[::-1])
    if 2 * b.max_abs().bit_length() + 1 + int(top.max(initial=0)) + len(rows).bit_length() > 63:
        raise ValidationError("dense states too large for the exact int64 form")
    pr, pi = _PAIR_SIGNS[rows] * b.re[::-1][rows], _PAIR_SIGNS[rows] * b.im[::-1][rows]
    rotated = _rotations(b.re, b.im, np.empty(5 * DIM, dtype=np.int64))
    base, packed = (diag.u0 + 64 * (diag.t0 + shift)) << PAIRS, (diag.du + 64 * diag.dt.astype(np.int32)) << PAIRS
    re, im = np.zeros((2, len(words)), dtype=np.int64)
    step = max(1, 8191 // max(len(rows), DIM // 2))  # int64 [step, rows], int32 [step, DIM]: < 64 KiB
    for start in range(0, len(words), step):
        block = slice(start, start + step)
        p = _affine(base[block], packed[block]).take(rows, axis=1)
        idx = rows ^ words.toggle[block, None]  # native-width gather indices
        idx |= p & (4 * DIM - 1)
        p >>= PAIRS + 6
        x, y = rotated[DIM:].take(idx) << p, rotated.take(idx) << p
        re[block], im[block] = x @ pr - y @ pi, x @ pi + y @ pr
    return re, im, shift


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
        ngen = len(code.generators)
        self.generator_signs = tuple((1,) * ngen if generator_signs is None else generator_signs)
        if len(self.generator_signs) != ngen:
            raise ValidationError("%d generator signs for %d generators" % (len(self.generator_signs), ngen))
        # s(C ^ G_j) = s(C) s(G_j) reorder_sign(C, G_j) for all C in the span of
        # G_0 .. G_(j-1) at once; reorder_sign(C, G) = (-1)^|C & P| for P the bits
        # p with |G & [0, p]| odd, as e_p of C passes the e_q of G with q <= p
        bits = _ARANGE[:NGEN]
        masks, signs = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
        for gen, sign in zip(code.generators, self.generator_signs):
            flips = _parity(masks & (_parity(gen & (2 << bits) - 1) << bits).sum())
            masks = np.concatenate((masks, masks ^ gen))
            signs = np.concatenate((signs, signs * sign * (1 - 2 * flips)))
        self.section = dict(zip(masks.tolist(), signs.tolist()))
        # construction order: row n is the product of the generator words in n, row 2^j is generator j
        self.masks, self.words = masks, WordTable(masks, signs)
        self._generators = tuple(self.words[1 << np.arange(ngen)])  # one-row tables, each keeping its gathers

    # -- lifted word tables -------------------------------------------------

    def word_table(self, cmasks) -> WordTable:
        """The words s(C) e_C for one codeword mask or a sequence of them."""
        cmasks = np.array(cmasks, dtype=np.int64, ndmin=1)
        try:
            signs = [self.section[c] for c in cmasks.tolist()]
        except KeyError as exc:
            raise MembershipError("mask %06x is not a word of the lifted code" % exc.args[0]) from None
        return WordTable(cmasks, signs)

    def tables(self):
        """A WordTable for each lifted word in mask order."""
        return list(self.word_table(sorted(self.section)))

    # -- group structure ----------------------------------------------------

    def verify_squares(self):
        """(s(C) e_C)^2 = +1 for all 4096 codewords, exhaustively."""
        bad = (self.words * self.words).differs(WordTable(0))
        if bad.any():
            raise VerificationFailure("square of lifted %06x is not +1" % self.masks[bad].min())
        return True

    def verify_fixed(self, state: DenseState):
        """All 4096 lifted words fix state: row n is row n - 2^j times generator j
        (j the top bit of n), so from the identity at row 0 it is enough that the generators do;
        the first generator in the code's order that moves state is named."""
        if not self.words[:1].is_identity():
            raise VerificationFailure("lifted 000000 is not the identity")
        n = np.arange(1, len(self.words))
        j = np.frexp(n)[1] - 1
        bad = self.words[1:].differs(self.words[n - (1 << j)] * self.words[1 << j])
        if bad.any():
            raise VerificationFailure("lifted %06x is not its parent times generator %d"
                                      % (self.masks[bad.argmax() + 1], j[bad.argmax()]))
        for gen, word in zip(self.code.generators, self._generators):
            re, im, shift = word.images(state)
            if (re != state.re << shift).any() or (im != state.im << shift).any():
                raise VerificationFailure("state moved by lifted %06x" % gen)
        return True

    def group_order(self) -> int:
        """Order of {+- s(C) e_C}: the distinct supports, doubled."""
        return 2 * len(self.section)

    # -- the idempotent t = prod_j (1 + s(G_j) e_{G_j})/2 ---------------------

    def apply_t_dense(self, dense: DenseState) -> DenseState:
        """t applied factor by factor as (state + W_j state)/2 in place, on a copy of dense and
        one rotation buffer.  Before each factor and at the end, one or-reduction of
        |re| | |im| gives the common power of two to take out and the bits left."""
        if dense.max_abs() > _INPUT_LIMIT:
            raise ValidationError("dense state too large for the exact int64 path")
        re, im, e = dense.re.copy(), dense.im.copy(), dense.e
        rotated = np.empty(5 * DIM, dtype=np.int64)
        for word in (*self._generators, None):
            bits = int(np.bitwise_or.reduce(np.abs(re, out=rotated[:DIM]) | np.abs(im, out=rotated[DIM:2 * DIM])))
            k = min(e, (bits & -bits).bit_length() - 1) if bits else e
            e -= k
            if word is None:
                return DenseState(re >> k, im >> k, e)
            (idx,), (t,), shift, top = word._tables()
            _check_headroom(top, (bits >> k).bit_length())
            _rotations(re, im, rotated, k)
            idx, shift = idx.astype(np.intp), shift.item()
            for part, src in ((re, rotated[DIM:]), (im, rotated)):  # src[:DIM] is part / 2^k
                np.left_shift(src[:DIM], shift, out=part)
                part += src.take(idx) << t
            e += shift + 1

    def invariant_vector(self) -> DenseState:
        """t v, the image of the ground state under the idempotent."""
        return self.apply_t_dense(DenseState.basis(0))


def golay_lift_section(code, frame=None) -> GolayLift:
    """The lift with every generator sign +1.  For the Golay code its t v is
    nonzero; n1_checks refuses a section whose t v is zero."""
    return GolayLift(code, frame)


_ORTH_SUBSETS = comb(NGEN, 2) + comb(NGEN, 4)  # 276 + 10626 = 10902


def n1_checks(lift: GolayLift, seed: int = 11, orth_samples: int = 220):
    """Structure checks backing the supersymmetry element: lifted group of
    order 8192 with all squares +1, t idempotent, ground image invariant
    and non-isotropic, orthogonality over short subsets.

    Returns a report dict; raises VerificationFailure on any failure, and
    ValidationError for more samples than there are 2- and 4-subsets.
    """
    if orth_samples > _ORTH_SUBSETS:
        raise ValidationError(
            "orthogonality samples %d exceed the %d distinct 2- and 4-subsets"
            % (orth_samples, _ORTH_SUBSETS))
    rng = random.Random(seed)
    report = {}

    # closure is proved, not sampled: as the lifted word of G_i ^ G_k (i < k) is g_i g_k, all
    # squares +1 make the generator words g_j commuting involutions, and verify_fixed shows each
    # lifted word is the product of the g_j in it; so s(C)e_C s(D)e_D = s(C ^ D)e_(C ^ D) for all C, D
    lift.verify_squares()
    report["group_order"] = lift.group_order()
    if report["group_order"] != 8192:
        raise VerificationFailure("lifted group has order %d" % report["group_order"])

    tv = lift.invariant_vector()
    report["tv_components"] = tv.nonzero_count()
    if not report["tv_components"]:
        raise VerificationFailure("t v is zero")

    # idempotency on the ground state image and on random states
    if not lift.apply_t_dense(tv).equals(tv):
        raise VerificationFailure("t is not idempotent on t v")
    for _ in range(10):
        re, im = np.zeros((2, DIM), dtype=np.int64)
        for _ in range(4):
            x, y = rng.randrange(-8, 9), rng.randrange(-8, 9)  # drawn before the mask
            mask = rng.randrange(DIM)
            re[mask], im[mask] = x, y
        ts = lift.apply_t_dense(DenseState(re, im, 0))
        if not lift.apply_t_dense(ts).equals(ts):
            raise VerificationFailure("t not idempotent on a random state")
    report["idempotent_states_checked"] = 11

    # invariance of t v under every lifted sign change, exhaustively
    lift.verify_fixed(tv)
    report["invariance_checked"] = len(lift.section)

    # norm and orthogonality of the invariant vector
    norm = bilinear_dense(tv, tv)
    if norm.is_zero():
        raise VerificationFailure("<t v, t v> = 0")
    subsets, seen = [], set()
    while len(subsets) < orth_samples:
        csub = tuple(sorted(rng.sample(range(1, NGEN + 1), rng.choice((2, 4)))))
        if csub not in seen:
            seen.add(csub)
            subsets.append(csub)
    re, im, _ = _word_forms(WordTable([sum(1 << (i - 1) for i in c) for c in subsets]), tv)
    bad = (re | im) != 0
    if bad.any():
        raise VerificationFailure("<e_C tv, tv> != 0 for C=%s" % (subsets[bad.argmax()],))
    report["orthogonality_samples"] = len(subsets)

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
    s = Fraction(2) ** (m // 2)  # and for odd m, sqrt(2) = zeta_8 + zeta_8^(-1)
    return CycNumber.from_exponents(8, {u - 1: s, u + 1: s} if m % 2 else {u: s})
