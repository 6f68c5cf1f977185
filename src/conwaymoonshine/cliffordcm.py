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
single word is a table of one row.  A word acts on a dense state as one
gather (the image entry's source and phase) and one shift (its power of
two), from int16 and int8 tables built on a table's first application and
kept on it.  t is applied one factor (1 + W)/2 at a time, W each of the
lift's 12 generator words, through WordTable.images.

n1_checks reads W^2 = 1, the closure of the lifted words, facts (a) and (d) and
the group order off the code's weights, and applies the 12 generator words
only as the factors of t; its docstring gives the proof.  Nothing irrational is
stored; only even-length words act on dense states.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

import numpy as np

from .cyclotomic import CycNumber
from .errors import MembershipError, PairingError, ValidationError, VerificationFailure, integer

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
        """The basis vector m_S for the pair-subset bitmask S, 0 <= S < 4096."""
        mask = integer(mask, "basis mask must be an integer")
        if not 0 <= mask < DIM:
            raise ValidationError("basis mask %d is not a subset of the %d pairs" % (mask, PAIRS))
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


def _rotations(x, y):
    """i^u (x + i y) for u = 0..3: Im at u * DIM + S, Re one block later."""
    return np.concatenate((y, x, -y, -x, y))


def _masks(cmasks):
    """Masks as Python ints, each read by `integer` from an object array, where a bool beside ints stays a bool."""
    return [c if c.__class__ is int else integer(c, "word masks must be integers")
            for c in np.array(cmasks, dtype=object).ravel().tolist()]


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
        cmasks = _masks(cmasks)
        if not all(0 <= c < 1 << NGEN for c in cmasks):
            raise ValidationError("word masks must be of %d generators" % NGEN)
        cmasks = np.array(cmasks, dtype=np.int64)
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

    def apply(self, state: DenseState) -> DenseState:
        """The word applied to a dense state, over the smallest denominator
        that keeps every image entry integral."""
        if len(self) != 1:
            raise ValidationError("a single word is applied from a table of one row, not %d" % len(self))
        (re,), (im,), shift = self.images(state)
        return DenseState(re, im, state.e + shift.item())

    def apply_into(self, state: DenseState, out_re, out_im, out_e: int):
        """Accumulate 2^out_e * (word applied to state) into out arrays."""
        image = self.apply(state)
        extra = out_e - image.e
        if extra < 0:
            raise ValidationError("denominator headroom exhausted; raise out_e")
        _check_headroom(extra, image.max_abs().bit_length())
        out_re += image.re << extra
        out_im += image.im << extra

    def images(self, state: DenseState):
        """(re, im, shift): each word's image of state as a row over 2^(e + shift),
        shift a column holding each word's -min T (floored at 0), the smallest
        denominator that keeps its image integral.  Entry R of an image is
        i^U(S) 2^T(S) x_S for S = R ^ toggle, read off the diagonal word (the word
        after its own toggle): one gather of i^U(S) x_S from `_rotations` and one
        shift by T(S) + shift, both from `_tables`."""
        idx, t, shift, bits = self._tables()
        _check_headroom(bits, state.max_abs().bit_length())
        rotated = _rotations(state.re, state.im)
        return rotated[DIM:].take(idx) << t, rotated.take(idx) << t, shift

    def _tables(self):
        """(gather index, T + shift, shift, most bits added), built on the first call as int16
        (below 4 * DIM) and int8 (0 to PAIRS) and kept.  U and T are read off the diagonal words
        (each word after its own toggle) at the image entry; shift = -min T (floored at 0) and
        top, the largest T + shift, per row.  T runs from -m/2 to m/2 for m toggled pairs, so
        the most bits added, 2 * shift, also cover the state shifted by shift."""
        if self._gathers is None:
            if self.odd.any():
                raise ValidationError("dense tables require an even word length")
            diag = self * WordTable._of(self.toggle, 0, 0, 0, 0, 0)
            shift = np.maximum(-diag.t0 - np.minimum(diag.dt, 0).sum(1), 0)
            top = diag.t0 + shift + np.maximum(diag.dt, 0).sum(1)
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

    def __init__(self, code, generator_signs=None):
        self.code = code
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
        self.masks = masks  # construction order: entry n is the sum of the generators in the bits of n
        self._generators = tuple(WordTable(code.generators, self.generator_signs))  # one-row, keeping gathers

    # -- lifted word tables -------------------------------------------------

    def word_table(self, cmasks) -> WordTable:
        """The words s(C) e_C for one codeword mask or a sequence of them."""
        cmasks = _masks(cmasks)
        try:
            signs = [self.section[c] for c in cmasks]
        except KeyError as exc:
            raise MembershipError("mask %06x is not a word of the lifted code" % exc.args[0]) from None
        return WordTable(cmasks, signs)

    def tables(self):
        """A WordTable for each lifted word in mask order."""
        return list(self.word_table(sorted(self.section)))

    # -- group structure ----------------------------------------------------

    def verify_squares(self):
        """(s(C) e_C)^2 = +1 for all 4096 codewords, exhaustively."""
        words = self.word_table(self.masks)
        bad = (words * words).differs(WordTable(0))
        if bad.any():
            raise VerificationFailure("square of lifted %06x is not +1" % self.masks[bad].min())
        return True

    def group_order(self) -> int:
        """Order of {+- s(C) e_C}: the distinct supports, doubled."""
        return 2 * len(self.section)

    # -- the idempotent t = prod_j (1 + s(G_j) e_{G_j})/2 ---------------------

    def apply_t_dense(self, dense: DenseState) -> DenseState:
        """t applied factor by factor as (state + W_j state)/2, each image W_j state from the
        generator word's kept tables, the state in normal form after each factor."""
        if dense.max_abs() > _INPUT_LIMIT:
            raise ValidationError("dense state too large for the exact int64 path")
        state = dense.reduced()
        for word in self._generators:
            (re,), (im,), shift = word.images(state)
            shift = shift.item()
            state = DenseState((state.re << shift) + re, (state.im << shift) + im, state.e + shift + 1).reduced()
        return state

    def invariant_vector(self) -> DenseState:
        """t v, the image of the ground state under the idempotent."""
        return self.apply_t_dense(DenseState.basis(0))


def golay_lift_section(code, frame=None) -> GolayLift:
    """The lift with every generator sign +1.  For the Golay code its t v is
    nonzero; n1_checks refuses a section whose t v is zero."""
    # frame is accepted and not read: perfbench/workloads.py still passes it, and the
    # benchmark's workloads stay fixed so that its runs compare across commits
    return GolayLift(code)


def n1_checks(lift: GolayLift, *, seed=None, orth_samples=None):
    """Structure checks backing the supersymmetry element u = t v: the code is doubly even with
    no word of weight 4, and u is nonzero and non-isotropic, checked; the order of the lifted
    group is 8192 (BinaryCode refuses dependent generators, so the section has 4096 masks), u is
    fixed by t and by every lifted word, and <e_C u, u> = 0 for all 10,902 C of size 2 or 4,
    proved from four facts about the generator words W: (a) W u = u, by (b) and commutation:
    W (1 + W)/2 = (1 + W)/2, and W commutes with the other factors of t = prod_j (1 + W_j)/2,
    so W t = t; (b) W^2 = 1, by the weights, as a signed even word squares to
    (-1)^(|C|(|C|+1)/2); (c) W is self-adjoint for the form, as W* carries the same sign as
    W^2; and (d) some generator meets C in an odd number of points, so e_C W = -W e_C, by the
    weights, as a doubly even code of dimension 12 in length 24 is self-dual, so a C of size 2
    or 4 that meets every generator evenly would be a codeword of weight 2 or 4.
    Then <e_C u, u> = <e_C W u, W u> = <W e_C W u, u> = -<e_C u, u>.

    Returns a report dict; raises VerificationFailure on any failure.
    """
    # seed and orth_samples are accepted and not read: perfbench/workloads.py still passes
    # them, and the benchmark's workloads stay fixed so that its runs compare across commits
    report = {}

    # the code check comes first, as the rest rests on it; closure is proved, not sampled:
    # doubly even gives W^2 = 1 for every lifted word W, and even intersections, so any two
    # lifted words commute, as e_C e_D = (-1)^(|C||D| - |C & D|) e_D e_C
    dist = lift.code.weight_distribution()
    if any(w % 4 for w in dist) or 4 in dist:
        c = min(w for w in lift.code.words() if w.bit_count() % 4 or w.bit_count() == 4)
        raise VerificationFailure("C=%s is a codeword of weight %d"
                                  % (tuple(i + 1 for i in range(c.bit_length()) if c >> i & 1), c.bit_count()))
    report["group_order"] = lift.group_order()

    tv = lift.invariant_vector()
    report["tv_components"] = tv.nonzero_count()
    if not report["tv_components"]:
        raise VerificationFailure("t v is zero")
    report["invariance_checked"] = len(lift.section)

    # norm of the invariant vector, and orthogonality over every short subset by (a)-(d)
    norm = bilinear_dense(tv, tv)
    if norm.is_zero():
        raise VerificationFailure("<t v, t v> = 0")
    report["orthogonality_subsets"] = comb(NGEN, 2) + comb(NGEN, 4)

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
