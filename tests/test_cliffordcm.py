import random
import re
from fractions import Fraction as F
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

from conwaymoonshine import cliffordcm
from conwaymoonshine.classdata import registry
from conwaymoonshine.cliffordcm import (
    _INPUT_LIMIT,
    _PAIR_SIGNS,
    DenseState,
    GolayLift,
    WordTable,
    _monomial_sqrt,
    bilinear_dense,
    class_supertraces,
    n1_checks,
    reorder_sign,
    spinor_supertrace_closed,
    spinor_supertrace_oracle,
)
from conwaymoonshine.cyclotomic import CycNumber
from conwaymoonshine.errors import MembershipError, ValidationError, VerificationFailure
from conwaymoonshine.frameshape import parse
from test_cyclotomic import zeta


# Sparse ladder-operator oracle, independent of WordTable: a state is {S: (x, y)},
# the coordinate x + i y of m_S = (prod_{k in S, ascending} a^-_k) v.  Generators
# act through a^-_k and a^+_k times sqrt(2), so coordinates stay exact integers.

ONE = (1, 0)


def ladder(k, create, state):
    """a^-_k (create) or a^+_k: pass the a^- factors of S below pair k, sign
    (-1)^|S & [0, k)|; then a^-_k adds pair k and a^+_k removes it, by
    {a^-_k, a^+_k} = -2.  Each kills the m_S it cannot change (a^+_k v = 0)."""
    out = {}
    for mask, (x, y) in state.items():
        if (mask >> k & 1) != create:
            f = (-1) ** bin(mask & ((1 << k) - 1)).count("1") * (1 if create else -2)
            out[mask ^ 1 << k] = (x * f, y * f)
    return out


def combine(a, b, scale=1, turns=0):
    """a + scale * i^turns * b, without zero coordinates."""
    out = dict(a)
    for mask, (x, y) in b.items():
        for _ in range(turns):
            x, y = -y, x
        x0, y0 = out.get(mask, (0, 0))
        out[mask] = (x0 + scale * x, y0 + scale * y)
    return {m: c for m, c in out.items() if c != (0, 0)}


def scaled(state, scale, turns=0):
    return combine({}, state, scale, turns)


def word(indices, state):
    """sqrt(2)^len e_(i1) e_(i2) ... on state, rightmost first, from
    sqrt(2) e_(2k+1) = a^- + a^+ and sqrt(2) e_(2k+2) = i (a^+ - a^-)."""
    for i in reversed(indices):
        k, second = divmod(i - 1, 2)
        upper, lower = ladder(k, False, state), ladder(k, True, state)
        state = scaled(combine(upper, lower, -1 if second else 1), 1, second)
    return state


def support(cmask):
    return [i + 1 for i in range(24) if cmask >> i & 1]


def oracle_form(a, b):
    """<a, b> from the axioms: <a^-_k x, y> = -<x, a^-_k y> moves the factors
    of m_S onto b in ascending order; <v, m_U> is 1 for the full U, else 0."""
    re = im = 0
    for mask, (x, y) in a.items():
        image = b
        for k in range(12):
            image = ladder(k, True, image) if mask >> k & 1 else image
        u, w = image.get(0xFFF, (0, 0))
        sign = (-1) ** bin(mask).count("1")
        re, im = re + sign * (x * u - y * w), im + sign * (x * w + y * u)
    return CycNumber(4, (re, im))


def dense(state, e=0):
    """An integer sparse state over the denominator 2^e."""
    re, im = np.zeros((2, 4096), dtype=np.int64)
    for mask, (x, y) in state.items():
        re[mask], im[mask] = x, y
    return DenseState(re, im, e)


def sparse(d):
    """2^e times a dense state."""
    return {int(m): (int(d.re[m]), int(d.im[m])) for m in np.flatnonzero(d.re | d.im)}


def oracle_table(cmask, sign, state):
    """sign * e_C on state, as WordTable(cmask, sign) should give it."""
    return dense(scaled(word(support(cmask), state), sign), bin(cmask).count("1") // 2)


def random_state(rng, comps=3, span=7):
    return {rng.randrange(4096): (rng.randrange(-span, span) or 1, 0) for _ in range(comps)}


def unit_power(u: int, t: int) -> CycNumber:
    """i^u * 2^t as a level-4 number."""
    re, im = ((1, 0), (0, 1), (-1, 0), (0, -1))[u & 3]
    return CycNumber(4, (re * F(2) ** t, im * F(2) ** t))


def word_trace(table: WordTable) -> CycNumber:
    """The trace of a one-row word: 0 unless no pair is toggled; then the sum over S
    factors as i^u0 2^t0 prod_k (1 + i^du_k 2^dt_k).  An odd word holds one generator
    of some pair, so it toggles that pair: its trace is 0."""
    (toggle,), (u0,), (t0,), (du,), (dt,) = (
        f.tolist() for f in (table.toggle, table.u0, table.t0, table.du, table.dt))
    if toggle:
        return CycNumber.from_rational(0, 4)
    total = unit_power(u0, t0)
    for d, t in zip(du, dt):
        total = total * (unit_power(d, t) + 1)
    return total


def word_supertrace(table: WordTable) -> CycNumber:
    """str_CM = tr(zz * word), zz = e_1 e_2 ... e_24 the lift of -Id fixed by the
    polarization; it acts on m_S as (-1)^|S|."""
    return word_trace(WordTable((1 << 24) - 1) * table)


def test_aplus_annihilates_ground_state():
    # sqrt(2) a^+_k = sqrt(2) (e_(2k+1) - i e_(2k+2)); e_(2k+1) e_(2k+2) is
    # then i on v and -i on the top vector, which a^-_k kills
    v, top = {0: ONE}, {0xFFF: ONE}
    for k in range(12):
        assert not combine(word([2 * k + 1], v), word([2 * k + 2], v), -1, 1)
        assert word([2 * k + 1, 2 * k + 2], top) == scaled(top, -2, 1)
        pair = WordTable(1 << 2 * k) * WordTable(1 << 2 * k + 1)
        assert pair.apply(dense(top)).equals(dense(scaled(top, -1, 1)))


def test_anticommutation_on_random_states():
    rng = random.Random(1)
    s = random_state(rng)
    x = dense(s)
    for i, j in [(1, 2), (3, 17), (24, 23), (5, 6)]:
        assert not combine(word([i, j], s), word([j, i], s))
        product = WordTable(1 << i - 1) * WordTable(1 << j - 1)
        assert product.apply(x).equals(dense(word([i, j], s), 1))


def test_generator_squares_to_minus_one():
    rng = random.Random(2)
    s = random_state(rng)
    for i in (1, 2, 11, 24):
        assert word([i, i], s) == scaled(s, -2)
        assert WordTable(1 << i - 1) * WordTable(1 << i - 1) == WordTable(0, -1)


def test_word_table_matches_generator_composition():
    rng = random.Random(3)
    for _ in range(25):
        mask = rng.getrandbits(24)
        composed = WordTable(0)
        for i in range(1, 25):
            if mask >> (i - 1) & 1:
                composed = composed * WordTable(1 << (i - 1))
        assert composed == WordTable(mask)
        assert composed * WordTable(0, -1) == WordTable(mask, -1)


def test_word_table_product_is_composition():
    # and each of the random even words against the ladder oracle
    rng = random.Random(14)
    s = random_state(rng, 6)
    x = dense(s)
    masks = [m for m in (rng.getrandbits(24) for _ in range(80)) if bin(m).count("1") % 2 == 0]
    for c, d in zip(masks[::2], masks[1::2]):
        sign = rng.choice((1, -1))
        a, b = WordTable(c, sign), WordTable(d)
        assert (a * b).apply(x).equals(a.apply(b.apply(x)))
        assert a.apply(x).equals(oracle_table(c, sign, s))
        assert b.apply(x).equals(oracle_table(d, 1, s))


def test_trace_is_sum_of_diagonal_images():
    rng = random.Random(15)
    masks = [0, (1 << 24) - 1]  # 1 and zz
    masks += [sum(3 << (2 * k) for k in range(12) if rng.random() < 0.5) for _ in range(2)]
    for mask in masks:
        table = WordTable(mask, rng.choice((1, -1)))
        assert table.toggle == 0
        image = table.apply(dense({m: ONE for m in range(4096)}))  # the diagonal
        den = 1 << image.e
        total = CycNumber(4, (F(int(image.re.sum()), den), F(int(image.im.sum()), den)))
        assert word_trace(table) == total, hex(mask)
    assert word_trace(WordTable(0, -1)).to_rational() == -4096
    assert word_trace(WordTable(0b1)).is_zero() and word_trace(WordTable(0b110)).is_zero()


def test_word_table_negative_controls():
    e1_squared = WordTable(1) * WordTable(1)
    assert not e1_squared.is_identity()  # e_1^2 = -1
    assert e1_squared == WordTable(0, -1)
    assert WordTable(0b11) != WordTable(0b11, -1)
    # e_1 e_2 squares to -1, so a "code" generated by it has no +1 lift
    with pytest.raises(VerificationFailure):
        GolayLift(SimpleNamespace(generators=[0b11])).verify_squares()
    assert GolayLift(SimpleNamespace(generators=[0b1111])).verify_squares()


def test_word_table_rows():
    masks, signs = [0, 0b1111, 0xF00000, 0x0C0300], [1, -1, 1, -1]
    table = WordTable(masks, signs)
    rows = [WordTable(m, s) for m, s in zip(masks, signs)]
    assert len(table) == 4 and list(table) == rows and table[1:3] == WordTable(masks[1:3], signs[1:3])
    assert table != table[:3]  # the same rows, one fewer
    zz = WordTable((1 << 24) - 1)  # a one-row operand broadcasts
    assert list(table * zz) == [r * zz for r in rows] and list(zz * table) == [zz * r for r in rows]
    assert list(table * table) == [r * r for r in rows]
    # images acts row by row, each row over its own denominator, as the rows do one at a time
    x = DenseState(*np.random.default_rng(5).integers(-9, 10, (2, 4096)), 1)
    re_, im_, shift = table.images(x)
    assert shift.shape == (4, 1)
    for r, row in enumerate(rows):
        one = row.apply(x)
        assert one.e == x.e + shift[r, 0] and np.array_equal(one.re, re_[r]) and np.array_equal(one.im, im_[r])
    # the single-word methods refuse a table of more rows
    out = np.zeros((2, 4096), dtype=np.int64)
    for call in (table.is_identity,
                 lambda: table.apply(DenseState.basis(0)),
                 lambda: table.apply_into(DenseState.basis(0), *out, 2)):
        with pytest.raises(ValueError):
            call()
    assert table[np.array([3, 1])] == WordTable([masks[3], masks[1]], [signs[3], signs[1]])
    for bare in (0, np.int64(0)):
        with pytest.raises(TypeError):
            table[bare]
    with pytest.raises(ValidationError):
        WordTable(masks, [1, -1, 0, 1])


def test_monomial_sqrt():
    for x, y in [(1, 0), (0, -8), (F(-1, 2), 0), (0, F(1, 32))]:
        value = CycNumber(4, (F(x), F(y)))
        root = _monomial_sqrt(value)
        assert root * root == value
    # sqrt(i^u 2^m) = zeta_8^u sqrt(2)^m, with sqrt(2) = zeta_8 + zeta_8^(-1) built by products
    sqrt2 = zeta(8, 1) + zeta(8, -1)
    for u in range(4):
        for m in range(-12, 13):
            expected = zeta(8, u) * F(2) ** (m // 2) * (sqrt2 if m % 2 else 1)
            root = _monomial_sqrt(zeta(4, u) * F(2) ** m)
            assert root.coords == expected.coords and repr(root) == repr(expected), (u, m)
    assert _monomial_sqrt(CycNumber(4, (F(1, 3), 0))) is None  # not dyadic
    assert _monomial_sqrt(CycNumber(4, (F(3), 0))) is None
    assert _monomial_sqrt(CycNumber(4, (F(1), F(1)))) is None
    assert _monomial_sqrt(zeta(3, 1)) is None


def test_monomial_sqrt_on_int_coordinates():
    # n1 check: alpha^2 = 8 / tv_norm with tv_norm = z/131072 at level 4
    alpha_sq = CycNumber.from_rational(8, 4) / CycNumber(4, (0, F(1, 131072)))
    assert alpha_sq.coords == (0, -1048576) and all(type(c) is int for c in alpha_sq.coords)
    alpha = _monomial_sqrt(alpha_sq)
    assert str(alpha) == "1024*z^3 @ level 8" and alpha * alpha == alpha_sq
    assert alpha.coords == (0, 0, 0, 1024)
    for x, y in [(1, 0), (0, -8), (-2, 0), (0, 1 << 41)]:
        value = CycNumber(4, (x, y))
        assert all(type(c) is int for c in value.coords)
        root = _monomial_sqrt(value)
        assert root * root == value
        assert all(type(c) is int or c.denominator != 1 for c in root.coords)
    assert _monomial_sqrt(CycNumber(4, (3, 0))) is None
    assert _monomial_sqrt(CycNumber(4, (1, -1))) is None


def test_zz_parity():
    zz = WordTable((1 << 24) - 1)
    composed = WordTable(0)
    for i in range(24):
        composed = composed * WordTable(1 << i)
    for mask in (0, 1, 0b11, 0b1010101, 0xFFF):
        m = {mask: ONE}
        want = scaled(m, (-1) ** bin(mask).count("1") * 4096)
        assert word(range(1, 25), m) == want
        assert zz.apply(dense(m)).equals(dense(want, 12))
        assert composed.apply(dense(m)).equals(dense(want, 12))


def test_act_with_level3_scalar():
    # the oracle on w * s is w times the table's image of the Gaussian state s
    rng = random.Random(12)
    s = random_state(rng, 4)
    w = zeta(3, 1)
    for indices in ([1, 5, 9, 12], [2, 3, 17, 24]):
        image = WordTable(sum(1 << i - 1 for i in indices)).apply(dense(s))
        assert word(indices, scaled(s, w)) == scaled(sparse(image), w * F(4, 1 << image.e))


def test_bilinear_normalization():
    top, v = DenseState.basis(0xFFF), DenseState.basis(0)  # a1- ... a12- v and v
    assert bilinear_dense(top, v).to_rational() == 1
    assert bilinear_dense(v, v).is_zero()
    assert oracle_form({0xFFF: ONE}, {0: ONE}) == 1


def test_bilinear_adjointness_for_all_generators():
    rng = random.Random(4)
    for i in range(1, 25):
        a = random_state(rng)
        # b meets the complement of each S in e_i a, so both sides can be nonzero
        b = combine(random_state(rng), {0xFFF ^ m: c for m, c in word([i], a).items()})
        lhs = bilinear_dense(dense(word([i], a)), dense(b))
        rhs = bilinear_dense(dense(a), dense(word([i], b)))
        assert not lhs.is_zero() and (lhs + rhs).is_zero(), i


def test_gram_determinant_nonzero():
    # <m_S, m_T> vanishes unless T is the complement of S, so the Gram
    # matrix is a signed permutation with determinant +-1; the oracle reads
    # each sign from the axioms
    assert set(np.unique(_PAIR_SIGNS)) == {-1, 1}
    for mask in range(4096):
        assert oracle_form({mask: ONE}, {0xFFF ^ mask: ONE}) == int(_PAIR_SIGNS[mask])


def test_bilinear_dense_matches_sparse():
    b = random_state(random.Random(5), 6)
    for cmask in (0, 0b1001, 0xF0F0F0, 0x800001):
        image = word(support(cmask), b)
        partner = {0xFFF ^ m: (x + 1, y) for m, (x, y) in image.items()}
        want = oracle_form(partner, image) * F(1, 2 ** (bin(cmask).count("1") // 2))
        assert not want.is_zero()
        assert bilinear_dense(dense(partner), WordTable(cmask).apply(dense(b))) == want


def test_supertrace_closed_spot_values():
    assert spinor_supertrace_closed([F(1, 2)] * 12).to_rational() == 4096
    assert spinor_supertrace_closed([F(1, 3)] * 12).to_rational() == 729
    assert spinor_supertrace_closed([F(0)] * 12).is_zero()
    mixed = spinor_supertrace_closed([F(1, 4)] * 12)
    assert mixed.to_rational() == 64


def test_supertrace_oracle_agrees_on_registry():
    for rec in registry():
        closed, oracle = class_supertraces(rec.frame_shape)
        assert closed == oracle, rec.co0_name
        assert abs(closed.to_rational()) == abs(rec.c_hat_g), rec.co0_name


def test_supertrace_oracle_on_negated_shapes_and_a_hand_list():
    for rec in registry():
        thetas = rec.frame_shape.negate().eigenvalue_pairs()
        assert spinor_supertrace_oracle(thetas) == spinor_supertrace_closed(thetas), rec.co0_name
    thetas = [F(1, 2), F(1, 3), F(1, 4), F(1, 6), F(3, 8), F(5, 12),
              F(1, 8), F(1, 2), F(1, 3), F(5, 12), F(1, 4), F(1, 24)]
    value = spinor_supertrace_oracle(thetas)
    assert value == spinor_supertrace_closed(thetas) and not value.is_zero()
    # every lambda_i = -1: 2^12 subsets of one sign, nu = e^(6 pi i) = 1
    assert spinor_supertrace_oracle([F(1, 2)] * 12).to_rational() == 4096


def test_oracle_zz_parity_split():
    """Unfold the supertrace definition: the even-subset sum minus the
    odd-subset sum reproduces the signed total."""
    thetas = parse("1^3.6^9/2^3.3^9").eigenvalue_pairs()
    total = spinor_supertrace_oracle(thetas)
    level = 12
    even = {}
    odd = {}
    shifts = [-int(t * level) for t in thetas]
    nu = sum(int(t * level) // 2 for t in thetas)
    for mask in range(4096):
        e = nu
        for k in range(12):
            if mask >> k & 1:
                e += shifts[k]
        side = even if bin(mask).count("1") % 2 == 0 else odd
        side[e % level] = side.get(e % level, 0) + 1
    value = CycNumber.from_exponents(level, even) - CycNumber.from_exponents(level, odd)
    assert value == total


def test_word_supertrace_of_identity_vanishes():
    # str(1) = 2048 - 2048 = 0
    assert word_supertrace(WordTable(0)).to_rational() == 0


def test_dense_word_table_matches_sparse_action(golay, lift):
    rng = random.Random(6)
    for _ in range(8):
        cmask = rng.choice(list(lift.section))
        s = random_state(rng, 5)
        got = lift.word_table(cmask).apply(dense(s))
        assert got.equals(oracle_table(cmask, lift.section[cmask], s))


def t_oracle(lift, states):
    """t = 2^(-12) * sum over all 4096 lifted words s(C) e_C, term by term,
    applied to each dense state: 64 words' image rows at a time or, for a
    state with at most 64 nonzero entries, every word's image of each entry
    at once, from the words' normal form m_S -> i^U(S) 2^T(S) m_(S ^ toggle)
    with U = u0 + du.S and T = t0 + dt.S."""
    words = lift.words
    assert not words.odd.any()
    outs = []
    for state in states:
        re, im = np.zeros((2, 4096), dtype=np.int64)
        support = np.flatnonzero(state.re | state.im)
        if len(support) <= 64:
            bits = cliffordcm._PAIR_BITS[support].T.astype(np.int64)
            u = (words.u0[:, None] + words.du @ bits) & 3
            t = words.t0[:, None] + words.dt @ bits + 12  # the shift 12 covers the worst word factor 2^(-12)
            x, y = state.re[support], state.im[support]
            turned = np.array([(x, y), (-y, x), (-x, -y), (y, -x)])  # i^u (x + i y)
            at, col = support ^ words.toggle[:, None], np.arange(len(support))
            np.add.at(re, at, turned[u, 0, col] << t)
            np.add.at(im, at, turned[u, 1, col] << t)
        else:
            for start in range(0, 4096, 64):
                rows_re, rows_im, shift = words[start:start + 64].images(state)
                re += (rows_re << 12 - shift).sum(0)  # each row from 2^(e + shift) to 2^(e + 12)
                im += (rows_im << 12 - shift).sum(0)
        outs.append(DenseState(re, im, state.e + 24))
    return outs


def test_factored_t_matches_4096_term_sum(lift):
    rng = random.Random(13)
    states = [DenseState.basis(0), lift.invariant_vector()]
    states += [dense(random_state(rng, 4), e) for e in (0, 0, 0, 1, 5)]
    big = np.random.default_rng(13).integers(-_INPUT_LIMIT, _INPUT_LIMIT + 1, size=(2, 4096))
    states.append(DenseState(big[0], big[1], 0))
    for d, want in zip(states, t_oracle(lift, states)):
        got = lift.apply_t_dense(d)
        assert got.equals(want)
        # a normal form: fewest powers of two in the denominator, entries and all
        norm = got.reduced()
        assert got.e == norm.e and np.array_equal(got.re, norm.re) and np.array_equal(got.im, norm.im)


def test_factor_tables_built_once_and_sign_sensitive(golay, lift, monkeypatch):
    built, affine = [], cliffordcm._affine
    monkeypatch.setattr(cliffordcm, "_affine", lambda c0, d: built.append(len(d)) or affine(c0, d))
    fresh = GolayLift(golay, lift.generator_signs)
    tv = fresh.invariant_vector()
    kept = [word._gathers for word in fresh._generators]
    assert fresh.apply_t_dense(tv).equals(tv) and fresh.verify_fixed(tv)
    # one index and one exponent table per generator word, kept for every later application
    assert built == [1] * 24 and len(fresh._generators) == 12
    assert all(word._gathers is k for word, k in zip(fresh._generators, kept))
    # one generator sign flipped: t projects onto its other eigenspace
    signs = list(lift.generator_signs)
    signs[4] = -signs[4]
    other, vacuum = GolayLift(golay, signs), DenseState.basis(0)
    flipped = other.apply_t_dense(vacuum)
    assert flipped.equals(t_oracle(other, [vacuum])[0]) and not flipped.equals(tv)


def test_kept_tables_follow_state_and_table():
    """A table's kept gather tables serve every later state, and each table,
    a slice of another included, keeps its own: every image matches a table
    built afresh for it."""
    masks, signs = [0b1111, 0x0C0300, 0xF00000, 0b101, 0x800001], [1, -1, -1, 1, 1]
    rng = np.random.default_rng(7)
    x, y = (DenseState(*rng.integers(-9, 10, (2, 4096)), e) for e in (0, 2))

    def same(table, rows, state):
        got, want = table.images(state), WordTable(*zip(*rows)).images(state)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    table, rows = WordTable(masks, signs), list(zip(masks, signs))
    part = table[3:4]
    z = part.apply(x)  # a state after a slice of the table has been applied
    for state in (x, y, z):
        same(table, rows, state)
    same(part, rows[3:4], y)
    same(table[1:3], rows[1:3], z)  # a slice taken after the table kept its own
    # the same words negated: a table of the same shape, whose images are negated
    (re_, im_, shift), (neg_re, neg_im, neg_shift) = (
        WordTable(masks, [s * sign for s in signs]).images(y) for sign in (1, -1))
    assert np.array_equal(neg_re, -re_) and np.array_equal(neg_im, -im_) and np.array_equal(neg_shift, shift)
    assert re_.any()


def test_apply_t_dense_rejects_large_entries(lift, monkeypatch):
    re = np.zeros(4096, dtype=np.int64)
    re[5] = _INPUT_LIMIT + 1
    with pytest.raises(ValidationError):
        lift.apply_t_dense(DenseState(re, np.zeros(4096, dtype=np.int64), 0))
    # past the input limit, each factor's stored bound refuses entries its shifts would wrap
    monkeypatch.setattr(cliffordcm, "_INPUT_LIMIT", 1 << 62)
    re[5] = 1 << 60
    with pytest.raises(ValidationError, match="int64 headroom"):
        lift.apply_t_dense(DenseState(re, np.zeros(4096, dtype=np.int64), 0))


def test_dense_state_refuses_negative_exponent():
    vacuum = DenseState.basis(0)  # 2 m_0 over 2^-1 would reduce to the zero state
    with pytest.raises(ValidationError, match="exponent -1"):
        DenseState(vacuum.re, vacuum.im, -1)


def test_apply_into_guards():
    out = (np.zeros(4096, dtype=np.int64), np.zeros(4096, dtype=np.int64))
    vacuum = DenseState.basis(0)
    with pytest.raises(ValidationError):  # odd word: the 1/sqrt(2) is not Gaussian
        WordTable(0b1).apply_into(vacuum, *out, 0)
    table = WordTable(0b101)  # e_1 e_3 has entries 1/2
    assert table.apply(vacuum).e == vacuum.e + 1
    with pytest.raises(ValidationError, match="raise out_e"):  # out_e leaves no denominator headroom
        table.apply_into(vacuum, *out, vacuum.e)
    table.apply_into(vacuum, *out, vacuum.e + 3)  # over 2^3, four times the image over 2^1
    image = table.apply(vacuum)
    assert np.array_equal(out[0], image.re << 2) and np.array_equal(out[1], image.im << 2)
    big = np.full(4096, 1 << 60, dtype=np.int64)
    huge = DenseState(big, np.zeros(4096, dtype=np.int64), 0)
    with pytest.raises(ValidationError):  # products would pass int64
        table.apply_into(huge, *out, 1)
    # entries of 2^58 fit at the word's own denominator, but not two bits further up
    near = DenseState(big >> 2, np.zeros(4096, dtype=np.int64), 0)
    table.apply_into(near, *out, 1)
    with pytest.raises(ValidationError, match="int64 headroom"):
        table.apply_into(near, *out, 3)


def first_moving(lift, x):
    """The first lifted word in mask order whose image of x is not x, sweeping
    all 4096 words 64 at a time."""
    if not x.nonzero_count():
        return None  # every word fixes the zero state
    masks = sorted(lift.section)
    words = lift.word_table(masks)
    for start in range(0, len(masks), 64):
        re, im, shift = words[start:start + 64].images(x)
        moved = ((re != x.re << shift) | (im != x.im << shift)).any(1)
        if moved.any():
            return masks[start + int(moved.argmax())]


def first_moving_generator(lift, x):
    """The first generator mask, in the code's order, whose lifted word moves x, or None."""
    for gen in lift.code.generators:
        if not lift.word_table(gen).apply(x).equals(x):
            return gen


def test_verify_fixed_names_first_moving_word(golay, lift):
    tv = lift.invariant_vector()
    assert lift.verify_fixed(tv)
    changed, woken = (DenseState(tv.re.copy(), tv.im.copy(), tv.e) for _ in range(2))
    changed.re[np.flatnonzero(tv.re | tv.im)[7]] += 1  # a nonzero entry changed
    woken.im[np.flatnonzero((tv.re | tv.im) == 0)[5]] = 3  # a zero entry made nonzero
    other = GolayLift(golay, (1, 1, 1, -1, -1, 1, -1, 1, 1, 1, 1, -1)).invariant_vector()
    assert other.nonzero_count() and not other.equals(tv)
    for x in (changed, woken, other):
        assert first_moving(lift, x) is not None  # the sweep over all 4096 words finds a mover
        gen = first_moving_generator(lift, x)
        with pytest.raises(VerificationFailure, match="moved by lifted %06x$" % gen):
            lift.verify_fixed(x)


def test_verify_fixed_proof_negative_controls_and_cost(golay, lift, monkeypatch):
    tv = lift.invariant_vector()
    for cmask, match in ((0x4d2f31, "lifted 4d2f31 is not its parent times generator 10"),
                         (0, "lifted 000000 is not the identity")):
        spoiled = GolayLift(golay, lift.generator_signs)
        spoiled.words.u0[spoiled.masks == cmask] ^= 2  # the word negated
        with pytest.raises(VerificationFailure, match=match):
            spoiled.verify_fixed(tv)
    # a pass applies the 12 generator words only, each once, from their stored tables
    applied, images = [], WordTable.images
    monkeypatch.setattr(WordTable, "images", lambda self, x: applied.append(self) or images(self, x))
    assert lift.verify_fixed(tv) and len(applied) == 12
    assert all(word is gen for word, gen in zip(applied, lift._generators))


def test_dense_equals_compares_values():
    zero = np.zeros(4096, dtype=np.int64)
    a, b = zero.copy(), zero.copy()
    a[0], b[0] = 1 + 2**22, 2**42  # 1 + 2^22 and 1: shifting a to e = 42 would wrap int64
    assert not DenseState(a, zero, 0).equals(DenseState(b, zero, 42))
    assert not DenseState(b, zero, 42).equals(DenseState(a, zero, 0))
    c = zero.copy()
    c[[5, 9]] = 3, -6
    assert DenseState(c, -c, 1).equals(DenseState(c << 40, -c << 40, 41))  # the same values
    assert DenseState(zero, zero, 7).equals(DenseState(zero, zero, 0))
    assert not DenseState(c, zero, 1).equals(DenseState(c, zero, 2))


def test_batched_guards(lift):
    huge = DenseState(np.full(4096, 1 << 58, dtype=np.int64), np.zeros(4096, dtype=np.int64), 0)
    with pytest.raises(ValidationError):  # the image entries would pass int64
        lift.verify_fixed(huge)
    with pytest.raises(ValidationError):
        WordTable(0b111).images(DenseState.basis(0))  # odd word: the 1/sqrt(2) is not Gaussian
    # at 25 + 24 bits the int64 sum is exact; one bit more is refused
    a = np.full(4096, (1 << 25) - 1, dtype=np.int64)
    b = np.full(4096, -(1 << 24) + 1, dtype=np.int64)
    want = sum(int(s) * 2 * int(x) * int(y) for s, x, y in zip(_PAIR_SIGNS, a, b[::-1]))
    assert bilinear_dense(DenseState(a, a, 0), DenseState(b, -b, 0)).to_rational() == want
    with pytest.raises(ValidationError):
        bilinear_dense(DenseState(a, a, 0), DenseState(2 * b, b, 0))


def test_section_matches_scalar_recursion(golay):
    for signs in (None, (1, 1, 1, -1, -1, 1, -1, 1, 1, 1, 1, -1)):
        lift = GolayLift(golay, signs)
        section = {0: 1}
        for gen, sign in zip(golay.generators, lift.generator_signs):
            for prev in list(section):
                section[prev ^ gen] = section[prev] * sign * reorder_sign(prev, gen)
        assert len(section) == 4096 and lift.section == section


def test_tables_are_the_lifted_words(lift):
    tables = lift.tables()
    masks = sorted(lift.section)
    assert len(tables) == 4096
    for i in range(0, 4096, 15):
        assert tables[i] == lift.word_table(masks[i]), hex(masks[i])


def test_word_table_refuses_a_mask_outside_the_code(lift):
    for masks in (0b111, [0, 0b111, 0b1011]):
        with pytest.raises(MembershipError, match="mask 000007 is not a word of the lifted code"):
            lift.word_table(masks)


def test_lift_squares_and_closure(lift):
    lift.verify_squares()
    assert lift.group_order() == 8192
    assert lift.section[0] == 1  # s(empty) e_empty = 1
    # closure oracle: every lifted word times s(D) e_D is the lifted word of the sum
    rng = random.Random(5)
    for d in rng.sample(sorted(lift.section), 32):
        assert lift.words * lift.word_table(d) == lift.word_table(lift.masks ^ d), hex(d)


def test_lift_rows_are_generator_products(golay, lift):
    assert list(lift.masks[1 << np.arange(12)]) == list(golay.generators)
    assert len(lift.words) == 4096 and lift.words[1:2] == lift.word_table(golay.generators[0])
    assert lift.words[5:6] == lift.word_table(golay.generators[0]) * lift.word_table(golay.generators[2])


def test_verify_squares_negative_control():
    # the two generators meet in one coordinate, so their words anticommute
    lift = GolayLift(SimpleNamespace(generators=[0b1111, 0x71]))
    with pytest.raises(VerificationFailure, match="square of lifted 00007e is not [+]1"):
        lift.verify_squares()


def test_generator_signs_match_the_generators(golay):
    for signs in ((1,) * 11, (1,) * 13, ()):
        with pytest.raises(ValidationError, match="generator signs"):
            GolayLift(golay, signs)
    one = GolayLift(SimpleNamespace(generators=[0b1111]))
    assert one.generator_signs == (1,) and one.section == {0: 1, 0b1111: 1}
    assert GolayLift(SimpleNamespace(generators=[0b1111]), [-1]).section[0b1111] == -1


def test_lift_closure_word_identity(lift):
    # s(C) e_C s(D) e_D = s(C+D) e_(C+D), through the oracle and the tables
    rng = random.Random(8)
    masks = sorted(lift.section)
    s = random_state(rng)
    for _ in range(50):
        c, d = rng.choice(masks), rng.choice(masks)
        want = oracle_table(c ^ d, lift.section[c ^ d], s)
        left = scaled(word(support(c), word(support(d), s)), lift.section[c] * lift.section[d])
        assert dense(left, (bin(c).count("1") + bin(d).count("1")) // 2).equals(want)
        assert (lift.word_table(c) * lift.word_table(d)).apply(dense(s)).equals(want)


def test_idempotent_and_invariance(lift):
    tv = lift.invariant_vector()
    assert tv.nonzero_count()
    assert lift.apply_t_dense(tv).equals(tv)
    # fixed by the 12 signed generator words through the oracle, hence by the
    # lifted group they generate (n1_checks tries all 4096 tables)
    sv = sparse(tv)
    for cmask in lift.code.generators:
        assert oracle_table(cmask, lift.section[cmask], sv).equals(dense(sv))


def test_idempotent_on_sparse_random_states(lift):
    """t(t s) = t s on ten seeded states of four entries in [-8, 8] + [-8, 8] i."""
    rng = random.Random(11)
    for _ in range(10):
        re_, im_ = np.zeros((2, 4096), dtype=np.int64)
        for _ in range(4):
            x, y = rng.randrange(-8, 9), rng.randrange(-8, 9)
            mask = rng.randrange(4096)
            re_[mask], im_[mask] = x, y
        ts = lift.apply_t_dense(DenseState(re_, im_, 0))
        assert ts.nonzero_count() and lift.apply_t_dense(ts).equals(ts)


def test_orthogonality_examples(lift):
    tv = lift.invariant_vector()
    sv = sparse(tv)
    for indices in ([1, 2], [3, 7, 11, 20]):
        assert bilinear_dense(dense(word(indices, sv)), tv).is_zero()


def short_subsets():
    """The masks of the 10,902 subsets of 2 or 4 of the 24 coordinates, in ascending order."""
    return sorted(sum(1 << i for i in c) for n in (2, 4) for c in combinations(range(24), n))


def forms(words, b, block=4):
    """<W b, b> for each row W of words, as exact int64 numerators over 2^(2 b.e + shift),
    with the shift `images` gives: bilinear_dense's sum over a block of image rows at once.
    Blocks of four keep each array at 128 KiB, so none of them costs fresh pages."""
    br, bi = _PAIR_SIGNS * b.re[::-1], _PAIR_SIGNS * b.im[::-1]
    out = []
    for start in range(0, len(words), block):
        rows = words[start:start + block]
        re_, im_, shift = rows.images(b)
        assert 2 * b.max_abs().bit_length() + 1 + rows._tables()[3] + 12 <= 63  # no int64 wrap
        out.append((re_ @ br - im_ @ bi, re_ @ bi + im_ @ br, shift[:, 0]))
    return [np.concatenate(part) for part in zip(*out)]


def test_orthogonality_over_every_short_subset(lift):
    """The oracle for what n1_checks proves: <e_C t v, t v> = 0 for all 10,902 C."""
    tv = lift.invariant_vector()
    masks = short_subsets()
    assert len(masks) == lift.verify_anticommuting() == 10902
    re_, im_, _ = forms(WordTable(masks), tv)
    assert not (re_ | im_).any()


def test_octads_meet_every_generator_evenly_and_are_not_orthogonal(golay, lift):
    """What fact (d) rules out: an octad C meets every generator evenly, and its form with
    t v is s(C) <t v, t v>, not 0, as s(C) e_C fixes t v.  For a generator (sign +1) it is
    <t v, t v>; the block form of `forms` agrees with bilinear_dense on each."""
    tv = lift.invariant_vector()
    norm = bilinear_dense(tv, tv)
    gens = list(golay.generators)
    octads = gens + [c for c in lift.masks.tolist() if bin(c).count("1") == 8 and c not in gens][:20]
    re_, im_, shift = forms(WordTable(octads), tv)
    for c, x, y, sh in zip(octads, re_.tolist(), im_.tolist(), shift.tolist()):
        assert all(bin(c & g).count("1") % 2 == 0 for g in golay.generators)
        form = bilinear_dense(WordTable(c).apply(tv), tv)
        den = 1 << 2 * tv.e + sh
        assert CycNumber(4, (F(x, den), F(y, den))) == form == lift.section[c] * norm, hex(c)
        if c in gens:
            assert form == norm


def test_anticommuting_names_a_subset_every_generator_meets_evenly(golay):
    """The first ten generators meet only C = {13, 14} of the short subsets evenly; no
    single generator is needed, as all twelve lists of eleven still pass."""
    gens = golay.generators[:10]
    assert [c for c in short_subsets() if all(bin(c & g).count("1") % 2 == 0 for g in gens)] == [0x003000]
    with pytest.raises(VerificationFailure, match=re.escape("C=(13, 14) meets every generator evenly")):
        GolayLift(SimpleNamespace(generators=gens)).verify_anticommuting()
    with pytest.raises(VerificationFailure, match=re.escape("C=(1, 2, 3, 4) meets")):  # the smallest mask of many
        GolayLift(SimpleNamespace(generators=[0b11, 0b101])).verify_anticommuting()
    for k in range(12):
        eleven = golay.generators[:k] + golay.generators[k + 1:]
        assert GolayLift(SimpleNamespace(generators=eleven)).verify_anticommuting() == 10902


def test_self_adjoint_words_and_refusal():
    """e_C is self-adjoint for the form when |C| is 0 or 3 mod 4 (each e_i is skew, and
    reversing C costs (-1)^(|C|(|C| - 1)/2)); the lift names its first generator that is not."""
    assert not WordTable(0b11).is_self_adjoint()
    assert not WordTable(0x3F0000).is_self_adjoint()
    assert WordTable(0b1111).is_self_adjoint() and WordTable(0x800421, -1).is_self_adjoint()
    assert WordTable(0x35).is_self_adjoint()  # toggles pairs 0 and 1: beta[S ^ toggle] = -beta[S]
    # not a Clifford word: m_S -> 2^(S_0) m_S has equal phases on both sides, unequal powers of two
    doubling = WordTable._of(*np.zeros((4, 1), dtype=np.int64), np.zeros((1, 12), np.int8), np.eye(1, 12, dtype=np.int8))
    assert not doubling.is_self_adjoint()
    lift = GolayLift(SimpleNamespace(generators=[0xF000, 0b11 << 8, 0x3F0000]))
    with pytest.raises(VerificationFailure, match="lifted 000300 is not self-adjoint"):
        lift.verify_self_adjoint()
    assert GolayLift(SimpleNamespace(generators=[0xF000, 0xF0F])).verify_self_adjoint()


@pytest.mark.parametrize("fact", ["verify_squares", "verify_fixed", "verify_self_adjoint", "verify_anticommuting"])
def test_n1_rests_on_the_four_facts(lift, monkeypatch, fact):
    """n1_checks fails when any of the facts (a)-(d) fails."""
    def refuse(self, *args):
        raise VerificationFailure("%s refused" % fact)

    monkeypatch.setattr(GolayLift, fact, refuse)
    with pytest.raises(VerificationFailure, match="%s refused" % fact):
        n1_checks(lift)


def test_n1_refuses_a_t_that_does_not_fix_t_v(lift, monkeypatch):
    monkeypatch.setattr(DenseState, "equals", lambda self, other: False)
    with pytest.raises(VerificationFailure, match="t is not idempotent on t v"):
        n1_checks(lift)
