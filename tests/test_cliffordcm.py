import random
from fractions import Fraction as F

import numpy as np
import pytest

from conwaymoonshine.classdata import registry
from conwaymoonshine.cliffordcm import (
    _INPUT_LIMIT,
    CliffordWord,
    DenseState,
    SpinorState,
    WordTable,
    _generator_op,
    _identity_op,
    act,
    bilinear_cm,
    bilinear_dense,
    class_supertraces,
    gram_determinant_unit,
    op_from_mask,
    spinor_supertrace_closed,
    spinor_supertrace_oracle,
)
from conwaymoonshine.cyclotomic import CycNumber, zeta
from conwaymoonshine.errors import ValidationError
from conwaymoonshine.frameshape import parse


def random_state(rng, comps=3, span=7):
    return SpinorState(
        {rng.randrange(4096): rng.randrange(-span, span) or 1 for _ in range(comps)}
    )


def test_aplus_annihilates_ground_state():
    # a^+_k = (e_{2k-1} - i e_{2k}) / sqrt(2)
    v = SpinorState.vacuum()
    for k in range(12):
        image = act(CliffordWord([2 * k + 1]), v) + act(
            CliffordWord([2 * k + 2], zeta(4, -1)), v
        )
        assert image.is_zero()


def test_anticommutation_on_random_states():
    rng = random.Random(1)
    s = random_state(rng)
    for i, j in [(1, 2), (3, 17), (24, 23), (5, 6)]:
        image = act(CliffordWord([i, j]), s) + act(CliffordWord([j, i]), s)
        assert image.is_zero()


def test_generator_squares_to_minus_one():
    rng = random.Random(2)
    s = random_state(rng)
    for i in (1, 2, 11, 24):
        assert act(CliffordWord([i, i]), s) == s.scaled(-1)


def test_word_canonicalization():
    w = CliffordWord([3, 1, 2, 1])
    assert w.indices == (2, 3)
    assert w.scalar == -1  # e3 e1 e2 e1 = e3 e2 = -e2 e3
    assert CliffordWord([2, 1]) == -CliffordWord([1, 2])


def test_op_from_mask_matches_generator_composition():
    rng = random.Random(3)
    for _ in range(25):
        mask = rng.getrandbits(24)
        composed = _identity_op()
        for i in range(1, 25):
            if mask >> (i - 1) & 1:
                composed = composed * _generator_op(i)
        direct = op_from_mask(mask)
        assert direct.mats == composed.mats and direct.half == composed.half


def test_zz_parity():
    zz = CliffordWord(range(1, 25))
    for mask in (0, 1, 0b11, 0b1010101, 0xFFF):
        m = SpinorState.basis(mask)
        assert act(zz, m) == m.scaled((-1) ** bin(mask).count("1"))


def test_act_with_level3_scalar():
    rng = random.Random(12)
    s = random_state(rng, 4)
    w = zeta(3, 1)
    for indices in ([1, 5, 9], [2, 3, 17, 24]):
        assert act(CliffordWord(indices, w), s) == act(CliffordWord(indices), s).scaled(w)


def test_bilinear_normalization():
    top = SpinorState.basis(0xFFF)  # a1- ... a12- v
    v = SpinorState.vacuum()
    assert bilinear_cm(top, v).to_rational() == 1
    assert bilinear_cm(v, v).is_zero()


def test_bilinear_adjointness_for_all_generators():
    rng = random.Random(4)
    for i in range(1, 25):
        a, b = random_state(rng), random_state(rng)
        lhs = bilinear_cm(act(CliffordWord([i]), a), b)
        rhs = bilinear_cm(a, act(CliffordWord([i]), b))
        assert (lhs + rhs).is_zero(), i


def test_gram_determinant_nonzero():
    assert gram_determinant_unit() != 0
    assert abs(gram_determinant_unit()) == 1


def test_bilinear_dense_matches_sparse():
    rng = random.Random(5)
    a, b = random_state(rng, 6), random_state(rng, 6)
    dense = bilinear_dense(DenseState.from_state(a), DenseState.from_state(b))
    assert dense == bilinear_cm(a, b)


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


def test_nu_sign_choice_flips():
    thetas = [F(1, 2)] * 12
    assert spinor_supertrace_closed(thetas, -1).to_rational() == -4096


def test_word_supertrace_of_identity_vanishes():
    # str(1) = 2048 - 2048 = 0
    assert _identity_op().supertrace().to_rational() == 0


def test_dense_word_table_matches_sparse_action(golay, lift):
    rng = random.Random(6)
    for _ in range(8):
        cmask = rng.choice(list(lift.section))
        table = WordTable(lift.word_operator(cmask))
        s = random_state(rng, 5)
        got = table.apply(DenseState.from_state(s)).to_state()
        want = lift.apply_signed_word(cmask, s)
        assert got == want


def t_oracle(lift, dense):
    """t = 2^(-12) * sum over all 4096 lifted words s(C) e_C, term by term."""
    out_re = np.zeros(4096, dtype=np.int64)
    out_im = np.zeros(4096, dtype=np.int64)
    out_e = dense.e + 12  # covers the worst 2^(-half/2) = 2^(-12)
    for table in lift.tables():
        table.apply_into(dense, out_re, out_im, out_e)
    return DenseState(out_re, out_im, out_e + 12)


def test_factored_t_matches_4096_term_sum(lift):
    rng = random.Random(13)
    states = [SpinorState.vacuum(), lift.invariant_vector()]
    states += [random_state(rng, 4) for _ in range(3)]
    dense = [DenseState.from_state(s) for s in states]
    big = np.random.default_rng(13).integers(-_INPUT_LIMIT, _INPUT_LIMIT + 1, size=(2, 4096))
    dense.append(DenseState(big[0], big[1], 0))
    for d in dense:
        assert lift.apply_t_dense(d).equals(t_oracle(lift, d))


def test_apply_t_dense_rejects_large_entries(lift):
    re = np.zeros(4096, dtype=np.int64)
    re[5] = _INPUT_LIMIT + 1
    with pytest.raises(ValidationError):
        lift.apply_t_dense(DenseState(re, np.zeros(4096, dtype=np.int64), 0))


def test_apply_into_guards():
    out = (np.zeros(4096, dtype=np.int64), np.zeros(4096, dtype=np.int64))
    vacuum = DenseState.from_state(SpinorState.vacuum())
    with pytest.raises(ValidationError):  # odd word: the 1/sqrt(2) is not Gaussian
        WordTable(op_from_mask(0b1)).apply_into(vacuum, *out, 0)
    table = WordTable(op_from_mask(0b101))  # e_1 e_3 has entries 1/2
    assert table.min_shift() < 0
    with pytest.raises(ValidationError):  # out_e leaves no denominator headroom
        table.apply_into(vacuum, *out, vacuum.e)
    big = np.full(4096, 1 << 60, dtype=np.int64)
    huge = DenseState(big, np.zeros(4096, dtype=np.int64), 0)
    with pytest.raises(ValidationError):  # products would pass int64
        table.apply_into(huge, *out, -table.min_shift())


def test_idempotent_rejects_non_gaussian_coefficient(lift):
    with pytest.raises(ValidationError):
        lift.idempotent_apply(SpinorState({3: zeta(3, 1)}))


def test_lift_squares_and_closure(lift):
    lift.verify_squares()
    lift.verify_closure(samples=1000, seed=7)
    assert lift.group_order() == 8192
    assert lift.section[0] == 1  # s(empty) e_empty = 1


def test_lift_closure_word_identity(lift):
    rng = random.Random(8)
    masks = sorted(lift.section)
    for _ in range(50):
        c, d = rng.choice(masks), rng.choice(masks)
        left = lift.signed_word(c) * lift.signed_word(d)
        assert left == lift.signed_word(c ^ d)


def test_idempotent_and_invariance(lift):
    tv = lift.invariant_vector()
    assert not tv.is_zero()
    assert lift.idempotent_apply(tv) == tv
    # fixed by every lifted sign change (spot sample; exhaustive in n1_checks)
    rng = random.Random(9)
    for cmask in rng.sample(sorted(lift.section), 12):
        assert lift.apply_signed_word(cmask, tv) == tv


def test_idempotent_on_sparse_random_states(lift):
    rng = random.Random(10)
    for _ in range(3):
        s = random_state(rng, 4)
        ts = lift.idempotent_apply(s)
        assert lift.idempotent_apply(ts) == ts


def test_orthogonality_examples(lift):
    tv = lift.invariant_vector()
    assert bilinear_cm(act(CliffordWord([1, 2]), tv), tv).is_zero()
    assert bilinear_cm(act(CliffordWord([3, 7, 11, 20]), tv), tv).is_zero()
