import itertools
import random
from fractions import Fraction
from math import ceil, prod

import numpy as np
import pytest

from conwaymoonshine import lattice
from conwaymoonshine.cliffordcm import class_supertraces
from conwaymoonshine.errors import MembershipError, ValidationError
from conwaymoonshine.frameshape import parse
from conwaymoonshine.lattice import (
    LENGTH,
    IntegerLattice,
    apply_sign_change,
    sign_change_frameshape,
    _DELTA,
    _integer_row_basis,
    _leech_congruences,
    _lll_reduce,
    _shell_count,
)
from conwaymoonshine.qseries import FracPowerSeries, eta_product


def test_golay_weight_distribution(golay):
    assert golay.weight_distribution() == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}


def test_golay_no_weight_four_words(golay):
    assert all(w != 4 for w in golay.weight_distribution())


def test_golay_self_dual_generators(golay):
    for i, a in enumerate(golay.generators):
        for b in golay.generators[i:]:
            assert bin(a & b).count("1") % 2 == 0


def test_golay_membership(golay):
    for w in golay.words()[::97]:
        assert golay.contains(w)
    assert not golay.contains(0b1011)


def test_code_words_are_held_per_code(golay):
    # each code keeps its own word table: building another code's words
    # must not evict the Golay code's, which would be rebuilt as a new tuple
    first = golay.words()
    pairs = lattice.BinaryCode([3 << 2 * i for i in range(12)])
    assert len(set(pairs.words())) == 4096
    assert golay.words() is first


def test_leech_gram(leech):
    assert leech.gram_determinant() == 1
    g8 = leech.gram8()  # 8 * Gram: an even integer on the diagonal is 0 mod 16
    for i in range(LENGTH):
        assert g8[i][i] % 16 == 0


def test_leech_no_short_vectors(leech):
    for norm in (1, 2, 3):
        assert leech.shell_count(norm) == 0


def e8_doubled_basis():
    """E8 in doubled coordinates: integer vectors, all even or all odd, with
    coordinate sum divisible by 4 (norm 2 becomes 8)."""
    gens = [[2 if j == i else -2 if j == i + 1 else 0 for j in range(8)] for i in range(7)]
    gens.append([0] * 6 + [2, 2])
    gens.append([1] * 8)
    return _integer_row_basis(gens)


def test_e8_shells_in_doubled_coordinates():
    basis = e8_doubled_basis()
    assert len(basis) == 8
    for b in (basis, _lll_reduce(basis)):
        assert [_shell_count(b, t) for t in (0, 4, 8, 12, 16)] == [1, 0, 240, 0, 2160]


def box_norms(basis, target):
    """Scaled norms of every x in the box |x_i| <= sqrt(target * (G^-1)_ii),
    which holds all lattice vectors of norm at most target."""
    b = np.array(basis, dtype=np.int64)
    radius = np.sqrt(target * np.diag(np.linalg.inv((b @ b.T).astype(float))))
    ranges = [range(-ceil(r) - 1, ceil(r) + 2) for r in radius]
    v = np.array(list(itertools.product(*ranges)), dtype=np.int64) @ b
    return (v * v).sum(axis=1)


def test_shell_count_matches_box_enumeration():
    rng = random.Random(31)
    checked = 0
    while checked < 6:
        rank = 2 + checked % 3
        basis = [[rng.randrange(-3, 4) for _ in range(rank)] for _ in range(rank)]
        if abs(np.linalg.det(np.array(basis, dtype=float))) < 0.5:
            continue
        norms = box_norms(basis, 24)
        for target in range(25):
            want = np.count_nonzero(norms == target)
            assert _shell_count(basis, target) == want == _shell_count(_lll_reduce(basis), target)
        checked += 1


def test_shell_count_guards():
    assert _shell_count([[1]], -1) == 0
    assert _shell_count([[1]], 127**2) == 2
    with pytest.raises(ValidationError, match="int8"):
        _shell_count([[1]], 128**2)
    with pytest.raises(ValidationError, match="float64"):
        _shell_count([[2**30, 0], [0, 1]], 4)


def test_float_leaf_guard_at_its_bound():
    """Leaf norms are float64 sums, exact while 2 * (127 * 2 * s)^2 < 2^53:
    at s = 2^18 (2^52.98) the counts equal the int64 box enumeration, at
    2^19 the count is refused, never made."""
    s = 2**18
    basis = [[s, s], [0, s]]
    norms = box_norms(basis, 5 * s * s)
    for k in range(6):
        assert _shell_count(basis, k * s * s) == np.count_nonzero(norms == k * s * s)
    assert _shell_count(basis, s * s + 1) == 0
    with pytest.raises(ValidationError, match="float64"):
        _shell_count([[2 * s, 2 * s], [0, 2 * s]], 4 * s * s)


def test_children_are_created_in_capped_blocks(monkeypatch):
    """No numpy step creates more than _BLOCK child rows, and the counts do
    not depend on the cap: E8 shells at caps 256 (the widest a row can
    branch) and 1024 against the default."""
    sizes = []
    repeat = np.repeat

    def spy(a, counts, *args, **kwargs):
        out = repeat(a, counts, *args, **kwargs)
        sizes.append(len(out))
        return out

    basis = e8_doubled_basis()
    want = [_shell_count(basis, t) for t in (8, 16, 24)]
    monkeypatch.setattr(np, "repeat", spy)
    for cap in (256, 1024):
        sizes.clear()
        monkeypatch.setattr(lattice, "_BLOCK", cap)
        assert [_shell_count(basis, t) for t in (8, 16, 24)] == want
        assert cap // 2 < max(sizes) <= cap


def force_split(monkeypatch, k):
    """Make _shell_count split at level k (at most rank - 1), whatever it estimates."""
    monkeypatch.setattr(lattice, "_split_level", lambda nodes: min(k, len(nodes) - 1))


def spy_splits(monkeypatch):
    """The levels of the coset walks made from now on."""
    levels, walk = [], lattice._Cosets.walk
    monkeypatch.setattr(lattice._Cosets, "walk", lambda self, *args: levels.append(self.k) or walk(self, *args))
    return levels


def test_split_counts_do_not_depend_on_the_level(monkeypatch):
    """E8 at targets 0..24 and random rank 2-4 bases against the box
    enumeration, at every split level."""
    e8 = e8_doubled_basis()
    want = [_shell_count(e8, t) for t in range(25)]
    assert want[8::8] == [240, 2160, 6720]
    rng = random.Random(31)
    cases = []
    while len(cases) < 6:
        rank = 2 + len(cases) % 3
        basis = [[rng.randrange(-3, 4) for _ in range(rank)] for _ in range(rank)]
        if abs(np.linalg.det(np.array(basis, dtype=float))) >= 0.5:
            norms = box_norms(basis, 24)
            cases.append((basis, [np.count_nonzero(norms == t) for t in range(25)]))
    levels = spy_splits(monkeypatch)
    for k in range(8):
        force_split(monkeypatch, k)
        for basis in (e8, _lll_reduce(e8)):
            assert [_shell_count(basis, t) for t in range(25)] == want
        for basis, counts in cases:
            if k < len(basis):
                assert [_shell_count(basis, t) for t in range(25)] == counts
    # every level is walked, not given up for the one-class table at k = 0
    assert set(levels) == set(range(8))


@pytest.mark.parametrize("k", [0, 6, 9, 12])
def test_split_levels_on_leech_and_e8_cubed(leech, monkeypatch, k):
    force_split(monkeypatch, k)
    levels = spy_splits(monkeypatch)
    assert leech.shell_count(4) == 196560
    assert e8_cubed().shell_count(2) == 720
    assert levels == [k, k]


def test_split_level_follows_the_node_estimate(leech):
    b = np.array(leech.basis, dtype=float)
    d = (np.diag(np.linalg.cholesky(b @ b.T)) ** 2).tolist()
    nodes = {norm: lattice._node_estimates(d, 8 * norm, 8) for norm in (2, 4, 6, 8, 10)}
    assert [lattice._split_level(nodes[norm]) for norm in (2, 4, 6)] == [0, 9, 10]
    assert min(nodes[8]) < lattice._MAX_NODES < min(nodes[10])


def test_split_negative_controls(leech, monkeypatch):
    """Cosets walked without their shift, or every top vector read from the
    class of L_9 itself, miscount the minimal vectors."""
    force_split(monkeypatch, 9)
    walk = lattice._Cosets.walk

    def unshifted(self, *args):
        self.offset = np.zeros_like(self.offset)
        walk(self, *args)

    def one_class(self, *args):
        walk(self, *args)
        self.weights = np.zeros_like(self.weights)  # every code 0

    for wrong in (unshifted, one_class):
        monkeypatch.setattr(lattice._Cosets, "walk", wrong)
        assert leech.shell_count(4) != 196560


def test_split_guard_at_its_bound(monkeypatch):
    """Split at k = 1, [[s, s], [0, s]] has D = 2 and bottom norms
    |(2 u + r) s (1, 1)|^2: under 2^53 while 2 * (128 * 2 * s)^2 is, so at
    s = 2^17 the split walks and at 2^18 it falls back to the one-class
    table at k = 0; the counts equal the box enumeration either way."""
    force_split(monkeypatch, 1)
    levels = spy_splits(monkeypatch)
    for s in (2**17, 2**18):
        basis = [[s, s], [0, s]]
        norms = box_norms(basis, 5 * s * s)
        for k in range(6):
            assert _shell_count(basis, k * s * s) == np.count_nonzero(norms == k * s * s)
        assert _shell_count(basis, s * s + 1) == 0
    assert levels == [1] * 5 + [0] * 5  # targets 1..5 per s; target 0 and s^2 + 1 need no walk


def test_one_class_table_holds_one_cell(monkeypatch):
    """At k = 0 the table is one cell, the empty bottom vector of norm 0,
    whatever the budget: a full-budget table here would need about 1.2M
    cells, past _MAX_TABLE, and leave no table to fall back to."""
    basis = [[100, 0], [0, 101]]
    targets = (1_210_000, 1_250_804)
    want = [np.count_nonzero(box_norms(basis, t) == t) for t in targets]
    assert want == [2, 4]
    assert [_shell_count(basis, t) for t in targets] == want
    force_split(monkeypatch, 0)
    levels = spy_splits(monkeypatch)
    assert [_shell_count(basis, t) for t in targets] == want
    assert levels == [0, 0]


def test_shell_count_refuses_beyond_the_node_ceiling(leech):
    with pytest.raises(ValidationError, match="norm 10 needs about 1.4e[+]08 enumeration nodes"):
        leech.shell_count(10)


def exact_gram_schmidt(basis):
    """|b*_i|^2 and mu_ij over the rationals, from the integer Gram matrix."""
    gram = [[Fraction(sum(a * b for a, b in zip(r, s))) for s in basis] for r in basis]
    n = len(basis)
    norms, mu = [], [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        for j in range(k):
            mu[k][j] = (gram[k][j] - sum(mu[j][i] * mu[k][i] * norms[i] for i in range(j))) / norms[j]
        norms.append(gram[k][k] - sum(mu[k][i] ** 2 * norms[i] for i in range(k)))
    return norms, mu


def skewed_basis(rank, seed):
    """A unimodular transform of Z^rank with large entries."""
    rng = random.Random(seed)
    rows = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(6 * rank):
        i, j = rng.sample(range(rank), 2)
        q = rng.randrange(-9, 10)
        rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    return rows


def test_lll_reduce_keeps_the_lattice(leech):
    echelon = _integer_row_basis(leech.basis)  # an unreduced basis of the same lattice
    for basis in (echelon, skewed_basis(LENGTH, 5)):
        reduced = _lll_reduce(basis)
        before, after = IntegerLattice(basis), IntegerLattice(reduced)
        assert all(after.contains(row) for row in basis)
        assert all(before.contains(row) for row in reduced)
        # the transform from basis to reduced is integral, so det +-1 means unimodular
        assert prod(exact_gram_schmidt(reduced)[0]) == prod(exact_gram_schmidt(basis)[0])


def test_lll_reduce_meets_the_deep_insertion_condition(leech):
    for basis in (leech.basis, _lll_reduce(skewed_basis(12, 8)), _lll_reduce(e8_doubled_basis())):
        norms, mu = exact_gram_schmidt(basis)
        n = len(basis)
        for k in range(n):
            assert all(abs(mu[k][j]) <= Fraction(1, 2) + Fraction(1, 10**9) for j in range(k))
            # |b_k projected away from rows 0..i-1|^2 >= _DELTA |b*_i|^2 for every i < k
            rest = norms[k] + sum(mu[k][j] ** 2 * norms[j] for j in range(k))
            for i in range(k):
                assert rest >= _DELTA * (1 - 1e-9) * norms[i]
                rest -= mu[k][i] ** 2 * norms[i]


def test_theta_series_second_opinion(leech):
    """Theta of the Leech lattice is E4^3 - 720 Delta; its q^2 coefficient
    counts the vectors of norm 4."""
    order = 3
    sigma3 = [sum(d**3 for d in range(1, n + 1) if n % d == 0) for n in range(order)]
    e4 = FracPowerSeries(1, {0: 1, **{n: 240 * sigma3[n] for n in range(1, order)}}, order)
    theta = e4 * e4 * e4 - eta_product({1: 24}, order) * 720
    assert [theta.coeff(n) for n in range(order)] == [1, 0, 196560]
    assert theta.coeff(2) == leech.shell_count(4)


def e8_cubed():
    """E8^3 in sqrt(8)-scaled coordinates: 2x for x mod 2 in the extended
    Hamming code on each block of 8; even, unimodular, with 720 roots."""
    hamming = (0b11110000, 0b11001100, 0b10101010, 0b11111111)
    gens = []
    for block in range(3):
        for word in hamming:
            row = [0] * LENGTH
            for j in range(8):
                row[8 * block + j] = 2 * (word >> j & 1)
            gens.append(row)
    gens += [[4 * (j == i) for j in range(LENGTH)] for i in range(LENGTH)]
    return IntegerLattice(_lll_reduce(_integer_row_basis(gens)))


def test_gram_determinant_matches_exact_gram_schmidt(leech):
    # det Gram = prod |b*_i|^2, here over the unscaled integer rows
    for lat in (leech, e8_cubed(), IntegerLattice(skewed_basis(LENGTH, 5))):
        assert lat.gram_determinant() * 8**LENGTH == prod(exact_gram_schmidt(lat.basis)[0])


def test_negative_controls(leech):
    assert leech.contains((-3,) + (1,) * 23)
    assert not leech.contains((1,) + (0,) * 23)
    assert not leech.contains((3,) + (1,) * 23)
    roots = e8_cubed()
    assert roots.gram_determinant() == 1
    assert roots.shell_count(2) == 720
    with pytest.raises(ValidationError, match="norm 2"):
        roots.verify()


def test_golay_refusals():
    # three extended Hamming [8,4,4] codes side by side: 42 words of weight 4
    hamming = (0b11110000, 0b11001100, 0b10101010, 0b11111111)
    code = lattice.BinaryCode([w << (8 * block) for block in range(3) for w in hamming])
    with pytest.raises(ValidationError, match="wrong weight distribution"):
        code.verify()
    assert code.weight_distribution()[4] == 42


def test_lattice_refusals():
    rows = [[8 * (j == i) for j in range(LENGTH)] for i in range(LENGTH)]
    with pytest.raises(ValidationError, match="linearly dependent"):
        IntegerLattice(rows[:-1] + [rows[0]])
    # the rows 8 e_i: Gram matrix 8 I, even and integral but of determinant 8^24
    with pytest.raises(ValidationError, match="Gram determinant 4722366482869645213696 != 1"):
        IntegerLattice(rows).verify()
    with pytest.raises(ValidationError, match="frame vector 0 is not in the lattice"):
        lattice.coordinate_frame(IntegerLattice([[16] + [0] * 23] + rows[1:]))


def spy_walks(monkeypatch):
    """The targets of the _shell_count walks made from now on."""
    walks, count = [], lattice._shell_count
    monkeypatch.setattr(lattice, "_shell_count", lambda basis, t: walks.append(t) or count(basis, t))
    return walks


def test_verify_walks_once(leech, monkeypatch):
    walks = spy_walks(monkeypatch)
    assert leech.verify()
    assert walks == [16]  # norm 2; norms 1 and 3 are odd, ruled out by the Gram checks


def test_verify_refuses_an_odd_norm_before_walking(monkeypatch):
    # (2, 2, 0, ..., 0) has norm 1; its inner products with the rows 8 e_k are integers
    rows = [[2, 2] + [0] * 22] + [[8 * (j == k) for j in range(LENGTH)] for k in range(1, LENGTH)]
    walks = spy_walks(monkeypatch)
    with pytest.raises(ValidationError, match="not an even integer"):
        IntegerLattice(rows).verify()
    assert walks == []


def test_frame_properties(leech, frame):
    assert len(frame) == 24
    # orthogonal of norm 8: the scaled dot products are 8 * 8 delta_ij
    assert IntegerLattice(frame).gram8() == [[64 * (i == j) for j in range(24)] for i in range(24)]
    for i, v in enumerate(frame):
        for w in frame[i + 1 :]:
            assert leech.contains([(a - b) // 2 for a, b in zip(v, w)])


def test_sign_change_shapes(golay):
    ident, chi = sign_change_frameshape(0, golay)
    assert ident == parse("1^24") and chi == 24
    for w in golay.words():
        weight = bin(w).count("1")
        if weight == 12:
            shape, chi = sign_change_frameshape(w, golay)
            assert shape.exps == {2: 12} and chi == 0
            assert shape.fixed_points() == 12
            break
    for w in golay.words():
        if bin(w).count("1") == 8:
            shape, chi = sign_change_frameshape(w, golay)
            assert shape.exps == {1: 8, 2: 8} and chi == 8
            break


def test_sign_change_membership_error(golay):
    with pytest.raises(MembershipError):
        sign_change_frameshape(0b111, golay)


def test_sign_change_composition_matches_symmetric_difference(golay):
    rng = random.Random(17)
    words = golay.words()
    x = tuple(rng.randrange(-3, 4) for _ in range(24))
    for _ in range(200):
        c, d = rng.choice(words), rng.choice(words)
        via_product = apply_sign_change(c, apply_sign_change(d, x))
        via_xor = apply_sign_change(c ^ d, x)
        assert via_product == via_xor


def test_sign_changes_preserve_membership(golay, leech):
    rng = random.Random(23)
    words = rng.sample(list(golay.words()), 8)
    vectors = []
    for _ in range(50):
        coeffs = [rng.randrange(-2, 3) for _ in range(24)]
        v = [sum(c * row[j] for c, row in zip(coeffs, leech.basis)) for j in range(24)]
        vectors.append(tuple(v))
    for w in words:
        for v in vectors:
            assert leech.contains(apply_sign_change(w, v))
            assert _leech_congruences(list(apply_sign_change(w, v)), golay)


def test_spinor_bridge_for_dodecads(golay, lift):
    """For dodecad sign changes the three trace computations agree: the
    eigenvalue closed form, the 4096-subset oracle, and the supertrace of
    the actual lifted word (the factors 2 from the six minus-pairs are
    killed by the zeros from the six fixed pairs)."""
    count = 0
    for w in golay.words():
        if bin(w).count("1") != 12:
            continue
        shape, _ = sign_change_frameshape(w, golay)
        closed, oracle = class_supertraces(shape)
        assert closed == oracle
        word_trace = lift.word_table(w).supertrace()
        assert word_trace == closed
        assert closed.to_rational() == 0
        count += 1
        if count >= 20:
            break
    assert count == 20


def test_octad_sign_change_word_supertrace(golay, lift):
    for w in golay.words():
        if bin(w).count("1") == 8:
            assert lift.word_table(w).supertrace().to_rational() == 0
            break


def test_frame_congruence_negative_control():
    # 8 e_i lies in 8Z^24 with norm 8, pairwise orthogonal, but 4 e_i - 4 e_j does not
    scaled = IntegerLattice([[8 * (j == i) for j in range(LENGTH)] for i in range(LENGTH)])
    with pytest.raises(ValidationError, match="not congruent"):
        lattice.coordinate_frame(scaled)


def test_frame_congruence_is_tested_against_one_vector(leech, monkeypatch):
    calls, contains = [], IntegerLattice.contains
    monkeypatch.setattr(IntegerLattice, "contains", lambda self, x: calls.append(x) or contains(self, x))
    assert len(lattice.coordinate_frame(leech)) == 24
    assert len(calls) == 24 + 23  # membership of each vector, then congruence with the first
