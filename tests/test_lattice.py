import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from importlib import resources
from math import ceil, isqrt, prod
from operator import index
from pathlib import Path

import numpy as np
import pytest

from conwaymoonshine import cli, lattice
from conwaymoonshine.cliffordcm import class_supertraces
from conwaymoonshine.errors import MembershipError, ValidationError
from conwaymoonshine.frameshape import parse
from conwaymoonshine.lattice import (
    LENGTH,
    IntegerLattice,
    build_leech,
    sign_change_frameshape,
    _integer_row_basis,
    _leech_generators,
)
from conwaymoonshine.qseries import FracPowerSeries, eta_product
from test_cliffordcm import word_supertrace


def test_golay_weight_distribution(golay):
    assert golay.weight_distribution() == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}


def test_weight_distribution_is_a_copy(golay):
    # the distribution is counted once per code; a caller's edits stay in its own copy
    dist = golay.weight_distribution()
    dist[8] = 0
    dist[4] = 1
    assert golay.weight_distribution() == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}
    assert golay.weight_distribution() is not golay.weight_distribution()


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


def test_code_refuses_generators_outside_length_24(golay):
    # the lift reads 24 coordinates, so a wider code would give n1 weights its words do not have
    for bad in (1 << 24, -1):
        with pytest.raises(ValidationError, match="generators must be masks of 24 coordinates"):
            lattice.BinaryCode(golay.generators[:11] + (golay.generators[11] | bad,))


def contains(lat, x):
    """Exact membership of a vector of 24 integers in an IntegerLattice, the
    test oracle for the package's dual criterion (x . b = 0 mod 8 for every
    row b of a unimodular lattice): reduce x against the echelon basis of
    the lattice's rows, whose row i pivots on column i."""
    x = [index(c) for c in x]
    assert len(x) == LENGTH
    for i, row in enumerate(_integer_row_basis(lat.basis)):
        q = x[i] // row[i]
        if q:
            x = [a - q * c for a, c in zip(x, row)]
    return not any(x)


def test_leech_gram(leech):
    assert leech.gram_determinant() == 1
    g8 = leech.gram8()  # 8 * Gram: an even integer on the diagonal is 0 mod 16
    for i in range(LENGTH):
        assert g8[i][i] % 16 == 0


def test_leech_no_short_vectors(leech):
    for norm in (1, 2, 3):
        assert leech.shell_count(norm) == 0


def shells(basis, target8):
    """The _shells pass of any integer basis through target8, made from the
    flag of its Gram matrix, as IntegerLattice makes it for its rank-24
    bases; called through the module, so a spy on lattice._shells sees it."""
    return lattice._shells(lattice._flag(lattice._gram(basis)), target8)


def shell_count(basis, target8):
    """Count the vectors x.B of scaled norm target8 for any integer basis:
    one entry of a _shells pass, or 0 at once for a target that g2 (_flag),
    which divides every norm, does not divide.  IntegerLattice.shell_count
    does the same for its rank-24 bases, from the pass it keeps."""
    return 0 if target8 % lattice._flag(lattice._gram(basis))[1] else shells(basis, target8).get(target8, 0)


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
    for b in (basis, lll_reduce(basis)):
        assert [shell_count(b, t) for t in (0, 4, 8, 12, 16)] == [1, 0, 240, 0, 2160]


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
            assert shell_count(basis, target) == want == shell_count(lll_reduce(basis), target)
        checked += 1


def test_shells_hold_the_whole_theta_series():
    """One _shells pass gives every norm through the target: E8 in doubled
    coordinates has the theta series E4 = 1 + 240 q + 2160 q^2 + 6720 q^3
    (norm 2m scaled to 8m), and random rank 1-4 bases, some scaled by 2, 3
    or 7, a diagonal basis at targets past a million and a basis whose
    class denominator D_1 is 10^6 agree with the box enumeration."""
    e8 = e8_doubled_basis()
    for basis in (e8, lll_reduce(e8)):
        assert shells(basis, 31) == {0: 1, 8: 240, 16: 2160, 24: 6720}
    rng = random.Random(7)
    cases = [([[100, 0], [0, 101]], 1_250_804), ([[10**6, 0], [1, 1]], 100)]
    while len(cases) < 40:
        rank, scale = rng.randrange(1, 5), rng.choice((1, 1, 2, 3, 7))
        basis = [[scale * rng.randrange(-6, 7) for _ in range(rank)] for _ in range(rank)]
        if abs(np.linalg.det(np.array(basis, dtype=float))) >= 0.5:
            cases.append((basis, rng.randrange(60) * scale * scale // 2))
    for basis, target in cases:
        norms = box_norms(basis, target)
        assert shells(basis, target) == dict(Counter(norms[norms <= target].tolist()))


def test_norms_that_parity_rules_out_skip_the_dynamic_program(leech, monkeypatch):
    """Every norm x G x^T is a multiple of g2 = gcd(G_ii, 2 G_ij): 16 for
    Leech in sqrt(8)-scaled coordinates and 8 for E8 in doubled ones, so
    their odd norms count 0 without entering _shells; Z^2 is odd (g2 = 1)
    and still counts its 4 vectors of norm 1."""
    entered, spied = [], lattice._shells
    monkeypatch.setattr(lattice, "_shells", lambda flag, t: entered.append(t) or spied(flag, t))
    assert [leech.shell_count(norm) for norm in (1, 3, 5)] == [0, 0, 0]
    e8 = e8_doubled_basis()
    assert [shell_count(e8, t) for t in (4, 12, 20, 28)] == [0, 0, 0, 0]
    assert entered == []
    assert shell_count([[1, 0], [0, 1]], 1) == 4 and entered == [1]
    assert [lattice._flag(lattice._gram(b))[1] for b in (leech.basis, e8, [[1, 0], [0, 1]])] == [16, 8, 1]


def test_shell_count_guards():
    assert shell_count([[1]], -1) == 0
    assert shell_count([[1]], 127**2) == 2
    # past int8 coordinates and past exact float64 Gram entries, which the
    # Fincke-Pohst walk refused
    assert shell_count([[1]], 128**2) == 2
    assert shell_count([[2**30, 0], [0, 1]], 4) == 2
    # P_1 = 2^60 and 2^61: the level's constants bound (E + D)(D + |P|) =
    # 2 (1 + |P|) against 2^62; the vectors of norm 1 are +-b_0 and +-(b_1 - |P| b_0)
    assert shell_count([[1, 0], [2**60, 1]], 1) == 4
    with pytest.raises(ValidationError, match="int64"):
        shell_count([[1, 0], [2**61, 1]], 1)


def test_the_flag_is_exact_and_only_a_pass_bounds_int64(leech):
    """The flag is exact for any integer basis, and the one int64 guard is
    the pass's.  Z^24 with b_1 = e_1 + 2^61 e_0 (P_1 = 2^61, so the level's
    constants pass 2^62) constructs, of Gram determinant 8^-24, and only its
    shell count is refused, as is every shell count of [[2^32, 0], [1, 1]],
    whose constants alone pass 2^62.  Leech times 2^58 constructs, of Gram
    determinant 2^(2*58*24), and counts as Leech does, as the pass works on
    Gram/g: 196560 vectors at norm 2^118 = 4 * 2^116, none at 2^117, and
    none at norm 4, which g2 = 2^120 does not divide."""
    skew = [[int(j == i) for j in range(LENGTH)] for i in range(LENGTH)]
    skew[1][0] = 2**61
    lat = IntegerLattice(skew)
    assert lat.gram_determinant() == Fraction(1, 8**LENGTH)
    with pytest.raises(ValidationError, match="^norm 1 needs 63-bit integers, past the int64 values of the shell"):
        lat.shell_count(1)
    # D_1 = 2^32: level 1's constants (E + D)(D + |P|) pass 2^64 while its norm bound stays small
    with pytest.raises(ValidationError, match="^norm 1/4 needs 65-bit integers"):
        shell_count([[2**32, 0], [1, 1]], 2)
    scaled = IntegerLattice([[c << 58 for c in row] for row in leech.basis])
    assert scaled.gram_determinant() == 2 ** (2 * 58 * LENGTH)
    assert [scaled.shell_count(n) for n in (2**118, 2**117, 4)] == [196560, 0, 0]


def theta_z(rank, order):
    """Coefficients of theta_3^rank, the theta series of Z^rank, to q^(order-1)."""
    theta = [1] + [0] * (order - 1)
    for _ in range(rank):
        theta = [sum(theta[n - m * m] * (1 if m == 0 else 2) for m in range(isqrt(n) + 1)) for n in range(order)]
    return theta


def test_int64_guard_at_its_bound():
    """Every level bounds its int64 values before it runs and refuses from
    2^62: a h + b u^2 is at most c D_k target, x_k P_k at most the largest
    |x_k| times max |P_k|, and the counts at most their total times the
    widest x_k range."""
    # diag(2^26, 2^26 + 1): c = D_k = 1, so the bound is the target itself
    m = 2**26
    basis = [[m, 0], [0, m + 1]]
    want = Counter(m * m * a * a + (m + 1) ** 2 * b * b for a in range(-64, 65) for b in range(-64, 65))
    assert shells(basis, 2**62 - 1) == {n: c for n, c in want.items() if n < 2**62}
    with pytest.raises(ValidationError, match="int64"):
        shells(basis, 2**62)
    # Z^24 through norm 53 holds 1.06e18 vectors; the count bound (the total
    # times the widest x_k range) passes 2^62 at the target 54, although its
    # 1.32e18 vectors would fit
    z24 = np.eye(24, dtype=int).tolist()
    assert shells(z24, 53) == dict(enumerate(theta_z(24, 54)))
    with pytest.raises(ValidationError, match="int64"):
        shells(z24, 54)
    # [[1, 0], [2^60, 1]] is Z^2 with P_1 = 2^60: x_1 P_1 is bounded by
    # (isqrt(target) + 1) 2^60, under 2^62 through the target 8
    skew = [[1, 0], [2**60, 1]]
    assert shells(skew, 8) == {0: 1, 1: 4, 2: 4, 4: 4, 5: 8, 8: 4}
    with pytest.raises(ValidationError, match="int64"):
        shells(skew, 9)
    # [[s, s], [0, s]]: Gram s^2 [[2, 1], [1, 2]], counted in units of g = s^2
    s = 2**19
    basis = [[s, s], [0, s]]
    norms = box_norms(basis, 5 * s * s)
    for k in range(6):
        assert shell_count(basis, k * s * s) == np.count_nonzero(norms == k * s * s)
    assert shell_count(basis, s * s + 1) == 0


def test_shells_negative_controls(leech, monkeypatch):
    """Children whose class drops the shift t p_k, the projection of x_k b_k
    onto L_k, or takes it negated, are refused: a level or two below the
    top their orthogonal norms stop being whole multiples of 1/D_k, so the
    exact-division check fires before any count is made."""
    flag = lattice._flag
    assert e8_cubed().shell_count(2) == 720

    for wrong in (lambda P: [0] * len(P), lambda P: [-p for p in P]):
        def shifted(gram):
            g, g2, det, levels = flag(gram)
            return g, g2, det, [level[:-1] + (wrong(level[-1]),) for level in levels]

        monkeypatch.setattr(lattice, "_flag", shifted)
        # fresh lattices: the leech fixture keeps the pass its verify() made
        for lat, norm in ((IntegerLattice(leech.basis), 4), (e8_cubed(), 2)):
            with pytest.raises(ValidationError, match="inexact division"):
                lat.shell_count(norm)


def test_leech_norm_4_pass_has_2115_rows_at_its_widest_level(leech, monkeypatch):
    """The pass that verify() makes and shell_count(4) reads: 2,115 child
    rows at its widest level, so a merge lost from the walk (of equal
    states, or of mirror images) fails here and not only in the benchmark."""
    monkeypatch.setattr(lattice, "_MAX_ROWS", 2115)
    lat = IntegerLattice(leech.basis)
    assert (lat.shell_count(4), lat.shell_count(2)) == (196560, 0)
    monkeypatch.setattr(lattice, "_MAX_ROWS", 2114)
    with pytest.raises(ValidationError, match="norm 4 needs about 2115 enumeration nodes, more than the 2114 allowed"):
        IntegerLattice(leech.basis).shell_count(4)


def test_shell_count_refuses_beyond_the_node_ceiling(leech):
    """A level past _MAX_ROWS child rows is refused; with each state merged
    with its mirror image, Leech norm 20 stays under it (32,051 rows at its
    widest level) and norm 22 does not."""
    with pytest.raises(ValidationError, match="norm 22 needs about 37195 enumeration nodes, more than the 32768 allowed"):
        leech.shell_count(22)
    assert leech.shell_count(20) == leech_theta(11)[10]


def test_mirror_merge_reads_every_packed_word(monkeypatch):
    """Rows 16 e_i (i < 11) and (8, 0, ..., 0, 1, 1): the top level has
    D = 16, so its 11 residues fill two packed words, and the class y P of
    x_11 = y agrees with its mirror -y P on the first word (8y = -8y mod 16)
    but not on the second (y against -y).  Each y merges with -y, so no
    level passes 33 rows (a merge that read only the first word needs 54),
    and the counts equal a direct sum over y of independent coordinates."""
    basis = [[16 * (j == i) for j in range(12)] for i in range(11)] + [[8] + [0] * 9 + [1, 1]]
    target = 256
    want = Counter()
    for y in range(-isqrt(target), isqrt(target) + 1):
        # v = (16 x_0 + 8y, 16 x_1, ..., 16 x_9, 16 x_10 + y, y)
        norms = Counter({y * y: 1})
        for shift in [8 * y] + [0] * 9 + [y]:
            squares = [(16 * x + shift) ** 2 for x in range(-10, 11)]
            wider = Counter()
            for n, c in norms.items():
                for s in squares:
                    if n + s <= target:
                        wider[n + s] += c
            norms = wider
        want.update(norms)
    monkeypatch.setattr(lattice, "_MAX_ROWS", 33)
    assert shells(basis, target) == dict(want)


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


DELTA = 0.99  # the Lovasz constant of the deep insertions


def lll_reduce(basis):
    """LLL with deep insertions (Schnorr-Euchner), integer row operations
    and float Gram-Schmidt data: the search that found the committed Leech
    basis, data/leech_basis.csv.

    Each row b_k in turn is size-reduced and then inserted at the first
    position i whose Gram-Schmidt norm exceeds the norm of b_k projected
    away from rows 0..i-1, divided by DELTA.  Rows stay Python ints and
    change only by unimodular steps, so the result spans the same lattice
    whatever the rounding; the float data only steers.  It is recomputed
    from the integer rows after each insertion, so rounding error cannot
    build up.
    """
    b = [list(r) for r in basis]
    n = len(b)

    def gs():
        # b_i = sum_j r[j, i] q_j, so |b*_j|^2 = r[j, j]^2 and mu_ij = r[j, i] / r[j, j]
        r = np.linalg.qr(np.array(b, dtype=float).T, mode="r")
        diag = np.diag(r)
        return (diag * diag).tolist(), (r / diag[:, None]).T.tolist()

    norms, mu = gs()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
                mu[k][j] -= q
        rest = float(sum(x * x for x in b[k]))  # |b_k|^2 projected away from rows 0..i-1
        i = 0
        while i < k and rest >= DELTA * norms[i]:
            rest -= mu[k][i] ** 2 * norms[i]
            i += 1
        if i == k:
            k += 1
        else:
            b.insert(i, b.pop(k))
            norms, mu = gs()
            k = max(i, 1)
    return b


def test_lll_reduce_keeps_the_lattice(leech):
    echelon = _integer_row_basis(leech.basis)  # an unreduced basis of the same lattice
    for basis in (echelon, skewed_basis(LENGTH, 5)):
        reduced = lll_reduce(basis)
        before, after = IntegerLattice(basis), IntegerLattice(reduced)
        assert all(contains(after, row) for row in basis)
        assert all(contains(before, row) for row in reduced)
        # the transform from basis to reduced is integral, so det +-1 means unimodular
        assert prod(exact_gram_schmidt(reduced)[0]) == prod(exact_gram_schmidt(basis)[0])


def test_lll_reduce_meets_the_deep_insertion_condition(leech):
    for basis in (leech.basis, lll_reduce(skewed_basis(12, 8)), lll_reduce(e8_doubled_basis())):
        norms, mu = exact_gram_schmidt(basis)
        n = len(basis)
        for k in range(n):
            assert all(abs(mu[k][j]) <= Fraction(1, 2) + Fraction(1, 10**9) for j in range(k))
            # |b_k projected away from rows 0..i-1|^2 >= DELTA |b*_i|^2 for every i < k
            rest = norms[k] + sum(mu[k][j] ** 2 * norms[j] for j in range(k))
            for i in range(k):
                assert rest >= DELTA * (1 - 1e-9) * norms[i]
                rest -= mu[k][i] ** 2 * norms[i]


def leech_theta(order):
    """E4^3 - 720 Delta to q^(order-1), the theta series of the Leech
    lattice in q^(norm/2)."""
    sigma3 = [sum(d**3 for d in range(1, n + 1) if n % d == 0) for n in range(order)]
    e4 = FracPowerSeries(1, {0: 1, **{n: 240 * sigma3[n] for n in range(1, order)}}, order)
    theta = e4 * e4 * e4 - eta_product({1: 24}, order) * 720
    return [theta.coeff(n) for n in range(order)]


def test_theta_series_second_opinion(leech):
    """Every shell through norm 20 from one _shells pass equals the theta
    series E4^3 - 720 Delta, whose q^m coefficient counts norm 2m."""
    theta = leech_theta(11)
    assert theta == [1, 0, 196560, 16773120, 398034000, 4629381120, 34417656000, 187489935360,
                     814879774800, 2975551488000, 9486551299680]
    counts = shells(leech.basis, 8 * 20)
    assert counts == {16 * m: c for m, c in enumerate(theta) if c}
    assert theta[2] == leech.shell_count(4)
    # Conway: every class of Leech/2Leech has a representative of norm at
    # most 8, unique up to sign at norms 4 and 6, and one of a frame of 48
    # orthogonal vectors +-v at norm 8
    assert 1 + theta[2] // 2 + theta[3] // 2 + theta[4] // 48 == 2**24


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
    return IntegerLattice(lll_reduce(_integer_row_basis(gens)))


def test_gram_determinant_matches_exact_gram_schmidt(leech):
    # det Gram = prod |b*_i|^2, here over the unscaled integer rows
    for lat in (leech, e8_cubed(), IntegerLattice(skewed_basis(LENGTH, 5))):
        assert lat.gram_determinant() * 8**LENGTH == prod(exact_gram_schmidt(lat.basis)[0])


def test_negative_controls(leech):
    assert contains(leech, (-3,) + (1,) * 23)
    assert not contains(leech, (1,) + (0,) * 23)
    assert not contains(leech, (3,) + (1,) * 23)
    roots = e8_cubed()
    assert roots.gram_determinant() == 1
    assert roots.shell_count(2) == 720
    with pytest.raises(ValidationError, match="norm 2"):
        roots.verify()


def test_lattice_refuses_vectors_that_are_not_24_integers(leech):
    """No coordinate of a basis row is truncated or dropped: 17/2 is not 8, and a row with
    a 25th coordinate is not the row without it; numpy integers are read as ints."""
    rows = [list(row) for row in leech.basis]
    assert IntegerLattice([[np.int64(c) for c in row] for row in rows]).basis == leech.basis
    for bad in (Fraction(17, 2), 8.5, 8.0):
        spoiled = [row[:] for row in rows]
        spoiled[3][5] = bad
        with pytest.raises(ValidationError, match="basis entries must be integers"):
            IntegerLattice(spoiled)
    for row in (rows[3] + [5], rows[3][:-1]):
        with pytest.raises(ValidationError, match="basis must be 24 rows of 24 integers"):
            IntegerLattice(rows[:3] + [row] + rows[4:])


def test_code_refuses_generators_that_are_not_integers(golay):
    # 1.5 passed the range check and then failed in the GF(2) echelon with an AttributeError
    for bad in (1.5, 2.0, Fraction(3)):
        with pytest.raises(ValidationError, match="generators must be integer masks"):
            lattice.BinaryCode(golay.generators[:11] + (bad,))
    assert lattice.BinaryCode(np.array(golay.generators)).generators == golay.generators


def test_masks_that_are_not_integers_are_refused(golay):
    # 1.5 >> pivot raised TypeError in the GF(2) reduction
    for bad in (1.5, 2.0, Fraction(3)):
        with pytest.raises(ValidationError, match="masks must be integers"):
            golay.contains(bad)
        with pytest.raises(ValidationError, match="masks must be integers"):
            sign_change_frameshape(bad, golay)
    octad = next(w for w in golay.words() if w.bit_count() == 8)
    assert golay.contains(np.int64(octad)) and sign_change_frameshape(np.int64(octad), golay)[1] == 8


def test_shell_count_refuses_a_norm_that_is_not_an_integer(leech):
    # on a fresh lattice 6.0 raised TypeError from isqrt, and after shell_count(6) it read the kept pass
    lat = IntegerLattice(leech.basis)
    for bad in (6.0, 4.0, Fraction(4), "4"):
        with pytest.raises(ValidationError, match="shell norms must be integers"):
            lat.shell_count(bad)
    assert lat.shell_count(np.int64(6)) == 16773120
    with pytest.raises(ValidationError, match="shell norms must be integers"):
        lat.shell_count(6.0)


def test_golay_refusals():
    # three extended Hamming [8,4,4] codes side by side: 42 words of weight 4
    hamming = (0b11110000, 0b11001100, 0b10101010, 0b11111111)
    code = lattice.BinaryCode([w << (8 * block) for block in range(3) for w in hamming])
    with pytest.raises(ValidationError, match="wrong weight distribution"):
        code.verify()
    assert code.weight_distribution()[4] == 42


def test_lattice_refusals(leech):
    rows = [[8 * (j == i) for j in range(LENGTH)] for i in range(LENGTH)]
    with pytest.raises(ValidationError, match="linearly dependent"):
        IntegerLattice(rows[:-1] + [rows[0]])
    # Leech rows made dependent at the leading minors 1, 2, 13 and 24 of the flag, and the zero basis (g = 0)
    leech_rows = [list(row) for row in leech.basis]
    spoiled = [[[0] * LENGTH] + leech_rows[1:], leech_rows[:1] * 2 + leech_rows[2:],
               leech_rows[:12] + [[a + b for a, b in zip(leech_rows[3], leech_rows[7])]] + leech_rows[13:],
               leech_rows[:23] + [[-c for c in leech_rows[22]]], [[0] * LENGTH] * LENGTH]
    for basis in spoiled:
        assert lattice._flag(lattice._gram(basis))[2:] == (0, [])
        with pytest.raises(ValidationError, match="^basis rows are linearly dependent$"):
            IntegerLattice(basis)
    # the rows 8 e_i: Gram matrix 8 I, even and integral but of determinant 8^24
    with pytest.raises(ValidationError, match="Gram determinant 4722366482869645213696 != 1"):
        IntegerLattice(rows).verify()
    # 16 e_0 and the 8 e_i: integral, Gram determinant 2^74, so the frame is refused before its checks;
    # 2 e_i (i < 12) and 4 e_i: Gram determinant 1 and rows of one parity, but Gram entries 1/2 and 2
    halves = [[(2 + 2 * (i >= 12)) * (j == i) for j in range(LENGTH)] for i in range(LENGTH)]
    assert IntegerLattice(halves).gram_determinant() == 1
    for lat in (IntegerLattice([[16] + [0] * 23] + rows[1:]), IntegerLattice(halves)):
        with pytest.raises(ValidationError, match="the frame needs an integral lattice of Gram determinant 1"):
            lattice.coordinate_frame(lat)


def spy_walks(monkeypatch):
    """The targets of the _shells passes made from now on."""
    walks, spied = [], lattice._shells
    monkeypatch.setattr(lattice, "_shells", lambda flag, t: walks.append(t) or spied(flag, t))
    return walks


def test_verify_walks_once(leech, monkeypatch):
    """verify() makes one pass, through norm 4 (norms 1 and 3 are odd, ruled
    out by the Gram checks), and the lattice keeps it: shells 1 to 4 read it,
    and only a wider target, norm 6, makes a new pass."""
    walks = spy_walks(monkeypatch)
    lat = IntegerLattice(leech.basis)
    assert lat.verify()
    assert walks == [32]
    assert [lat.shell_count(norm) for norm in (1, 2, 3, 4)] == [0, 0, 0, 196560]
    assert walks == [32]
    assert lat.shell_count(6) == 16773120 and lat.shell_count(4) == 196560
    assert walks == [32, 48]


def test_a_pass_cut_at_a_lower_target_is_the_pass_to_it(leech):
    """What lets a lattice keep one pass: a _shells pass to T cut at t <= T
    equals the pass to t, on Leech for t = 0, 8, ..., 40 with T = 48, and
    on seeded random bases of rank 1 to 7 for every t through T = 40."""
    full = shells(leech.basis, 48)
    for t in range(0, 41, 8):
        assert shells(leech.basis, t) == {n: c for n, c in full.items() if n <= t}
    rng = random.Random(11)
    checked = 0
    while checked < 21:
        rank = 1 + checked % 7
        basis = [[rng.randrange(-4, 5) for _ in range(rank)] for _ in range(rank)]
        if abs(np.linalg.det(np.array(basis, dtype=float))) < 0.5:
            continue
        full = shells(basis, 40)
        for t in range(41):
            assert shells(basis, t) == {n: c for n, c in full.items() if n <= t}
        checked += 1


ONE_PASS = """
import sys
from conwaymoonshine import cli, lattice
passes, shells = [], lattice._shells
lattice._shells = lambda flag, t: passes.append(t) or shells(flag, t)
code = cli.main(sys.argv[1:])
print(passes)
sys.exit(code)
"""


@pytest.mark.parametrize("argv", [["lattice", "leech-shell"], ["lattice", "leech-shell", "--norm", "2"]])
def test_leech_shell_makes_one_pass_in_a_fresh_interpreter(argv):
    """build_leech's verify() and the count share one pass through norm 4,
    counted by a spy on _shells in a fresh interpreter, where no cached
    lattice holds a pass already."""
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run([sys.executable, "-c", ONE_PASS, *argv], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[32]"


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
            assert contains(leech, [(a - b) // 2 for a, b in zip(v, w)])


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


def apply_sign_change(codeword: int, x):
    """Act on scaled coordinates by the sign change of a codeword."""
    return tuple(-c if codeword >> i & 1 else c for i, c in enumerate(x))


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
            assert contains(leech, apply_sign_change(w, v))


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
        word_trace = word_supertrace(lift.word_table(w))
        assert word_trace == closed
        assert closed.to_rational() == 0
        count += 1
        if count >= 20:
            break
    assert count == 20


def test_octad_sign_change_word_supertrace(golay, lift):
    for w in golay.words():
        if bin(w).count("1") == 8:
            assert word_supertrace(lift.word_table(w)).to_rational() == 0
            break


def test_frame_congruence_negative_control():
    # 8 e_i lies in 8Z^24 with norm 8, pairwise orthogonal, but 4 e_i - 4 e_j does not; 8Z^24
    # has Gram determinant 8^24, so the frame is refused before its membership is read off
    scaled = IntegerLattice([[8 * (j == i) for j in range(LENGTH)] for i in range(LENGTH)])
    with pytest.raises(ValidationError, match="the frame needs an integral lattice of Gram determinant 1"):
        lattice.coordinate_frame(scaled)


def tetrad_image(rows):
    """x_i -> (x_0 + x_1 + x_2 + x_3)/2 - x_i for i < 4: minus the reflection in
    (1, 1, 1, 1, 0, ..., 0), an isometry, integral on vectors whose first four
    coordinates have an even sum."""
    return [[sum(row[:4]) // 2 - c for c in row[:4]] + list(row[4:]) for row in rows]


def test_frame_congruence_refuses_a_unimodular_lattice_of_mixed_parity(leech):
    """The image of Leech under the tetrad map is even and unimodular, but 15 of its
    rows mix odd and even coordinates, so 4(e_i - e_0) is not in it for some i."""
    rows = tetrad_image(leech.basis)
    image = IntegerLattice(rows)
    assert image.gram_determinant() == 1 and image.verify()
    assert sum(len({c % 2 for c in row}) > 1 for row in rows) == 15
    assert not all(contains(image, [4 * (j == i) - 4 * (j == 0) for j in range(LENGTH)]) for i in range(LENGTH))
    with pytest.raises(ValidationError, match="not congruent"):
        lattice.coordinate_frame(image)


def test_leech_checks_make_no_per_vector_reduction(golay, monkeypatch):
    """coordinate_frame reads membership off unimodularity and reduces nothing;
    build_leech reduces the 37 generators once, for their covolume (the stored
    basis's is read off its flag), and no generator or frame vector alone."""
    calls, reduce = [], lattice._integer_row_basis
    monkeypatch.setattr(lattice, "_integer_row_basis", lambda rows: calls.append(len(rows)) or reduce(rows))
    lat = build_leech.__wrapped__(golay)
    assert calls == [37]
    assert len(lattice.coordinate_frame(lat)) == 24
    assert calls == [37]


def read_leech_basis():
    """data/leech_basis.csv, read the way the package reads it."""
    text = resources.files("conwaymoonshine.data").joinpath("leech_basis.csv").read_text()
    return [[int(c) for c in line.split(",")] for line in text.splitlines()]


def test_leech_basis_ships_as_package_data(leech):
    rows = read_leech_basis()
    assert len(rows) == LENGTH and all(len(row) == LENGTH for row in rows)
    assert rows == lattice._stored_basis() == [list(row) for row in leech.basis]


def test_stored_leech_basis_is_the_deep_insertion_reduction(golay):
    """Provenance of the certificate: LLL with deep insertions on the echelon
    basis of the 37 generators gives the committed rows, row for row."""
    gens = _leech_generators(golay)
    assert len(gens) == 37
    assert lll_reduce(_integer_row_basis(gens)) == read_leech_basis()


def build_with_stored(monkeypatch, rows, code):
    """build_leech with `rows` as the stored basis, past the cache that holds
    the Golay code's lattice."""
    monkeypatch.setattr(lattice, "_stored_basis", lambda: [list(row) for row in rows])
    return build_leech.__wrapped__(code)


def test_build_leech_refuses_a_sublattice(golay, leech, monkeypatch):
    # a stored row doubled spans an index-2 sublattice L of Leech; its dual holds Leech, so
    # every generator passes the mod-8 test, and the covolume check refuses it before verify()
    rows = [list(row) for row in leech.basis]
    rows[5] = [2 * c for c in rows[5]]
    assert not all(contains(IntegerLattice(rows), g) for g in _leech_generators(golay))
    with pytest.raises(ValidationError, match="does not span this code's lattice: "
                                              "its covolume is 137438953472, the generators' 68719476736"):
        build_with_stored(monkeypatch, rows, golay)


def test_build_leech_refuses_a_superlattice_by_its_dual(golay, leech, monkeypatch):
    # Leech + Z (2, 2, 0, ..., 0): index 2 over it, so it holds every generator and has the
    # covolume of neither; its dual is of index 2 in Leech and misses generator 0, whose dot
    # product with (2, 2, 0, ..., 0) is -4, so the mod-8 test refuses it before verify()
    rows = _integer_row_basis(list(leech.basis) + [[2, 2] + [0] * 22])
    assert all(contains(IntegerLattice(rows), g) for g in _leech_generators(golay))
    with pytest.raises(ValidationError, match="does not span this code's lattice: generator 0 is not in it$"):
        build_with_stored(monkeypatch, rows, golay)


def test_build_leech_bounds_its_int64_product(golay, leech, monkeypatch):
    """The generators' dot products with the stored rows are bounded by
    24 max|G| max|B| in Python ints: Leech times 2^50 (bound 3 * 2^58) is
    multiplied exactly, every generator passes, and the covolume refuses it;
    Leech times 2^58 (bound 3 * 2^66) is refused before any product."""
    rows = [[c << 50 for c in row] for row in leech.basis]
    with pytest.raises(ValidationError, match="its covolume is %d, the generators' 68719476736" % 2**(36 + 50 * 24)):
        build_with_stored(monkeypatch, rows, golay)
    rows = [[c << 58 for c in row] for row in leech.basis]
    with pytest.raises(ValidationError, match="dot products need 68-bit integers, past int64"):
        build_with_stored(monkeypatch, rows, golay)


def swapped_golay(golay):
    """The Golay code with coordinates 0 and 23 swapped: a Golay code too,
    whose Leech lattice is not the one spanned by the stored basis."""
    def swap(mask):
        return mask & ~(1 | 1 << 23) | (mask & 1) << 23 | mask >> 23 & 1
    return lattice.BinaryCode([swap(c) for c in golay.generators])


def test_build_leech_refuses_another_code(golay):
    code = swapped_golay(golay)
    assert code.verify()
    with pytest.raises(ValidationError, match="does not span this code's lattice: generator [0-9]+ is not in it"):
        build_leech(code)


def test_build_leech_refuses_a_code_that_is_not_doubly_even(golay):
    """Code generator 0 without coordinates 1 and 2 has weight 6, so its 2 chi_C, generator 1 of
    the lattice, has odd norm 3 and fails the defining congruences; build_leech has no
    congruence pass of its own and refuses the code by the dual test, before verify()."""
    gens = list(golay.generators)
    gens[0] ^= 0b11
    assert gens[0] == 0x800ae0 and gens[0].bit_count() == 6
    with pytest.raises(ValidationError, match="does not span this code's lattice: generator 1 is not in it$"):
        build_leech.__wrapped__(lattice.BinaryCode(gens))


def test_leech_shell_exits_2_on_a_refused_basis(golay, leech, monkeypatch, capsys):
    rows = [list(row) for row in leech.basis]
    rows[0] = [2 * c for c in rows[0]]
    monkeypatch.setattr(lattice, "_stored_basis", lambda: rows)
    monkeypatch.setattr(lattice, "build_leech", build_leech.__wrapped__)
    assert cli.main(["lattice", "leech-shell", "--norm", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: the stored Leech basis does not span this code's lattice" in captured.err
