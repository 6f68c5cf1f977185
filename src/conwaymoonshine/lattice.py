"""The binary Golay code and the Leech lattice, built from scratch and
verified against their defining properties at build time.

Lattice vectors are stored in sqrt(8)-scaled integer coordinates: the true
inner product of rows x and y is (x . y)/8, so all arithmetic stays exact
and the frame vectors are the rows (8, 0, ..., 0), ...

Code words are 24-bit masks, bit i = coordinate i.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from importlib import resources
from math import gcd, isqrt, prod
from operator import mul

import numpy as np

from .errors import MembershipError, ValidationError, integer
from .frameshape import FrameShape

LENGTH = 24


class BinaryCode:
    """A binary linear code of length 24 given by 12 generator masks."""

    def __init__(self, generators):
        self.generators = tuple(integer(g, "generators must be integer masks") for g in generators)
        if len(self.generators) != 12:
            raise ValidationError("expected 12 generators, got %d" % len(self.generators))
        if any(not 0 <= g < 1 << LENGTH for g in self.generators):
            raise ValidationError("generators must be masks of %d coordinates" % LENGTH)
        self._echelon, self._pivots = _gf2_echelon(self.generators)
        if len(self._echelon) != 12:
            raise ValidationError("generators are not independent")
        self._words = None
        self._weights = None

    def words(self) -> tuple:
        """All 4096 codewords, Gray-code ordered by generator subsets, built
        once per code."""
        if self._words is None:
            out = [0]
            for g in self.generators:
                out.extend(w ^ g for w in list(out))
            self._words = tuple(out)
        return self._words

    def contains(self, mask: int) -> bool:
        mask = integer(mask, "masks must be integers")
        for row, piv in zip(self._echelon, self._pivots):
            if mask >> piv & 1:
                mask ^= row
        return mask == 0

    def weight_distribution(self) -> dict:
        """{weight: number of codewords}, counted once per code; each call
        returns a fresh copy."""
        if self._weights is None:
            dist = {}
            for w in self.words():
                k = w.bit_count()
                dist[k] = dist.get(k, 0) + 1
            self._weights = dist
        return dict(self._weights)

    def verify(self):
        """Full-enumeration check of the weight distribution, which proves
        the defining properties: doubly even, minimum weight 8, self-dual.
        """
        dist = self.weight_distribution()
        # every weight is 0 mod 4, and |a & b| = (|a| + |b| - |a ^ b|)/2 is then
        # even for all codewords a, b: the code is self-orthogonal, and with
        # dimension 12 in length 24, self-dual
        if dist != {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}:
            raise ValidationError("wrong weight distribution: %s" % dist)
        return True


def _gf2_echelon(rows):
    echelon, pivots = [], []
    for row in rows:
        for r, p in zip(echelon, pivots):
            if row >> p & 1:
                row ^= r
        if row:
            piv = row.bit_length() - 1
            echelon.append(row)
            pivots.append(piv)
    # back-substitute for a unique reduced form
    for i in range(len(echelon)):
        for j in range(len(echelon)):
            if i != j and echelon[j] >> pivots[i] & 1:
                echelon[j] ^= echelon[i]
    order = sorted(range(len(echelon)), key=lambda i: -pivots[i])
    return [echelon[i] for i in order], [pivots[i] for i in order]


@lru_cache(maxsize=1)
def build_golay() -> BinaryCode:
    """Extended quadratic-residue construction at p = 23.

    Row u (u = 0..22) has support {v : v - u is a nonzero square mod 23}
    plus the extension coordinate 23; the all-ones word completes the span.
    The 24 rows are reduced to 12 independent generators over GF(2), and
    the resulting code is verified exhaustively.
    """
    p = 23
    residues = {(i * i) % p for i in range(1, p)}
    rows = []
    for u in range(p):
        mask = 1 << p
        for v in range(p):
            if v != u and (v - u) % p in residues:
                mask |= 1 << v
        rows.append(mask)
    rows.append((1 << LENGTH) - 1)
    code = BinaryCode(_gf2_echelon(rows)[0])
    code.verify()
    return code


class IntegerLattice:
    """Rank-24 lattice in sqrt(8)-scaled integer coordinates, kept as its Gram matrix and flag (_gram, _flag)."""

    def __init__(self, basis):
        self.basis = tuple(tuple(c if c.__class__ is int else integer(c, "basis entries must be integers")
                                 for c in row) for row in basis)
        if len(self.basis) != LENGTH or any(len(r) != LENGTH for r in self.basis):
            raise ValidationError("basis must be 24 rows of 24 integers")
        self._gram = _gram(self.basis)
        self._flag = _flag(self._gram)
        if not self._flag[2]:
            raise ValidationError("basis rows are linearly dependent")
        self._theta = (-1, {})  # the widest _shells pass made for this lattice: (target8, {norm8: count})

    def gram8(self):
        """Integer matrix of scaled dot products b_i . b_j (= 8 * Gram), a
        fresh list of lists copied from the Gram matrix the lattice keeps."""
        return [list(row) for row in self._gram]

    def gram_determinant(self) -> Fraction:
        """det Gram = g^24 det / 8^24, det the last leading minor of 8 Gram / g (_flag)."""
        g, _, det, _ = self._flag
        return Fraction(g**LENGTH * det, 8**LENGTH)

    def verify(self):
        """Even, determinant one, no vectors of norm below 4: norm 2 is read
        from one _shells pass through norm 4, which shell_count(4) reuses."""
        for i, row in enumerate(self._gram):  # 8 * Gram: integral means 0 mod 8, even means 0 mod 16
            if row[i] % 16:
                raise ValidationError("Gram diagonal %s is not an even integer" % Fraction(row[i], 8))
            for v in row:
                if v % 8:
                    raise ValidationError("Gram entry %s is not integral" % Fraction(v, 8))
        det = self.gram_determinant()
        if det != 1:
            raise ValidationError("Gram determinant %s != 1" % det)
        # an integral Gram matrix with even diagonal gives even norms, so 2 is the only one below 4
        if self._counts(32).get(16):
            raise ValidationError("unexpected vectors of norm 2")
        return True

    def shell_count(self, norm: int) -> int:
        """Number of lattice vectors of the given norm: 0 at once for a norm
        that g2 (_flag) does not divide, else read from the widest pass of
        the exact dynamic program over the Gram-Schmidt flag (_shells) made
        for this lattice (_counts).  ValidationError when a level would need
        more than _MAX_ROWS rows or values past int64, or for a norm that is
        not an integer."""
        target8 = 8 * integer(norm, "shell norms must be integers")
        return 0 if target8 % self._flag[1] else self._counts(target8).get(target8, 0)

    def _counts(self, target8: int) -> dict:
        """{norm8: count} through at least target8: a pass to T cut at t <= T is the pass to t."""
        if target8 > self._theta[0]:
            self._theta = target8, _shells(self._flag, target8)
        return self._theta[1]

    def __repr__(self):
        return "IntegerLattice(rank 24, det %s)" % self.gram_determinant()


def _leech_generators(code: BinaryCode) -> list:
    """The spanning set of the Golay-code construction in scaled
    coordinates: the odd vector (-3, 1, ..., 1), 2*chi_C for each code
    generator C, the vectors 4(e_1 + e_i) and 8 e_1; 37 rows."""
    gens = [[-3] + [1] * 23]
    gens += [[2 if c >> i & 1 else 0 for i in range(LENGTH)] for c in code.generators]
    gens += [[4 * (j == 0 or j == i) for j in range(LENGTH)] for i in range(1, LENGTH)]
    gens.append([8] + [0] * 23)
    return gens


def _stored_basis() -> list:
    """The committed reduced Leech basis (data/leech_basis.csv), 24 rows of
    24 ints."""
    text = resources.files("conwaymoonshine.data").joinpath("leech_basis.csv").read_text()
    return [[int(c) for c in line.split(",")] for line in text.splitlines()]


@lru_cache(maxsize=4)
def build_leech(code: BinaryCode) -> IntegerLattice:
    """Standard Golay-code construction of the Leech lattice (SPLAG ch. 4
    section 11), as a checked certificate: the committed basis
    (_stored_basis) is a reduced basis of the lattice L spanned by
    _leech_generators(code), found once by LLL with deep insertions (the
    search lives in the tests).  Every generator has dot products 0 mod 8
    with the stored rows (one int64 product, bounded in Python ints first),
    so it lies in the dual L*; the covolumes (the generators' echelon
    diagonal, the stored rows' isqrt(det 8 Gram) from the flag) agree; and
    verify() shows L even of determinant 1, so L* = L and the generators
    span all of L.  A code whose lattice the stored basis does not span is
    refused.  The defining congruences then hold and are not checked:
    (-3, 1^23), 4(e_1 + e_i) and 8 e_1 meet them by arithmetic, and for
    2 chi_C they ask |C| = 0 mod 4, which holds as 2 chi_C lies in the even
    lattice L and has norm |C|/2."""
    gens = _leech_generators(code)
    lat = IntegerLattice(_stored_basis())
    bound = LENGTH * max(abs(c) for g in gens for c in g) * max(abs(c) for row in lat.basis for c in row)
    if bound >= _INT64:  # bounds every entry of G B^T
        raise ValidationError("the generators' dot products need %d-bit integers, past int64" % bound.bit_length())
    refused = "the stored Leech basis does not span this code's lattice: "
    G, B = np.array(gens, dtype=np.int64), np.array(lat.basis, dtype=np.int64)
    outside = np.flatnonzero((G @ B.T % 8).any(axis=1))  # the generators outside L*
    if outside.size:
        raise ValidationError(refused + "generator %d is not in it" % outside[0])
    # the 8 e_i lie in the span of the generators, so it has rank 24 and pivots on the diagonal
    spanned = prod(row[i] for i, row in enumerate(_integer_row_basis(gens)))
    stored = isqrt(lat._flag[0] ** LENGTH * lat._flag[2])  # det(8 Gram) = det(B B^T) = det(B)^2
    if spanned != stored:
        raise ValidationError(refused + "its covolume is %d, the generators' %d" % (stored, spanned))
    lat.verify()
    return lat


def coordinate_frame(lat: IntegerLattice):
    """The 24 frame vectors 8 e_i of an integral lattice L of Gram
    determinant 1, which is its own dual: an integer x lies in L when
    x . b = 0 mod 8 for every basis row b.  8 e_i . b = 8 b_i, so each 8 e_i
    lies in L, and 4(e_i - e_0) . b = 4(b_i - b_0), so the frame is
    congruent mod 2L (an equivalence relation: e_0 stands for every pair)
    when every row has coordinates of one parity; other lattices are
    refused.  The vectors are orthogonal of norm 8: (8 e_i . 8 e_j)/8 = 8 delta_ij."""
    if lat._flag[0] % 8 or lat.gram_determinant() != 1:  # g, the gcd of 8 * Gram, is 0 mod 8 when every entry is
        raise ValidationError("the frame needs an integral lattice of Gram determinant 1")
    if any((c - row[0]) % 2 for row in lat.basis for c in row):
        raise ValidationError("frame vectors not congruent mod doubled lattice")
    return [tuple(8 * (j == i) for j in range(LENGTH)) for i in range(LENGTH)]


def sign_change_frameshape(codeword: int, code: BinaryCode):
    """Frame shape and trace of the sign change supported on a codeword.

    The diagonal matrix with -1 on the support has characteristic
    polynomial (1-x)^(24-w) (1+x)^w = (1-x)^(24-2w) (1-x^2)^w.
    """
    if not code.contains(codeword):
        raise MembershipError("mask %06x is not a Golay codeword" % codeword)
    w = codeword.bit_count()
    shape = FrameShape({1: LENGTH - 2 * w, 2: w})
    return shape, LENGTH - 2 * w


# -- linear algebra helpers ---------------------------------------------------


def _integer_row_basis(gens):
    """Hermite-style reduction of integer rows to a basis of their span, in
    echelon form: each row starts, at its pivot column, with a positive
    entry, and pivot columns increase down the rows."""
    rows = [list(r) for r in gens if any(r)]
    width = len(rows[0]) if rows else 0
    basis = []
    for col in range(width):
        active = [r for r in rows if r[col] != 0]
        if not active:
            continue
        while True:
            active.sort(key=lambda r: abs(r[col]))
            piv, rest = active[0], active[1:]
            if not rest:
                break
            for r in rest:
                q = r[col] // piv[col]
                if q:
                    for j in range(width):
                        r[j] -= q * piv[j]
            active = [piv] + [r for r in rest if r[col] != 0]
            if len(active) == 1:
                break
        if piv[col] < 0:
            for j in range(width):
                piv[j] = -piv[j]
        basis.append(piv)
        rows = [r for r in rows if r is not piv and any(r)]
    return basis


_MAX_ROWS = 2**15  # child rows that one level of the shell count may create (Leech norm 20: 32,051, norm 22: 37,195)
_INT64 = 2**62  # every int64 value of a level of the shell count stays below this


def _gram(basis):
    """The integer Gram matrix of a basis given as rows of ints, as a tuple
    of tuples of Python ints, which IntegerLattice keeps: one int64 product
    B B^T when its entries are bounded below _INT64 in Python ints first,
    else sums of Python-int products."""
    m = max(max(map(abs, row)) for row in basis)
    if len(basis[0]) * m * m < _INT64:  # bounds every entry of B B^T
        B = np.array(basis, dtype=np.int64)
        return tuple(map(tuple, (B @ B.T).tolist()))
    return tuple(tuple(sum(map(mul, r, s)) for s in basis) for r in basis)


def _flag(gram):
    """The Gram-Schmidt flag of an integer Gram matrix in exact integers,
    which IntegerLattice keeps and _shells walks.

    The Gram matrix G is divided by the gcd g of its entries, so every norm
    is g times an integer.  One fraction-free bordering pass keeps det G_k
    of the leading k x k block and M = adj(G_k) G[:k, k:], whose column j
    is det G_k times the coordinates of the projection of b_j onto L_k =
    span(b_0 .. b_(k-1)).  It gives per level k: D_k, the denominator of
    those projections for j >= k (the classes of pi_(L_k)(lattice) / L_k);
    P_k = D_k p_k, p_k the coordinates of the projection of b_k; and d_k =
    |b*_k|^2 = det G_(k+1) / det G_k.  Returns g, g2 = gcd(G_ii, 2 G_ij),
    which divides every norm x G x^T, det, the last leading minor (0, with
    no levels, at the first zero one: the rows are dependent), and per level
    (D, E, a, b, c, static, P) with E = D_(k+1), h' = (a h + b u^2) / c the
    step of _shells and static = max(a, b, c, (E + D)(D + max |P|)).
    """
    g = gcd(*(v for row in gram for v in row))
    g2 = gcd(2 * g, *(row[i] for i, row in enumerate(gram)))  # 2 G_ij for all i, j has gcd 2g
    gram = [[v // (g or 1) for v in row] for row in gram]  # the zero basis (g = 0) stops at its first minor
    M, det, found = [], 1, []
    for k, row in enumerate(gram):
        w = [r[0] for r in M]  # det G_k * p_k
        v = [sum(a * r[j] for a, r in zip(row, M)) for j in range(len(gram) - k)]  # g_k . M
        bordered = row[k] * det - v[0]
        if not bordered:
            return g, g2, 0, []
        denom = det // gcd(det, *(x for r in M for x in r))
        found.append((denom, [denom * x // det for x in w], bordered, det))
        # M for k + 1 from adj G_(k+1) = [[(det G_(k+1) adj G_k + w w^T) / det G_k, -w], [-w^T, det G_k]]
        M = [[(bordered * x + a * y) // det - a * z for x, y, z in zip(r[1:], v[1:], row[k + 1:])]
             for r, a in zip(M, w)]
        M.append([det * z - y for y, z in zip(v[1:], row[k + 1:])])
        det = bordered
    levels = []
    for (D, P, e, f), (E, *_) in zip(found, found[1:] + [(1,)]):  # nothing projects onto L_n: D_n = 1
        # h in units of 1/E: h' = D (h/E + t^2 e/f), t = u/E
        a, b, c = D * E * f, D * e, f * E * E
        q = gcd(a, b, c)
        a, b, c = a // q, b // q, c // q
        static = max(a, b, c, (E + D) * (D + max(map(abs, P), default=0)))  # bounds D r + r_k P
        levels.append((D, E, a, b, c, static, P))
    return g, g2, det, levels


def _packing(D, P):
    """(P, weights, ones, add, cols, shifts, F): residues mod D packed F =
    bit_length(D) + 1 bits to a field, 63 // F fields to an int64 word.  A
    residue row times weights (k x W) is its packed words.  A field of a sum
    of two packed rows holds v < 2D; after adding `add` (2^(F-1) - D in
    every field) its top bit flags v >= D, so one shift subtracts D where it
    is set.  Residue j lies in word cols[j], shifts[j] bits up."""
    k = len(P)
    F = D.bit_length() + 1
    per = 63 // F
    j = np.arange(k)
    weights = np.zeros((k, -(-k // per)), dtype=np.int64)
    weights[j, j // per] = 1 << F * (j % per)
    P = np.array(P, dtype=np.int64).reshape(k)
    ones = weights.sum(axis=0)  # 1 at the bottom of every field
    return P, weights, ones, ((1 << F - 1) - D) * ones, j // per, F * (j % per), F


def _divmod(x, m):
    """np.divmod(x, m) for an int64 array x and an int m > 0: numpy's floor
    division by one int runs several times faster than its remainder."""
    q = x // m
    return q, x - q * m


def _shells(flag, target8: int) -> dict:
    """{norm8: count} for every scaled norm norm8 <= target8 of the vectors
    x.B of a lattice, by an exact dynamic program over its Gram-Schmidt flag
    (_flag): the coset theta functions of Conway-Sloane, SPLAG ch. 4.

    Fincke-Pohst fixes x_(n-1) first and x_0 last, and the subtree below a
    partial vector y = sum_(j>k) x_j b_j depends only on the class of its
    projection onto L_(k+1) modulo L_(k+1) and on its exact norm orthogonal
    to L_(k+1).  So a level holds states (r, h, count): r the coordinates
    of that projection times E = D_(k+1), reduced mod E; h the orthogonal
    norm in units of 1/E; count the number of y that share them.  Fixing
    x_k, with u = E x_k + r_k and t = u/E, gives the child
      h' = D_k (h/E + t^2 d_k),  r' = D_k (r_(<k)/E + t p_k) mod D_k,
    two divisions that must be exact and are checked.  The x_k range is
    exact, |u| <= isqrt((c D_k target - a h) / b): floats give the square
    root's first guess and integer tests correct it, so every child has
    h' <= D_k target, and no float decides a count.  Equal (r', h') merge by
    one lexsort over the residues packed into int64 words and h', or over
    one int64 key, h' above the fields, when they fill one word and leave
    room for h' <= D_k target.  At level 0 the states are the norms
    themselves.

    A state also merges with its mirror image: x -> -x carries the
    completions of y onto those of -y with the same norms, so (r', h') and
    (-r' mod D_k, h') have one subtree, and each child keeps the lesser of
    r' and -r' in the lexicographic order of their packed words.  That
    halves the states, near enough: Leech norm 4 takes 17,551 rows, not
    31,763, and the widest level of norm 20 fits under _MAX_ROWS.

    Every level bounds its int64 values, the flag's constants among them, in
    Python ints first and refuses past _INT64 before it packs (_packing); a
    level of more than _MAX_ROWS child rows is refused too.
    """
    g, _, _, levels = flag
    top = target8 // g
    if top < 0:
        return {}
    R = np.zeros((1, len(levels)), dtype=np.int64)
    H = np.zeros(1, dtype=np.int64)
    C = np.ones(1, dtype=np.int64)
    for k in reversed(range(len(levels))):
        D, E, a, b, c, static, P = levels[k]
        limit = c * D * top  # a h + b u^2 <= limit, |x_k| <= xmax, and a state has at most 2 xmax children
        xmax = isqrt(limit // b) // E + 1
        need = max(static, limit, xmax * max(map(abs, P), default=0), int(C.sum()) * 2 * xmax)
        if need >= _INT64:
            raise ValidationError("norm %s needs %d-bit integers, past the int64 values of the shell count"
                                  % (Fraction(target8, 8), need.bit_length()))
        P, weights, ones, add, cols, shifts, F = _packing(D, P)
        Q = (limit - a * H) // b
        s = np.sqrt(Q).astype(np.int64)
        s -= s * s > Q
        s += (s + 1) * (s + 1) <= Q  # s = isqrt(Q)
        rk = R[:, k]
        lo = -((s + rk) // E)
        width = (s - rk) // E + 1 - lo
        ends = np.cumsum(width)
        rows = int(ends[-1])  # the zero vector's state has the child x_k = 0, so there is a row
        if rows > _MAX_ROWS:
            raise ValidationError("norm %s needs about %d enumeration nodes, more than the %d allowed"
                                  % (Fraction(target8, 8), rows, _MAX_ROWS))
        parent = np.repeat(np.arange(len(width)), width)
        x = np.arange(rows) + np.repeat(lo + width - ends, width)
        u = x * E + rk[parent]
        h, h_rest = _divmod(a * H[parent] + b * u * u, c)
        base, base_rest = _divmod(D * R[:, :k] + rk[:, None] * P, E)
        if h_rest.any() or base_rest.any():
            raise ValidationError("inexact division in the shell count at level %d" % k)
        # r' = base + x P mod D in packed words (_packing), x P mod D from a table over this level's x
        first = int(lo.min())
        step = _divmod(np.multiply.outer(np.arange(first, int((lo + width).max())), P), D)[1] @ weights
        r = (_divmod(base, D)[1] @ weights)[parent] + step[x - first]
        r -= ((r + add) >> F - 1 & ones) * D
        if k:
            # -r: every field D - r_j lies in [1, D], so no field borrows, and the fold turns D into 0
            neg = D * ones - r
            neg -= ((neg + add) >> F - 1 & ones) * D
            if r.shape[1] == 1:  # the order of one word is numeric order
                r = np.minimum(r, neg)
            else:
                at = np.arange(rows), (r != neg).argmax(axis=1)  # the first word where r and -r differ
                r = np.where((neg[at] < r[at])[:, None], neg, r)
        # the sort keys: one int64, h above the fields of r, when r is one word and 0 <= h <= D top fits
        shift = k * F
        if r.shape[1] <= 1 and shift + (D * top).bit_length() <= 63:
            keys = [h << shift | r[:, 0] if k else h]
        else:
            keys, shift = [*r.T, h], 0
        order = np.lexsort(keys)
        keys = [key[order] for key in keys]
        new = np.zeros(rows, dtype=bool)
        new[0] = True
        for key in keys:
            new[1:] |= key[1:] != key[:-1]
        starts = np.flatnonzero(new)
        C = np.add.reduceat(C[parent[order]], starts)
        keys = [key[starts] for key in keys]
        R = np.column_stack(keys)[:, cols] >> shifts & (1 << F) - 1
        H = keys[-1] >> shift
    return {g * norm: count for norm, count in zip(H.tolist(), C.tolist())}
