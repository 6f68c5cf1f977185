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
from math import exp, floor, gcd, lgamma, log, pi, prod, sqrt

import numpy as np

from .errors import MembershipError, ValidationError
from .frameshape import FrameShape

LENGTH = 24


def _popcount(x: int) -> int:
    return bin(x).count("1")


class BinaryCode:
    """A binary linear code of length 24 given by 12 generator masks."""

    def __init__(self, generators):
        self.generators = tuple(generators)
        if len(self.generators) != 12:
            raise ValidationError("expected 12 generators, got %d" % len(self.generators))
        self._echelon, self._pivots = _gf2_echelon(self.generators)
        if len(self._echelon) != 12:
            raise ValidationError("generators are not independent")
        self._words = None

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
        for row, piv in zip(self._echelon, self._pivots):
            if mask >> piv & 1:
                mask ^= row
        return mask == 0

    def weight_distribution(self) -> dict:
        dist = {}
        for w in self.words():
            k = _popcount(w)
            dist[k] = dist.get(k, 0) + 1
        return dist

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
    """Rank-24 lattice in sqrt(8)-scaled integer coordinates."""

    def __init__(self, basis):
        self.basis = tuple(tuple(int(c) for c in row) for row in basis)
        if len(self.basis) != LENGTH or any(len(r) != LENGTH for r in self.basis):
            raise ValidationError("basis must be 24 rows of 24 integers")
        # 24 pivots in 24 columns: the echelon basis is upper triangular with a
        # positive diagonal, row i pivoting on column i.  It comes from the basis
        # by unimodular row steps, so |det basis| is the product of that diagonal.
        self._echelon = _integer_row_basis(self.basis)
        if len(self._echelon) != LENGTH:
            raise ValidationError("basis rows are linearly dependent")

    def gram8(self):
        """Integer matrix of scaled dot products b_i . b_j (= 8 * Gram)."""
        return [
            [sum(a * b for a, b in zip(ri, rj)) for rj in self.basis]
            for ri in self.basis
        ]

    def gram_determinant(self) -> Fraction:
        """det Gram = (det basis)^2 / 8^24, read off the echelon diagonal."""
        det = prod(row[i] for i, row in enumerate(self._echelon))
        return Fraction(det * det, 8**LENGTH)

    def contains(self, x) -> bool:
        """Exact membership: reduce x against the integer echelon basis."""
        x = [int(c) for c in x]
        for i, row in enumerate(self._echelon):
            q = x[i] // row[i]
            if q:
                x = [a - q * c for a, c in zip(x, row)]
        return not any(x)

    def verify(self):
        """Even, determinant one, no vectors of norm below 4."""
        g8 = self.gram8()  # 8 * Gram: integral means 0 mod 8, even means 0 mod 16
        for i, row in enumerate(g8):
            if row[i] % 16:
                raise ValidationError("Gram diagonal %s is not an even integer" % Fraction(row[i], 8))
            for v in row:
                if v % 8:
                    raise ValidationError("Gram entry %s is not integral" % Fraction(v, 8))
        det = self.gram_determinant()
        if det != 1:
            raise ValidationError("Gram determinant %s != 1" % det)
        # an integral Gram matrix with even diagonal gives even norms, so 2 is the only one below 4
        if self.shell_count(2):
            raise ValidationError("unexpected vectors of norm 2")
        return True

    def shell_count(self, norm: int) -> int:
        """Number of lattice vectors of the given norm, by exhaustive
        Fincke-Pohst enumeration split into coset classes, counting exact
        integer norms (_shell_count); ValidationError when the walk is
        estimated at more than _MAX_NODES nodes."""
        return _shell_count(self.basis, 8 * norm)

    def __repr__(self):
        return "IntegerLattice(rank 24, det %s)" % self.gram_determinant()


@lru_cache(maxsize=4)
def build_leech(code: BinaryCode) -> IntegerLattice:
    """Standard Golay-code construction of the Leech lattice.

    In scaled coordinates the lattice is generated by 2*chi_C for code
    generators C, the vectors 4(e_1 + e_i) and 8 e_1, and the odd vector
    (-3, 1, ..., 1); the spanning set is reduced to a 24-row basis over Z
    and all lattice invariants are verified.
    """
    gens = []
    gens.append([-3] + [1] * 23)
    for c in code.generators:
        gens.append([2 if c >> i & 1 else 0 for i in range(LENGTH)])
    for i in range(1, LENGTH):
        row = [0] * LENGTH
        row[0] = 4
        row[i] = 4
        gens.append(row)
    first = [0] * LENGTH
    first[0] = 8
    gens.append(first)
    for g in gens:
        if not _leech_congruences(g, code):
            raise ValidationError("generator %s fails the defining congruences" % (g,))
    lat = IntegerLattice(_lll_reduce(_integer_row_basis(gens)))
    lat.verify()
    return lat


def _leech_congruences(x, code) -> bool:
    """The classical description: coordinates all congruent mod 2 (to m),
    the mod-4 pattern supported on a codeword, coordinate sum = 4m mod 8."""
    m = x[0] % 2
    if any(c % 2 != m for c in x):
        return False
    mask = sum(1 << i for i, c in enumerate(x) if (c - m) % 4 == 2)
    if not code.contains(mask):
        return False
    return sum(x) % 8 == 4 * m % 8


def coordinate_frame(lat: IntegerLattice):
    """The 24 frame vectors 8 e_i, checked to lie in the lattice and to be
    congruent mod 2*Lattice.  They are orthogonal of norm 8 by construction:
    (8 e_i . 8 e_j)/8 = 8 delta_ij."""
    frame = []
    for i in range(LENGTH):
        v = [0] * LENGTH
        v[i] = 8
        frame.append(tuple(v))
    for i, v in enumerate(frame):
        if not lat.contains(v):
            raise ValidationError("frame vector %d is not in the lattice" % i)
        # congruence mod 2*Lattice is an equivalence relation: frame[0] stands for every pair
        if i and not lat.contains([(a - b) // 2 for a, b in zip(v, frame[0])]):
            raise ValidationError("frame vectors not congruent mod doubled lattice")
    return frame


def sign_change_frameshape(codeword: int, code: BinaryCode):
    """Frame shape and trace of the sign change supported on a codeword.

    The diagonal matrix with -1 on the support has characteristic
    polynomial (1-x)^(24-w) (1+x)^w = (1-x)^(24-2w) (1-x^2)^w.
    """
    if not code.contains(codeword):
        raise MembershipError("mask %06x is not a Golay codeword" % codeword)
    w = _popcount(codeword)
    shape = FrameShape({1: LENGTH - 2 * w, 2: w})
    return shape, LENGTH - 2 * w


def apply_sign_change(codeword: int, x):
    """Act on scaled coordinates by the sign change of a codeword."""
    return tuple(-c if codeword >> i & 1 else c for i, c in enumerate(x))


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


_DELTA = 0.99  # the Lovasz constant of the deep insertions


def _lll_reduce(basis):
    """LLL with deep insertions (Schnorr-Euchner), integer row operations
    and float Gram-Schmidt data.

    Each row b_k in turn is size-reduced and then inserted at the first
    position i whose Gram-Schmidt norm exceeds the norm of b_k projected
    away from rows 0..i-1, divided by _DELTA.  Rows stay Python ints and
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
        while i < k and rest >= _DELTA * norms[i]:
            rest -= mu[k][i] ** 2 * norms[i]
            i += 1
        if i == k:
            k += 1
        else:
            b.insert(i, b.pop(k))
            norms, mu = gs()
            k = max(i, 1)
    return b


_BLOCK = 4096  # child rows that one numpy step of a walk creates at most; >= 256
_LEAF_ROWS = 512  # rows per float64 norm product of a coset fill or lookup; more make BLAS touch more memory
_SLACK = 1e-6  # relative float slack on the enumeration budget
_MAX_NODES = 1e8  # estimated nodes above which _shell_count refuses (Leech norm 8: 4.3e7, norm 10: 1.4e8)
_MAX_TABLE = 2**20  # cells of the coset-class x norm table at most (8 MiB of int64)
_EXACT = 2**53  # float64 holds every integer up to here


def _shell_count(basis, target8: int) -> int:
    """Count lattice vectors x.B with scaled norm |x.B|^2 == target8 (= 8*norm).

    Fincke-Pohst over the (LLL-reduced) basis: from the Cholesky form
    x.G.x = sum_i d_i (x_i + sum_{j>i} m_ij x_j)^2 of the Gram matrix, fix
    x_{n-1} first and x_0 last.  A block at level l holds partial vectors as
    int8 rows of their fixed coordinates x_l .. x_{n-1}; its children are
    created in arrays of at most _BLOCK rows, the parent rows past the cap
    going back on the stack.  The float bounds carry slack and only prune;
    every count is decided by exact integer norms.

    The walk is split at the level k that _split_level picks: the top walk
    fixes y = (x_k .. x_{n-1}), and the bottom coordinates then range over a
    coset of L_k = span(b_0 .. b_{k-1}) that depends only on the class of y
    (_Cosets).  Each class's coset is walked once, into a table of its exact
    norms, and each y reads off its count there.  Only half the space is
    walked at the top, since x and -x have the same norm: the y whose last
    nonzero coordinate is positive, counted twice; y = 0 adds the vectors of
    L_k itself.  At k = 0, L_0 = {0} is one class whose table holds the
    empty bottom vector, of norm 0, so each y counts when its own exact norm
    is target8; a level whose table is not exact falls back to k = 0.
    """
    if target8 < 0:
        return 0
    if target8 == 0:
        return 1
    n = len(basis)
    # |x_i| <= 127, so |(x.B)_k| <= 127 * sum_i |B_ik|: the Gram matrix is
    # exact in float64, and so, by _Cosets.fits at k = 0, where P = B, are the
    # norms of full vectors; the fallback table at k = 0 is always exact
    widest = 127 * max(sum(abs(row[k]) for row in basis) for k in range(len(basis[0])))
    if len(basis[0]) * widest * widest >= _EXACT:
        raise ValidationError("basis entries too large for exact float64 norms")
    b = np.array(basis, dtype=float)
    gram = b @ b.T  # integers, exact by the guard above
    chol = np.linalg.cholesky(gram).T
    d = np.diag(chol) ** 2
    m = chol / np.diag(chol)[:, None]
    slack = _SLACK * target8
    ints = [[int(v) for v in row] for row in gram]
    nodes = _node_estimates(d.tolist(), target8, gcd(*(v for row in ints for v in row)))
    k = _split_level(nodes)
    cosets = _Cosets(basis, ints, m, k, target8)
    if not cosets.exact:
        k, cosets = 0, _Cosets(basis, ints, m, 0, target8)
    if nodes[k] > _MAX_NODES:
        raise ValidationError(
            "norm %s needs about %.2g enumeration nodes, more than the %.0e allowed"
            % (Fraction(target8, 8), nodes[k], _MAX_NODES)
        )
    if cosets.budget % cosets.step:
        return 0  # D^2 |x|^2 is a multiple of step for every lattice vector x
    cosets.walk(m, d, slack)
    # one seed block per level `top` >= k: x_j = 0 for j > top, x_top > 0
    stack = []
    for top in range(k, n):
        first = np.arange(1, floor(sqrt((target8 + slack) / d[top])) + 1)
        if len(first) > 127:
            raise ValidationError("enumeration coordinate outside int8")
        if len(first):
            x = np.zeros((len(first), n - top), dtype=np.int8)
            x[:, 0] = first
            stack.append((top, x, target8 - d[top] * first.astype(float) ** 2, None))
    _walk(stack, m, d, slack, k, cosets.lookup)
    return 2 * cosets.count + cosets.zero_count()


def _walk(stack, m, d, slack, stop, leaf, offset=None):
    """Depth-first Fincke-Pohst from the blocks (level, x, rem, cls) on the
    stack down to level `stop`, handing each block of rows that reaches it
    to leaf(x, cls).  Row r's centres are shifted by offset[cls[r]], the
    coset it walks; cls is None on unshifted walks."""
    while stack:
        level, x, rem, cls = stack.pop()
        if level == stop:
            leaf(x, cls)
            continue
        i = level - 1
        c = x @ m[i, level : level + x.shape[1]]
        if offset is not None:
            c += offset[cls, i]
        half = np.sqrt(np.maximum(rem + slack, 0.0) / d[i])
        lo = np.ceil(-half - c)
        width = np.maximum(np.floor(half - c) - lo + 1, 0).astype(np.int64)
        if width.max() > 255:
            raise ValidationError("enumeration coordinate outside int8")
        ends = np.cumsum(width)
        rows = int(np.searchsorted(ends, _BLOCK, side="right"))  # >= 1: a row has < 256 children
        if rows < len(x):
            stack.append((level, x[rows:], rem[rows:], None if cls is None else cls[rows:]))
        total = int(ends[rows - 1])
        if not total:
            continue
        parent = np.repeat(np.arange(rows), width[:rows])
        xi = lo[parent] + np.arange(total) - np.repeat(ends[:rows] - width[:rows], width[:rows])
        if xi.min() < -127 or xi.max() > 127:
            raise ValidationError("enumeration coordinate outside int8")
        t = xi + c[parent]
        child = np.empty((total, x.shape[1] + 1), dtype=np.int8)
        child[:, 0] = xi
        child[:, 1:] = x[parent]
        stack.append((i, child, rem[parent] - d[i] * t * t, None if cls is None else cls[parent]))


def _ball(dim: int, r2: float) -> float:
    """Volume of the dim-dimensional ball of squared radius r2."""
    return exp(dim / 2 * log(pi * r2) - lgamma(dim / 2 + 1))


def _node_estimates(d, target8, scale):
    """Gaussian-heuristic count of the nodes walked when splitting at each
    level k = 0 .. n-1.  Level l of the top walk holds about N_l = ball(n-l)
    / sqrt(d_l ... d_{n-1}) nodes, half of them walked; the bottom walks
    one coset per class, at most min(classes, N_k / 2) of them, of about
    sum_{l<k} ball(k-l) / sqrt(d_l ... d_{k-1}) nodes each.  L_k has at most
    d_0 ... d_{k-1} / scale^k classes, scale being the gcd of the Gram
    entries; Leech's 8 * unimodular form reaches that bound."""
    n = len(d)
    logd = [0.0]
    for v in d:
        logd.append(logd[-1] + log(v))  # logd[l] = log(d_0 ... d_{l-1})
    level = [_ball(n - l, target8) * exp((logd[l] - logd[n]) / 2) for l in range(n)]
    out = []
    for k in range(n):
        nodes = sum(level[k:]) / 2
        if k:
            classes = exp(logd[k] - k * log(scale))
            coset = sum(_ball(k - l, target8) * exp((logd[l] - logd[k]) / 2) for l in range(k))
            nodes += min(classes, level[k] / 2) * coset
        out.append(nodes)
    return out


def _split_level(nodes) -> int:
    """The split level with the fewest estimated nodes."""
    return min(range(len(nodes)), key=nodes.__getitem__)


def _scaled_solve(gram, k):
    """(det, M) with det = det G_kk and M = det * G_kk^-1 G_kt, G_kk the
    leading k x k block of the integer Gram matrix and G_kt the rest of its
    first k rows: fraction-free Gauss-Jordan elimination, whose divisions are
    exact.  G_kk is positive definite, so each leading minor is a nonzero
    pivot."""
    rows = [list(r) for r in gram[:k]]
    prev = 1
    for c in range(k):
        piv = rows[c]
        for r in range(k):
            if r != c:
                f = rows[r][c]
                rows[r] = [(piv[c] * u - f * v) // prev for u, v in zip(rows[r], piv)]
        prev = piv[c]
    return prev, [row[k:] for row in rows]


class _Cosets:
    """The classes of top vectors y at split level k, and the exact norms of
    their cosets.

    With A = D G_kk^-1 G_kt integral, a lattice vector with bottom u and top
    y is ((D u + A y).B_k + y.P) / D, where P = D B_t - A^T B_k is D times
    the part of the top rows orthogonal to L_k.  So D^2 times its norm is
    |(D u + A y).B_k|^2 + |y.P|^2, a sum of two integers, and y names the
    coset D Z^k + A y by its class, the residues r = A y mod D.  A class is
    coded as the integer sum_i r_i D^i; the classes form the group
    A Z^(n-k) + D Z^k mod D, listed from an echelon basis of that group.
    table[c * width + h // step] counts the u with |(D u + r).B_k|^2 = h <=
    D^2 target8 in class c, and top vector y counts table[class(y) * width
    + key // step], key = D^2 target8 - |y.P|^2.  Every h is r.G_kk.r plus
    a multiple of step, and so is every key when step divides D^2 target8,
    so a slot never mixes two norms; when step does not divide it, no
    lattice vector has the target norm.  Keys past the table count nothing.
    At k = 0 the bottom is empty: one class, one cell for the norm 0, so a
    top vector counts exactly when its key is 0.
    """

    def __init__(self, basis, gram, m, k, target8):
        n = len(basis)
        det, scaled = _scaled_solve(gram, k)
        g = gcd(det, *(v for row in scaled for v in row))
        self.D = D = det // g
        A = [[v // g for v in row] for row in scaled]
        low = basis[:k]
        P = [[D * v for v in row] for row in basis[k:]]
        for a, row in zip(A, low):
            P = [[u - f * v for u, v in zip(p, row)] for p, f in zip(P, a)]
        # |x_i| <= 127 bounds every partial sum of |y.P|^2, |(D u + r).B_k|^2, A y and the class code
        top_sum = sum((127 * sum(map(abs, col))) ** 2 for col in zip(*P))
        low_sum = sum((128 * D * sum(map(abs, col))) ** 2 for col in zip(*low))
        fits = max(top_sum, low_sum, D**k, 127 * (n - k) * D) < _EXACT
        # x.G.x is a multiple of `even` for every x, and u.G_kk.r of the gcd of G_kk
        even = gcd(*(row[i] for i, row in enumerate(gram)), *(2 * gcd(*row) for row in gram))
        self.step = gcd(D * D * even, 2 * D * gcd(*(v for row in gram[:k] for v in row[:k])))
        self.target8, self.budget = target8, D * D * target8
        self.width = (self.budget if k else 0) // self.step + 1
        residues = [[v % D for v in col] for col in zip(*A)]  # row j: A e_j mod D
        group = _integer_row_basis(residues + [[D * (i == j) for j in range(k)] for i in range(k)])
        classes = prod(D // row[i] for i, row in enumerate(group))
        self.exact = fits and classes * self.width <= _MAX_TABLE
        if not self.exact:
            return
        reps = np.zeros((1, k), dtype=np.int64)
        for i, row in enumerate(group):
            digits = np.arange(D // row[i])[:, None, None]
            reps = ((reps + digits * np.array(row)) % D).reshape(-1, k)
        self.weights = D ** np.arange(k, dtype=float)
        codes = reps @ self.weights
        order = sorted(range(classes), key=codes.__getitem__)
        self.codes, reps = codes[order], reps[order]  # code 0, the class of L_k itself, comes first
        # the coset of -r is minus the coset of r: walk the first class of each pair
        self.pair = np.minimum(np.arange(classes), np.searchsorted(self.codes, (-reps % D) @ self.weights))
        self.offset = reps @ m[:k, :k].T / D  # the coset's shift of the walk's centres
        low = np.array(low, dtype=float).reshape(k, len(basis[0]))
        self.low = D * low
        self.shift = reps.astype(float) @ low  # r.B_k
        self.top = np.hstack([np.array(P, dtype=float), np.array(residues, dtype=float).reshape(n - k, k)])
        self.table = np.zeros(classes * self.width, dtype=np.int64)
        self.count = 0
        self.k = k

    def walk(self, m, d, slack):
        """Walk the coset of every class once, with the full budget, into table."""
        walked = np.flatnonzero(self.pair == np.arange(len(self.pair)))
        rem = np.full(len(walked), float(self.target8))
        seed = (self.k, np.zeros((len(walked), 0), dtype=np.int8), rem, walked)
        _walk([seed], m, d, slack, 0, self._fill, self.offset)
        self.table = self.table.reshape(len(self.pair), -1)[self.pair].ravel()

    def _fill(self, x, cls):
        for s in range(0, len(x), _LEAF_ROWS):
            c = cls[s : s + _LEAF_ROWS]
            v = x[s : s + _LEAF_ROWS] @ self.low + self.shift[c]
            h = np.einsum("ij,ij->i", v, v).astype(np.int64)
            keep = h <= self.budget
            self.table += np.bincount(c[keep] * self.width + h[keep] // self.step, minlength=len(self.table))

    def lookup(self, y, _):
        """Add the counts of the top vectors y (rows x_k .. x_{n-1})."""
        ncols = self.shift.shape[1]
        for s in range(0, len(y), _LEAF_ROWS):
            z = y[s : s + _LEAF_ROWS] @ self.top
            w, a = z[:, :ncols], z[:, ncols:]  # y.P and A y
            key = self.budget - np.einsum("ij,ij->i", w, w).astype(np.int64)
            cls = np.searchsorted(self.codes, (a - self.D * np.floor(a / self.D)) @ self.weights)
            hit = (key >= 0) & (key < self.width * self.step)
            self.count += int(self.table[cls[hit] * self.width + key[hit] // self.step].sum())

    def zero_count(self) -> int:
        """The vectors of L_k itself with the target norm: y = 0, class 0;
        none at k = 0, where L_0 = {0} and the slot lies past the table."""
        slot = self.budget // self.step
        return int(self.table[slot]) if slot < self.width else 0
