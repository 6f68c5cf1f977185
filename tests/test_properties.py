"""Algebraic laws checked on random inputs with hypothesis."""

from fractions import Fraction as F
from math import ceil, gcd, lcm
from types import SimpleNamespace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

import numpy as np  # noqa: E402
from test_cliffordcm import dense, first_moving, first_moving_generator, oracle_form  # noqa: E402
from test_frameshape import (  # noqa: E402
    brute_eigenvalues,
    fraction_eigenvalue_pairs,
    pairing_outcome,
)
from test_qseries import (  # noqa: E402
    assert_log_derivative_matches_oracle,
    assert_text_and_residual_match_oracle,
)

from conwaymoonshine.cliffordcm import (  # noqa: E402
    DenseState,
    GolayLift,
    WordTable,
    bilinear_dense,
    reorder_sign,
)
from conwaymoonshine.cyclotomic import CycNumber, _mobius, euler_phi  # noqa: E402
from conwaymoonshine.errors import (  # noqa: E402
    NotRationalError,
    PrecisionError,
    ValidationError,
    VerificationFailure,
)
from conwaymoonshine.fockoracle import (  # noqa: E402
    TWISTED,
    UNTWISTED,
    ModeSystem,
    subset_enumeration_supertrace,
    twisted_supertrace,
    untwisted_supertrace,
)
from conwaymoonshine.frameshape import FrameShape  # noqa: E402
from conwaymoonshine.modgroups import log_eta_product  # noqa: E402
from conwaymoonshine.qseries import FracPowerSeries, combination, eta_product  # noqa: E402

exponent_maps = st.dictionaries(
    st.sampled_from([F(1, 3), F(1, 2), 1, F(3, 2), 2, 3]), st.integers(-3, 3), max_size=4
)


def valuation(exps):
    return F(sum(k * F(a) for a, k in exps.items()), 24)


@settings(max_examples=60, deadline=None)
@given(exponent_maps, exponent_maps)
def test_eta_product_is_multiplicative(e1, e2):
    total = {a: e1.get(a, 0) + e2.get(a, 0) for a in e1.keys() | e2.keys()}
    v1, v2 = valuation(e1), valuation(e2)
    product = eta_product(e1, v1 + 4) * eta_product(e2, v2 + 4)
    assert product == eta_product(total, v1 + v2 + 4)


@settings(max_examples=60, deadline=None)
@given(exponent_maps)
def test_eta_product_of_negated_map_is_inverse(exps):
    v = valuation(exps)
    negated = {a: -k for a, k in exps.items()}
    assert eta_product(negated, 4 - v) == eta_product(exps, v + 4).invert()


@settings(max_examples=100, deadline=None)
@given(exponent_maps, st.integers(1, 300))
def test_log_derivative_matches_nested_divisor_loop(exps, count):
    assert_log_derivative_matches_oracle(exps, count)


@st.composite
def cyclotomic_numbers(draw, levels=st.integers(1, 24)):
    level = draw(levels)
    weights = draw(st.lists(st.integers(-3, 3), min_size=level, max_size=level))
    return CycNumber.from_exponents(level, dict(enumerate(weights)))


rationals = st.one_of(st.integers(-6, 6), st.fractions(-3, 3, max_denominator=6))


@st.composite
def mixed_cyclotomic_numbers(draw, levels=st.integers(1, 24)):
    """Coordinates of both kinds, ints and Fractions (integral ones too)."""
    level = draw(levels)
    if draw(st.booleans()):  # reduced coordinates given directly
        return CycNumber(level, draw(st.lists(rationals, min_size=euler_phi(level),
                                              max_size=euler_phi(level))))
    weights = draw(st.lists(rationals, min_size=1, max_size=2 * level))
    return CycNumber(level, weights)


def assert_canonical(x):
    """Each coordinate an int, or a Fraction that is not integral; no float."""
    for c in x.coords:
        assert type(c) is int or (type(c) is F and c.denominator != 1), x.coords


def fraction_trace_hash(x):
    """Oracle: the hash of the normalized trace summed over Fractions."""
    n = x.level
    return hash(sum(F(c) * _mobius(n // gcd(k, n)) / euler_phi(n // gcd(k, n))
                    for k, c in enumerate(x.coords)))


@settings(max_examples=150, deadline=None)
@given(mixed_cyclotomic_numbers(), st.lists(st.integers(1, 4), min_size=1, max_size=3))
def test_mixed_coordinates_hash_and_compare_across_levels(x, factors):
    assert_canonical(x)
    assert hash(x) == fraction_trace_hash(x)
    level = x.level
    for m in factors:
        level *= m
        y = x.raise_level(level)
        assert_canonical(y)
        assert y == x and x == y and hash(y) == hash(x)


def zeta_sum(level):
    """sum_j zeta_level^j: 1 at level 1, else 0, given with int weights."""
    return CycNumber.from_exponents(level, {j: 1 for j in range(level)})


@settings(max_examples=100, deadline=None)
@given(rationals, st.integers(1, 30))
def test_rational_cyclotomic_number_hashes_like_the_rational(r, level):
    x = CycNumber.from_rational(r, level)
    assert_canonical(x)
    assert x == r and x == F(r) and hash(x) == hash(r) == hash(F(r))
    assert x.to_rational() == r and type(x.to_rational()) is F
    assert (x + zeta_sum(level)) - zeta_sum(level) == r


@settings(max_examples=100, deadline=None)
@given(cyclotomic_numbers(), st.integers(1, 5))
def test_cyclotomic_hash_is_level_independent(x, m):
    y = x.raise_level(x.level * m)
    assert x == y
    assert hash(x) == hash(y)


# levels dividing 24, so that sums and products of three stay at level 24
ring_levels = st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24])
ring_elements = cyclotomic_numbers(ring_levels)


@settings(max_examples=60, deadline=None)
@given(ring_elements, ring_elements, ring_elements)
def test_cyclotomic_ring_laws(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z  # across levels
    assert x.is_zero() or x * x.inverse() == 1


@settings(max_examples=100, deadline=None)
@given(mixed_cyclotomic_numbers(ring_levels), mixed_cyclotomic_numbers(ring_levels), rationals)
def test_arithmetic_never_makes_a_float_coordinate(x, y, r):
    results = [x + y, x - y, x * y, x * r, x + r, x.conj(), -x]
    if not x.is_zero():
        results += [x.inverse(), y / x]
    if r:
        results.append(x / r)
        assert (x / r) * r == x
    for z in results:
        assert_canonical(z)
        assert hash(z) == fraction_trace_hash(z)
    if not x.is_zero():
        assert x * x.inverse() == 1 and hash(x * x.inverse()) == hash(1)


@st.composite
def series(draw, order=4):
    """Rational series on a random grid, all valid below the same order."""
    denom = draw(st.sampled_from([1, 2, 3, 4, 6]))
    exponents = st.integers(-2 * denom, order * denom - 1)
    terms = draw(st.dictionaries(exponents, st.fractions(-5, 5, max_denominator=6), max_size=6))
    return FracPowerSeries(denom, terms, order)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 4, 6]),
    st.fractions(F(-2), F(4), max_denominator=12),
    st.dictionaries(st.integers(-12, 30), st.integers(-3, 3).filter(bool), max_size=8),
)
def test_series_bounds_at_any_order(denom, order, terms):
    # an exponent p/denom lies below `order` exactly when the Fraction
    # comparison says so, whether or not the order is on the grid
    below = {p: c for p, c in terms.items() if F(p, denom) < order}
    if below != terms:
        with pytest.raises(PrecisionError):
            FracPowerSeries(denom, terms, order)
    top = max([order, *(F(p + 1, denom) for p in terms)])
    full = FracPowerSeries(denom, terms, top)
    assert combination(((full, 1),), order).terms == below
    assert (full + FracPowerSeries(1, {}, order)).rescaled(denom).terms == below
    flipped = FracPowerSeries(denom, {p: -c for p, c in terms.items()}, top)
    assert full.agrees_with(flipped, through=order) == (not below)


@st.composite
def combination_parts(draw):
    """(series, scale) or (series, scale, 1) parts on mixed grids; a shifted
    part lies on grid 1, 2, 3 or 6, so its terms may leave (1/2)Z."""
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        shifted = draw(st.booleans())
        denom = draw(st.sampled_from([1, 2, 3, 6] if shifted else [1, 2, 3, 4, 6]))
        order = draw(st.fractions(F(-1), F(4), max_denominator=12))
        exponents = st.integers(-2 * denom, ceil(order * denom) - 1)
        terms = draw(st.dictionaries(exponents, st.fractions(-5, 5, max_denominator=6), max_size=5))
        scale = draw(st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)))
        parts.append((FracPowerSeries(denom, terms, order), scale, 1)[:3 if shifted else 2])
    return parts


def pair_merge(parts, order, constant):
    """Oracle: every (Fraction exponent, scale * coeff) pair below `order`,
    with the sign (-1)^(2r) at q^r of a shifted part, summed by
    from_fraction_terms."""
    pairs = [(F(0), constant)] if order > 0 else []
    for series, scale, *shift in parts:
        for p, c in series.terms.items():
            r = F(p, series.denom)
            if r < order:
                pairs.append((r, scale * c * (-1) ** abs(int(2 * r)) if shift else scale * c))
    return FracPowerSeries.from_fraction_terms(pairs, order)


@settings(max_examples=300, deadline=None)
@given(combination_parts(), st.fractions(F(-1), F(3), max_denominator=12),
       st.one_of(st.integers(-30, 30), st.fractions(-3, 3, max_denominator=4)))
@example(parts=[(FracPowerSeries(2, {-1: 1, 1: 2}, 1), F(1, 2), 1)], below=1, constant=24)
def test_combination_matches_pair_merge(parts, below, constant):
    """The order lies `below` under the least order of the parts; past it
    when `below` is negative."""
    order = min(series.order for series, *_ in parts) - below
    if below < 0:
        with pytest.raises(PrecisionError):
            combination(parts, order, constant)
        return
    if any(shift and 2 * p % series.denom for series, _, *shift in parts for p in series.terms):
        with pytest.raises(NotRationalError):
            combination(parts, order, constant)
        return
    got = combination(parts, order, constant)
    assert got == pair_merge(parts, order, constant) and got.order == order
    assert got.denom == lcm(*(series.denom for series, *_ in parts))


# exponent maps of degree 24: k_1 fills the degree left by the other cycles
degree_24_maps = st.dictionaries(st.integers(2, 24), st.integers(-6, 6), max_size=5).map(
    lambda exps: {**exps, 1: 24 - sum(m * k for m, k in exps.items())}
)


@settings(max_examples=200, deadline=None)
@given(degree_24_maps)
def test_divisor_sum_eigenvalues_match_brute_force(exps):
    # a shape of degree 24 is valid exactly when no eigenvalue of the
    # brute-force Fraction(j, m) multiset has a negative multiplicity, and
    # then its eigenvalues are that multiset
    brute = brute_eigenvalues(exps)
    if min(brute.values()) < 0:
        with pytest.raises(ValidationError):
            FrameShape(exps)
    else:
        assert FrameShape(exps).eigenvalues() == {t: k for t, k in brute.items() if k}


@st.composite
def valid_shape_maps(draw):
    """Exponent maps of valid shapes, every one reachable: 24 eigenvalues
    drawn as whole orbits of primitive d-th roots, then k_m read off by
    Moebius inversion of mult_d = sum_(d | m) k_m.  (degree_24_maps is
    valid on about one draw in twenty, too few to filter.)"""
    mult, room = {}, 24
    while room:
        d = draw(st.sampled_from([d for d in range(1, 37) if euler_phi(d) <= room]))
        mult[d] = mult.get(d, 0) + 1
        room -= euler_phi(d)
    exps = {m: sum(_mobius(n // m) * c for n, c in mult.items() if n % m == 0)
            for m in range(1, 37)}
    roots = {F(j, d): c for d, c in mult.items() for j in range(d) if gcd(j, d) == 1}
    assert FrameShape(exps).eigenvalues() == roots
    return exps


@settings(max_examples=200, deadline=None)
@given(st.one_of(valid_shape_maps(), degree_24_maps))
def test_divisor_sum_pairs_match_fraction_oracle(exps):
    # on valid shapes and their negations: the same 12 angles, or the same
    # PairingError message when a self-inverse eigenvalue has odd multiplicity
    if min(brute_eigenvalues(exps).values()) < 0:
        return  # not a shape: the test above covers its refusal
    shape = FrameShape(exps)
    for s in (shape, shape.negate()):
        got = pairing_outcome(FrameShape.eigenvalue_pairs, s)
        assert got == pairing_outcome(fraction_eigenvalue_pairs, s), str(s)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 48),
    st.dictionaries(
        st.integers(-96, 96),
        st.one_of(st.integers(-10**6, 10**6), st.fractions(-50, 50, max_denominator=60)),
        max_size=8,
    ),
)
def test_text_and_max_residual_match_fraction_oracle(denom, terms):
    # int and Fraction coefficients, negative exponents, the zero series
    order = F(97, denom)
    assert_text_and_residual_match_oracle(FracPowerSeries(denom, terms, order))


@settings(max_examples=60, deadline=None)
@given(series(), series(), series())
def test_series_multiplication_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(series())
def test_series_serialization_round_trips(a):
    assert FracPowerSeries.from_json(a.to_json()) == a
    assert FracPowerSeries.from_text(a.to_text()) == a


masks = st.integers(0, (1 << 24) - 1)


@settings(max_examples=300, deadline=None)
@given(masks, masks)
def test_word_tables_obey_clifford_law(c, d):
    assert WordTable(c) * WordTable(d) == WordTable(c ^ d, reorder_sign(c, d))


even_masks = masks.map(lambda m: m ^ bin(m).count("1") % 2)
signed_words = st.lists(st.tuples(even_masks, st.sampled_from((1, -1))), min_size=1, max_size=8)


@st.composite
def small_states(draw):
    """A dense state with entries in [-8, 8] on a random support, over 2^e."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    re, im = rng.integers(-8, 9, size=(2, 4096)) * (rng.random((2, 4096)) < draw(st.floats(0, 1)))
    return DenseState(re, im, draw(st.integers(0, 3)))


@settings(max_examples=60, deadline=None)
@given(signed_words, small_states())
def test_batched_images_match_word_tables(words, state):
    batch = WordTable(*zip(*words))
    re, im, shift = batch.images(state)
    for row, (cmask, sign) in enumerate(words):
        one = WordTable(cmask, sign).apply(state)
        assert one.e == state.e + shift[row, 0]
        assert np.array_equal(one.re, re[row]) and np.array_equal(one.im, im[row])
    # each shift is the smallest: the image of the all-ones state, whose entries are
    # +-2^(T + shift) or +-i 2^(T + shift), has an odd entry unless the shift is 0
    ones = DenseState(np.ones(4096, dtype=np.int64), np.zeros(4096, dtype=np.int64), 0)
    ones_re, ones_im, _ = batch.images(ones)
    assert ((shift[:, 0] == 0) | ((ones_re | ones_im) & 1).any(1)).all()


short_words = st.lists(st.tuples(
    st.sampled_from((2, 4, 6, 8)).flatmap(lambda n: st.lists(st.integers(0, 23), min_size=n, max_size=n, unique=True)),
    st.sampled_from((1, -1))), min_size=1, max_size=12)


@st.composite
def sparse_dense_states(draw):
    """A dense state with entries in [-8, 8], at most about half of them nonzero,
    over 2^e."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    re, im = rng.integers(-8, 9, size=(2, 4096)) * (rng.random(4096) < draw(st.floats(0.01, 0.5)))
    return DenseState(re, im, draw(st.integers(0, 3)))


@settings(max_examples=40, deadline=None)
@given(short_words, sparse_dense_states(), sparse_dense_states())
def test_self_adjoint_matches_forms_of_images(words, a, b):
    """A signed word e_C is self-adjoint for the form exactly when |C| is 0 mod 4, and
    otherwise its adjoint is -e_C: <W a, b> = +-<a, W b> on random states."""
    for gens, sign in words:
        word = WordTable(sum(1 << i for i in gens), sign)
        assert word.is_self_adjoint() == (len(gens) % 4 == 0)
        left, right = bilinear_dense(word.apply(a), b), bilinear_dense(a, word.apply(b))
        assert left == (right if word.is_self_adjoint() else -right)


@st.composite
def fixed_point_candidates(draw, lift, other):
    """t v times a Gaussian integer over 2^e, or t v with one entry changed or
    woken, a small random state, the other section's invariant vector, or a
    small state averaged over the words of some generators, which then fix it."""
    kind = draw(st.sampled_from(("changed", "woken", "random", "other", "averaged", "tv")))
    if kind == "random":
        return draw(small_states())
    if kind == "other":
        return other
    if kind == "averaged":  # over the span of the first lifted words in mask order
        gens, span = [], {0}
        for cmask in sorted(lift.section)[:draw(st.integers(2, 300))]:
            if cmask not in span:
                gens.append(cmask)
                span |= {c ^ cmask for c in span}
        part = GolayLift(SimpleNamespace(generators=gens), [lift.section[c] for c in gens])
        state = part.apply_t_dense(draw(small_states()))
        assume(state.nonzero_count())
        return state
    tv = lift.invariant_vector()
    x, y = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any))
    state = DenseState(x * tv.re - y * tv.im, x * tv.im + y * tv.re, tv.e + draw(st.integers(0, 2)))
    if kind != "tv":
        live = (state.re | state.im) != 0
        at = np.flatnonzero(live if kind == "changed" else ~live)
        state.re[draw(st.sampled_from(at.tolist()))] += draw(st.sampled_from((-1, 1, 5)))
    return state


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_verify_fixed_agrees_with_direct_sweep(golay, lift, data):
    """verify_fixed passes exactly when no lifted word moves the state, as a
    sweep over all 4096 words finds, and otherwise names the first generator
    in the code's order that moves it."""
    other = GolayLift(golay, (1, 1, 1, -1, -1, 1, -1, 1, 1, 1, 1, -1)).invariant_vector()
    state = data.draw(fixed_point_candidates(lift, other))
    if first_moving(lift, state) is None:
        assert lift.verify_fixed(state)
    else:
        gen = first_moving_generator(lift, state)
        with pytest.raises(VerificationFailure, match="moved by lifted %06x$" % gen):
            lift.verify_fixed(state)


sparse_states = st.dictionaries(
    st.integers(0, 4095), st.tuples(st.integers(-9, 9), st.integers(-9, 9)), max_size=6
)


@settings(max_examples=100, deadline=None)
@given(sparse_states, sparse_states)
def test_bilinear_dense_matches_oracle_form(a, b):
    b = {**b, **{0xFFF ^ m: (y, x) for m, (x, y) in a.items()}}  # so the form can be nonzero
    assert bilinear_dense(dense(a), dense(b)) == oracle_form(a, b)


@st.composite
def eigen_thetas(draw):
    """24 eigenvalues made of whole Galois orbits {k/d : gcd(k, d) = 1} at a
    level lcm(d) <= 60: closed under theta -> -theta and, beyond that, under
    theta -> k*theta for k prime to the level, so the traces are rational
    (inversion alone gives real ones: z + z^4 at level 5 is irrational)."""
    thetas, level = [], 1
    while len(thetas) < 24:
        room = 24 - len(thetas)
        d = draw(st.sampled_from([
            d for d in range(1, 61)
            if lcm(level, d) <= 60 and sum(gcd(k, d) == 1 for k in range(d)) <= room
        ]))
        level = lcm(level, d)
        thetas += [F(k, d) for k in range(d) if gcd(k, d) == 1]
    return tuple(thetas)


@settings(max_examples=40, deadline=None)
@given(
    eigen_thetas(),
    st.sampled_from([UNTWISTED, TWISTED]),
    st.sampled_from([1, F(5, 4), F(3, 2), 2, F(5, 2), 3]),
    st.integers(-4096, 4096),
)
def test_subset_enumeration_matches_mode_product(thetas, sector, budget, c_value):
    step = F(1, 2) if sector == UNTWISTED else 1
    enum = subset_enumeration_supertrace(ModeSystem(thetas, sector, budget), budget, c_value)
    assert enum.order == budget + step
    if sector == UNTWISTED:
        product = untwisted_supertrace(ModeSystem(thetas, sector, budget + step)) * c_value
    else:
        product = twisted_supertrace(ModeSystem(thetas, sector, budget), c_value)
    assert product.order == enum.order
    assert enum.agrees_with(product)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-3, 3),
    st.floats(1e-3, 2),
    st.one_of(
        st.sampled_from([{1: 1}, {2: 1}, {12: 1}]),  # one cycle length: W = 1
        st.dictionaries(st.sampled_from([d for d in range(1, 61) if 60 % d == 0]),
                        st.integers(-24, 24), min_size=1),
    ),
)
@example(0.0, 0.1, {1: 24})  # real q, every w_j = 24: the tail is W times that of one factor
def test_eta_truncation_bound_covers_the_tail(re, im, exps):
    # log prod_(j<=J) - log prod_(j<=4J) is minus the sum of w_j log(1 - u)
    # over u = q^j, J < j <= 4J.  Each such |u| is below 1e-15, so -u - u^2/2
    # is that log to within |u|^3, and summing it keeps every term's own
    # precision.  For real q and equal weights the bound is tight to below
    # one rounding, so the comparison allows 1e-12 relative.
    tau = complex(re, im)
    _, terms, bound = log_eta_product([tau], exps.items())
    j = np.arange(terms + 1, 4 * terms + 1)
    w = sum(k * (j % m == 0) for m, k in exps.items())
    u = np.exp(2j * np.pi * tau * j)
    tail = -(w * (u + u * u / 2)).sum()
    assert bound <= 1e-15
    assert abs(tail) <= bound * (1 + 1e-12)
