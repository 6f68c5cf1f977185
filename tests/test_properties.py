"""Algebraic laws checked on random inputs with hypothesis."""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conwaymoonshine.qseries import eta_product  # noqa: E402

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
