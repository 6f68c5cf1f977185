import itertools
from fractions import Fraction as F
from math import lcm

import pytest

from conwaymoonshine import fockoracle
from conwaymoonshine.classdata import lookup, registry
from conwaymoonshine.cyclotomic import CycNumber
from conwaymoonshine.errors import NotRationalError, ValidationError
from conwaymoonshine.fockoracle import (
    ModeSystem,
    TWISTED,
    UNTWISTED,
    subset_enumeration_supertrace,
    twisted_supertrace,
    untwisted_supertrace,
)
from conwaymoonshine.frameshape import parse
from conwaymoonshine.moonshine import T_s, derived_partner, t_tilde
from conwaymoonshine.qseries import FracPowerSeries as S
from test_qseries import monomial, shifted

IDENT = parse("1^24")
ORACLE_CLASSES = ("2A", "3A", "4A", "6C")


def test_identity_untwisted_low_coefficients():
    ms = ModeSystem.from_shape(IDENT, UNTWISTED, 3)
    s = untwisted_supertrace(ms)
    assert s.coeff(F(-1, 2)) == 1
    assert s.coeff(0) == -24  # 24 single modes at energy 1/2, odd parity
    assert s.coeff(F(1, 2)) == 276  # pairs of half-modes, even parity


def test_identity_twisted_vanishes():
    ms = ModeSystem.from_shape(IDENT, TWISTED, 4)
    assert twisted_supertrace(ms, 0).is_zero()


def test_untwisted_matches_eta_formula_for_named_classes():
    for name in ORACLE_CLASSES:
        pi = lookup(name).frame_shape
        ms = ModeSystem.from_shape(pi, UNTWISTED, 6)
        assert untwisted_supertrace(ms).agrees_with(t_tilde(pi, 6)), name


def test_untwisted_matches_eta_formula_for_identity():
    ms = ModeSystem.from_shape(IDENT, UNTWISTED, 6)
    assert untwisted_supertrace(ms).agrees_with(t_tilde(IDENT, 6))


def test_eigenvalues_not_closed_under_inversion_are_not_rational():
    # 24 copies of e^(2*pi*i/3) without their conjugates: the mode product
    # has non-real coefficients, which a rational series cannot hold
    with pytest.raises(NotRationalError):
        untwisted_supertrace(ModeSystem((F(1, 3),) * 24, UNTWISTED, F(2)))


def test_twisted_matches_scaled_eta():
    for name in ORACLE_CLASSES:
        rec = lookup(name)
        ms = ModeSystem.from_shape(rec.frame_shape, TWISTED, 6)
        oracle = twisted_supertrace(ms, rec.c_hat_g)
        formula = rec.frame_shape.eta_quotient(1, 7) * rec.c_hat_g
        assert oracle.agrees_with(formula), name


def test_twisted_2a_explicit_product():
    ms = ModeSystem.from_shape(lookup("2A").frame_shape, TWISTED, 6)
    oracle = twisted_supertrace(ms, 4096)
    prod = monomial(1, 0, 6)
    for n in range(1, 6):
        prod = prod * (monomial(1, 0, 6) + monomial(1, n, 6)) ** 24
    assert oracle.agrees_with(shifted(prod, 1) * 4096)


def test_twisted_valuation_anchor():
    for name in ORACLE_CLASSES:
        rec = lookup(name)
        ms = ModeSystem.from_shape(rec.frame_shape, TWISTED, 4)
        assert twisted_supertrace(ms, rec.c_hat_g).valuation() == 1


def assemble_supertrace(g_data, neg_data, max_degree, twisted=False):
    """Graded super trace on the faithful Z/2-orbifold module A^0 + A^1_tw,
    from mode products: the orbifold oracle of the tests below.

    g_data, neg_data: pairs (ModeSystem eigenvalues as tuple/shape thetas,
    zero-mode scalar) for the element and for its product with the central
    involution (eigenvalues times -1).  `twisted` selects the
    canonically-twisted partner.  All four constituent traces are mode
    products; nothing is taken from the eta formulas.
    """
    max_degree = F(max_degree)
    (thetas_g, c_g) = g_data
    (thetas_n, c_n) = neg_data
    ms_g = ModeSystem(tuple(thetas_g), UNTWISTED, max_degree)
    ms_n = ModeSystem(tuple(thetas_n), UNTWISTED, max_degree)
    tg = untwisted_supertrace(ms_g)
    tn = untwisted_supertrace(ms_n)
    tg_tw = twisted_supertrace(ModeSystem(tuple(thetas_g), TWISTED, max_degree), c_g)
    tn_tw = twisted_supertrace(ModeSystem(tuple(thetas_n), TWISTED, max_degree), c_n)
    combo = (tg + tn + tg_tw - tn_tw) if not twisted else (tg - tn + tg_tw + tn_tw)
    return combo * F(1, 2)


def _assembly_data(rec, degree):
    g_thetas = ModeSystem.from_shape(rec.frame_shape, UNTWISTED, degree).eigen_thetas
    partner_shape, partner_c = derived_partner(rec)
    n_thetas = ModeSystem.from_shape(partner_shape, UNTWISTED, degree).eigen_thetas
    return (g_thetas, rec.c_hat_g), (n_thetas, partner_c)


def test_assemble_identity_class_matches_t2b_expansion():
    thetas_e = ModeSystem.from_shape(IDENT, UNTWISTED, 4).eigen_thetas
    thetas_z = ModeSystem.from_shape(parse("2^24/1^24"), UNTWISTED, 4).eigen_thetas
    series = assemble_supertrace((thetas_e, 0), (thetas_z, 4096), 4)
    assert series.coeff(F(-1, 2)) == 1
    assert series.coeff(0) == 0
    assert series.coeff(F(1, 2)) == 276
    assert series.coeff(1) == -2048


def test_module_weight_one_space_has_dimension_276():
    thetas_e = ModeSystem.from_shape(IDENT, UNTWISTED, 2).eigen_thetas
    thetas_z = ModeSystem.from_shape(parse("2^24/1^24"), UNTWISTED, 2).eigen_thetas
    series = assemble_supertrace((thetas_e, 0), (thetas_z, 4096), 2)
    # L(0) = 1 sits at exponent 1/2; the graded piece is a Lie algebra of
    # dimension 276 and is purely even
    assert series.coeff(F(1, 2)) == 276


def test_assemble_constant_term_vanishes_for_all_registry_classes():
    for rec in registry():
        g_data, n_data = _assembly_data(rec, 1)
        series = assemble_supertrace(g_data, n_data, 1)
        assert series.coeff(0) == 0, rec.co0_name


def test_assemble_equals_closed_form_trace():
    for name in ("2A", "3A", "6C", "12A"):
        rec = lookup(name)
        g_data, n_data = _assembly_data(rec, 4)
        series = assemble_supertrace(g_data, n_data, 4)
        assert series.agrees_with(T_s(rec.frame_shape, 4)), name


def test_projection_identity():
    # the two orbifold summand pairs tile A + A_tw: main + twisted parts
    # recover the plain sector super traces
    rec = lookup("3A")
    g_data, n_data = _assembly_data(rec, 3)
    main = assemble_supertrace(g_data, n_data, 3)
    tw = assemble_supertrace(g_data, n_data, 3, twisted=True)
    ms_u = ModeSystem(g_data[0], UNTWISTED, F(3))
    ms_t = ModeSystem(g_data[0], TWISTED, F(3))
    total = untwisted_supertrace(ms_u) + twisted_supertrace(ms_t, rec.c_hat_g)
    assert (main + tw).agrees_with(total)


def test_subset_enumeration_matches_mode_product_untwisted():
    for name in ("2A", "3A", "4A", "6C"):
        pi = lookup(name).frame_shape
        ms = ModeSystem.from_shape(pi, UNTWISTED, 3)
        enum = subset_enumeration_supertrace(ms, budget=3)
        assert enum.agrees_with(untwisted_supertrace(ms)), name
    ms = ModeSystem.from_shape(IDENT, UNTWISTED, 3)
    assert subset_enumeration_supertrace(ms, budget=3).agrees_with(
        untwisted_supertrace(ms)
    )


def test_subset_enumeration_budget_4_matches_mode_product():
    # 8,116,550 states per walk, from two half-lists of 66,451 subsets each
    for pi in (IDENT, lookup("6C").frame_shape):
        ms = ModeSystem.from_shape(pi, UNTWISTED, 4)
        enum = subset_enumeration_supertrace(ms, budget=4)
        assert enum.order == F(9, 2)
        assert enum.agrees_with(untwisted_supertrace(ms)), str(pi)


def test_subset_enumeration_matches_mode_product_twisted():
    for name in ("2A", "3A", "4A", "6C"):
        rec = lookup(name)
        ms = ModeSystem.from_shape(rec.frame_shape, TWISTED, 3)
        enum = subset_enumeration_supertrace(ms, budget=3, c_value=rec.c_hat_g)
        assert enum.agrees_with(twisted_supertrace(ms, rec.c_hat_g)), name


def test_subset_enumeration_at_level_84():
    # 84A's eigenvalues need level 84, the registry's largest and above the
    # playlist's (at most 6): a state's fused key runs to energy * stride
    # plus a power sum up to bound * 83 before the sums are folded mod 84
    rec = lookup("84A")
    ms = ModeSystem.from_shape(rec.frame_shape, UNTWISTED, 3)
    enum = subset_enumeration_supertrace(ms, budget=3)
    assert enum.agrees_with(untwisted_supertrace(ms)) and not enum.is_zero()
    ms = ModeSystem.from_shape(rec.frame_shape, TWISTED, 3)
    for c_value in (rec.c_hat_g, -7):
        enum = subset_enumeration_supertrace(ms, budget=3, c_value=c_value)
        assert enum.agrees_with(twisted_supertrace(ms, c_value)) and not enum.is_zero()


def test_subset_enumeration_off_grid_budget_reaches_its_order():
    # the enumeration is valid below budget + one grid step; an off-grid
    # budget must not drop the states between the budget and that order
    ms = ModeSystem.from_shape(IDENT, UNTWISTED, 2)
    enum = subset_enumeration_supertrace(ms, budget=F(5, 4))
    assert enum.order == F(7, 4) and enum.coeff(F(3, 2)) == 11202
    assert enum.agrees_with(untwisted_supertrace(ms))
    ms = ModeSystem.from_shape(IDENT, TWISTED, 3)
    enum = subset_enumeration_supertrace(ms, budget=F(5, 2))
    assert enum.order == F(7, 2)
    assert enum.agrees_with(twisted_supertrace(ms, 1))


def test_subset_enumeration_refuses_a_budget_at_or_below_zero():
    # such a budget puts the order at or below the sector's anchor, where no
    # state is counted; it is refused as ModeSystem refuses max_degree <= 0
    for sector, budgets in ((UNTWISTED, (0, -1, -3)), (TWISTED, (0, F(-1, 2)))):
        ms = ModeSystem.from_shape(IDENT, sector, 1)
        for budget in budgets:
            with pytest.raises(ValidationError):
                subset_enumeration_supertrace(ms, budget=budget)


def _plain_enumeration(ms, budget, c_value):
    """The super trace below budget + one grid step, by listing the states
    as itertools.combinations of modes (energy, root-of-unity power), with
    energies in grid steps: 2r for q-energy r untwisted, r twisted."""
    anchor, step = (F(-1, 2), F(1, 2)) if ms.sector == UNTWISTED else (F(1), F(1))
    order = F(budget) + step
    top = (order - anchor) / step  # a state's energies must sum below this
    level = lcm(*(t.denominator for t in ms.eigen_thetas))
    energies = range(1, int(top) + 1, 2) if ms.sector == UNTWISTED else range(1, int(top) + 1)
    modes = [(x, int(t * level)) for x in energies for t in ms.eigen_thetas]
    ledger = {}  # energy -> {power sum: signed count}
    for size in range(int(top) + 1):
        # every mode has energy >= 1, so a state of this size holds only
        # modes below top - (size - 1)
        fits = [m for m in modes if m[0] < top - (size - 1)]
        for state in itertools.combinations(fits, size):
            energy = sum(x for x, _ in state)
            if energy < top:
                row = ledger.setdefault(energy, {})
                power = sum(z for _, z in state) % level
                row[power] = row.get(power, 0) + (-1) ** size
    pairs = [
        (anchor + x * step, CycNumber.from_exponents(level, row).to_rational() * c_value)
        for x, row in ledger.items()
    ]
    return S.from_fraction_terms(pairs, order)


def test_subset_enumeration_matches_plain_python_enumeration():
    # an oracle for the oracle: every state listed one by one, with no
    # numpy, no half-lists and no keys; 84A has the registry's largest
    # level, 84, so the walk's fused keys are largest there
    for name in ("3A", "84A"):
        rec = lookup(name)
        for sector, budgets in ((UNTWISTED, (1, F(3, 2))), (TWISTED, (1, F(3, 2), 3))):
            ms = ModeSystem.from_shape(rec.frame_shape, sector, 1)
            c_value = 1 if sector == UNTWISTED else rec.c_hat_g
            for budget in budgets:
                enum = subset_enumeration_supertrace(ms, budget=budget, c_value=c_value)
                plain = _plain_enumeration(ms, budget, c_value)
                assert enum == plain and not enum.is_zero(), (name, sector, budget)


@pytest.mark.parametrize("budget, states", [(3, 861_127), (4, 8_116_550)])
def test_subset_enumeration_forms_each_state_once(monkeypatch, budget, states):
    # every state is one key in one bincount chunk: the chunk lengths sum to
    # the number of states (a convolution of the two halves' histograms
    # would count far fewer entries), and no chunk outgrows one _BLOCK
    lengths = []
    bincount = fockoracle.np.bincount

    def spy(keys, *args, **kwargs):
        lengths.append(len(keys))
        return bincount(keys, *args, **kwargs)

    monkeypatch.setattr(fockoracle.np, "bincount", spy)
    subset_enumeration_supertrace(ModeSystem.from_shape(IDENT, UNTWISTED, budget), budget)
    assert sum(lengths) == states
    assert max(lengths) <= fockoracle._BLOCK


def test_subset_enumeration_negative_control():
    # one eigenvalue of 3A (with its conjugate, so the trace stays rational)
    # moved to 1: the walk follows the changed eigenvalues and so disagrees
    # with the unchanged mode product
    thetas = list(ModeSystem.from_shape(lookup("3A").frame_shape, UNTWISTED, 3).eigen_thetas)
    ms = ModeSystem(tuple(thetas), UNTWISTED, F(3))
    thetas[0] = thetas[-1] = F(0)
    changed = ModeSystem(tuple(thetas), UNTWISTED, F(3))
    enum = subset_enumeration_supertrace(changed, budget=3)
    assert not enum.agrees_with(untwisted_supertrace(ms))
    assert enum.agrees_with(untwisted_supertrace(changed))


def test_mode_system_validation():
    with pytest.raises(Exception):
        ModeSystem((F(0),) * 23, UNTWISTED, F(3))
    with pytest.raises(Exception):
        ModeSystem.from_shape(IDENT, "sideways", 3)
    # a float angle is refused when the system is built: Fraction(0.1) has
    # denominator 2^55, which would become the ledger's level
    for thetas in ((0.1,) * 24, (F(1, 2),) * 23 + (0.5,)):
        with pytest.raises(ValidationError, match="ints or Fractions"):
            ModeSystem(thetas, UNTWISTED, 1)
    ints = untwisted_supertrace(ModeSystem((0,) * 24, UNTWISTED, F(3)))  # int angles are exact too
    assert ints.agrees_with(untwisted_supertrace(ModeSystem((F(0),) * 24, UNTWISTED, F(3))))
