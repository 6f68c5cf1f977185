import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import conwaymoonshine
from conwaymoonshine.classdata import lookup, registry
from conwaymoonshine.cliffordcm import spinor_supertrace_closed
from conwaymoonshine.errors import NotFoundError, ValidationError
from conwaymoonshine.frameshape import parse
from conwaymoonshine.modgroups import parse_label
from conwaymoonshine.moonshine import derived_partner


def test_registry_size_and_uniqueness():
    rows = registry()
    assert len(rows) == 90
    assert len({r.co0_name for r in rows}) == 90


def test_lookup_2a():
    rec = lookup("2A")
    assert rec.frame_shape == parse("2^24/1^24")
    assert rec.c_hat_g == 4096
    assert rec.gamma_tw_label == "2-"
    assert rec.monster_class == "2B"


def test_lookup_6c():
    rec = lookup("6C")
    assert rec.frame_shape == parse("1^3.6^9/2^3.3^9")
    assert rec.c_hat_g == -8
    assert rec.gamma_tw_label == "6-"
    assert rec.monster_class == "6E"


def test_lookup_unknown_name():
    with pytest.raises(NotFoundError):
        lookup("1Z")


def test_every_row_is_fixed_point_free():
    for rec in registry():
        assert rec.frame_shape.fixed_points() == 0
        assert rec.c_hat_g != 0


def test_every_label_parses():
    for rec in registry():
        assert str(parse_label(rec.gamma_tw_label)) == rec.gamma_tw_label


def test_shared_co1_rows_are_negation_pairs():
    by_co1 = {}
    for rec in registry():
        by_co1.setdefault(rec.co1_name, []).append(rec)
    shared = {k: v for k, v in by_co1.items() if len(v) > 1}
    # known exchanged pairs include 5A/10A, 7A/14A, 9A/18A
    for want in ("5A", "7A", "9A"):
        assert want in shared
    for name, rows in shared.items():
        assert len(rows) == 2, name
        a, b = rows
        assert a.frame_shape.negate() == b.frame_shape, name


def test_trace_square_identity():
    # |str|^2 equals the formal product of the shape, a strong audit of
    # both the shapes and the tabulated scalars
    for rec in registry():
        num, den = 1, 1
        for m, k in rec.frame_shape.exps.items():
            if k > 0:
                num *= m**k
            else:
                den *= m**-k
        assert num == rec.c_hat_g * rec.c_hat_g * den, rec.co0_name


def test_derived_partner_3a():
    rec = lookup("3A")
    shape, scalar = derived_partner(rec)
    assert shape == parse("1^12.6^12/2^12.3^12")
    assert scalar == lookup("6A").c_hat_g == 1
    closed = spinor_supertrace_closed(shape.eigenvalue_pairs())
    assert abs(scalar) == abs(closed.to_rational())


def test_derived_partner_2a_vanishes():
    shape, scalar = derived_partner(lookup("2A"))
    assert shape == parse("1^24")
    assert scalar == 0


def test_derived_partner_refuses_a_wrong_scalar():
    """Negative control: with a tabulated C off by one or more, the solved
    partner scalar leaves a nonzero lemma residual and no partner is derived."""
    for name, c_hat_g in (("3A", 730), ("2A", 4095), ("6C", -6)):
        with pytest.raises(ValidationError,
                           match="eta identity residual nonzero while deriving partner of %s" % name):
            derived_partner(replace(lookup(name), c_hat_g=c_hat_g))


def test_classdata_is_a_leaf_module():
    """Loading the registry imports nothing that builds series."""
    probe = ("import sys; import conwaymoonshine.classdata as c; c.registry(); "
             "print('conwaymoonshine.moonshine' in sys.modules)")
    src = str(Path(conwaymoonshine.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60, check=True)
    assert run.stdout.strip() == "False"


def test_partner_scalar_matches_paired_row():
    """A second, independent source for the partner scalars: for each of the 65 rows whose
    negated shape is a row (22 pairs that share a Co1 class, and 21 self-negating shapes), the
    scalar solved from the eta identity is that row's C.  The other 25 partners have fixed points."""
    by_shape = {rec.frame_shape: rec for rec in registry()}
    rows = [rec for rec in registry() if rec.frame_shape.negate() in by_shape]
    assert len(rows) == 65
    for rec in rows:
        shape, scalar = derived_partner(rec)
        assert scalar == by_shape[shape].c_hat_g, (rec.co0_name, by_shape[shape].co0_name)
    assert all(rec.frame_shape.negate().fixed_points() for rec in registry() if rec not in rows)
