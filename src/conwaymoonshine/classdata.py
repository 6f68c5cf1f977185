"""Registry of the fixed-point-free Conway classes and their twisted data.

One row per class: names in the full group and its simple quotient, the
Frame shape, the tabulated spinor super trace, the invariance-group label
of the twisted trace function, and the matching monster class.  The table
ships as a checked-in CSV (data/tsgtw_table.csv) parsed at first use; every
row is validated on load (degree 24, genuine eigenvalue multiset, no fixed
points).

Untwisted-side constants for the partner -g are never tabulated here;
moonshine.derived_partner derives them: the Frame shape by negation, the
scalar by solving the five-term eta identity.  On the 65 rows whose negated
shape is itself a row, the tests check that scalar against the row's
tabulated one (test_partner_scalar_matches_paired_row).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .errors import NotFoundError, ValidationError
from .frameshape import FrameShape, parse as parse_shape


@dataclass(frozen=True)
class ConjugacyClassRecord:
    co0_name: str
    co1_name: str
    frame_shape: FrameShape
    c_hat_g: int
    gamma_tw_label: str
    monster_class: str

    def to_json(self) -> dict:
        return {
            "co0": self.co0_name,
            "co1": self.co1_name,
            "frame_shape": str(self.frame_shape),
            "c_hat_g": self.c_hat_g,
            "label": self.gamma_tw_label,
            "monster": self.monster_class,
        }


@lru_cache(maxsize=1)
def registry() -> tuple:
    """All table rows, in table order, validated."""
    text = resources.files("conwaymoonshine.data").joinpath("tsgtw_table.csv").read_text()
    rows = []
    for raw in csv.DictReader(text.splitlines()):
        shape = parse_shape(raw["frame_shape"])
        if shape.fixed_points() != 0:
            raise ValidationError(
                "registry row %s is not fixed-point-free" % raw["co0"]
            )
        rows.append(
            ConjugacyClassRecord(
                co0_name=raw["co0"],
                co1_name=raw["co1"],
                frame_shape=shape,
                c_hat_g=int(raw["c_hat_g"]),
                gamma_tw_label=raw["label"],
                monster_class=raw["monster"],
            )
        )
    if len({r.co0_name for r in rows}) != len(rows):
        raise ValidationError("duplicate class names in registry")
    return tuple(rows)


def lookup(name: str) -> ConjugacyClassRecord:
    """Row by class name in the full Conway group (e.g. "6C", "46AB")."""
    for rec in registry():
        if rec.co0_name == name:
            return rec
    near = [r.co0_name for r in registry() if r.co0_name.rstrip("ABCDEFGHIJKLR") == name.rstrip("ABCDEFGHIJKLR")]
    raise NotFoundError(name, near[:6])

