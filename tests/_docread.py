"""Reference reader of config documents, by the two-step route.

Every number is read by ``Fraction``; each term list becomes an ExpPoly by
``ExpPoly.from_lattice`` in the document's spectral coordinates, and the
fields over one "den" list are put over it by ``ExpRational.all_over``,
which splits the denominator and multiplies each numerator by the inverse
of its unit part.  ``cli.config_from_doc`` reads the same documents in one
pass per list; the tests hold the two to structurally equal values.
"""

import json
from fractions import Fraction
from math import lcm

from nwave.exprat import ExpPoly, ExpRational, wave_constants
from nwave.wavesys import FieldConfig, parse_field_label


def poly(items, w) -> ExpPoly:
    """The term list [[[a, b], c], ...] as an ExpPoly in w's spectral coordinates."""
    terms = [(Fraction(a), Fraction(b), Fraction(c)) for (a, b), c in items]
    scale = lcm(*(f.denominator for a, b, _ in terms for f in (a, b)))
    den = lcm(*(c.denominator for _, _, c in terms))
    ints = {}
    for a, b, c in terms:
        key = (int(a * scale), int(b * scale))
        ints[key] = ints.get(key, 0) + int(c * den)
    return ExpPoly.from_lattice(scale, ints, 1, den, w)


def config(doc: dict) -> FieldConfig:
    """The configuration of a well-formed document."""
    consts = doc["constants"]
    w = wave_constants(*consts["c"], *consts["d"])
    over = {}  # "den" text -> (its terms, {field key: numerator})
    fields = {}  # in document order, filled below
    for label, body in doc["fields"].items():
        den = over.setdefault(json.dumps(body["den"]), (body["den"], {}))
        key = parse_field_label(label)
        den[1][key] = fields[key] = poly(body["num"], w)
    for den, nums in over.values():
        fields.update(zip(nums, ExpRational.all_over(nums.values(), poly(den, w))))
    return FieldConfig(doc["algebra"], w, fields)


def shape(p: ExpPoly):
    """The lattice form of p as held: (scale, sorted (key, n) pairs, content)."""
    return p._scale, sorted(p._ints.items()), p._cn, p._cd


def value_shape(v: ExpRational):
    """A value as held: its numerator's shape and its atoms' shapes, sorted."""
    return shape(v.num), sorted((shape(a), k) for a, k in v._atoms.items())
