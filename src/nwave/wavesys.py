"""Static models of the three rank-2 interacting-wave systems.

Each algebra (A2, B2, G2) is encoded as data: its positive roots and the
bilinear first-order system — one equation

    D_{p,q} f^s_{p.q} = sum_k  coef_k * f_{A_k} * f_{B_k}

per signed root.  Keeping the equations as data means the verifier and the
transformation engine share a single source of truth.

``residual`` is the one per-equation exact check.  The fields of a tau
solution are N_k/tau with one tau, so there it checks each equation in
Hirota's bilinear form: multiplied by tau^2 the equation reads

    D(N_lhs)*tau - N_lhs*D(tau) - sum_k coef_k * N_{A_k} * N_{B_k} = 0,

a polynomial identity in which tau*tau never appears.  Fields with
different denominators are combined as quotients instead.

The exchanges at the end are signed root maps under which an equation set
is symmetric; ``transforms`` conjugates its maps by them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .exprat import ExpPoly, ExpRational, WaveConstants, sum_of_products

Root = Tuple[int, int]
#: A signed field key: (sign, (p, q)) with sign in {+1, -1} naming f^sign_{p.q}.
FieldKey = Tuple[int, Root]

PLUS, MINUS = 1, -1


def field_label(key: FieldKey) -> str:
    s, (p, q) = key
    return f"f{'+' if s > 0 else '-'}{p}.{q}"


def parse_field_label(label: str) -> FieldKey:
    """Inverse of field_label: any other spelling of a key is refused."""
    try:
        p, q = label[2:].split(".")
        key = (PLUS if label[1:2] == "+" else MINUS, (int(p), int(q)))
    except ValueError:
        key = None
    if key is None or field_label(key) != label:
        raise ValueError(f"bad field label: {label!r}")
    return key


@dataclass(frozen=True)
class EquationSpec:
    """One component equation: D_{d_index} f_lhs = sum(coef * f_a * f_b)."""

    lhs: FieldKey
    d_index: Root
    rhs: Tuple[Tuple[int, FieldKey, FieldKey], ...]


@dataclass(frozen=True)
class AlgebraModel:
    name: str
    roots: Tuple[Root, ...]
    equations: Tuple[EquationSpec, ...]

    @property
    def field_keys(self) -> Tuple[FieldKey, ...]:
        return tuple((s, r) for r in self.roots for s in (PLUS, MINUS))


def _eqs(table) -> Tuple[EquationSpec, ...]:
    out = []
    for sign in (PLUS, MINUS):
        for root, rhs in table:
            terms = tuple(
                (coef, (sign * sa, ra), (sign * sb, rb)) for coef, (sa, ra), (sb, rb) in rhs
            )
            out.append(EquationSpec(lhs=(sign, root), d_index=root, rhs=terms))
    return tuple(out)


# Tables give the '+' column; the '-' column is the sign mirror f^+ <-> f^-.
# Each rhs factor is written (relative_sign, root): relative_sign +1 keeps the
# equation's own sign, -1 flips it.

_A2_TABLE = [
    ((1, 0), [(1, (+1, (1, 1)), (-1, (0, 1)))]),
    ((0, 1), [(1, (+1, (1, 1)), (-1, (1, 0)))]),
    ((1, 1), [(-1, (+1, (0, 1)), (+1, (1, 0)))]),
]

_B2_TABLE = [
    ((1, 0), [(2, (+1, (1, 1)), (-1, (0, 1)))]),
    ((0, 1), [(1, (+1, (1, 1)), (-1, (1, 0))), (1, (+1, (1, 2)), (-1, (1, 1)))]),
    ((1, 1), [(-1, (+1, (0, 1)), (+1, (1, 0))), (1, (+1, (1, 2)), (-1, (0, 1)))]),
    ((1, 2), [(-2, (+1, (1, 1)), (+1, (0, 1)))]),
]

_G2_TABLE = [
    ((2, 3), [(3, (+1, (1, 0)), (+1, (1, 3))), (-3, (+1, (1, 1)), (+1, (1, 2)))]),
    ((1, 3), [(-3, (+1, (2, 3)), (-1, (1, 0))), (-3, (+1, (0, 1)), (+1, (1, 2)))]),
    ((1, 2), [(1, (+1, (2, 3)), (-1, (1, 1))), (1, (+1, (1, 3)), (-1, (0, 1))),
              (-2, (+1, (0, 1)), (+1, (1, 1)))]),
    ((1, 1), [(1, (+1, (2, 3)), (-1, (1, 2))), (2, (+1, (1, 2)), (-1, (0, 1))),
              (-1, (+1, (0, 1)), (+1, (1, 0)))]),
    ((1, 0), [(-3, (+1, (2, 3)), (-1, (1, 3))), (3, (+1, (1, 1)), (-1, (0, 1)))]),
    ((0, 1), [(1, (+1, (1, 3)), (-1, (1, 2))), (2, (+1, (1, 2)), (-1, (1, 1))),
              (1, (+1, (1, 1)), (-1, (1, 0)))]),
]

_MODELS: Dict[str, AlgebraModel] = {
    "A2": AlgebraModel(
        name="A2",
        roots=((1, 0), (0, 1), (1, 1)),
        equations=_eqs(_A2_TABLE),
    ),
    "B2": AlgebraModel(
        name="B2",
        roots=((1, 0), (0, 1), (1, 1), (1, 2)),
        equations=_eqs(_B2_TABLE),
    ),
    "G2": AlgebraModel(
        name="G2",
        roots=((1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3)),
        equations=_eqs(_G2_TABLE),
    ),
}


ALGEBRAS = tuple(_MODELS)


def model(name: str) -> AlgebraModel:
    try:
        return _MODELS[name]
    except KeyError:
        expected = f"{', '.join(ALGEBRAS[:-1])} or {ALGEBRAS[-1]}"
        raise ValueError(f"unknown algebra {name!r} (expected {expected})") from None


@dataclass
class FieldConfig:
    """A total assignment of an ExpRational to every signed root of one algebra."""

    algebra: str
    constants: WaveConstants
    fields: Dict[FieldKey, ExpRational]

    def __post_init__(self) -> None:
        m = model(self.algebra)
        missing = [k for k in m.field_keys if k not in self.fields]
        extra = [k for k in self.fields if k not in m.field_keys]
        if missing or extra:
            raise ValueError(
                f"field assignment mismatch for {self.algebra}: "
                f"missing={[field_label(k) for k in missing]} "
                f"extra={[field_label(k) for k in extra]}"
            )

    def __getitem__(self, key: FieldKey) -> ExpRational:
        return self.fields[key]

    def with_fields(self, updates: Dict[FieldKey, ExpRational]) -> "FieldConfig":
        merged = dict(self.fields)
        merged.update(updates)
        return FieldConfig(self.algebra, self.constants, merged)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldConfig):
            return NotImplemented
        if self.algebra != other.algebra or self.constants != other.constants:
            return False
        return all(self.fields[k] == other.fields[k] for k in model(self.algebra).field_keys)


def zero_config(name: str, constants: WaveConstants) -> FieldConfig:
    m = model(name)
    return FieldConfig(name, constants, {k: ExpRational.zero() for k in m.field_keys})


def residual(m: AlgebraModel, cfg: FieldConfig, eq: EquationSpec) -> ExpPoly:
    """Numerator of D_{i,j} f_lhs - sum coef*f_a*f_b over that expression's
    denominator: zero exactly when the equation holds.

    A zero field is 0/1, and a product with a zero factor drops out.  When
    some product is left and every nonzero field of the equation shares one
    denominator d (ExpRational.shares_den, so a configuration read back from
    a document qualifies; d may be 1), as in a tau solution, the numerator
    is the equation times d^2 in Hirota's bilinear form,
    N_lhs' d - N_lhs d' - sum coef*N_a*N_b, formed without the product d*d.
    That sum of products is one call of exprat.sum_of_products: above its
    crossover (PACK_PAIRS_PER_TERM, term pairs per operand term) it packs
    each row of the spectral basis into one int and multiplies rows as
    ints, with a digit width above the bound sum |coef|*|N_a|_1*|N_b|_1 on
    every coefficient, so the residual is zero exactly when every output
    row int is 0; a nonzero one is read back from the same digits.  Below
    the crossover, or for sparse exponents, it multiplies term by term.
    Otherwise the residual is built as one ExpRational and its numerator
    returned.  Over a shared d both give the same polynomial: the
    ExpRational residual is over d^2 too, and a denominator's least term
    has coefficient 1, so d*d needs no normalizing.
    """
    i, j = eq.d_index
    w = cfg.constants
    lhs = cfg[eq.lhs]
    products = [(Fraction(coef), cfg[a], cfg[b]) for coef, a, b in eq.rhs
                if not (cfg[a].is_zero() or cfg[b].is_zero())]
    fields = [f for _, fa, fb in products for f in (fa, fb)]
    if not lhs.is_zero():
        fields.append(lhs)
    if not products or not all(f.shares_den(fields[0]) for f in fields):
        rat = lhs.deriv(i, j, w)
        for coef, fa, fb in products:
            rat = rat - fa * fb * coef
        return rat.num
    d = fields[0].den
    n = lhs.num
    terms = [(-coef, fa.num, fb.num) for coef, fa, fb in products]
    if n:
        terms += [(1, n.deriv(i, j, w), d), (-1, n, d.deriv(i, j, w))]
    return sum_of_products(terms, w)


# -- Exchanges ------------------------------------------------------------------
#
# An exchange is a signed root map r -> (eta_r, rho(r)), an involution under
# which one algebra's equations are symmetric: D_r -> eta_r D_{rho(r)} and
# f^s_r -> eta_r f^{-eta_r s}_{rho(r)}, so a field's sector flips exactly
# where eta_r = +1.  B2_SWAP_10_12_MIRROR is B2_SWAP_10_12 composed with the
# symmetries f^s_r -> f^-s_r and f, D -> -f, -D.

Exchange = Dict[Root, Tuple[int, Root]]

A2_SWAP_10_01: Exchange = {(1, 0): (-1, (0, 1)), (0, 1): (-1, (1, 0)), (1, 1): (-1, (1, 1))}
A2_SWAP_10_11: Exchange = {(1, 0): (-1, (1, 1)), (1, 1): (-1, (1, 0)), (0, 1): (1, (0, 1))}
B2_SWAP_10_12: Exchange = {(1, 0): (-1, (1, 2)), (1, 2): (-1, (1, 0)), (1, 1): (-1, (1, 1)),
                           (0, 1): (1, (0, 1))}
B2_SWAP_10_12_MIRROR: Exchange = {r: (-eta, image) for r, (eta, image) in B2_SWAP_10_12.items()}
G2_SWAP_10_13: Exchange = {(2, 3): (-1, (2, 3)), (1, 3): (-1, (1, 0)), (1, 0): (-1, (1, 3)),
                           (1, 2): (-1, (1, 1)), (1, 1): (-1, (1, 2)), (0, 1): (1, (0, 1))}


def exchanged_field(exchange: Exchange, key: FieldKey) -> Tuple[int, FieldKey]:
    """The image (eta_r, f^{-eta_r*s}_{rho(r)}) of the field f^s_r = ``key``."""
    s, r = key
    eta, image = exchange[r]
    return eta, (-eta * s, image)
