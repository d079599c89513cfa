"""Static models of the three rank-2 interacting-wave systems.

Each algebra (A2, B2, G2) is encoded as data: its positive roots and the
bilinear first-order system — one equation

    D_{p,q} f^s_{p.q} = sum_k  coef_k * f_{A_k} * f_{B_k}

per signed root.  Keeping the equations as data means the verifier and the
transformation engine share a single source of truth.

``residual`` is the one exact check, always in Hirota's bilinear form and
in one pass over the equations it is given.  With every field those
equations use written N_k/L over the least common denominator L of their
denominators (tau itself for a tau solution), each equation times L^2 reads

    D(N_lhs)*L - N_lhs*D(L) - sum_k coef_k * N_{A_k} * N_{B_k} = 0,

a polynomial identity in which L*L never appears.

The exchanges at the end are signed root maps under which an equation set
is symmetric; ``transforms`` conjugates its maps by them.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

from .exprat import (ExpPoly, ExpRational, WaveConstants, _denominator_atoms, common_denominator,
                     sum_of_products)

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
        raise ValueError(f"bad field label: {reprlib.repr(label)}")
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

    @cached_property
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
        raise ValueError(f"unknown algebra {reprlib.repr(name)} (expected {expected})") from None


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

    def check_model(self, m: AlgebraModel) -> None:
        """Refuse (ValueError) a model of another algebra than this one's."""
        if m.name != self.algebra:
            raise ValueError(f"the {m.name} model does not match a {self.algebra} configuration")

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


def residual(m: AlgebraModel, cfg: FieldConfig, eqs: Sequence[EquationSpec]) -> List[ExpPoly]:
    """For each equation in eqs, D_{i,j} f_lhs - sum coef*f_a*f_b times L^2
    in Hirota's bilinear form, N_lhs' L - N_lhs L' - sum coef*N_a*N_b: zero
    exactly when the equation holds.

    L is the least common denominator of the fields that eqs use, their
    lhs and rhs factors (every field for m.equations, one equation's own
    for [eq]), and N a field's numerator over it, from one
    exprat.common_denominator call (a tau solution's one denominator, tau's
    atom, as it is held).
    A zero field has N = 0, so its products drop out.  L*L is never
    formed, nor N' or L': they enter as factors ((i, j), N), ((i, j), L).
    The sums are one call of exprat.sum_of_products, which takes each
    distinct operand in spectral coordinates and packs it into ints once
    per digit width; each equation keeps its own digit width above the
    bound sum |coef|*|N_a|_1*|N_b|_1 and its own output rows, so its
    residual is zero exactly when every one of its output row ints is 0,
    and a nonzero one is read back from its own digits.
    """
    cfg.check_model(m)
    w = cfg.constants
    keys = _used(cfg, eqs)
    d, nums = common_denominator([cfg[k] for k in keys])
    num = dict(zip(keys, nums))
    sums = []
    for eq in eqs:
        terms = [(-coef, num[a], num[b]) for coef, a, b in eq.rhs]
        n = num[eq.lhs]
        terms += [(1, (eq.d_index, n), d), (-1, n, (eq.d_index, d))]
        sums.append(terms)
    return sum_of_products(sums, w)


def _used(cfg: FieldConfig, eqs: Sequence[EquationSpec]) -> List[FieldKey]:
    """The keys of the fields eqs use, their lhs and rhs factors, in cfg's order."""
    used = {k for eq in eqs for _, a, b in eq.rhs for k in (a, b)} | {eq.lhs for eq in eqs}
    return [k for k in cfg.fields if k in used]


def residual_atoms(cfg: FieldConfig, eqs: Sequence[EquationSpec]) -> Dict[ExpPoly, int]:
    """The atoms, with multiplicities, of the L that residual(m, cfg, eqs)
    puts the fields over: equal atoms, one L."""
    return _denominator_atoms([cfg[k] for k in _used(cfg, eqs)])


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
