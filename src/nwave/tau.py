"""Determining (tau) functions as exact subset sums, and the ratio solutions.

Every tau value is a finite sum over subsets of the spike lists: an n1-subset
of P-spikes and one or more independent subsets of Q-spikes, weighted by
squared Vandermonde factors and the cross-coupling denominators.  No
factorials and no ordered tuples appear anywhere: plain subset sums make
tau_U(1,0) equal f-1.0 on the nose, and all remaining per-field constants
live in one calibration table.

The calibration table was fixed empirically, once: per-field rational
constants were measured by requiring (a) agreement with the seed
configuration at base orders and (b) exact residual zero for every equation
of the algebra over an order grid on rich spike sets (A2: orders up to
(3,3) on 3+3 spikes; B2 up to (2,2) on 2+3; G2 up to (2,2) on 3+3).  The
measurement showed plain constants suffice — no order-dependent signs — and
they are frozen below.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from .exprat import ExpPoly, ExpRational, LinForm
from .spectral import SpectralData, validate, wave_exponent
from .wavesys import AlgebraModel, FieldConfig, FieldKey, MINUS, PLUS

Pair = Tuple[Fraction, Fraction]  # (position, weight)


class TauZero(ArithmeticError):
    """Denominator tau vanishes identically: the chain is interrupted."""


def vandermonde_sq(xs: Sequence[Fraction]) -> Fraction:
    acc = Fraction(1)
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            acc *= (xs[j] - xs[i]) ** 2
    return acc


def _spikes(spikes) -> List[Pair]:
    return [(sp.pos, sp.weight) for sp in spikes]


def _group_weight(sub: Sequence[Pair]) -> Tuple[Fraction, Fraction]:
    """(product of weights * squared Vandermonde, sum of positions)."""
    coef = vandermonde_sq([p for p, _ in sub])
    tot = Fraction(0)
    for p, w in sub:
        coef *= w
        tot += p
    return coef, tot


def _coupling(lams: Sequence[Pair], mus: Sequence[Pair]) -> Fraction:
    acc = Fraction(1)
    for lam, _ in lams:
        for mu, _ in mus:
            acc *= lam - mu
    return acc


def _tau(s: SpectralData, n1: int, qsizes: Sequence[int]) -> ExpPoly:
    """Subset sum with one P-group of size n1 and independent Q-groups."""
    validate(s)
    P, Q = _spikes(s.pspikes), _spikes(s.qspikes)
    if n1 < 0 or n1 > len(P) or any(n < 0 or n > len(Q) for n in qsizes):
        return ExpPoly.zero()
    terms: Dict[LinForm, Fraction] = {}
    for psub in itertools.combinations(P, n1):
        pcoef, psum = _group_weight(psub)
        for qsubs in itertools.product(*(itertools.combinations(Q, n) for n in qsizes)):
            coef, qsum = pcoef, Fraction(0)
            for qsub in qsubs:
                qcoef, qtot = _group_weight(qsub)
                coef *= qcoef / _coupling(psub, qsub)
                qsum += qtot
            key = wave_exponent(psum, qsum, s.constants)
            terms[key] = terms.get(key, Fraction(0)) + coef
    return ExpPoly(terms)


def tau_U(s: SpectralData, n1: int, n2: int) -> ExpPoly:
    return _tau(s, n1, (n2,))


def tau_V_B2(s: SpectralData, n1: int, n2: int, n3: int) -> ExpPoly:
    return _tau(s, n1, (n2, n3))


# -- ratio solutions -----------------------------------------------------------
#
# Per field: (order shifts, frozen calibration constant).  The field at chain
# order (n1, n2) is  constant * tau(shifted orders) / tau(base)  where base is
# (n1, n2) [A2], (n1; n2, n2) [B2], (n1; n2, n2, n2) [G2] and the shifts add
# to each group size.

_A2_RATIOS: Dict[FieldKey, Tuple[Tuple[int, ...], Fraction]] = {
    (PLUS, (1, 0)): ((-1, 0), Fraction(1)),
    (PLUS, (0, 1)): ((0, -1), Fraction(1)),
    (PLUS, (1, 1)): ((-1, -1), Fraction(-1)),
    (MINUS, (1, 0)): ((1, 0), Fraction(1)),
    (MINUS, (0, 1)): ((0, 1), Fraction(1)),
    (MINUS, (1, 1)): ((1, 1), Fraction(1)),
}

_B2_RATIOS: Dict[FieldKey, Tuple[Tuple[int, ...], Fraction]] = {
    (PLUS, (1, 0)): ((-1, 0, 0), Fraction(1)),
    (PLUS, (0, 1)): ((0, 0, -1), Fraction(1)),
    (PLUS, (1, 1)): ((-1, 0, -1), Fraction(-1)),
    (PLUS, (1, 2)): ((-1, -1, -1), Fraction(1)),
    (MINUS, (1, 0)): ((1, 0, 0), Fraction(1)),
    (MINUS, (0, 1)): ((0, 1, 0), Fraction(1)),
    (MINUS, (1, 1)): ((1, 1, 0), Fraction(1)),
    (MINUS, (1, 2)): ((1, 1, 1), Fraction(1)),
}

_G2_RATIOS: Dict[FieldKey, Tuple[Tuple[int, ...], Fraction]] = {
    (PLUS, (1, 0)): ((-1, 0, 0, 0), Fraction(1)),
    (PLUS, (0, 1)): ((0, -1, 0, 0), Fraction(1)),
    (PLUS, (1, 1)): ((-1, -1, 0, 0), Fraction(-1)),
    (PLUS, (1, 2)): ((-1, -1, -1, 0), Fraction(1)),
    (PLUS, (1, 3)): ((-1, -1, -1, -1), Fraction(-1)),
    (PLUS, (2, 3)): ((-2, -1, -1, -1), Fraction(-1)),
    (MINUS, (1, 0)): ((1, 0, 0, 0), Fraction(1)),
    (MINUS, (0, 1)): ((0, 1, 0, 0), Fraction(1)),
    (MINUS, (1, 1)): ((1, 1, 0, 0), Fraction(1)),
    (MINUS, (1, 2)): ((1, 1, 1, 0), Fraction(1)),
    (MINUS, (1, 3)): ((1, 1, 1, 1), Fraction(1)),
    (MINUS, (2, 3)): ((2, 1, 1, 1), Fraction(-1)),
}

_RATIO_TABLES = {"A2": _A2_RATIOS, "B2": _B2_RATIOS, "G2": _G2_RATIOS}


def _base_orders(name: str, n1: int, n2: int) -> Tuple[int, ...]:
    if name == "A2":
        return (n1, n2)
    if name == "B2":
        return (n1, n2, n2)
    return (n1, n2, n2, n2)


def solution_from_tau(m: AlgebraModel, s: SpectralData, n1: int, n2: int) -> FieldConfig:
    """Level-(n1, n2) solution as exact ratios of tau values.

    Raises TauZero when the denominator tau vanishes identically (orders
    past the interruption of the chain).
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("orders must be nonnegative")
    base = _base_orders(m.name, n1, n2)
    den = _tau(s, base[0], base[1:])
    if den.is_zero():
        raise TauZero(f"tau{base} vanishes identically: chain interrupted")
    table = _RATIO_TABLES[m.name]
    fields: Dict[FieldKey, ExpRational] = {}
    for key in m.field_keys:
        shifts, const = table[key]
        orders = tuple(b + d for b, d in zip(base, shifts))
        num = _tau(s, orders[0], orders[1:])
        fields[key] = ExpRational(num * const, den)
    return FieldConfig(m.name, s.constants, fields)


# -- the two-group recombination identity --------------------------------------


def _gra_side(
    s: SpectralData, lam: Fraction, size1: int, size2: int, multiplier: bool
) -> ExpPoly:
    Q = _spikes(s.qspikes)
    terms: Dict[LinForm, Fraction] = {}
    for s1 in itertools.combinations(Q, size1):
        c1, t1 = _group_weight(s1)
        for mu, _ in s1:
            c1 /= lam - mu
        for s2 in itertools.combinations(Q, size2):
            c2, t2 = _group_weight(s2)
            coef = c1 * c2 * ((t1 - t2) if multiplier else 1)
            key = wave_exponent(Fraction(0), t1 + t2, s.constants)
            terms[key] = terms.get(key, Fraction(0)) + coef
    return ExpPoly(terms)


def check_gra(s: SpectralData, n: int) -> bool:
    """Exact equality of the two delta-spike group sums at level n.

    The left side runs over two independent (n+1)-groups of qspikes with the
    (sum difference) multiplier, only the first group coupled to lambda; the
    right side over an (n+2)-group and an n-group.  Checked at every P-spike
    position (or at a synthetic probe when P is empty).
    """
    validate(s)
    if len(s.qspikes) < n + 2:
        raise ValueError(f"need at least {n + 2} qspikes, got {len(s.qspikes)}")
    probes = [sp.pos for sp in s.pspikes]
    if not probes:
        probes = [max(abs(sp.pos) for sp in s.qspikes) + 1]
    for lam in probes:
        lhs = _gra_side(s, lam, n + 1, n + 1, multiplier=True)
        rhs = _gra_side(s, lam, n + 2, n, multiplier=False)
        if lhs != rhs:
            return False
    return True
