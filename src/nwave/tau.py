"""Determining (tau) functions as exact subset sums, and the ratio solutions.

Every tau value is a finite sum over subsets of the spike lists: an n1-subset
of P-spikes and one or more independent subsets of Q-spikes, weighted by
squared Vandermonde factors and the cross-coupling denominators.  No
factorials and no ordered tuples appear anywhere: plain subset sums make
tau_U(1,0) equal f-1.0 on the nose, and all remaining per-field constants
live in one calibration table.

The coupling of a P-subset to a Q-subset is a product over Q-spikes,
1/prod_{lam, mu} (lam - mu) = prod_mu 1/prod_lam (lam - mu), so once the
P-subset is fixed every Q-spike carries its own coupled weight
w_mu / prod_lam (lam - mu) and the sum over the independent Q-groups
factorises:

    tau = sum_psub  pcoef * exp(theta(psum, 0)) * prod_g S_{n_g}(psub),

where S_n(psub) is the ExpPoly sum over the n-subsets of Q of the squared
Vandermonde times the coupled weights, times exp(theta(0, qsum)).  Each
distinct group size is summed once per P-subset (G2's three equal groups
share one sum), and the group sums are multiplied as ExpPolys, which merges
equal exponents.  The two-group recombination identity (check_gra) is a
double sum of the same kind and uses the same Q subset sums.

A tau solution's base tau and field numerators sum over many of the same
P-subsets, so solution_from_tau builds them all from one set of pieces
that lives for the call: each P-subset's term, coupled weights and Q
subset sums, and each Q-subset's squared Vandermonde and exponent, which
depend on positions only.

A field f^s_{p.q} at chain order (n1, n2) is the ratio

    sign * tau(n1 -+ p; n2 -+ 1 on the first q Q-groups) / tau(n1; n2, ..., n2),

with the upper sign for f^+ and the lower for f^-; an algebra has as many
Q-groups as the largest q among its roots (A2 one, B2 two, G2 three).  The
seed is order (0, 0): the base tau is 1 and every f^+ vanishes.  The one
per-field constant, a calibration sign, was fixed empirically, once, by
requiring exact residual zero for every equation of the algebra over an
order grid on rich spike sets (A2: orders up to (3,3) on 3+3 spikes; B2 up
to (2,2) on 2+3; G2 up to (2,2) on 3+3).  A sign per field suffices, with
no order-dependent constants; the signs are frozen below.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exprat import ExpPoly, ExpRational, LinForm, WaveConstants
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


def _coupled(Q: Sequence[Pair], lams: Sequence[Fraction]) -> List[Fraction]:
    """Each Q-spike's weight divided by its coupling prod_lam (lam - mu)."""
    out = []
    for mu, v in Q:
        c = Fraction(1)
        for lam in lams:
            c *= lam - mu
        out.append(v / c)
    return out


#: One subset of Q-spikes: its indices, squared Vandermonde, position sum and
#: exponent theta(0, position sum).  All of it depends on positions only.
_Shape = Tuple[Tuple[int, ...], Fraction, Fraction, LinForm]


def _shapes(Q: Sequence[Pair], n: int, w: WaveConstants) -> List[_Shape]:
    """The shape of every n-subset of Q."""
    out = []
    for idx in itertools.combinations(range(len(Q)), n):
        xs = [Q[k][0] for k in idx]
        tot = sum(xs, Fraction(0))
        out.append((idx, vandermonde_sq(xs), tot, wave_exponent(Fraction(0), tot, w)))
    return out


def _subset_sum(shapes: Sequence[_Shape], weights: Sequence[Fraction],
                moment: bool = False) -> ExpPoly:
    """Sum over the given subsets of weight * exp(theta(0, position sum)).

    A subset's weight is its squared Vandermonde times the ``weights`` of
    its spikes, and also times its position sum when ``moment`` is set.
    """
    terms: Dict[LinForm, Fraction] = {}
    for idx, coef, tot, key in shapes:
        for k in idx:
            coef *= weights[k]
        if moment:
            coef *= tot
        terms[key] = terms.get(key, Fraction(0)) + coef
    return ExpPoly(terms)


class _Pieces:
    """The pieces of the tau values of one spectral data, each built once.

    Q-subset shapes depend on positions only, so every P-subset shares
    them.  A P-subset (its spike indices) has its term pcoef *
    exp(theta(psum, 0)), its coupled Q weights and its Q subset sums by
    size, shared by every tau value that sums over it.  An instance lives
    for one call: solution_from_tau builds its base tau and every field's
    numerator from one.
    """

    def __init__(self, s: SpectralData):
        self.P, self.Q, self.w = _spikes(s.pspikes), _spikes(s.qspikes), s.constants
        self._shapes: Dict[int, List[_Shape]] = {}
        self._psubs: Dict[Tuple[int, ...],
                          Tuple[ExpPoly, List[Fraction], Dict[int, ExpPoly]]] = {}

    def parts(self, idx: Tuple[int, ...],
              qsizes: Sequence[int]) -> Tuple[ExpPoly, List[ExpPoly]]:
        """The term of P-subset ``idx`` and its Q subset sum for each size."""
        part = self._psubs.get(idx)
        if part is None:
            psub = [self.P[k] for k in idx]
            pcoef, psum = _group_weight(psub)
            term = ExpPoly.term(pcoef, *wave_exponent(psum, Fraction(0), self.w))
            part = self._psubs[idx] = (term, _coupled(self.Q, [lam for lam, _ in psub]), {})
        term, coupled, sums = part
        for n in qsizes:
            if n not in sums:
                if n not in self._shapes:
                    self._shapes[n] = _shapes(self.Q, n, self.w)
                sums[n] = _subset_sum(self._shapes[n], coupled)
        return term, [sums[n] for n in qsizes]


def _tau(s: SpectralData, n1: int, qsizes: Sequence[int],
         pieces: Optional[_Pieces] = None) -> ExpPoly:
    """Subset sum with one P-group of size n1 and independent Q-groups.

    For a fixed P-subset the Q-groups are independent, so the sum over
    their product factorises into one Q subset sum per group size.  A
    caller that builds several tau values of ``s`` passes them one
    ``pieces``, so what they have in common is built once.
    """
    validate(s)
    if pieces is None:
        pieces = _Pieces(s)
    if n1 < 0 or n1 > len(pieces.P) or any(n < 0 or n > len(pieces.Q) for n in qsizes):
        return ExpPoly.zero()
    total = ExpPoly.zero()
    for idx in itertools.combinations(range(len(pieces.P)), n1):
        term, sums = pieces.parts(idx, qsizes)
        for group in sums:
            term = term * group
        total = total + term
    return total


def tau_U(s: SpectralData, n1: int, n2: int) -> ExpPoly:
    return _tau(s, n1, (n2,))


def tau_V_B2(s: SpectralData, n1: int, n2: int, n3: int) -> ExpPoly:
    return _tau(s, n1, (n2, n3))


# -- ratio solutions -----------------------------------------------------------

#: Calibration sign of every field.  A2's roots are among B2's and B2's among
#: G2's, and a field has one sign in every algebra that has it.
_SIGNS: Dict[FieldKey, int] = {
    (PLUS, (1, 0)): 1, (PLUS, (0, 1)): 1, (PLUS, (1, 1)): -1, (PLUS, (1, 2)): 1,
    (PLUS, (1, 3)): -1, (PLUS, (2, 3)): -1,
    (MINUS, (1, 0)): 1, (MINUS, (0, 1)): 1, (MINUS, (1, 1)): 1, (MINUS, (1, 2)): 1,
    (MINUS, (1, 3)): 1, (MINUS, (2, 3)): -1,
}


def solution_from_tau(m: AlgebraModel, s: SpectralData, n1: int, n2: int) -> FieldConfig:
    """Level-(n1, n2) solution as exact ratios of tau values.

    Raises TauZero when the denominator tau vanishes identically (orders
    past the interruption of the chain).
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("orders must be nonnegative")
    groups = max(q for _, q in m.roots)
    pieces = _Pieces(s)
    den = _tau(s, n1, (n2,) * groups, pieces)
    if den.is_zero():
        raise TauZero(f"tau{(n1,) + (n2,) * groups} vanishes identically: chain interrupted")
    fields: Dict[FieldKey, ExpRational] = {}
    for key in m.field_keys:
        sign, (p, q) = key
        step = -sign  # f^- raises the orders, f^+ lowers them
        num = _tau(s, n1 + step * p, [n2 + step * (g < q) for g in range(groups)], pieces)
        fields[key] = ExpRational(num * _SIGNS[key], den)
    return FieldConfig(m.name, s.constants, fields)


# -- the two-group recombination identity --------------------------------------


def _gra_sides(s: SpectralData, lams: Sequence[Fraction], size1: int, size2: int,
               multiplier: bool) -> List[ExpPoly]:
    """For each lam, the sum over a size1-group coupled to lam and an
    independent size2-group.

    With the multiplier (t1 - t2), the difference of the groups' position
    sums, the double sum is S1' * S2 - S1 * S2', where ' marks a subset sum
    weighted by its position sum; without it, S1 * S2.  The shapes and the
    uncoupled sums S2, S2' do not depend on lam and are built once.
    """
    Q, w = _spikes(s.qspikes), s.constants
    shapes1 = _shapes(Q, size1, w)
    shapes2 = shapes1 if size2 == size1 else _shapes(Q, size2, w)
    weights = [v for _, v in Q]
    s2 = _subset_sum(shapes2, weights)
    s2m = _subset_sum(shapes2, weights, moment=True) if multiplier else None
    out = []
    for lam in lams:
        coupled = _coupled(Q, [lam])
        s1 = _subset_sum(shapes1, coupled)
        out.append(_subset_sum(shapes1, coupled, moment=True) * s2 - s1 * s2m
                   if multiplier else s1 * s2)
    return out


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
    return (_gra_sides(s, probes, n + 1, n + 1, multiplier=True)
            == _gra_sides(s, probes, n + 2, n, multiplier=False))
