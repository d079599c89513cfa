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

P- and Q-subsets are the same kind of object.  _shapes lists the n-subsets
of either spike list with their squared Vandermonde, position sum and
exponent, which depend on positions only, and _subset_sum weights and sums
them; a P-subset's term pcoef * exp(theta(psum, 0)) is the sum over its own
shape alone.  A tau solution's base tau and field numerators sum over many
of the same P-subsets, so _taus builds a list of tau values in one pass:
each P-subset of a needed size is walked once, and its term, coupled
weights and Q subset sums are shared by every order that sums over it.

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
from typing import Dict, List, Sequence, Tuple

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


def _coupled(Q: Sequence[Pair], lams: Sequence[Fraction]) -> List[Fraction]:
    """Each Q-spike's weight divided by its coupling prod_lam (lam - mu)."""
    out = []
    for mu, v in Q:
        c = Fraction(1)
        for lam in lams:
            c *= lam - mu
        out.append(v / c)
    return out


#: One subset of P- or Q-spikes: its indices, squared Vandermonde, position
#: sum and exponent.  All of it depends on positions only.
_Shape = Tuple[Tuple[int, ...], Fraction, Fraction, LinForm]


def _shapes(spikes: Sequence[Pair], n: int, w: WaveConstants, axis: int) -> List[_Shape]:
    """The shape of every n-subset of ``spikes``: P-spikes (axis 0) have the
    exponent theta(sum, 0), Q-spikes (axis 1) theta(0, sum)."""
    out = []
    for idx in itertools.combinations(range(len(spikes)), n):
        xs = [spikes[k][0] for k in idx]
        tot = sum(xs, Fraction(0))
        pos = (tot, Fraction(0)) if axis == 0 else (Fraction(0), tot)
        out.append((idx, vandermonde_sq(xs), tot, wave_exponent(*pos, w)))
    return out


def _subset_sum(shapes: Sequence[_Shape], weights: Sequence[Fraction],
                moment: bool = False) -> ExpPoly:
    """Sum over the given subsets of weight * exp(exponent).

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


def _taus(s: SpectralData, orders: Sequence[Tuple[int, Sequence[int]]]) -> List[ExpPoly]:
    """tau(n1; qsizes) for each order (n1, qsizes), in one pass.

    Each P-subset of a needed size is walked once: its term, its coupled
    Q weights and its Q subset sums by size are built then and shared by
    every order that sums over it.  An order with a group size out of range
    is zero.
    """
    validate(s)
    P, Q, w = _spikes(s.pspikes), _spikes(s.qspikes), s.constants
    by_n1: Dict[int, List[int]] = {}
    for i, (n1, qsizes) in enumerate(orders):
        if 0 <= n1 <= len(P) and all(0 <= n <= len(Q) for n in qsizes):
            by_n1.setdefault(n1, []).append(i)
    pweights = [v for _, v in P]
    qshapes: Dict[int, List[_Shape]] = {}
    totals = [ExpPoly.zero()] * len(orders)
    for n1, users in by_n1.items():
        for shape in _shapes(P, n1, w, 0):
            term = _subset_sum([shape], pweights)
            coupled = _coupled(Q, [P[k][0] for k in shape[0]])
            sums: Dict[int, ExpPoly] = {}
            for i in users:
                acc = term
                for n in orders[i][1]:
                    if n not in sums:
                        if n not in qshapes:
                            qshapes[n] = _shapes(Q, n, w, 1)
                        sums[n] = _subset_sum(qshapes[n], coupled)
                    acc = acc * sums[n]
                totals[i] = totals[i] + acc
    return totals


def _tau(s: SpectralData, n1: int, qsizes: Sequence[int]) -> ExpPoly:
    """Subset sum with one P-group of size n1 and independent Q-groups."""
    return _taus(s, [(n1, qsizes)])[0]


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
    interrupted = f"tau{(n1,) + (n2,) * groups} vanishes identically: chain interrupted"
    if n1 > len(s.pspikes) or n2 > len(s.qspikes):
        validate(s)  # invalid data is reported as such, not as an interruption
        raise TauZero(interrupted)
    orders = [(n1, (n2,) * groups)]
    for sign, (p, q) in m.field_keys:
        step = -sign  # f^- raises the orders, f^+ lowers them
        orders.append((n1 + step * p, [n2 + step * (g < q) for g in range(groups)]))
    den, *nums = _taus(s, orders)
    if den.is_zero():
        raise TauZero(interrupted)
    fields = {key: ExpRational(num * _SIGNS[key], den) for key, num in zip(m.field_keys, nums)}
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
    shapes1 = _shapes(Q, size1, w, 1)
    shapes2 = shapes1 if size2 == size1 else _shapes(Q, size2, w, 1)
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
