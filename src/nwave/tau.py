"""Determining (tau) functions as exact subset sums, and the ratio solutions.

Every tau value is a finite sum over subsets of the spike lists: an n1-subset
of P-spikes and one or more independent subsets of Q-spikes, weighted by
squared Vandermonde factors and the cross-coupling denominators.  No
factorials and no ordered tuples appear anywhere: plain subset sums make
tau_U(1,0) equal f-1.0 on the nose, and all remaining per-field constants
live in one calibration table.

The sums run on integers: all spike positions (and check_gra's probes) over
one common denominator D, the weights of each spike list over one of their
own, so a subset's squared Vandermonde and position sum are integers
(_shapes, the package's one subset enumeration, which toda's Hankel minors
read too).  Once a P-subset is fixed, its coupling to a Q-subset,
1/prod_{lam, mu} (lam - mu), splits per Q-spike into the coupled weight
w_mu / prod_lam (lam - mu), integers over ell, the lcm of the P-subset's
couplings.  The sum over the independent Q-groups then factorises:

    tau = sum_psub  pcoef * exp(theta(psum, 0)) * prod_g S_{n_g}(psub),

the row S_n(psub) being the sum over the n-subsets of Q of the squared
Vandermonde times the coupled weights, an integer polynomial in the Q
position sum, built once per distinct group size (G2's three equal groups
share one) and multiplied by the kernel's row product (exprat._row_product).

A tau value is thus integer rows keyed by (psum, qsum), one per P-subset,
with one rational content per value (the ells reconciled over their lcm,
the powers of D and of the weight denominators).  (psum, qsum) over D are
the spectral keys of the ExpPoly (see exprat), which is built from them as
they are.  _taus builds a solution's base tau and field numerators in one
pass, each P-subset of a needed size walked once and its rows shared by
every order that sums over it; their keys are formed less that of the base
tau's lexicographically least exponent, where ExpRational splits off the
unit part, so the numerators come out over the denominator's unit part.
The two-group recombination identity (check_gra) is a double sum of the
same kind and uses the same rows.

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
from math import lcm
from typing import Dict, List, Sequence, Tuple

from .exprat import ExpPoly, ExpRational, _canonical, _least, _over_one, _row_product, _times
from .spectral import SpectralData
from .wavesys import AlgebraModel, FieldConfig, FieldKey, MINUS, PLUS


class TauZero(ArithmeticError):
    """Denominator tau vanishes identically: the chain is interrupted."""


#: An integer polynomial in the Q position sum, {qsum: coefficient}.
_Row = Dict[int, int]

#: One subset of integer positions: its indices, squared Vandermonde and
#: position sum.
_Shape = Tuple[Tuple[int, ...], int, int]


def _shapes(xs: Sequence[int], n: int) -> List[_Shape]:
    """The shape of every n-subset of the integer positions ``xs`` with a nonzero Vandermonde."""
    out = []
    for idx in itertools.combinations(range(len(xs)), n):
        sub = [xs[k] for k in idx]
        vdm = 1
        for a, b in itertools.combinations(sub, 2):
            vdm *= (a - b) * (a - b)
        if vdm:
            out.append((idx, vdm, sum(sub)))
    return out


def _row(shapes: Sequence[_Shape], weights: Sequence[int]) -> _Row:
    """Sum over the given subsets of their squared Vandermonde times the
    ``weights`` of their spikes, keyed by position sum."""
    row: _Row = {}
    get = row.get
    for idx, c, tot in shapes:
        for k in idx:
            c *= weights[k]
        row[tot] = get(tot, 0) + c
    return row


def _coupled(qpos: Sequence[int], qweights: Sequence[int],
             lams: Sequence[int]) -> Tuple[List[int], int]:
    """(weights, ell): each Q-spike's weight divided by its coupling
    prod_lam (lam - mu), as integers over ell, the lcm of the couplings."""
    couplings = []
    for mu in qpos:
        c = 1
        for lam in lams:
            c *= lam - mu
        couplings.append(c)
    ell = lcm(*couplings)
    return [v * (ell // c) for v, c in zip(qweights, couplings)], ell


def _taus(s: SpectralData, orders: Sequence[Tuple[int, Sequence[int]]],
          anchored: bool = False) -> List[ExpPoly]:
    """tau(n1; qsizes) for each order (n1, qsizes), qsizes nonempty, in one pass.

    Each P-subset of a needed size is walked once: its coupled Q weights
    and its Q rows by size are built then and shared by every order that
    sums over it.  An order with a group size out of range is zero.
    ``anchored`` divides every value by the first one's exponential of
    least exponent, so that the first has least exponent 0: a ratio
    solution's numerators are then already over its denominator's unit part.
    """
    P, Q = s.pspikes, s.qspikes
    pos, den = _over_one([sp.pos for sp in P + Q])
    ppos, qpos = pos[:len(P)], pos[len(P):]
    pweights, pden = _over_one([sp.weight for sp in P])
    qweights, qden = _over_one([sp.weight for sp in Q])
    by_n1: Dict[int, List[int]] = {}
    for i, (n1, qsizes) in enumerate(orders):
        if 0 <= n1 <= len(P) and all(0 <= n <= len(Q) for n in qsizes):
            by_n1.setdefault(n1, []).append(i)
    qshapes: Dict[int, List[_Shape]] = {}
    # each order's rows and content, a coprime pair
    parts: List[Tuple[Dict[int, _Row], int, int]] = [({}, 0, 1)] * len(orders)
    for n1, users in by_n1.items():
        pshapes = _shapes(ppos, n1)
        coupled = [_coupled(qpos, qweights, [ppos[k] for k in idx]) for idx, _, _ in pshapes]
        ell_all = lcm(*(ell for _, ell in coupled))
        rows: Dict[int, Dict[int, _Row]] = {i: {} for i in users}
        for (idx, pcoef, psum), (weights, ell) in zip(pshapes, coupled):
            for k in idx:
                pcoef *= pweights[k]
            lift = ell_all // ell
            groups: Dict[int, _Row] = {}
            for i in users:
                qsizes = orders[i][1]
                for n in qsizes:
                    if n not in groups:
                        if n not in qshapes:
                            qshapes[n] = _shapes(qpos, n)
                        groups[n] = _row(qshapes[n], weights)
                product = [(0, pcoef * lift ** sum(qsizes))]
                for n in qsizes[:-1]:
                    product = _row_product(product, groups[n].items()).items()
                _row_product(product, groups[qsizes[-1]].items(), rows[i].setdefault(psum, {}))
        for i in users:
            qsizes = orders[i][1]
            total = sum(qsizes)
            # D^n1 from each coupled weight, over D^(n(n-1)) from each
            # squared Vandermonde, the weight denominators and ell_all from
            # each coupled weight
            e = n1 * total - n1 * (n1 - 1) - sum(n * (n - 1) for n in qsizes)
            content = _times(den ** max(e, 0), 1,
                             1, den ** max(-e, 0) * pden ** n1 * (qden * ell_all) ** total)
            parts[i] = (rows[i], *content)
    w, (ou, ov) = s.constants, (0, 0)
    if anchored:
        keys = [(psum, qsum) for psum, row in parts[0][0].items() for qsum, n in row.items() if n]
        ou, ov = _least(keys, w) if keys else (0, 0)
    return [_canonical(den, {(psum - ou, qsum - ov): n for psum, row in rows.items()
                             for qsum, n in row.items()}, cn, cd, w)
            for rows, cn, cd in parts]


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
        raise TauZero(interrupted)
    orders = [(n1, (n2,) * groups)]
    for sign, (p, q) in m.field_keys:
        step = -sign  # f^- raises the orders, f^+ lowers them
        orders.append((n1 + step * p, [n2 + step * (g < q) for g in range(groups)]))
    den, *nums = _taus(s, orders, True)
    fields = dict(zip(m.field_keys, ExpRational.all_over(
        [num if _SIGNS[key] > 0 else -num for key, num in zip(m.field_keys, nums)], den)))
    return FieldConfig(m.name, s.constants, fields)


# -- the two-group recombination identity --------------------------------------


def _gra_sides(s: SpectralData, lams: Sequence[Fraction], size1: int, size2: int,
               multiplier: bool) -> List[ExpPoly]:
    """For each lam, the sum over a size1-group coupled to lam and an
    independent size2-group.

    With the multiplier (t1 - t2), the difference of the groups' position
    sums, each pair of subsets is weighted by that difference, an integer
    over D, and the double sum is t*S1 * S2 - S1 * t*S2, t*S the row S with
    each coefficient times its position sum; without it, the double sum is
    S1 * S2.  The shapes and the uncoupled rows do not depend on lam and
    are built once.
    """
    Q = s.qspikes
    pos, den = _over_one([sp.pos for sp in Q] + list(lams))
    qpos = pos[:len(Q)]
    qweights, qden = _over_one([sp.weight for sp in Q])
    shapes1 = _shapes(qpos, size1)
    s2 = _row(shapes1 if size2 == size1 else _shapes(qpos, size2), qweights)
    ts2 = [(t, -t * c) for t, c in s2.items()]
    # the powers of D: the coupling to lam, both squared Vandermondes and
    # the multiplier
    e = size1 - size1 * (size1 - 1) - size2 * (size2 - 1) - int(multiplier)
    cn, cd = den ** max(e, 0), den ** max(-e, 0) * qden ** (size1 + size2)
    out = []
    for lam in pos[len(Q):]:
        weights, ell = _coupled(qpos, qweights, [lam])
        s1 = _row(shapes1, weights).items()
        side = _row_product([(t, t * c) for t, c in s1] if multiplier else s1, s2.items())
        if multiplier:
            _row_product(s1, ts2, side)
        out.append(_canonical(den, {(0, qsum): n for qsum, n in side.items()},
                              *_times(cn, 1, 1, cd * ell ** size1), s.constants))
    return out


def check_gra(s: SpectralData, n: int) -> bool:
    """Exact equality of the two delta-spike group sums at level n.

    The left side runs over two independent (n+1)-groups of qspikes with the
    (sum difference) multiplier, only the first group coupled to lambda; the
    right side over an (n+2)-group and an n-group.  Checked at every P-spike
    position (or at a synthetic probe when P is empty).
    """
    if n < 0:
        raise ValueError(f"level must be nonnegative, got {n}")
    if len(s.qspikes) < n + 2:
        raise ValueError(f"need at least {n + 2} qspikes, got {len(s.qspikes)}")
    probes = [sp.pos for sp in s.pspikes]
    if not probes:
        probes = [max(abs(sp.pos) for sp in s.qspikes) + 1]
    return (_gra_sides(s, probes, n + 1, n + 1, multiplier=True)
            == _gra_sides(s, probes, n + 2, n, multiplier=False))
