"""Reference tau subset sums: the direct nested loops over every group.

``tau`` and ``gra_side`` enumerate the full Cartesian product of the
groups and recompute each subset's squared Vandermonde, weights and
coupling for every combination.  The factorised sums in ``nwave.tau`` must
equal them exactly.
"""

import itertools
from fractions import Fraction

from nwave.exprat import ExpPoly
from nwave.spectral import wave_exponent


def _vandermonde_sq(xs):
    acc = Fraction(1)
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            acc *= (xs[j] - xs[i]) ** 2
    return acc


def _group_weight(sub):
    coef = _vandermonde_sq([p for p, _ in sub])
    tot = Fraction(0)
    for p, w in sub:
        coef *= w
        tot += p
    return coef, tot


def _coupling(lams, mus):
    acc = Fraction(1)
    for lam, _ in lams:
        for mu, _ in mus:
            acc *= lam - mu
    return acc


def _pairs(spikes):
    return [(sp.pos, sp.weight) for sp in spikes]


def tau(s, n1, qsizes):
    """Subset sum with one P-group of size n1 and independent Q-groups."""
    P, Q = _pairs(s.pspikes), _pairs(s.qspikes)
    if n1 < 0 or n1 > len(P) or any(n < 0 or n > len(Q) for n in qsizes):
        return ExpPoly.zero()
    terms = {}
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


def gra_side(s, lam, size1, size2, multiplier):
    """Double sum over two Q-groups, only the first coupled to lam."""
    Q = _pairs(s.qspikes)
    terms = {}
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
