"""Reference tau subset sums and seeds: direct nested loops.

``tau`` and ``gra_side`` enumerate the full Cartesian product of the
groups and recompute each subset's squared Vandermonde, weights and
coupling for every combination.  ``seed`` builds each seed field from
ordered tuples of spikes, repeats allowed.  The factorised sums in
``nwave.tau``, and the seeds it builds as order-(0,0) tau solutions, must
equal them exactly.
"""

import itertools
from fractions import Fraction

from nwave.exprat import ExpPoly, ExpRational
from nwave.spectral import wave_exponent
from nwave.wavesys import MINUS, FieldConfig


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


def _ladder(P, Q, nq, w):
    """f^-_{1.nq}: one lambda against an ordered nq-tuple of mus (repeats
    allowed), weight w * prod(v_a) / prod(lam - mu_a)."""
    terms = {}
    for lam, wt in P:
        for tup in itertools.product(Q, repeat=nq):
            coef, mu_sum = wt, Fraction(0)
            for mu, v in tup:
                coef *= v / (lam - mu)
                mu_sum += mu
            key = wave_exponent(lam, mu_sum, w)
            terms[key] = terms.get(key, Fraction(0)) + coef
    return ExpPoly(terms)


def _pair_ladder(P, Q, w):
    """f^-_{2.3} of G2: ordered pairs of distinct lambdas against ordered
    mu-triples, weight -(l1 - l2)^2 / 2 * w1 * w2 * prod v / ((l1 - mu)(l2 - mu))."""
    terms = {}
    for (l1, w1), (l2, w2) in itertools.product(P, repeat=2):
        if l1 == l2:
            continue  # (l1 - l2)^2 weight vanishes
        base = Fraction(-1, 2) * (l1 - l2) ** 2 * w1 * w2
        for tup in itertools.product(Q, repeat=3):
            coef, mu_sum = base, Fraction(0)
            for mu, v in tup:
                coef *= v / ((l1 - mu) * (l2 - mu))
                mu_sum += mu
            key = wave_exponent(l1 + l2, mu_sum, w)
            terms[key] = terms.get(key, Fraction(0)) + coef
    return ExpPoly(terms)


def seed(m, s):
    """Seed configuration of ``m`` built directly from ordered spike tuples.

    Every f^+ is zero; f^-_{1.0} and f^-_{0.1} sum single spike waves, and
    the higher f^- fields are the ordered-tuple ladders above.
    """
    P, Q, w = _pairs(s.pspikes), _pairs(s.qspikes), s.constants
    minus = {
        (1, 0): ExpPoly({wave_exponent(lam, Fraction(0), w): wt for lam, wt in P}),
        (0, 1): ExpPoly({wave_exponent(Fraction(0), mu, w): v for mu, v in Q}),
        (1, 1): _ladder(P, Q, 1, w),
        (1, 2): _ladder(P, Q, 2, w),
        (1, 3): _ladder(P, Q, 3, w),
    }
    if m.name == "G2":
        minus[(2, 3)] = _pair_ladder(P, Q, w)
    fields = {key: ExpRational(minus[key[1]] if key[0] == MINUS else ExpPoly.zero())
              for key in m.field_keys}
    return FieldConfig(m.name, w, fields)
