"""Reference exponential-polynomial arithmetic on plain Fraction dicts.

A polynomial here is a dict ``(a, b) -> c`` over Fractions with no zero
coefficients, meaning ``sum c * exp(a*t + b*x)``.  These are the direct
loops the integer-lattice ``ExpPoly`` must agree with.
"""

from fractions import Fraction
from math import gcd, lcm


def _put(out, k, c):
    s = out.get(k, Fraction(0)) + c
    if s:
        out[k] = s
    else:
        out.pop(k, None)


def from_terms(terms):
    """Reference dict from (coefficient, a, b) triples."""
    out = {}
    for c, a, b in terms:
        _put(out, (Fraction(a), Fraction(b)), Fraction(c))
    return out


def add(p, q):
    out = dict(p)
    for k, c in q.items():
        _put(out, k, c)
    return out


def mul(p, q):
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            _put(out, (a1 + a2, b1 + b2), c1 * c2)
    return out


def deriv(p, i, j, w):
    speed_a = (i * w.c1 + j * w.c2) / w.delta
    speed_b = (i * w.d1 + j * w.d2) / w.delta
    out = {}
    for (a, b), c in p.items():
        f = speed_a * a + speed_b * b
        if f:
            out[(a, b)] = c * f
    return out


def content(p):
    """A nonzero polynomial's content: the gcd of its coefficients (their
    numerators' gcd over their denominators' lcm), signed as its
    coefficient at the least exponent."""
    cs = p.values()
    g = Fraction(gcd(*(c.numerator for c in cs)), lcm(*(c.denominator for c in cs)))
    return g if p[min(p)] > 0 else -g
