"""Reference quotient arithmetic on plain (numerator, denominator) pairs.

Each part is a ``_fracpoly`` dict.  Every operation cross-multiplies, as
the quotient rule is written, with no factoring and no cancellation: the
direct forms the factored ExpRational must agree with by value.
"""

from fractions import Fraction

import _fracpoly as ref


def of(r):
    """The reference pair of an ExpRational, read off its expanded parts."""
    return dict(r.num.terms), dict(r.den.terms)


def _scaled(p, c):
    return {k: v * c for k, v in p.items()} if c else {}


def add(x, y):
    (n1, d1), (n2, d2) = x, y
    return ref.add(ref.mul(n1, d2), ref.mul(n2, d1)), ref.mul(d1, d2)


def neg(x):
    return _scaled(x[0], Fraction(-1)), x[1]


def mul(x, y):
    return ref.mul(x[0], y[0]), ref.mul(x[1], y[1])


def div(x, y):
    return ref.mul(x[0], y[1]), ref.mul(x[1], y[0])


def deriv(x, i, j, w):
    n, d = x
    top = ref.add(ref.mul(ref.deriv(n, i, j, w), d), _scaled(ref.mul(n, ref.deriv(d, i, j, w)), -1))
    return top, ref.mul(d, d)


def dlog(x, i, j, w):
    top, _ = deriv(x, i, j, w)
    return top, ref.mul(x[0], x[1])


def equal(x, y):
    return ref.mul(x[0], y[1]) == ref.mul(y[0], x[1])
