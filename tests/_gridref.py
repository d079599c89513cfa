"""Reference for exprat.grid_values: plain mpmath at 400 bits.

Reads each value only through ``ExpPoly.terms`` (rational exponents and
coefficients), evaluates every term with ``mpmath.exp`` and sums in mpmath,
so it shares no code with the integer kernel it checks.
"""

from fractions import Fraction

import mpmath

from nwave.exprat import ExpPoly

PREC = 400


def _mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def speeds(w, i: int, j: int):
    """(p, q) with D_{i,j} exp(a*t + b*x) = (p*a + q*b) exp(a*t + b*x)."""
    delta = w.c1 * w.d2 - w.c2 * w.d1
    return (i * w.c1 + j * w.c2) / delta, (i * w.d1 + j * w.d2) / delta


def _sums(poly: ExpPoly, t, x, pq):
    """Value, mass, D value and D mass sums of poly at (t, x)."""
    v = m = dv = dm = mpmath.mpf(0)
    for (a, b), c in poly.terms.items():
        term = _mp(c) * mpmath.exp(_mp(a * t + b * x))
        v += term
        m += abs(term)
        if pq is not None:
            dterm = _mp(pq[0] * a + pq[1] * b) * term
            dv += dterm
            dm += abs(dterm)
    return v, m, dv, dm


def field(u, t: Fraction, x: Fraction, pq=None):
    """(value, mass, D value, D mass, |den|, mass(den)) of the ExpRational u
    at (t, x), as 400-bit mpf; pq = speeds(...) of the derivative, or None.

    A one-term denominator is divided into the numerator first, as the
    evaluator does, so the masses are those of that quotient.
    """
    num, den = u.num, u.den
    if len(den.terms) == 1:
        ((a0, b0), c0), = den.terms.items()
        num = ExpPoly({(a - a0, b - b0): c / c0 for (a, b), c in num.terms.items()})
        den = ExpPoly.const(1)
    with mpmath.workprec(PREC):
        n, mn, dn, mdn = _sums(num, t, x, pq)
        d, md, dd, mdd = _sums(den, t, x, pq)
        if not d:
            return None, None, None, None, abs(d), md
        d2 = d * d
        return (n / d, mn / abs(d), (dn * d - n * dd) / d2,
                (mdn * abs(d) + mn * mdd) / d2, abs(d), md)
