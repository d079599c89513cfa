"""Reference exponential-polynomial arithmetic on plain Fraction dicts.

A polynomial here is a dict ``(a, b) -> c`` over Fractions with no zero
coefficients, meaning ``sum c * exp(a*t + b*x)``.  These are the direct
loops the integer-lattice ``ExpPoly`` must agree with.
"""

import hashlib
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
    delta = w.c1 * w.d2 - w.c2 * w.d1
    speed_a = (i * w.c1 + j * w.c2) / delta
    speed_b = (i * w.d1 + j * w.d2) / delta
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


# -- text: the forms nwave writes, built from the Fractions --------------------


def texts(p):
    """A document's term list: [[[a, b], coef], ...] sorted by exponent,
    each number as str(Fraction) writes it."""
    return [[[str(a), str(b)], str(c)] for (a, b), c in sorted(p.items())]


def repr_text(p):
    """ExpPoly's repr."""
    if not p:
        return "ExpPoly(0)"
    bits = []
    for (a, b), c in sorted(p.items()):
        bsign = "+" if b >= 0 else ""
        bits.append(f"{c}*e^({a}t{bsign}{b}x)")
    return "ExpPoly(" + " + ".join(bits) + ")"


def render(p):
    """A report's counterexample (verify.render_poly): the 20 terms of
    largest |coefficient|, ties in exponent order, and the sha256 digest of
    every term in exponent order."""
    items = sorted(p.items())
    canon = ";".join(f"{a},{b}:{c}" for (a, b), c in items)
    by_size = sorted(items, key=lambda kv: (-abs(kv[1]), kv[0]))
    return {
        "n_terms": len(items),
        "truncated": len(items) > 20,
        "terms": [{"a": str(a), "b": str(b), "coef": str(c)} for (a, b), c in by_size[:20]],
        "sha256": hashlib.sha256(canon.encode()).hexdigest(),
    }
