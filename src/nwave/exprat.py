"""Exact arithmetic for exponential polynomials and their ratios.

An ExpPoly is a finite sum ``sum_k  c_k * exp(a_k*t + b_k*x)`` with rational
coefficients ``c_k`` and rational exponent pairs ``(a_k, b_k)``.  An
ExpRational is a normalized quotient of two ExpPolys.  Both are closed under
the field operations and under the characteristic derivatives ``D_{i,j}``,
so every identity this package verifies reduces to ``is_zero`` on an exactly
cancelled numerator.

Internally an ExpPoly lives on an integer lattice: integer keys over a
per-polynomial scale, and integer coefficients times one rational content,
a coprime integer pair.
Values built from spikes are keyed by spectral coordinates, the position
sums (sP, sQ) of their spike waves under one ``WaveConstants``; values built
from exponents (``ExpPoly.term``, ``ExpPoly(terms)``) by the exponents
(a, b); ``_lattice`` is the one builder from rational terms, and
``quotient_reader``, which documents are read through, takes them straight
to spectral coordinates.  Ring operations run on ints in
either, contents included; exponent pairs appear only at the boundary
(``terms``, ``lattice``, numeric evaluation, and ``term_texts``, the one
writer of exact numbers as text), Fractions only in ``terms``,
``as_constant`` and numeric evaluation.

``grid_values`` is the package's one numeric evaluator, with its one pole
rule.  It yields each value as exact integers; numeric verification judges
that form, and a number is rounded (``round_ratio``) only where it leaves
the package: ``nwave sample``, ``ExpRational.eval`` and a report's detail.
The evaluator's exponential (``_exp``, with a proven error bound), the
rounding and the decimal text (``ratio_text``) are integer arithmetic of
this module's own: the package imports no numeric library.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, reduce
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import mul
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

# Exponent of one term: (a, b) meaning exp(a*t + b*x).
LinForm = Tuple[Fraction, Fraction]

RatLike = Union[int, str, Fraction, Tuple[int, int]]

#: Binary precision for numeric evaluation (well above a 64-bit significand).
EVAL_PRECISION = 120

#: A denominator counts as vanishing at a point when its value is below its
#: mass (sum of absolute term values) times 2**-POLE_BITS: the rounding error
#: of the evaluation, with margin.  A same-sign denominator never does.
POLE_BITS = EVAL_PRECISION // 2

_ZERO_KEY = (0, 0)
_FRAC_ZERO = Fraction(0)
_NO_ATOMS: Dict = {}  # shared by every value without atoms: never modified


class DivisionByZeroField(ZeroDivisionError):
    """Division by an identically-zero ExpPoly/ExpRational."""


class EvalPole(ArithmeticError):
    """Numeric evaluation hit a denominator that vanishes to working precision."""


class InexactDivision(ArithmeticError):
    """divexact() was asked for a quotient that does not exist in the ring."""


class TooManyDigits(ValueError):
    """term_texts met a number past int's text limit, sys.get_int_max_str_digits()."""


def as_frac(v: RatLike) -> Fraction:
    """Coerce int/str/Fraction, or an integer pair (n, d) meaning n/d, to
    Fraction ('p/q' strings accepted)."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, str)):
        return Fraction(v)
    if type(v) is tuple and len(v) == 2 and type(v[0]) is int is type(v[1]):
        return Fraction(*v)
    raise TypeError(f"not an exact rational: {v!r}")


def _over_one(values: Sequence[Fraction]) -> Tuple[List[int], int]:
    """(numerators, den): the values as integers over their least common
    denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _times(n1: int, d1: int, n2: int, d2: int) -> Tuple[int, int]:
    """(n1/d1) * (n2/d2) in lowest terms, for factors in lowest terms with
    positive denominators: each numerator is reduced against the other
    factor's denominator (P. Henrici, J. ACM 3(1), 1956)."""
    g1, g2 = gcd(n1, d2), gcd(n2, d1)
    return (n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1)


def _quotient(n1: int, d1: int, n2: int, d2: int) -> Tuple[int, int]:
    """(n1/d1) / (n2/d2) in lowest terms (n2 != 0), as _times: the divisor
    inverted, its sign on the numerator."""
    return _times(n1, d1, d2, n2) if n2 > 0 else _times(n1, d1, -d2, -n2)


@dataclass(frozen=True)
class WaveConstants:
    """Characteristic speeds (c1, c2, d1, d2) with delta = c1*d2 - c2*d1 != 0.

    A wave exponent is theta(sP, sQ) = sP*(d1, -c1) + sQ*(d2, -c2) for
    position sums sP and sQ (spectral.wave_exponent).  ``lattice`` is
    (H, d1, d2, c1, c2), the speeds over their lcm H: theta's matrix times
    H, taking spectral keys over S to exponent keys over H*S.  ``basis`` is
    (t11, t12, t21, t22, h), the integer matrix T = h times theta's
    inverse, taking exponent keys over L to spectral keys over h*L.

    Instances compare and hash by ``lattice``, which the speeds determine
    and which determines them: equal speeds, however written, are equal
    constants.  Each speed is coerced by ``as_frac``, so an integer pair
    (n, d) is read as n/d without any text; ``basis`` and ``lattice`` are
    derived from the speeds' integers alone.
    """

    c1: Fraction = field(compare=False)
    c2: Fraction = field(compare=False)
    d1: Fraction = field(compare=False)
    d2: Fraction = field(compare=False)
    basis: Tuple[int, int, int, int, int] = field(init=False, repr=False, compare=False)
    lattice: Tuple[int, int, int, int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        speeds = []
        for name in ("c1", "c2", "d1", "d2"):
            f = as_frac(getattr(self, name))
            object.__setattr__(self, name, f)
            speeds += f.as_integer_ratio()
        # the speeds over their lcm H: d1 = D1/H and so on; delta = (C1 D2 - C2 D1) / H^2
        c1, e1, c2, e2, d1, f1, d2, f2 = speeds
        H = lcm(e1, e2, f1, f2)
        D1, D2, C1, C2 = d1 * (H // f1), d2 * (H // f2), c1 * (H // e1), c2 * (H // e2)
        det = C1 * D2 - C2 * D1
        if det == 0:
            raise ValueError("degenerate wave constants: c1*d2 - c2*d1 = 0")
        # theta's inverse is (-c2, -d2; c1, d1) / delta = (-C2, -D2; C1, D1) * H / det
        g = gcd(C1, C2, D1, D2) * H
        g = gcd(g, det) if det > 0 else -gcd(g, det)
        object.__setattr__(self, "basis", (-C2 * H // g, -D2 * H // g, C1 * H // g,
                                           D1 * H // g, det // g))
        object.__setattr__(self, "lattice", (H, D1, D2, C1, C2))


#: The factory name; WaveConstants coerces ints, 'p/q' strings and (n, d) pairs itself.
wave_constants = WaveConstants


class ExpPoly:
    """Canonical finite sum of rational multiples of exp(a*t + b*x).

    Stored as ``content * sum_k n_k * exp(theta_k)`` with integer ``n_k``,
    integer keys over a positive integer scale and the content a coprime
    integer pair, its denominator positive: with constants w, a key
    (u, v) is the spike wave exp(theta((u, v)/scale)) of w (WaveConstants);
    with none, (A, B) is exp((A*t + B*x)/scale).  A value with no constants
    is converted once where it meets one with constants (``+``, ``*``,
    ``==``, ``divexact``, ``deriv(i, j, w)``, ``sum_of_products(..., w)``);
    different constants raise ValueError there.  The form is canonical in
    its coordinates: minimal scale, ``n_k`` nonzero, coprime and positive at
    the lexicographically least key, the sign in the content's numerator.
    So in one coordinate system structural equality is functional equality;
    the hash reads only the sizes of content and coefficients, which no
    coordinate change alters.  Negation and scalar multiplication only
    change the content, and zero is the empty term map.  Every ring
    operation does its content arithmetic on the pair's ints; a Fraction is
    formed only where a value leaves (``terms``, ``ExpRational.as_constant``).
    """

    __slots__ = ("_scale", "_ints", "_cn", "_cd", "_w", "_hash")

    def __init__(self, terms: Union[None, Mapping, Iterable] = None):
        """Sum of the given ((a, b), coefficient) terms; repeated keys add up."""
        items = terms.items() if isinstance(terms, Mapping) else terms or ()
        p = _canonical(*_lattice([n for (a, b), c in items for v in (a, b, c)
                                  for n in as_frac(v).as_integer_ratio()]), None)
        self._scale, self._ints, self._cn, self._cd, self._w = (
            p._scale, p._ints, p._cn, p._cd, None)

    @staticmethod
    def zero() -> "ExpPoly":
        return _ZERO

    @staticmethod
    def const(c: RatLike) -> "ExpPoly":
        f = c if isinstance(c, int) else as_frac(c)
        return _poly(1, {_ZERO_KEY: 1}, f.numerator, f.denominator, None) if f else _ZERO

    @staticmethod
    def term(coef: RatLike, a: RatLike, b: RatLike) -> "ExpPoly":
        return ExpPoly({(a, b): coef})

    # -- the rational view -------------------------------------------------

    @property
    def terms(self) -> Mapping:
        """Read-only map (a, b) -> coefficient, keyed and valued by Fractions."""
        return _Terms(self)

    def lattice(self) -> Tuple[int, Dict[Tuple[int, int], int], int, int]:
        """(scale, {(A, B): n}, cn, cd) in exponent coordinates, whatever
        the value's own: the term n * cn/cd * exp((A*t + B*x)/scale).

        With no constants, the canonical form, its dict shared (read only);
        spectral keys give their exponents in order, over H times their scale.
        """
        w = self._w
        if w is None:
            return self._scale, self._ints, self._cn, self._cd
        return (w.lattice[0] * self._scale,
                dict(zip(_exponent_keys(self._ints, w), self._ints.values())), self._cn, self._cd)

    @staticmethod
    def from_lattice(scale: int, ints: Mapping, cn: int, cd: int,
                     w: Optional[WaveConstants] = None) -> "ExpPoly":
        """sum(n * cn/cd * exp((A*t + B*x)/scale)) over {(A, B): n}, integers
        (zeros allowed) over a positive integer scale, cn/cd in lowest terms
        with cd > 0, canonicalized, in w's spectral coordinates when w is given."""
        if w is None or not ints:
            return _canonical(scale, dict(ints), cn, cd, None)
        return _spectral(_poly(scale, ints, cn, cd, None), w)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "ExpPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._ints:
            return other
        if not other._ints:
            return self
        self, other, scale, t1, t2 = _common_scale(self, other)
        n1, d1, n2, d2 = self._cn, self._cd, other._cn, other._cd
        if n1 == n2 and d1 == d2:
            m1 = m2 = 1
        else:
            # the content g/d, g the numerators' gcd and d the denominators'
            # lcm, leaves integer multipliers; it is in lowest terms, as a
            # prime of d divides some d_i, so not n_i, so not g
            g, d = gcd(n1, n2), lcm(d1, d2)
            m1, m2 = n1 // g * (d // d1), n2 // g * (d // d2)
            n1, d1 = g, d
        out = dict(t1) if m1 == 1 else {k: v * m1 for k, v in t1.items()}
        get = out.get
        for k, v in t2.items():
            out[k] = get(k, 0) + v * m2
        return _canonical(scale, out, n1, d1, self._w)

    __radd__ = __add__

    def __neg__(self) -> "ExpPoly":
        if not self._ints:
            return self
        return _poly(self._scale, self._ints, -self._cn, self._cd, self._w)

    def __sub__(self, other) -> "ExpPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "ExpPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "ExpPoly":
        if isinstance(other, (int, Fraction)):
            if not other or not self._ints:
                return _ZERO
            return _poly(self._scale, self._ints,
                         *_times(self._cn, self._cd, other.numerator, other.denominator), self._w)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        if not self._ints or not other._ints:
            return _ZERO
        if self._w is not other._w:  # before the constant cases, so other constants raise
            self, other = _meet(self, other)
        n1, n2 = len(self._ints), len(other._ints)
        if self._w is not None and n1 > 1 and n2 > 1 and n1 * n2 > PRODUCT_PAIRS:
            return sum_of_products([[(1, self, other)]], self._w)[0]
        return _product(self, other)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        p, q = (self, other) if self._w is other._w else _meet(self, other)
        return (p._cn == q._cn and p._cd == q._cd and p._scale == q._scale
                and p._ints == q._ints)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # computed once: the polynomial is immutable
            self._hash = hash((abs(self._cn), self._cd, len(self._ints),
                               frozenset(map(abs, self._ints.values()))))
            return self._hash

    def is_zero(self) -> bool:
        return not self._ints

    def __bool__(self) -> bool:
        return bool(self._ints)

    # -- calculus ----------------------------------------------------------

    def deriv(self, i: int, j: int, w: WaveConstants) -> "ExpPoly":
        """Characteristic derivative D_{i,j}, in w's spectral coordinates:
        each key (u, v) scales by its D weight over the scale (_weights)."""
        p = _spectral(self, w)
        ints = p._ints
        out = {k: n * f for (k, n), f in zip(ints.items(), _weights(i, j, ints)) if f}
        return _canonical(p._scale, out, *_times(p._cn, p._cd, 1, p._scale), p._w)

    # -- inspection --------------------------------------------------------

    def eval(self, t: RatLike, x: RatLike) -> Fraction:
        """Numeric value at rational (t, x), rounded once to EVAL_PRECISION
        bits, as an exact Fraction whose size grows with the value's binary
        exponent (see ExpRational.eval)."""
        return ExpRational(self).eval(t, x)

    def eval_mass(self, t: RatLike, x: RatLike) -> Fraction:
        """Sum of absolute term values at (t, x): the pre-cancellation scale,
        rounded once to EVAL_PRECISION bits, as an exact Fraction whose size
        grows with the value's binary exponent (see ExpRational.eval)."""
        return _eval_point(ExpRational(self), t, x, 1)

    def __repr__(self) -> str:
        if not self._ints:
            return "ExpPoly(0)"
        bits = []
        for (a, b), c in term_texts(self):
            bsign = "" if b.startswith("-") else "+"
            bits.append(f"{c}*e^({a}t{bsign}{b}x)")
        return "ExpPoly(" + " + ".join(bits) + ")"


class _Terms(Mapping):
    """ExpPoly.terms: its length read off the polynomial, its map (the
    exponent form, ExpPoly.lattice, over Fractions) formed when first read."""

    __slots__ = ("_p", "_map")

    def __init__(self, p: ExpPoly):
        self._p, self._map = p, None

    def __len__(self) -> int:
        return len(self._p._ints)

    def __iter__(self):
        return iter(self._terms())

    def __getitem__(self, key) -> Fraction:
        return self._terms()[key]

    def _terms(self) -> dict:
        if self._map is None:
            scale, ints, cn, cd = self._p.lattice()
            self._map = {(Fraction(a, scale), Fraction(b, scale)): Fraction(cn * n, cd)
                         for (a, b), n in ints.items()}
        return self._map


def _poly(scale: int, ints: Dict[Tuple[int, int], int], cn: int, cd: int,
          w: Optional[WaveConstants]) -> ExpPoly:
    """Wrap an already-canonical lattice form, content cn/cd, without re-checking."""
    p = object.__new__(ExpPoly)
    p._scale, p._ints, p._cn, p._cd, p._w = scale, ints, cn, cd, w
    return p


_ZERO = _poly(1, {}, 0, 1, None)


def _product(p: ExpPoly, q: ExpPoly) -> ExpPoly:
    """p * q, nonzero and in one coordinate system, by the ring's one schoolbook
    loop over term pairs: ``__mul__``'s below PRODUCT_PAIRS, and a sparse _sum's."""
    content = _times(p._cn, p._cd, q._cn, q._cd)
    if _is_const(q):
        return _poly(p._scale, p._ints, *content, p._w)
    if _is_const(p):
        return _poly(q._scale, q._ints, *content, q._w)
    p, q, scale, t1, t2 = _common_scale(p, q)
    if len(t1) > len(t2):
        t1, t2 = t2, t1
    out: Dict[Tuple[int, int], int] = {}
    get = out.get
    inner = list(t2.items())
    for (a1, b1), n1 in t1.items():
        for (a2, b2), n2 in inner:
            k = (a1 + a2, b1 + b2)
            out[k] = get(k, 0) + n1 * n2
    if 0 in out.values():
        out = {k: v for k, v in out.items() if v}
    # Gauss's lemma keeps the product of primitive parts primitive, and
    # the least key of a product is the sum of the least keys, with
    # coefficient n1 * n2 > 0: only the scale can need reducing.
    return _reduced(scale, out, *content, p._w)


def _lattice(terms: Sequence[int], scale: int = 1,
             to: Tuple[int, int, int, int, int, int] = (1, 0, 0, 1, 0, 0)
             ) -> Tuple[int, Dict[Tuple[int, int], int], int, int]:
    """(m, {key: n}, 1, den): the terms c * exp(a*t + b*x), given as one
    flat list of six integers a term, the numerator and denominator (> 0)
    of a, of b and of c, on one lattice, each as n/den * exp((A*t + B*x)/m):
    m is the lcm of ``scale`` and the exponents' denominators, den that of
    the coefficients'.  The key of (A, B) is (t11*A + t12*B - u*e,
    t21*A + t22*B - v*e), e = m // scale, for ``to`` = (t11, t12, t21, t22,
    u, v): by default (A, B) itself.  Repeated keys add up, zeros kept: the
    lattice form ExpPoly.lattice gives and _canonical takes."""
    it = iter(terms)
    rows = list(zip(it, it, it, it, it, it))
    m = den = 1
    for _, ad, _, bd, _, cd in rows:
        m, den = lcm(m, ad, bd), lcm(den, cd)
    m = lcm(m, scale)
    t11, t12, t21, t22, u, v = to
    e = m // scale
    u, v = u * e, v * e
    ints: Dict[Tuple[int, int], int] = {}
    get = ints.get
    for an, ad, bn, bd, cn, cd in rows:
        A, B = an * (m // ad), bn * (m // bd)
        key = t11 * A + t12 * B - u, t21 * A + t22 * B - v
        ints[key] = get(key, 0) + cn * (den // cd)
    return m, ints, 1, den


def quotient_reader(den: Sequence[int], w: WaveConstants):
    """The reader of values over the terms ``den``, flat integers as
    _lattice takes them: a function from a numerator's terms, given so too,
    to num / den, an ExpRational in w's spectral coordinates; None when den
    is zero.

    It gives ExpRational(num, den) for the polynomials of the terms in one
    pass over each list: den's unit part u = c * exp(a*t + b*x), its term
    of least exponent (see _split), is read off den's lattice, and a
    numerator is put on one lattice with den's, its keys changed to
    spectral coordinates and divided by u as they are formed (_lattice),
    then canonicalized once.  den / u, read so too, is the one atom every
    value of the reader shares.
    """
    scale, ints, _, d = _lattice(den)
    if 0 in ints.values():
        ints = {k: n for k, n in ints.items() if n}
    if not ints:
        return None
    a, b = min(ints)  # the least exponent: the keys share one positive scale
    g = gcd(ints[a, b], d)
    inverse = _quotient(1, 1, ints[a, b] // g, d // g)  # 1/c, c = ints[a, b] / d
    t11, t12, t21, t22, h = w.basis
    to = t11, t12, t21, t22, t11 * a + t12 * b, t21 * a + t22 * b  # u's key over h*scale

    def over_unit(terms: Sequence[int]) -> ExpPoly:
        m, keys, _, cd = _lattice(terms, scale, to)
        return _canonical(h * m, keys, *_times(1, cd, *inverse), w)

    atoms = {over_unit(den): 1} if len(ints) > 1 else _NO_ATOMS
    return lambda num: _rat(over_unit(num), atoms) if num else _ZERO_RAT


def _is_const(p: ExpPoly) -> bool:
    """Whether p is a nonzero constant: its one key is (0, 0)."""
    return len(p._ints) == 1 and _ZERO_KEY in p._ints


def _reduced(scale, ints, cn, cd, w, g: int = 1) -> ExpPoly:
    """Wrap coefficients, at least one, at the minimal scale: primitive and
    sign-normalized once divided by g, in the same pass as the keys."""
    s = scale
    if s != 1:
        for a, b in ints:
            s = gcd(s, a, b)
            if s == 1:
                break
    if s != 1:
        ints = {(a // s, b // s): n // g for (a, b), n in ints.items()}
    elif g != 1:
        ints = {k: n // g for k, n in ints.items()}
    return _poly(scale // s, ints, cn, cd, w)


def _canonical(scale, ints, cn, cd, w) -> ExpPoly:
    """Canonical ExpPoly from integer coefficients (zeros allowed) and a
    content cn/cd in lowest terms, cd > 0."""
    if 0 in ints.values():
        ints = {k: n for k, n in ints.items() if n}
    if not ints or not cn:
        return _ZERO
    least = min(ints)
    g = gcd(*ints.values())
    if ints[least] < 0:
        g = -g
    r = gcd(g, cd)  # cn and cd are coprime: cn * g / cd reduces by r alone
    return _reduced(scale, ints, cn * (g // r), cd // r, w, g)


def _rescaled(ints, f):
    return {(a * f, b * f): n for (a, b), n in ints.items()}


def _common_scale(p: ExpPoly, q: ExpPoly):
    """(p, q, scale, ints of p, ints of q): in one coordinate system (_meet), on one lattice."""
    if p._w is not q._w:
        p, q = _meet(p, q)
    if p._scale == q._scale:
        return p, q, p._scale, p._ints, q._ints
    scale = lcm(p._scale, q._scale)
    return (p, q, scale, _rescaled(p._ints, scale // p._scale),
            _rescaled(q._ints, scale // q._scale))


# -- the two coordinate systems ---------------------------------------------------


def _weights(i: int, j: int, keys: Iterable) -> List[int]:
    """The D weight i*v - j*u of each spectral key (u, v) over S: D_{i,j}
    scales the spike wave of position sums (sP, sQ) by i*sQ - j*sP."""
    return [i * v - j * u for u, v in keys]


def _spectral(p: ExpPoly, w: WaveConstants) -> ExpPoly:
    """p in w's spectral coordinates (itself if it has them or is zero), keys
    (A, B) over L going to T (A, B) over h*L; ValueError for other constants."""
    if p._w is w or not p._ints or p._w is not None and p._w == w:
        return p
    if p._w is not None:
        raise ValueError("values with different wave constants meet")
    t11, t12, t21, t22, h = w.basis
    return _canonical(h * p._scale, {(t11 * a + t12 * b, t21 * a + t22 * b): n
                                     for (a, b), n in p._ints.items()}, p._cn, p._cd, w)


def _meet(p: ExpPoly, q: ExpPoly) -> Tuple[ExpPoly, ExpPoly]:
    """p and q in one coordinate system: one with no constants goes to the other's."""
    return (_spectral(p, q._w), q) if p._w is None else (p, _spectral(q, p._w))


def _exponent_keys(keys: Iterable, w: WaveConstants) -> List[Tuple[int, int]]:
    """Each spectral key's exponent key: (d1*u + d2*v, -(c1*u + c2*v)) over
    H*S by w.lattice for the key (u, v) over S."""
    _, d1, d2, c1, c2 = w.lattice
    return [(d1 * u + d2 * v, -c1 * u - c2 * v) for u, v in keys]


def _least(keys: Sequence[Tuple[int, int]], w: Optional[WaveConstants]) -> Tuple[int, int]:
    """The key, in w's coordinates, of the lexicographically least exponent."""
    if w is None:
        return min(keys)
    return min(zip(_exponent_keys(keys, w), keys))[1]


def _coerce_poly(v) -> ExpPoly:
    if isinstance(v, ExpPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return ExpPoly.const(v)
    return NotImplemented


ONE = ExpPoly.const(1)


def _ratio_str(n: int, d: int) -> str:
    """n/d (d > 0) as str(Fraction(n, d)) writes it."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def term_texts(p: ExpPoly) -> list:
    """p's terms sorted by exponent, [[[a, b], coef], ...], each number as
    str(Fraction) writes it: the package's one writer of exact numbers, which
    documents, witnesses and ``repr`` read, and so the one place that meets
    int's digit limit for text (sys.get_int_max_str_digits()): a number past
    it raises TooManyDigits."""
    scale, ints, cn, cd = p.lattice()
    try:
        return [[[_ratio_str(a, scale), _ratio_str(b, scale)], _ratio_str(cn * n, cd)]
                for (a, b), n in sorted(ints.items())]
    except ValueError:  # str() of an int past the limit
        raise TooManyDigits(f"a number to write has more than {sys.get_int_max_str_digits()} "
                            "digits (PYTHONINTMAXSTRDIGITS sets the limit)") from None


# -- sums of products -------------------------------------------------------------
#
# Kronecker substitution (A. Schoenhage, EUROCAM 1982; D. Harvey, J. Symbolic
# Comput. 44, 2009) in spectral coordinates: a sum of spike waves has one
# row per spectral coordinate u, nearly dense along v, and a row packed into
# one int, a digit per v step, is multiplied by one CPython int product.

#: A sum is packed only when its row ints have at most this many slots per
#: operand term, counting the rows and terms of every factor of every
#: product (a power's factor at each occurrence) and one output row.  The
#: Hirota residuals of the tau-verify bench jobs have 1.1 to 3.9.  Measured on
#: random spectral sums (two rows per operand, 4 to 30 terms per row, slots
#: per term 1.2 to 39): at 8 to 10 a zero sum packs in 0.1 to 0.6 of the
#: schoolbook's time, a nonzero one, whose digits are read back, in 0.5 to
#: 2.4.  Sparser sums, such as exponents that no few spike positions span,
#: are multiplied term by term, so no row int is mostly zeros.
PACK_SLOTS_PER_TERM = 8

#: ExpPoly.__mul__ hands a product of more than this many term pairs under
#: one set of constants to sum_of_products, and divexact a division whose
#: check product q * den has that many (|den| * (|num| - |den|)): on maps of
#: 1,000-term values the kernel took 0.2 to 0.4 of the dict loop's time.
PRODUCT_PAIRS = 2000


def sum_of_products(sums: Iterable[Iterable], w: WaveConstants,
                    divisors: Optional[Sequence[Optional[ExpPoly]]] = None) -> List[ExpPoly]:
    """[sum(c * x1 * ... * xk) over (c, x1, ..., xk) in terms] for each
    terms in sums: c an int or Fraction, k >= 1 factors (k free per term),
    each an ExpPoly x or ((i, j), x) for D_{i,j} x.  With divisors, one per
    sum, an ExpPoly or None, a sum with a divisor d gives divexact(sum, d)
    instead, and raises as divexact does.

    Factors are taken in w's spectral coordinates (u, v), converted first
    if they have no constants.  Sparse sums (PACK_SLOTS_PER_TERM) are formed
    by the schoolbook pair loop (_product), the others by Kronecker substitution:

    - the keys of each distinct operand of all the sums, a divisor of more
      than one term included, are brought to one common scale S, once, and
      each operand is split into rows by u;
    - ((i, j), x) is x's operand with each n times its D weight i*v - j*u
      (_weights), terms of weight 0 dropped, over a content divided by S;
    - a row becomes one int, the sum of n * 2**(k*j) over its terms, at
      slot j = (v - vmin) / s from the operand's least v; the slot step s
      is the gcd of the v differences within every operand and between the
      products' offsets (the sums of their factors' least v) in each sum,
      so every product lands on whole slots;
    - each sum has its own digit width: with its coefficients as integers
      over one rational content, k is the least multiple of 8 that exceeds
      by one the bit length of the bound sum |c| * |x1|_1 * ... * |xk|_1 on
      every output coefficient; an operand is packed once per digit width;
    - a product's rows are the chained int products of its factors' rows,
      added into the sum's output row at the sum of the factors' u and at
      the product's offset.

    An output coefficient then lies strictly within +-2**(k-1), so the
    balanced base-2**k digits of an output row are unique: a sum is zero
    exactly when each of its output row ints is 0.  Otherwise its nonzero
    digits are its terms, keyed (u, vmin + s*j) over S.

    A packed sum with a divisor of more than one term is divided on its
    output rows, which are never read back: the divisor's rows, packed at
    the sum's own digit width, long-divide them (_packed_quotient).  A
    nonzero remainder or a quotient row below the Newton box refuses the
    division.  A quotient whose digits are not proven at that width, and a
    sparse sum, are divided by the heap loop (_heap_quotient) on the sum
    read back, never by divexact, so a division enters the kernel once; a
    one-term divisor is a unit, divided by divexact.  The divisor's v
    spacing joins the slot step; its offset need not, as every v of a
    quotient q with q*d = sum lies in the one class vmin - vmin(d) mod s.
    """
    sums = [list(terms) for terms in sums]
    divisors = [None] * len(sums) if divisors is None else list(divisors)
    if len(divisors) != len(sums):
        raise ValueError(f"{len(divisors)} divisors for {len(sums)} sums")
    xs = [x[1] if type(x) is tuple else x for terms in sums for t in terms for x in t[1:]]
    if any(x._w is not w for x in xs if x._ints):  # a factor in other coordinates
        sums = [[(t[0], *[(x[0], _spectral(x[1], w)) if type(x) is tuple else _spectral(x, w)
                          for x in t[1:]]) for t in terms] for terms in sums]
        xs = [x[1] if type(x) is tuple else x for terms in sums for t in terms for x in t[1:]]
    # a divisor of more than one term is packed, in w's coordinates; others go to divexact
    packed = [_spectral(d, w) if d is not None and len(d._ints) > 1 else None for d in divisors]
    scale = lcm(*[x._scale for x in xs], *[d._scale for d in packed if d])
    ops: Dict[tuple, Optional[_Operand]] = {}

    def operand(x: ExpPoly, ij: Optional[Tuple[int, int]] = None) -> Optional[_Operand]:
        # by its term dict and scale, so p and -p are one operand; D_{i,j} x
        # by x's operand and (i, j), None if none of its weights is nonzero
        key = (id(x._ints), x._scale, ij)
        if key not in ops:
            f, ints = scale // x._scale, x._ints
            ops[key] = operand(x).derived(*ij) if ij else _Operand(
                [u * f for u, _ in ints], [v * f for _, v in ints], list(ints.values()))
        return ops[key]

    # each nonzero product as (term, its factors' _Operands, numerator,
    # denominator, 1-norm, least v, greatest v): the numerator over the
    # denominator is c times its factors' contents, and the norm and the
    # least and greatest v combine those of its factors; a single factor is
    # paired with ONE, so that a product has a first and a last factor
    products = []
    for terms in sums:
        prods = []
        for t in terms:
            c, *xs = t
            if not c:
                continue
            f, n, d, norm, lo, hi = [], c.numerator, c.denominator, 1, 0, 0
            for x in xs:
                ij, x = x if type(x) is tuple else (None, x)
                op = operand(x, ij) if x._ints else None
                if op is None:  # a zero factor: a zero product
                    break
                f.append(op)
                n *= x._cn
                d *= x._cd * (scale if ij else 1)
                norm *= op.norm
                lo += op.lo
                hi += op.hi
            else:
                if len(f) == 1:
                    f.append(operand(ONE))
                prods.append((t, f, n, d, norm, lo, hi))
        products.append(prods)
    ds = [operand(d) if d else None for d in packed]  # before the step, which they join
    step = gcd(*[v - op.lo for op in ops.values() if op for v in op.vs],
               *[p[5] - prods[0][5] for prods in products for p in prods]) or 1
    return [_sum(prods, p or d, op, step, scale, w)
            for prods, d, p, op in zip(products, divisors, packed, ds)]


class _Operand:
    """One operand of a packed sum: its terms' spectral coordinates u and v
    over the sum's scale and integer coefficients n, least and greatest v,
    the 1-norm of the n, and its rows [(u, int)] by digit width, once
    packed."""

    __slots__ = ("us", "vs", "ns", "nrows", "lo", "hi", "norm", "rows")

    def __init__(self, us: Sequence[int], vs: Sequence[int], ns: Sequence[int]) -> None:
        self.us, self.vs, self.ns = us, vs, ns
        self.nrows = len(set(us))
        self.lo, self.hi = min(vs), max(vs)
        self.norm = sum(map(abs, ns))
        self.rows: Dict[int, list] = {}

    def derived(self, i: int, j: int) -> Optional["_Operand"]:
        """D_{i,j} of this operand over S (see sum_of_products), or None."""
        us, vs = self.us, self.vs
        kept = [(u, v, n * f) for u, v, n, f in zip(us, vs, self.ns, _weights(i, j, zip(us, vs)))
                if f]
        return _Operand(*zip(*kept)) if kept else None

    def pack(self, step: int, k: int) -> list:
        """Each row as one int: n * 2**(k*j) summed over its terms, at slot
        j = (v - lo) / step."""
        if k not in self.rows:
            rows: Dict[int, int] = {}
            get, lo = rows.get, self.lo
            for u, v, n in zip(self.us, self.vs, self.ns):
                rows[u] = get(u, 0) + (n << (v - lo) // step * k)
            self.rows[k] = list(rows.items())
        return self.rows[k]


def _row_product(rows_p: Iterable, rows_q: Iterable, out: Optional[dict] = None) -> dict:
    """Add the product of two integer polynomials [(e, n)] into out {e: n},
    or a new dict when out is None, and return it: the package's one pair
    loop over integer rows, packed rows [(u, int)] here and tau's rows
    [(qsum, coefficient)] in nwave.tau."""
    if out is None:
        out = {}
    get = out.get
    for u1, x1 in rows_p:
        for u2, x2 in rows_q:
            u = u1 + u2
            out[u] = get(u, 0) + x1 * x2
    return out


def _sum(prods, divisor: Optional[ExpPoly], d: Optional[_Operand], step: int, scale: int,
         w: WaveConstants) -> ExpPoly:
    """sum(c * x1 * ... * xk) over the products prods of one sum (see
    sum_of_products), divided by divisor unless it is None, d its operand
    when it has more than one term: term by term when sparse, else packed:
    the rows of all but the last factor chained, scaled and shifted to the
    product's offset, the last pair added into the output rows, and then
    their quotient by d's rows or their nonzero digits read back."""
    if d is None and divisor is not None:  # a unit (or zero), which divexact never packs
        return divexact(_sum(prods, None, None, step, scale, w), divisor)
    if not prods:  # zero, and so is its quotient by d
        return _ZERO
    lo, hi = min([p[5] for p in prods]), max([p[6] for p in prods])
    nslots = (hi - lo) // step + 1
    slots, nterms = nslots, 0
    for op in [op for p in prods for op in p[1]] + ([d] if d else []):
        slots += op.nrows * ((op.hi - op.lo) // step + 1)
        nterms += len(op.vs)
    if slots > PACK_SLOTS_PER_TERM * nterms:
        s = sum((reduce(_product, [x[1].deriv(*x[0], w) if type(x) is tuple else x
                                   for x in t[1:]]) * t[0] for t, *_ in prods), _ZERO)
        return s if d is None or not s else _heap_quotient(s, divisor)
    # the products' coefficients as integers over one content g/den
    den = lcm(*[p[3] for p in prods])
    nums = [p[2] * (den // p[3]) for p in prods]
    g = gcd(*nums)
    bound = 0
    for n, p in zip(nums, prods):
        bound += abs(n) * p[4]
    nbytes = (bound // g).bit_length() // 8 + 1
    k = 8 * nbytes
    acc: Dict[int, int] = {}
    for n, (_, (first, *mid, last), _, _, _, o, _) in zip(nums, prods):
        m, shift = n // g, (o - lo) // step * k
        rows_p = first.pack(step, k)
        for op in mid:
            rows_p = _row_product(rows_p, op.pack(step, k)).items()
        _row_product([(u, (x * m) << shift) for u, x in rows_p], last.pack(step, k), acc)
    content = _times(g, 1, 1, den)
    if d is not None:
        rem = {u: x for u, x in acc.items() if x}
        if not rem:
            return _ZERO
        quot = _packed_quotient(rem, d, lo, hi, step, nbytes)
        if quot is not None:
            return _canonical(scale, quot, *_quotient(*content, divisor._cn, divisor._cd), w)
    out = {(u, lo + step * j): n for u, j, n in _digits(acc.items(), nslots, nbytes)}
    s = _canonical(scale, out, *content, w)
    return s if d is None else _heap_quotient(s, divisor)


def _digits(rows: Iterable, nslots: int, nbytes: int) -> Iterator[Tuple[int, int, int]]:
    """(u, j, n) for each nonzero balanced digit n at slot j of each packed row
    (u, x), k = 8 * nbytes bits a digit: with 2**(k-1) added to every slot each
    digit is a nonnegative k-bit field; OverflowError past nslots digits."""
    half = 1 << (8 * nbytes - 1)
    lift = int.from_bytes((bytes(nbytes - 1) + b"\x80") * nslots, "little")
    for u, x in rows:
        if x:
            digits = (x + lift).to_bytes(nslots * nbytes, "little")
            for j in range(nslots):
                n = int.from_bytes(digits[j * nbytes:(j + 1) * nbytes], "little") - half
                if n:
                    yield u, j, n


def divexact(num: ExpPoly, den: ExpPoly) -> ExpPoly:
    """Exact quotient num/den in the exponential-polynomial ring, an integral
    domain in which every monomial is a unit: a one-term divisor translates
    num's keys.  Under wave constants, a division whose check product q*den
    has more than PRODUCT_PAIRS term pairs, |den| * (|num| - |den|), is the
    one-product sum num over the divisor den of sum_of_products, divided on
    the kernel's packed rows; any other runs the heap loop (_heap_quotient).
    Raises InexactDivision if no ring quotient exists.
    """
    if den.is_zero():
        raise DivisionByZeroField("divexact by zero")
    if num.is_zero():
        return _ZERO
    if len(den._ints) == 1:
        return num * _split(den)[0]
    w = num._w if num._w is not None else den._w
    nd = len(den._ints)
    if w is not None and nd * (len(num._ints) - nd) > PRODUCT_PAIRS:
        return sum_of_products([[(1, num)]], w, [den])[0]
    return _heap_quotient(num, den)


def _heap_quotient(num: ExpPoly, den: ExpPoly) -> ExpPoly:
    """num/den for num nonzero and den of more than one term, in either
    coordinate system: eliminates the lexicographically greatest term of the
    remainder at each step, updating it in place, its greatest key found by
    a max-heap.  The ring is an ordered-group ring, so a quotient q with
    num = q*den has Newton polytope N(num) = N(q) + N(den): each key of q
    lies in the box [min(num) - min(den), max(num) - max(den)], taken per
    coordinate, and is lexicographically at least min(num) - min(den).  A
    candidate key outside those bounds proves that no quotient exists; so
    does a leading coefficient that does not divide, since by Gauss's lemma
    the quotient of primitive integer parts is integral.  Every step takes
    a new candidate key, smaller than the one before, from the finite set of
    lattice points in the box, so the loop ends.
    """
    num, den, scale, tn, td = _common_scale(num, den)
    content = _quotient(num._cn, num._cd, den._cn, den._cd)
    lead = max(td)
    lead_n = td[lead]
    lo_a = min(a for a, _ in tn) - min(a for a, _ in td)
    hi_a = max(a for a, _ in tn) - lead[0]
    lo_b = min(b for _, b in tn) - min(b for _, b in td)
    hi_b = max(b for _, b in tn) - max(b for _, b in td)
    mn, md = min(tn), min(td)
    least = (mn[0] - md[0], mn[1] - md[1])
    rest = [(k, n) for k, n in td.items() if k != lead]
    rem = dict(tn)
    heap = [(-a, -b) for a, b in rem]
    heapify(heap)
    quot: Dict[Tuple[int, int], int] = {}
    while heap:
        na, nb = heappop(heap)
        r = rem.pop((-na, -nb))
        if not r:
            continue
        qa, qb = -na - lead[0], -nb - lead[1]
        if not (lo_a <= qa <= hi_a and lo_b <= qb <= hi_b) or (qa, qb) < least:
            raise InexactDivision("quotient key outside the Newton-polytope bounds")
        qn, left = divmod(r, lead_n)
        if left:
            raise InexactDivision("leading coefficient does not divide")
        quot[(qa, qb)] = qn
        for (a, b), n in rest:
            k = (qa + a, qb + b)
            old = rem.get(k)
            if old is None:
                rem[k] = -qn * n
                heappush(heap, (-k[0], -k[1]))
            else:
                rem[k] = old - qn * n
    return _reduced(scale, quot, *content, num._w)


def _packed_quotient(rem: Dict[int, int], d: _Operand, vlo: int, vhi: int, step: int,
                     nbytes: int) -> Optional[dict]:
    """The quotient {(u, v): n} of a nonzero packed sum by its divisor d (see
    _sum), by long division in u over rows packed as sum_of_products packs
    them, a k = 8 * nbytes bit digit per v slot: rem {u: int} holds the
    sum's nonzero output rows (it is consumed), slot 0 at vlo, its terms
    within vlo <= v <= vhi, every coefficient within +-2**(k-1).
    None when the candidate is unproven, and _sum divides by the heap loop.

    Each step divides the greatest remainder row by the divisor's leading
    row (one int divmod) and subtracts the quotient row times the other
    divisor rows.  Setting the slot variable to 2**k is a ring homomorphism,
    so if a quotient exists every such division is exact: a nonzero remainder
    proves that none exists, and so does a quotient row below the Newton box.
    At the end the packed product of the quotient rows and the divisor is
    the numerator; their balanced digits q are accepted when they read the
    rows exactly and |q|_inf * |d|_1 < 2**(k-1), as q*d and num then have
    unique balanced digits and are equal.
    """
    nslots = (vhi - d.hi - vlo + d.lo) // step + 1
    if nslots < 1:
        raise InexactDivision("quotient key outside the Newton-polytope bounds")
    rows = dict(d.pack(step, 8 * nbytes))
    top = max(rows)
    lead, lo, quot = rows.pop(top), min(rem) - min(d.us), {}
    while rem:
        u = max(rem)
        r = rem.pop(u)
        if r:
            if u - top < lo:
                raise InexactDivision("quotient key outside the Newton-polytope bounds")
            x, left = divmod(r, lead)
            if left:
                raise InexactDivision("leading coefficient does not divide")
            quot[u - top] = x
            _row_product([(u - top, -x)], rows.items(), rem)
    try:
        q = {(u, vlo - d.lo + step * j): c for u, j, c in _digits(quot.items(), nslots, nbytes)}
    except OverflowError:
        return None
    return q if max(map(abs, q.values())) * d.norm >> (8 * nbytes - 1) == 0 else None


def _split(p: ExpPoly) -> Tuple[ExpPoly, Optional[ExpPoly]]:
    """(1 / u, p / u) for u = c * exp(a*t + b*x) the term of p (nonzero)
    of lexicographically least exponent (_least), a unit of the ring: the
    inverse of p's unit part, one term at its minimal scale, and p's atom,
    None when p is a single term.  A product by a constant keeps the other
    factor's form as it is.

    The atom has least exponent 0 and coefficient 1 there, so equal
    polynomials up to a monomial and a constant share one atom, whichever
    coordinates it was split in.
    """
    (a, b), w = _least(p._ints, p._w), p._w
    coef = _times(p._cn, p._cd, p._ints[a, b], 1)
    inverse = _reduced(p._scale, {(-a, -b): 1}, *_quotient(1, 1, *coef), w)
    return inverse, (p * inverse if len(p._ints) > 1 else None)


class ExpRational:
    """Quotient of two ExpPolys: a numerator over a product of known atoms.

    An atom is a normalized ExpPoly (least exponent 0, coefficient 1 there;
    see ``_split``), so atoms key a dict, and two values share an atom exactly
    when the polynomials are equal.  The denominator is ``prod(atom**k)``,
    atoms with multiplicities.  A monomial is a unit of the ring, so where
    a polynomial divides (the constructor and ``/``) its least term is
    divided into the numerator and only its atom joins the denominator.
    Atoms come from the denominator given to the constructor and from the
    numerator of every divisor.  No gcd is ever taken; known factors are
    cancelled instead:

    - ``+`` and ``-`` work over the lcm of the two atom multisets, not over
      the product;
    - ``*`` adds multiplicities; ``/`` cancels the divisor's atoms against
      the dividend's and adds the atom of the divisor's numerator, which a
      divisor splits once, at the first division by it;
    - ``deriv`` multiplies the denominator by the product of its distinct
      atoms, not by the whole denominator;
    - ``cancel`` divides the numerator by each atom while ``divexact``
      allows it.

    Canonical form: zero is 0/1; ``den``, the product of the atoms formed
    when read (over one atom, that atom), has least exponent 0 and coefficient
    1 there, and is 1 exactly when there is no atom.  Values with the same
    atoms compare their numerators; others are cross-multiplied over the
    lcm, so equal values always compare equal.
    """

    __slots__ = ("num", "_atoms", "_unit")  # _unit: _split(num), filled by the first / by it

    def __init__(self, num, den=None):
        num = _coerce_poly(num)
        den = ONE if den is None else _coerce_poly(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("ExpRational parts must be ExpPoly or rational")
        if den.is_zero():
            raise DivisionByZeroField("zero denominator")
        self.num, self._atoms = num or _ZERO, _NO_ATOMS
        if num and den is not ONE:
            inverse, atom = _split(den)
            self.num = num * inverse
            if atom is not None:
                self._atoms = {atom: 1}

    @staticmethod
    def zero() -> "ExpRational":
        return _ZERO_RAT

    @staticmethod
    def const(c: RatLike) -> "ExpRational":
        return ExpRational(ExpPoly.const(c))

    @staticmethod
    def all_over(nums: Iterable[ExpPoly], den) -> List["ExpRational"]:
        """[ExpRational(num, den) for num in nums], with den split once: every
        value is num times 1/u, u den's unit part, over the same atoms."""
        u = ExpRational(1, den)  # u.num is one term, the inverse of den's unit part
        return [_rat(n * u.num, u._atoms) for n in nums]

    def is_zero(self) -> bool:
        return not self.num._ints

    def is_poly(self) -> bool:
        return not self._atoms

    @property
    def den(self) -> ExpPoly:
        """The denominator, the product of the atoms."""
        return _times_powers(None, self._atoms.items())

    @property
    def atoms(self) -> frozenset:
        """The (atom, multiplicity) pairs of the denominator: values with
        equal atoms have one denominator, so the atoms key what is made of it."""
        return frozenset(self._atoms.items())

    def _over(self, atoms: Dict[ExpPoly, int]) -> ExpPoly:
        """The numerator over prod(atoms), a multiple of this value's
        denominator."""
        have = self._atoms
        return _times_powers(self.num, [(a, k - have.get(a, 0)) for a, k in atoms.items()])

    # -- field operations --------------------------------------------------

    def __add__(self, other) -> "ExpRational":
        other = _coerce_rational(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num._ints:
            return other
        if not other.num._ints:
            return self
        atoms = _lcm((self, other))
        return _rat(self._over(atoms) + other._over(atoms), atoms)

    __radd__ = __add__

    def __neg__(self) -> "ExpRational":
        return _rat(-self.num, self._atoms)

    def __sub__(self, other) -> "ExpRational":
        other = _coerce_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "ExpRational":
        other = _coerce_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "ExpRational":
        if isinstance(other, (int, Fraction)):
            return _rat(self.num * other, self._atoms)
        other = _coerce_rational(other)
        if other is NotImplemented:
            return NotImplemented
        if not (self.num._ints and other.num._ints):
            return _ZERO_RAT
        atoms, more = self._atoms, other._atoms
        if not atoms:
            atoms = more
        elif more:
            atoms = dict(atoms)
            for a, k in more.items():
                atoms[a] = atoms.get(a, 0) + k
        return _rat(self.num * other.num, atoms)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ExpRational":
        other = _coerce_rational(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num._ints:
            raise DivisionByZeroField("division by zero field value")
        if not self.num._ints:
            return _ZERO_RAT
        atoms = dict(self._atoms)
        for a, k in other._atoms.items():
            have = atoms.pop(a, 0)
            if have > k:
                atoms[a] = have - k
        try:
            inverse, atom = other._unit
        except AttributeError:  # split once: the value is immutable
            inverse, atom = other._unit = _split(other.num)
        num = self._over(other._atoms) * inverse
        if atom is not None:
            atoms[atom] = atoms.get(atom, 0) + 1
        return _rat(num, atoms)

    def __rtruediv__(self, other) -> "ExpRational":
        other = _coerce_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __eq__(self, other) -> bool:
        other = _coerce_rational(other)
        if other is NotImplemented:
            return NotImplemented
        if not (self.num._ints and other.num._ints):
            return not (self.num._ints or other.num._ints)
        atoms = _lcm((self, other))
        return self._over(atoms) == other._over(atoms)

    def __hash__(self) -> int:
        raise TypeError("ExpRational is not hashable (equality is semantic)")

    def cancel(self) -> "ExpRational":
        """The same value with each atom divided out of the numerator as
        often as ``divexact`` allows.

        A trial that fails is refused by divexact's Newton-polytope bounds
        or its leading coefficient, usually within its first steps.
        """
        num = self.num
        if not num._ints:
            return self
        left = {}
        for a, k in self._atoms.items():
            while k:
                try:
                    num = divexact(num, a)
                except InexactDivision:
                    break
                k -= 1
            if k:
                left[a] = k
        return _rat(num, left)

    # -- calculus ----------------------------------------------------------

    def deriv(self, i: int, j: int, w: WaveConstants) -> "ExpRational":
        """Quotient-rule D_{i,j}: every atom's multiplicity rises by one.
        With Q the product of the atoms (with multiplicity) and P of the
        distinct atoms, (n/Q)' = (n'P - n * sum(k * a' * P/a)) / (Q*P).
        So over a one-atom denominator d the result is (n'd - nd')/d^2,
        numerator and denominator."""
        n, atoms = self.num, self._atoms
        if not n._ints:
            return self
        rest = sum((_times_powers(a.deriv(i, j, w) * k, [(b, 1) for b in atoms if b is not a])
                    for a, k in atoms.items()), _ZERO)
        top = n.deriv(i, j, w) * _times_powers(None, [(a, 1) for a in atoms]) - n * rest
        return _rat(top, {a: k + 1 for a, k in atoms.items()})

    def as_constant(self):
        """Return this value as a Fraction if it is constant, else None: a
        value is constant exactly when ``cancel`` divides out every atom
        and leaves a constant."""
        if self.is_zero():
            return _FRAC_ZERO
        c = self.cancel()
        if c.is_poly() and _is_const(c.num):
            return Fraction(c.num._cn, c.num._cd)
        return None

    def eval(self, t: RatLike, x: RatLike) -> Fraction:
        """Numeric value at rational (t, x), rounded once to EVAL_PRECISION
        bits, as an exact Fraction (no float overflow or underflow);
        EvalPole where the denominator vanishes to working precision (see
        POLE_BITS).

        The Fraction is m * 2**e exactly, so its numerator or denominator
        has about |e| bits: its cost grows with the value's binary
        exponent, |t| / ln 2 bits for e^t (180 kB at t = 10**6, 180 MB at
        t = 10**9)."""
        v = _eval_point(self, t, x, 0)
        if v is None:
            raise EvalPole(f"denominator vanishes to working precision at (t={t}, x={x})")
        return v

    def __repr__(self) -> str:
        if self.is_poly():
            return f"ExpRational({self.num!r})"
        return f"ExpRational({self.num!r} / {self.den!r})"


def _coerce_rational(v) -> "ExpRational":
    if isinstance(v, ExpRational):
        return v
    if isinstance(v, (ExpPoly, int, Fraction)):
        return ExpRational(v)
    return NotImplemented


def _rat(num: ExpPoly, atoms: Dict[ExpPoly, int]) -> ExpRational:
    """Wrap num / prod(atoms) without re-normalizing."""
    if not num._ints:
        return _ZERO_RAT
    r = object.__new__(ExpRational)
    r.num, r._atoms = num, atoms
    return r


def _times_powers(num: Optional[ExpPoly], powers: Iterable[Tuple[ExpPoly, int]]) -> ExpPoly:
    """num (None for 1, so that a lone a**1 is a itself) times a**k for each
    (a, k) of powers, k <= 0 adding nothing; a zero num is returned at once."""
    if num is not None and not num._ints:
        return num
    for a, k in powers:
        for _ in range(k):
            num = a if num is None else num * a
    return ONE if num is None else num


_ZERO_RAT = ExpRational(_ZERO)


def _lcm(values: Sequence[ExpRational]) -> Dict[ExpPoly, int]:
    """The atoms of the least common denominator of the values, each at its
    largest multiplicity; the first value's own dict when it already is
    that."""
    atoms = values[0]._atoms
    for v in values[1:]:
        grow = {a: k for a, k in v._atoms.items() if k > atoms.get(a, 0)}
        if grow:
            atoms = {**atoms, **grow}
    return atoms


def common_denominator(values: Sequence[ExpRational]) -> Tuple[ExpPoly, List[ExpPoly]]:
    """(L, [N]): the least common denominator L of the values (the _lcm of
    their atoms), expanded, and each value's numerator over it, so that
    v = N / L.  Over one atom, as for values that share a one-atom
    denominator, L is that atom as held, and a value whose atoms are L's
    has its own numerator as N.
    """
    atoms = _denominator_atoms(values)
    return _times_powers(None, atoms.items()), [v._over(atoms) for v in values]


def _denominator_atoms(values: Sequence[ExpRational]) -> Dict[ExpPoly, int]:
    """The atoms of common_denominator's L: the _lcm of the nonzero values."""
    return _lcm([v for v in values if v.num._ints] or [_ZERO_RAT])


# -- numeric evaluation -----------------------------------------------------------
#
# A coordinate's exponentials are walked one distinct gap at a time (_exps)
# and kept at the walk's own precision, as integer pairs (mantissa,
# exponent); each distinct polynomial's terms are summed as integers once
# per point, and grid_values yields every value as an integer ratio times a
# power of two.  Nothing goes through float, so no value can overflow.  A
# number is rounded only where it leaves the package, once, by round_ratio,
# to an integer pair (mantissa, exponent), and ratio_text writes that pair
# as decimal text with integers alone.

#: Bits a sum keeps below its largest term, besides those of its coefficients.
_GUARD = EVAL_PRECISION + 8
#: Halvings of the reduced argument before _exp's Taylor sum (and squarings after).
_HALVINGS = 12


@cache
def _ln2(bits: int) -> int:
    """An integer L with ln2 * 2**bits - 2 < L <= ln2 * 2**bits.

    ln 2 = sum_j 2 / ((2j+1) 3**(2j+1)) is summed at g = bits + c bits,
    c = bitlen(bits): each term is its exact floor and the tail after the
    first zero term is below one unit, so the sum lies less than
    (terms + 1) < g/3 + 2 <= 2**c units of 2**-g below ln 2, and dropping
    its c low bits leaves less than 2 units of 2**-bits.
    """
    c = bits.bit_length()
    x, s, j = (2 << bits + c) // 3, 0, 1
    while x:
        s += x // j
        x //= 9
        j += 2
    return s >> c


@cache
def _log10_2(bits: int) -> int:
    """An integer within 2 of log10(2) * 2**bits: ln 2 over
    ln 10 = 3 ln 2 + 2 atanh(1/9), both at g = bits + bitlen(bits) + 8 bits.

    Each atanh term is its exact floor, like _ln2's, so the sum is less
    than g/4 + 4 units of 2**-g below 2 atanh(1/9) (a term per 6 bits,
    each less than 1.4 units below), and _ln2(g) less than 2 below ln 2.
    The quotient is then within a relative (g/9 + 8) * 2**-g of log10 2,
    less than 0.01 of a unit of 2**-bits, and its floor adds less than 1.
    """
    g = bits + bits.bit_length() + 8
    ln2, x, a, j = _ln2(g), (2 << g) // 9, 0, 1
    while x:  # 2 atanh(1/9) = sum_j 2 / ((2j+1) 9**(2j+1))
        a += x // j
        x //= 81
        j += 2
    return (ln2 << bits) // (3 * ln2 + a)


def _exp(n: int, d: int, w: int) -> Tuple[int, int]:
    """exp(n/d) (d > 0) as (m, e), m * 2**e, with 2**w <= m <= 2**(w+1)
    and a relative error below 2**-w.

    With x = n/d, p = w + H + g fixed-point bits (H = _HALVINGS, g =
    bitlen(w) + 5) and f = p - H + bitlen(floor|x|) + 3 bits for the
    reduction:

    - Reduction by ln 2.  t = floor(x * 2**f), L = _ln2(f) and
      k, r = divmod(t, L), so x - k ln2 - r/2**f is below
      (1 + 2|k|) * 2**-f <= 2**-(p-H) in size (|x| < 2**(f-p+H-3) bounds
      |k|), and r/2**f lies in [0, ln 2).  R = floor(r * 2**-(f-p+H))
      keeps p - H bits of it: rho = R / 2**(p-H) is within 2**(1+H-p) of
      x - k ln2, a relative error below 2**(2+H-p) in exp(rho) against
      exp(x - k ln2).
    - Taylor sum of exp(y), y = R / 2**p = rho / 2**H in [0, 2**-H), in
      p-bit fixed point: T_0 = 2**p and T_j = floor(T_{j-1} R / 2**p / j),
      so each T_j is at most and less than 1.001 units below its exact
      term (an inherited deficit is scaled by y/j < 2**-12), until the
      first T_J = 0: then the exact term J is below 1.001 and the tail
      from it below 1.002 units, and J <= ceil(p/H), as the exact term j
      is below 2**(p - Hj).  The sum S is at most exp(y) * 2**p and less
      than 1.01 J units below it, a relative deficit below 1.01 J * 2**-p.
    - H squarings, S <- floor(S**2 / 2**p): S stays at least 2**p, and
      each squaring doubles the relative deficit and adds one below
      2**-p, so S ends below exp(rho) * 2**p by a relative deficit below
      2**H * (1.01 J + 1) * 2**-p = (1.01 J + 1) * 2**-(p-H).
    - Together, below (1.01 J + 5) * 2**-(w+g) < 2**-(w+2), as
      J <= p/H + 1 <= w/6 + 3 and 1.01 J + 5 < w/5 + 9 < 2**(g-2) =
      8 * 2**bitlen(w).  Rounding S to w + 1 bits, m = round(S / 2**(p-w)),
      adds at most 2**-(w+1), and 2**-(w+1) + 2**-(w+2) plus their product
      is below 2**-w.

    The result is exp(rho) * 2**k with exp(rho) in [1, 2), so
    2**w <= m <= 2**(w+1).
    """
    p = w + _HALVINGS + w.bit_length() + 5
    f = p - _HALVINGS + (abs(n) // d).bit_length() + 3
    k, r = divmod((n << f) // d, _ln2(f))
    r >>= f - p + _HALVINGS
    s = term = 1 << p
    j = 1
    while term:
        term = (term * r >> p) // j
        s += term
        j += 1
    for _ in range(_HALVINGS):
        s = s * s >> p
    return (s + (1 << (p - w - 1))) >> (p - w), k - w


def _exps(ks: Sequence[int], n: int, d: int) -> List[Tuple[int, int]]:
    """exp(k*n/d) (d > 0) for each integer k of ks, as (mantissa,
    exponent) pairs.

    One exponential per distinct gap: the distinct ks are walked in order
    from the least, and each value is its predecessor times exp(gap*n/d),
    with exp of the least k and of each distinct gap computed once, by
    _exp, at w = EVAL_PRECISION + 8 + bitlen(2N) bits for N distinct ks:
    each within a relative 2**-w, whatever the size of the argument.  A
    product is an integer product cut to w + 1 bits, a relative error
    below 2**-w.  The i-th distinct k (from 0) carries i + 1 exponentials
    and i products, so every value is within a relative
    (1 + 2**-w)**(2N-1) - 1 < (2N - 1) * 2**-w * (1 + 2**-100)
    < 2**-(EVAL_PRECISION + 8), as 2**bitlen(2N) > 2N.
    """
    if not n or not ks:
        return [(1, 0)] * len(ks)
    walk = sorted(set(ks))
    w = _GUARD + (2 * len(walk)).bit_length()
    # k -> exp(k*n/d), for the least k and each gap; a least k of 0 costs nothing
    exps = {0: (1 << w, -w)}

    def exp(k: int) -> Tuple[int, int]:
        if k not in exps:
            exps[k] = _exp(k * n, d, w)
        return exps[k]

    m, e = exp(walk[0])
    walked = {walk[0]: (m, e)}
    for lo, hi in zip(walk, walk[1:]):
        gm, ge = exp(hi - lo)
        m *= gm
        cut = m.bit_length() - w - 1
        m, e = walked[hi] = m >> cut, e + ge + cut
    return [walked[k] for k in ks]


def round_ratio(p: int, q: int, e: int) -> Tuple[int, int]:
    """p/q * 2**e (q > 0) rounded once to EVAL_PRECISION bits, to nearest
    with ties to even, as a signed pair (m, x) meaning m * 2**x: the
    package's one rounding of an integer ratio, which turns grid_values'
    integer form into the numbers the package prints.

    The quotient is taken to EVAL_PRECISION + 1 or + 2 bits and rounded
    with the division's remainder as a sticky bit, so that rounding it is
    rounding p/q.
    """
    a = abs(p)
    if not a:
        return 0, 0
    # a / q * 2**-s lies in (2**EVAL_PRECISION, 2**(EVAL_PRECISION+2))
    s = a.bit_length() - q.bit_length() - EVAL_PRECISION - 1
    m, rem = divmod(a, q << s) if s >= 0 else divmod(a << -s, q)
    cut = m.bit_length() - EVAL_PRECISION
    low, m = m & ((1 << cut) - 1), m >> cut
    half = 1 << (cut - 1)
    if low > half or low == half and (rem or m & 1):
        m += 1
    return (m if p > 0 else -m), e + s + cut


def _pow5(a: int, prec: int, up: bool) -> Tuple[int, int]:
    """(t, s) with t * 2**s <= 5**a (>= with up), by binary powering that
    cuts each step's result to prec bits, rounding down (up); s = 0 exactly
    when no step was cut, and then t = 5**a."""
    t, s = 1, 0
    for bit in bin(a)[2:]:
        t, s = t * t * (5 if bit == "1" else 1), 2 * s
        cut = t.bit_length() - prec
        if cut > 0:
            t, s = (-(-t >> cut) if up else t >> cut), s + cut
    return t, s


def _floor_scaled(m: int, x: int, k: int) -> int:
    """floor(m * 2**x * 10**k) for m > 0, without forming 10**|k|.

    10**k = 5**k * 2**k, and 5**|k| is enclosed by _pow5 at 128 +
    bitlen(|k|) bits, as each of its bitlen(|k|) steps can double the
    enclosure's relative width: the precision is doubled until both ends
    of the enclosure give the same floor, which they do once the
    enclosure is exact, if not before.
    """
    prec = 128 + abs(k).bit_length()
    while True:
        floors = []
        for up in (False, True):
            t, s = _pow5(abs(k), prec, up)
            if k >= 0:  # m * t * 2**e
                e = x + k + s
                floors.append(m * t << e if e >= 0 else m * t >> -e)
            else:  # m * 2**e / t
                e = x + k - s
                floors.append((m << e) // t if e >= 0 else m // (t << -e))
            if not s:  # exact
                return floors[0]
        if floors[0] == floors[1]:
            return floors[0]
        prec *= 2


def ratio_text(p: int, q: int, e: int, sci: bool = False) -> str:
    """p/q * 2**e (q > 0) as text, rounded once by round_ratio, without
    float's range limit: 17 significant digits, as ``nwave sample`` writes
    a value, or with sci ``'%.3e'`` text, as a report's detail prints it.

    The digits are those of mpmath's ``to_str`` of the rounded value (17
    digits, and 4 with an exponent for sci), formed with integers: for n
    digits, the value is cut towards zero to B bits (76 for 17 digits, 33
    for 4) or to an integer, whichever keeps more, its first n + 1
    decimal digits are read exactly, and the last of them rounds the
    first n half up.  Past 2**±3500 mpmath first divides by a power of
    ten rounded to B bits, which reads the digits of an approximation of
    the value instead; the texts then differ only for a value within
    about 2**-B of a decimal tie.
    """
    m, x = round_ratio(p, q, e)
    if not m:
        return "0.000e+00" if sci else "0.0"
    n, bits = (4, 33) if sci else (17, 76)
    sign, m = ("-" if m < 0 else ""), abs(m)
    size = m.bit_length() + x  # 2**(size-1) <= value < 2**size
    cut = min(size - bits, 0) - x
    if cut > 0:
        m, x = m >> cut, x + cut
    # digits = floor(value * 10**k) with n + 1 digits: the value's exponent is n - k,
    # and floor(log10 value) is floor((size - 1) log10 2) or one more
    w = size.bit_length() + 8
    k = n - ((size - 1) * _log10_2(w) >> w)
    while True:
        digits = _floor_scaled(m, x, k)
        if digits >= 10 ** (n + 1):
            k -= 1
        elif digits < 10 ** n:
            k += 1
        else:
            break
    digits, last = divmod(digits, 10)
    exp10 = n - k
    if last >= 5:
        digits += 1
        if digits == 10 ** n:
            digits, exp10 = 10 ** (n - 1), exp10 + 1
    s = str(digits)
    if sci:
        return f"{sign}{s[0]}.{s[1:]}e{exp10:+03d}"
    fixed = -5 < exp10 < 17  # to_str's fixed-point range for 17 digits
    point = 1
    if fixed:
        s, point = "0" * max(-exp10, 0) + s, max(exp10, 0) + 1
    s = (s[:point] + "." + s[point:]).rstrip("0")
    s += "0" if s.endswith(".") else ""
    return sign + s if fixed else f"{sign}{s}e{exp10:+d}"


class _Sums:
    """One polynomial of grid_values as integer dot products over the slots.

    Its terms are n_k * exp_k, with the content c (an integer pair) apart,
    and for each derivative D_{i,j} asked of it dn_k * exp_k, dn_k = n_k
    times the D weight of its spectral key (_weights), over grid_values'
    spectral scale.  Every value that holds the polynomial, in either
    coordinate system, reads the same _Sums and c, so its value and mass
    sums are formed once per point, and its D sums once per derivative.
    """

    __slots__ = ("slots", "keys", "ns", "c", "abs_ns", "width", "derivs", "dsums", "anchors")

    def __init__(self, slots, keys, ns, c):
        self.slots, self.keys, self.ns, self.c = slots, keys, ns, c
        self.abs_ns = [abs(n) for n in ns]
        self.width = _GUARD + sum(self.abs_ns).bit_length()
        self.derivs: Dict[Tuple[int, int], int] = {}  # (i, j) -> index into dsums
        self.dsums = []  # (dns, |dns|) of each derivative
        self.anchors = []  # (slots, width) of D sums that some terms do not reach

    def derivative(self, i: int, j: int) -> int:
        """The index, in at()'s D sums, of the derivative D_{i,j}."""
        k = self.derivs.get((i, j))
        if k is None:
            k = self.derivs[i, j] = len(self.dsums)
            dns = [n * f for n, f in zip(self.ns, _weights(i, j, self.keys))]
            abs_dns = [abs(n) for n in dns]
            self.dsums.append((dns, abs_dns))
            dwidth = _GUARD + sum(abs_dns).bit_length()
            if all(dns):  # D sums share the value's largest term
                self.width = max(self.width, dwidth)
            elif any(dns):  # terms with D factor 0 cannot anchor the D sums
                self.anchors.append(([s for s, n in zip(self.slots, dns) if n], dwidth))
        return k

    def at(self, ms, es, tops):
        """(e0, value sum, mass sum, [(D sum, D mass sum)] by derivative):
        integers that times 2**e0 are the sums at one point, without the
        content."""
        slots = self.slots
        e0 = max(map(tops.__getitem__, slots)) - self.width
        for dslots, dwidth in self.anchors:
            e0 = min(e0, max(map(tops.__getitem__, dslots)) - dwidth)
        al = [m << (e - e0) if e >= e0 else m >> (e0 - e)
              for m, e in zip(map(ms.__getitem__, slots), map(es.__getitem__, slots))]
        return (e0, sum(map(mul, self.ns, al)), sum(map(mul, self.abs_ns, al)),
                [(sum(map(mul, dns, al)), sum(map(mul, abs_dns, al)))
                 for dns, abs_dns in self.dsums])


class _Field:
    """One value of grid_values: c * num / den, c = vn/vd, with den None
    for a polynomial value (denominator 1); r is grid_values' spectral
    scale, the denominator of the D weights, and jn, jd the derivative's
    place in the D sums of num and den, or all None without a derivative."""

    __slots__ = ("num", "den", "vn", "vd", "r", "jn", "jd")

    def __init__(self, num: _Sums, den: Optional[_Sums], c: Tuple[int, int],
                 ij: Optional[Tuple[int, int]], r: int):
        self.num, self.den, self.r, self.jn, self.jd = num, den, r if ij else None, None, None
        self.vn, self.vd = c
        if ij is not None:
            self.jn = num.derivative(*ij)
            self.jd = None if den is None else den.derivative(*ij)

    def at(self, got):
        """(V, M, Q, DV, DM, QD, e) at one point from the sums ``got`` there
        (see grid_values), None at a pole."""
        en, n, mn, dns = got[self.num]
        r = self.r
        if self.den is None:
            e, d, ad, dd, mdd = en, 1, 1, 0, 0
        else:
            ed, d, md, dds = got[self.den]
            ad = abs(d)
            if ad << POLE_BITS < md:
                return None
            e = en - ed
            if r is not None:
                dd, mdd = dds[self.jd]
        vn, vd = self.vn, self.vd
        value, mass, q = (vn * n if d > 0 else -vn * n), abs(vn) * mn, vd * ad
        if r is None:
            return value, mass, q, 0, 0, 1, e
        # D(n/d) = (n'd - nd') / d^2, its mass (mass(n')|d| + mass(n)mass(d')) / d^2
        dn, mdn = dns[self.jn]
        return (value, mass, q, vn * (dn * d - n * dd), abs(vn) * (mdn * ad + mn * mdd),
                vd * r * d * d, e)


def grid_values(values: Mapping, ts: Iterable, xs: Iterable, w: Optional[WaveConstants] = None,
                d_index: Optional[Mapping] = None) -> Iterator[tuple]:
    """Values and masses of some ExpRationals at every point of ts x xs, as
    exact integers.

    Yields ``(t, x, {key: (V, M, Q, DV, DM, QD, e)})`` for rational t and
    x, in t-major order: value V/Q * 2**e, mass M/Q * 2**e, D value
    DV/QD * 2**e and D mass DM/QD * 2**e, with Q, QD > 0, or None where
    the key's denominator vanishes to working precision.  D is the
    derivative ``d_index[key]`` under the wave constants ``w``
    (DV = DM = 0 and QD = 1 for keys it does not name).  The mass is the
    pre-cancellation scale, the sum of absolute term values over
    |denominator|.  Identically zero values have no entry.  A polynomial
    value's denominator is 1, so it is not summed and never makes a pole.
    round_ratio(V, Q, e) is the value as a number, rounded once.

    Each distinct polynomial's exponents are read off its keys once
    (ExpPoly.lattice) and brought to one common scale; with a derivative
    every polynomial is taken in w's spectral coordinates, whose keys, over
    one scale, give the D weights.  At each nonzero t (and x) the distinct
    a (and b) are walked in order, one exponential per distinct gap between
    neighbours and one product per step (see _exps), so each exp(a*t) and
    exp(b*x) is within a relative error of 2**-(EVAL_PRECISION + 8),
    whatever the size of the exponents; a term's exponential is their exact
    product.  Each distinct polynomial is summed once per point as integers
    by one _Sums (values that share a numerator, or a denominator, keyed by
    its atoms and expanded once, share its sums): every term is truncated
    to a multiple of 2**e0 and multiplied by its integer coefficient, e0 at
    EVAL_PRECISION + 8 + bitlen(sum |n_k|) bits below the largest term (and
    likewise for the D coefficients), a truncation error below
    sum |n_k| * 2**e0 <= 2**-(EVAL_PRECISION + 7) times the sum's mass.
    The pole rule |d| < mass(d) * 2**-POLE_BITS is decided exactly on the
    integer sums.
    """
    d_index = d_index or {}
    live = {}  # key -> (numerator, atoms) of each nonzero value
    dens: Dict[frozenset, ExpPoly] = {frozenset(): ONE}  # atoms -> their product, formed once
    for key, u in values.items():  # with a derivative, in w's spectral coordinates
        if not u.is_zero():
            atoms = u.atoms
            if atoms not in dens:
                dens[atoms] = _spectral(u.den, w) if d_index else u.den
            live[key] = _spectral(u.num, w) if d_index else u.num, atoms
    polys = [*(num for num, _ in live.values()), *dens.values()]
    scale = lcm(*(p._scale * (p._w.lattice[0] if p._w else 1) for p in polys))
    sscale = lcm(*(p._scale for p in polys))
    slots: Dict[Tuple[int, int], int] = {}  # exponent -> exp slot
    sums: Dict[object, _Sums] = {}  # numerator, or denominator's atoms -> its _Sums

    def prepare(key, poly) -> _Sums:
        if key not in sums:
            own, exps, *c = poly.lattice()  # in the order of poly's keys
            f, g = scale // own, sscale // poly._scale
            sums[key] = _Sums([slots.setdefault((a * f, b * f), len(slots)) for a, b in exps],
                              [(u * g, v * g) for u, v in poly._ints] if d_index else None,
                              list(exps.values()), c)
        return sums[key]

    fields = {}
    for key, (num, atoms) in live.items():
        sn, den = prepare(num, num), dens[atoms]
        fields[key] = _Field(sn, prepare(atoms, den) if atoms else None,
                             _quotient(*sn.c, den._cn, den._cd), d_index.get(key), sscale)

    # exp(a*t + b*x) = exp(a*t) * exp(b*x), each factor computed once
    a_slot: Dict[int, int] = {}
    b_slot: Dict[int, int] = {}
    pairs = [(a_slot.setdefault(a, len(a_slot)), b_slot.setdefault(b, len(b_slot)))
             for a, b in slots]
    a_ks, b_ks = list(a_slot), list(b_slot)
    every = list(sums.values())
    exp_x = [(x, _exps(b_ks, x.numerator, scale * x.denominator)) for x in xs]
    for t in ts:
        et = _exps(a_ks, t.numerator, scale * t.denominator)
        for x, ex in exp_x:
            ms = [et[i][0] * ex[j][0] for i, j in pairs]
            es = [et[i][1] + ex[j][1] for i, j in pairs]
            tops = [e + m.bit_length() for m, e in zip(ms, es)]
            got = {s: s.at(ms, es, tops) for s in every}
            yield t, x, {key: f.at(got) for key, f in fields.items()}


def _eval_point(u: ExpRational, t: RatLike, x: RatLike, part: int) -> Optional[Fraction]:
    """u's value (part 0) or mass (part 1) at one point, rounded once by
    round_ratio, as an exact Fraction of about |exponent| bits; None at a
    pole."""
    _, _, vals = next(grid_values({0: u}, (as_frac(t),), (as_frac(x),)))
    if 0 not in vals:  # u is identically zero
        return _FRAC_ZERO
    v = vals[0]
    if v is None:
        return None
    m, e = round_ratio(v[part], v[2], v[6])
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)
