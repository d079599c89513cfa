"""Exact arithmetic for exponential polynomials and their ratios.

An ExpPoly is a finite sum ``sum_k  c_k * exp(a_k*t + b_k*x)`` with rational
coefficients ``c_k`` and rational exponent pairs ``(a_k, b_k)``.  An
ExpRational is a normalized quotient of two ExpPolys.  Both are closed under
the field operations and under the characteristic derivatives ``D_{i,j}``,
so every identity this package verifies reduces to ``is_zero`` on an exactly
cancelled numerator.

Internally an ExpPoly lives on an integer lattice: exponents are integer
pairs ``(A, B)`` at a per-polynomial scale ``L`` (so ``a = A/L``), and
coefficients are integers times one rational content.  Ring operations then
run on ints; ``terms`` shows the rational view at the boundary.

``grid_values`` is the package's one numeric evaluator, with its one pole
rule: ``nwave sample``, numeric verification and ``ExpRational.eval`` all
turn values into numbers through it.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import mul
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import mpmath
from mpmath import libmp

# Exponent of one term: (a, b) meaning exp(a*t + b*x).
LinForm = Tuple[Fraction, Fraction]

RatLike = Union[int, str, Fraction]

#: Binary precision for numeric evaluation (well above a 64-bit significand).
EVAL_PRECISION = 120

#: A denominator counts as vanishing at a point when its value is below its
#: mass (sum of absolute term values) times 2**-POLE_BITS: the rounding error
#: of the evaluation, with margin.  A same-sign denominator never does.
POLE_BITS = EVAL_PRECISION // 2

_ZERO_KEY = (0, 0)
_FRAC_ZERO = Fraction(0)
_NO_SHIFT = (_FRAC_ZERO, _FRAC_ZERO)
_NO_ATOMS: Dict = {}  # shared by every value without atoms: never modified


class DivisionByZeroField(ZeroDivisionError):
    """Division by an identically-zero ExpPoly/ExpRational."""


class EvalPole(ArithmeticError):
    """Numeric evaluation hit a denominator that vanishes to working precision."""


class InexactDivision(ArithmeticError):
    """divexact() was asked for a quotient that does not exist in the ring."""


def as_frac(v: RatLike) -> Fraction:
    """Coerce int/str/Fraction to Fraction ('p/q' strings accepted)."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, str)):
        return Fraction(v)
    raise TypeError(f"not an exact rational: {v!r}")


@dataclass(frozen=True)
class WaveConstants:
    """Characteristic speeds (c1, c2, d1, d2) with delta = c1*d2 - c2*d1 != 0.

    ``basis`` is (t11, t12, t21, t22, det, h): the integer matrix T, its
    determinant, and the denominator h it clears, taking an exponent (a, b)
    to spectral coordinates (u, v) = T (a, b).  A wave exponent is
    (a, b) = sP*(d1, -c1) + sQ*(d2, -c2) for position sums sP and sQ
    (spectral.wave_exponent), so T is h times the inverse of that matrix:
    (u, v) = h*(sP, sQ).
    """

    c1: Fraction
    c2: Fraction
    d1: Fraction
    d2: Fraction
    delta: Fraction = field(init=False, repr=False, compare=False)
    basis: Tuple[int, int, int, int, int, int] = field(init=False, repr=False, compare=False)
    _speeds: Dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("c1", "c2", "d1", "d2"):
            object.__setattr__(self, name, as_frac(getattr(self, name)))
        delta = self.c1 * self.d2 - self.c2 * self.d1
        if delta == 0:
            raise ValueError("degenerate wave constants: c1*d2 - c2*d1 = 0")
        inv = (-self.c2 / delta, -self.d2 / delta, self.c1 / delta, self.d1 / delta)
        h = lcm(*(f.denominator for f in inv))
        t11, t12, t21, t22 = (f.numerator * (h // f.denominator) for f in inv)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "basis", (t11, t12, t21, t22, t11 * t22 - t12 * t21, h))
        object.__setattr__(self, "_speeds", {})

    def deriv_speeds(self, i: int, j: int) -> Tuple[int, int, int]:
        """Integers (P, Q, R) such that D_{i,j} scales exp(a*t + b*x) by
        (P*a + Q*b)/R."""
        pqr = self._speeds.get((i, j))
        if pqr is None:
            p = (i * self.c1 + j * self.c2) / self.delta
            q = (i * self.d1 + j * self.d2) / self.delta
            pqr = self._speeds[(i, j)] = (p.numerator * q.denominator, q.numerator * p.denominator,
                                          p.denominator * q.denominator)
        return pqr


#: The factory name; WaveConstants coerces ints and 'p/q' strings itself.
wave_constants = WaveConstants


class ExpPoly:
    """Canonical finite sum of rational multiples of exp(a*t + b*x).

    Stored as ``content * sum_k n_k * exp((A_k*t + B_k*x) / scale)`` with
    integer ``n_k``, integer keys ``(A_k, B_k)`` and a positive integer
    scale.  The form is canonical: the scale is minimal (no common factor
    with every exponent), the ``n_k`` are nonzero, coprime, and positive at
    the lexicographically least key, and the sign lives in the content.  So
    structural equality and hashing are functional equality, negation and
    scalar multiplication only change the content, and zero is the empty
    term map.
    """

    __slots__ = ("_scale", "_ints", "_content", "_hash")

    def __init__(self, terms: Union[None, Mapping, Iterable] = None):
        """Sum of the given ((a, b), coefficient) terms; repeated keys add up."""
        keys, coefs = [], []
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for (a, b), coef in items:
                keys.append((as_frac(a), as_frac(b)))
                coefs.append(as_frac(coef))
        d = lcm(*(c.denominator for c in coefs))
        p = _from_rational_keys(keys, [c.numerator * (d // c.denominator) for c in coefs],
                                Fraction(1, d))
        self._scale, self._ints, self._content = p._scale, p._ints, p._content

    @staticmethod
    def zero() -> "ExpPoly":
        return _ZERO

    @staticmethod
    def const(c: RatLike) -> "ExpPoly":
        c = as_frac(c)
        return _poly(1, {_ZERO_KEY: 1}, c) if c else _ZERO

    @staticmethod
    def term(coef: RatLike, a: RatLike, b: RatLike) -> "ExpPoly":
        coef = as_frac(coef)
        if not coef:
            return _ZERO
        a, b = as_frac(a), as_frac(b)
        scale = lcm(a.denominator, b.denominator)
        key = (a.numerator * (scale // a.denominator), b.numerator * (scale // b.denominator))
        return _poly(scale, {key: 1}, coef)

    # -- the rational view -------------------------------------------------

    @property
    def terms(self) -> Mapping:
        """Read-only map (a, b) -> coefficient, keyed and valued by Fractions."""
        return _Terms(self)

    def lattice(self) -> Tuple[int, Dict[Tuple[int, int], int], Fraction]:
        """(scale, {(A, B): n}, content): the term n * content * exp((A*t + B*x)/scale).

        The dict is shared with the polynomial and must not be modified.
        """
        return self._scale, self._ints, self._content

    @staticmethod
    def from_lattice(scale: int, ints: Mapping, content: RatLike) -> "ExpPoly":
        """The polynomial sum(n * content * exp((A*t + B*x)/scale)) over
        {(A, B): n} with integer keys and coefficients (zeros allowed) and a
        positive integer scale: the inverse of ``lattice``, canonicalized."""
        return _canonical(scale, dict(ints), as_frac(content))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "ExpPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._ints:
            return other
        if not other._ints:
            return self
        scale, t1, t2 = _common_scale(self, other)
        c1, c2 = self._content, other._content
        if c1 == c2:
            m1 = m2 = 1
            content = c1
        else:
            g = gcd(c1.numerator, c2.numerator)
            d = lcm(c1.denominator, c2.denominator)
            content = Fraction(g, d)
            m1 = c1.numerator // g * (d // c1.denominator)
            m2 = c2.numerator // g * (d // c2.denominator)
        out = dict(t1) if m1 == 1 else {k: v * m1 for k, v in t1.items()}
        get = out.get
        for k, v in t2.items():
            out[k] = get(k, 0) + v * m2
        return _canonical(scale, out, content)

    __radd__ = __add__

    def __neg__(self) -> "ExpPoly":
        if not self._ints:
            return self
        return _poly(self._scale, self._ints, -self._content)

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
            return _poly(self._scale, self._ints, self._content * other)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        if not self._ints or not other._ints:
            return _ZERO
        content = self._content * other._content
        if _is_const(other):
            return _poly(self._scale, self._ints, content)
        if _is_const(self):
            return _poly(other._scale, other._ints, content)
        scale, t1, t2 = _common_scale(self, other)
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
        return _reduced(scale, out, content)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return (self._content == other._content and self._scale == other._scale
                and self._ints == other._ints)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # computed once: the polynomial is immutable
            self._hash = hash((self._scale, self._content, frozenset(self._ints.items())))
            return self._hash

    def is_zero(self) -> bool:
        return not self._ints

    def __bool__(self) -> bool:
        return bool(self._ints)

    # -- calculus ----------------------------------------------------------

    def deriv(self, i: int, j: int, w: WaveConstants) -> "ExpPoly":
        """Characteristic derivative D_{i,j}: term (a,b) scales by
        ((i*c1+j*c2)*a + (i*d1+j*d2)*b)/delta."""
        p, q, r = w.deriv_speeds(i, j)
        # (p*a + q*b)/r = (p*A + q*B) / (r*scale) on the lattice
        out = {}
        for (a, b), n in self._ints.items():
            f = p * a + q * b
            if f:
                out[(a, b)] = n * f
        return _canonical(self._scale, out, self._content / (r * self._scale))

    # -- inspection --------------------------------------------------------

    def sorted_terms(self):
        """Terms ((a, b), coefficient) in canonical (lexicographic exponent) order."""
        scale, c = self._scale, self._content
        return [((Fraction(a, scale), Fraction(b, scale)), c * n)
                for (a, b), n in sorted(self._ints.items())]

    def eval(self, t: RatLike, x: RatLike):
        """High-precision numeric value at rational (t, x), as mpmath mpf."""
        return ExpRational(self).eval(t, x)

    def eval_mass(self, t: RatLike, x: RatLike):
        """Sum of absolute term values at (t, x): the pre-cancellation scale."""
        return mpmath.mp.make_mpf(_eval_point(ExpRational(self), t, x)[1])

    def __repr__(self) -> str:
        if not self._ints:
            return "ExpPoly(0)"
        bits = []
        for (a, b), c in self.sorted_terms():
            bsign = "+" if b >= 0 else ""
            bits.append(f"{c}*e^({a}t{bsign}{b}x)")
        return "ExpPoly(" + " + ".join(bits) + ")"


class _Terms(Mapping):
    """The terms of an ExpPoly as a read-only map (a, b) -> c over Fractions."""

    __slots__ = ("_p",)

    def __init__(self, p: ExpPoly):
        self._p = p

    def __len__(self) -> int:
        return len(self._p._ints)

    def __iter__(self):
        scale = self._p._scale
        return ((Fraction(a, scale), Fraction(b, scale)) for a, b in self._p._ints)

    def __getitem__(self, key) -> Fraction:
        p = self._p
        a, b = (as_frac(v) * p._scale for v in key)
        n = None
        if a.denominator == 1 and b.denominator == 1:
            n = p._ints.get((a.numerator, b.numerator))
        if n is None:
            raise KeyError(key)
        return p._content * n


def _poly(scale: int, ints: Dict[Tuple[int, int], int], content: Fraction) -> ExpPoly:
    """Wrap an already-canonical lattice form without re-checking."""
    p = object.__new__(ExpPoly)
    p._scale, p._ints, p._content = scale, ints, content
    return p


_ZERO = _poly(1, {}, _FRAC_ZERO)


def _is_const(p: ExpPoly) -> bool:
    """Whether p is a nonzero constant: its one key is (0, 0)."""
    return len(p._ints) == 1 and _ZERO_KEY in p._ints


def _reduced(scale, ints, content) -> ExpPoly:
    """Wrap primitive, sign-normalized coefficients, at the minimal scale."""
    if not ints:
        return _ZERO
    if scale != 1:
        s = scale
        for a, b in ints:
            s = gcd(s, a, b)
            if s == 1:
                break
        if s != 1:
            ints = {(a // s, b // s): n for (a, b), n in ints.items()}
            scale //= s
    return _poly(scale, ints, content)


def _canonical(scale, ints, content) -> ExpPoly:
    """Canonical ExpPoly from integer coefficients (zeros allowed) and a content."""
    if 0 in ints.values():
        ints = {k: n for k, n in ints.items() if n}
    if not ints or not content:
        return _ZERO
    least = min(ints)
    g = gcd(*ints.values())
    if ints[least] < 0:
        g = -g
    if g != 1:
        ints = {k: n // g for k, n in ints.items()}
        content = content * g
    return _reduced(scale, ints, content)


def _from_rational_keys(keys, ints, content: Fraction) -> ExpPoly:
    """Canonical ExpPoly of sum(content * n * exp(a*t + b*x)) over Fraction
    keys (a, b) and integers n; repeated keys add up."""
    scale = lcm(*(v.denominator for k in keys for v in k))
    out: Dict[Tuple[int, int], int] = {}
    get = out.get
    for (a, b), n in zip(keys, ints):
        k = (a.numerator * (scale // a.denominator), b.numerator * (scale // b.denominator))
        out[k] = get(k, 0) + n
    return _canonical(scale, out, content)


def _rescaled(ints, f):
    return {(a * f, b * f): n for (a, b), n in ints.items()}


def _common_scale(p: ExpPoly, q: ExpPoly):
    """(scale, ints of p, ints of q) on one lattice."""
    if p._scale == q._scale:
        return p._scale, p._ints, q._ints
    scale = lcm(p._scale, q._scale)
    return scale, _rescaled(p._ints, scale // p._scale), _rescaled(q._ints, scale // q._scale)


def _coerce_poly(v) -> ExpPoly:
    if isinstance(v, ExpPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return ExpPoly.const(v)
    return NotImplemented


ONE = ExpPoly.const(1)


# -- sums of products -------------------------------------------------------------
#
# Kronecker substitution (A. Schoenhage, EUROCAM 1982; D. Harvey, J. Symbolic
# Comput. 44, 2009) in the spectral basis WaveConstants.basis: a
# sum of spike waves has one row per spectral coordinate u, nearly dense
# along v, and a row packed into one int, a digit per v step, is multiplied
# by one CPython int product.

#: A sum is packed only when its row ints have at most this many slots per
#: operand term, counting the rows and terms of every factor of every
#: product (a power's factor at each occurrence) and one output row.  The
#: Hirota residuals of the tau-verify bench jobs have 1.1 to 3.9.  Measured on
#: random spectral sums (two rows per operand, 4 to 30 terms per row, slots
#: per term 1.2 to 39): at 8 to 10 a zero sum packs in 0.1 to 0.6 of the
#: schoolbook's time, a nonzero one, whose digits are read back, in 0.5 to
#: 2.4.  Sparser sums, exponents off the spectral lattice among them, are
#: multiplied term by term, so no row int is mostly zeros.
PACK_SLOTS_PER_TERM = 8

#: A run of nonzero bytes.
_NONZERO_BYTES = re.compile(rb"[^\x00]+")


def sum_of_products(sums: Iterable[Iterable], w: WaveConstants) -> List[ExpPoly]:
    """[sum(c * x1 * ... * xk) over (c, x1, ..., xk) in terms] for each
    terms in sums: c an int or Fraction, k >= 1 factors (k free per term),
    each an ExpPoly x or ((i, j), x) for D_{i,j} x.

    Sparse sums (PACK_SLOTS_PER_TERM) are formed as ExpPoly products.  The
    others are formed by Kronecker substitution in the spectral coordinates
    (u, v) of w.basis:

    - the keys of each distinct operand of all the sums go to (u, v) at one
      common scale S, once, and each operand is split into rows by u;
    - ((i, j), x) is x's operand with each n times i*v - j*u, terms of
      weight 0 dropped, over a content divided by h*S: D_{i,j} scales a
      spike wave by i*sQ - j*sP, and its (u, v) is h*S*(sP, sQ);
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
    exactly when each of its output row ints is 0.  Otherwise its digits
    are read back to lattice keys.
    """
    t11, t12, t21, t22, _, h = w.basis
    sums = [list(terms) for terms in sums]
    scale = lcm(*[(x[1] if type(x) is tuple else x)._scale
                  for terms in sums for t in terms for x in t[1:]])
    ops: Dict[tuple, Optional[_Operand]] = {}

    def operand(x: ExpPoly, ij: Optional[Tuple[int, int]] = None) -> Optional[_Operand]:
        # by its term dict and scale, so p and -p are one operand; D_{i,j} x
        # by x's operand and (i, j), None if none of its weights is nonzero
        key = (id(x._ints), x._scale, ij)
        if key not in ops:
            f, ints = scale // x._scale, x._ints
            ops[key] = operand(x).derived(*ij) if ij else _Operand(
                [(t11 * a + t12 * b) * f for a, b in ints],
                [(t21 * a + t22 * b) * f for a, b in ints], list(ints.values()))
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
                n *= x._content.numerator
                d *= x._content.denominator * (h * scale if ij else 1)
                norm *= op.norm
                lo += op.lo
                hi += op.hi
            else:
                if len(f) == 1:
                    f.append(operand(ONE))
                prods.append((t, f, n, d, norm, lo, hi))
        products.append(prods)
    step = gcd(*[v - op.lo for op in ops.values() if op for v in op.vs],
               *[p[5] - prods[0][5] for prods in products for p in prods]) or 1
    return [_sum(prods, step, scale, w) for prods in products]


class _Operand:
    """One operand of a packed sum: its terms' spectral coordinates u and v
    and integer coefficients n, least and greatest v, the 1-norm of the n,
    and its rows [(u, int)] by digit width, once packed."""

    __slots__ = ("us", "vs", "ns", "nrows", "lo", "hi", "norm", "rows")

    def __init__(self, us: Sequence[int], vs: Sequence[int], ns: Sequence[int]) -> None:
        self.us, self.vs, self.ns = us, vs, ns
        self.nrows = len(set(us))
        self.lo, self.hi = min(vs), max(vs)
        self.norm = sum(map(abs, ns))
        self.rows: Dict[int, list] = {}

    def derived(self, i: int, j: int) -> Optional["_Operand"]:
        """D_{i,j} of this operand over h*S (see sum_of_products), or None."""
        kept = [(u, v, n * weight) for u, v, n in zip(self.us, self.vs, self.ns)
                if (weight := i * v - j * u)]
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


def _row_product(rows_p: list, rows_q: list) -> list:
    """The rows [(u, int)] of the product of two packed polynomials."""
    out: Dict[int, int] = {}
    get = out.get
    for u1, x1 in rows_p:
        for u2, x2 in rows_q:
            u = u1 + u2
            out[u] = get(u, 0) + x1 * x2
    return list(out.items())


def _sum(prods, step: int, scale: int, w: WaveConstants) -> ExpPoly:
    """sum(c * x1 * ... * xk) over the products prods of one sum (see
    sum_of_products): term by term when sparse, else packed."""
    if not prods:
        return _ZERO
    t11, t12, t21, t22, det, _ = w.basis
    lo = min([p[5] for p in prods])
    nslots = (max([p[6] for p in prods]) - lo) // step + 1
    slots, nterms = nslots, 0
    for p in prods:
        for op in p[1]:
            slots += op.nrows * ((op.hi - op.lo) // step + 1)
            nterms += len(op.vs)
    if slots > PACK_SLOTS_PER_TERM * nterms:
        return sum((reduce(mul, [x[1].deriv(*x[0], w) if type(x) is tuple else x
                                 for x in t[1:]]) * t[0] for t, *_ in prods), _ZERO)
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
    get = acc.get
    for n, (_, (first, *mid, last), _, _, _, o, _) in zip(nums, prods):
        m, shift = n // g, (o - lo) // step * k
        rows_p = first.pack(step, k)
        for op in mid:
            rows_p = _row_product(rows_p, op.pack(step, k))
        rows_q = last.pack(step, k)
        for u1, x1 in rows_p:
            x1 = (x1 * m) << shift
            for u2, x2 in rows_q:
                u = u1 + u2
                acc[u] = get(u, 0) + x1 * x2
    if not any(acc.values()):
        return _ZERO
    # balanced digits: with 2**(k-1) added to every slot each digit is a
    # nonnegative k-bit field, which xor with the lift clears exactly where
    # the digit is 0, so only slots that meet a run of nonzero bytes are read
    half = 1 << (k - 1)
    width = nslots * nbytes
    lift = int.from_bytes((bytes(nbytes - 1) + b"\x80") * nslots, "little")
    out = {}
    for u, x in acc.items():
        if not x:
            continue
        x += lift
        digits = x.to_bytes(width, "little")
        au, bu = t22 * u, t21 * u
        for run in _NONZERO_BYTES.finditer((x ^ lift).to_bytes(width, "little")):
            for j in range(run.start() // nbytes, (run.end() - 1) // nbytes + 1):
                v = lo + step * j
                out[((au - t12 * v) // det, (t11 * v - bu) // det)] = int.from_bytes(
                    digits[j * nbytes:(j + 1) * nbytes], "little") - half
    return _canonical(scale, out, Fraction(g, den))


def divexact(num: ExpPoly, den: ExpPoly) -> ExpPoly:
    """Exact quotient num/den in the exponential-polynomial ring.

    Eliminates the lexicographically greatest term of the remainder at each
    step, updating the remainder in place and finding its greatest key with
    a max-heap.  Every monomial is invertible, so the ring is an
    ordered-group ring and an integral domain, and a quotient q with
    num = q*den has Newton polytope N(num) = N(q) + N(den): each key of q
    lies in the box [min(num) - min(den), max(num) - max(den)], taken per
    coordinate, and is lexicographically at least min(num) - min(den).  A
    candidate key outside those bounds proves that no quotient exists; so
    does a leading coefficient that does not divide, since by Gauss's lemma
    the quotient of primitive integer parts is integral.  Every step takes
    a new candidate key, smaller than the one before, from the finite set of
    lattice points in the box, so the loop ends.  Raises InexactDivision if
    no ring quotient exists.
    """
    if den.is_zero():
        raise DivisionByZeroField("divexact by zero")
    if num.is_zero():
        return _ZERO
    scale, tn, td = _common_scale(num, den)
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
            raise InexactDivision(
                f"quotient key ({qa}/{scale}, {qb}/{scale}) outside the Newton-polytope bounds")
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
    return _reduced(scale, quot, num._content / den._content)


def _shifted(p: ExpPoly, shift: LinForm) -> ExpPoly:
    """p * exp(a*t + b*x) for shift = (a, b): a translation of the keys."""
    a, b = shift
    if not (a or b) or not p._ints:
        return p
    scale = lcm(p._scale, a.denominator, b.denominator)
    f = scale // p._scale
    da, db = a.numerator * (scale // a.denominator), b.numerator * (scale // b.denominator)
    ints = {(x * f + da, y * f + db): n for (x, y), n in p._ints.items()}
    return _reduced(scale, ints, p._content)


def _split(p: ExpPoly):
    """(c, shift, atom) with p = c * exp(shift) * atom.

    The atom is p translated to least key 0 and scaled to coefficient 1
    there, so equal polynomials up to a monomial and a constant share one
    atom; it is None when p is a single term.
    """
    scale, least = p._scale, min(p._ints)
    n0 = p._ints[least]
    shift = (Fraction(least[0], scale), Fraction(least[1], scale))
    if len(p._ints) == 1:
        return p._content * n0, shift, None
    a0, b0 = least
    ints = {(a - a0, b - b0): n for (a, b), n in p._ints.items()}
    return p._content * n0, shift, _reduced(scale, ints, Fraction(1, n0))


def _sum_shift(s: LinForm, t: LinForm, sign: int = 1) -> LinForm:
    return (s[0] + sign * t[0], s[1] + sign * t[1])


class ExpRational:
    """Quotient of two ExpPolys, with the denominator kept factored.

    The denominator is ``exp(shift) * prod(atom**k)``: a monomial and known
    atoms with multiplicities.  An atom is a normalized ExpPoly (least key
    0, coefficient 1 there; see ``_split``), so atoms key a dict, and two
    values share an atom exactly when the polynomials are equal.  Atoms
    come from the denominator given to the constructor and from the
    numerator of every divisor.  No gcd is ever taken; known factors are
    cancelled instead:

    - ``+`` and ``-`` work over the lcm of the two atom multisets (and the
      componentwise larger monomial), not over the product;
    - ``*`` adds multiplicities; ``/`` cancels the divisor's atoms against
      the dividend's and adds the atom of the divisor's numerator;
    - ``deriv`` multiplies the denominator by the product of its distinct
      factors, the monomial included, not by the whole denominator;
    - ``cancel`` divides the numerator by each atom while ``divexact``
      allows it.

    Canonical form: zero is 0/1; a denominator's least term has coefficient
    1 (every atom's has, and the monomial's coefficient is 1).  ``den`` is
    the expanded denominator; a denominator given to the constructor is kept
    as given, up to that normalization, and split into monomial and atom at
    once.  Values with the same atoms compare their numerators; others are
    cross-multiplied over the lcm, so equal values always compare equal.
    """

    __slots__ = ("num", "_den", "_shift", "_atoms")

    def __init__(self, num, den=None):
        num = _coerce_poly(num)
        den = ONE if den is None else _coerce_poly(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("ExpRational parts must be ExpPoly or rational")
        if den.is_zero():
            raise DivisionByZeroField("zero denominator")
        self._shift, self._atoms = _NO_SHIFT, _NO_ATOMS
        if num.is_zero():
            self.num, self._den = _ZERO, ONE
            return
        if den is not ONE:
            anchor, self._shift, atom = _split(den)
            if atom is not None:
                self._atoms = {atom: 1}
            if anchor != 1:
                num = _poly(num._scale, num._ints, num._content / anchor)
                den = _poly(den._scale, den._ints, den._content / anchor)
        self.num, self._den = num, den

    @staticmethod
    def zero() -> "ExpRational":
        return _ZERO_RAT

    @staticmethod
    def const(c: RatLike) -> "ExpRational":
        return ExpRational(ExpPoly.const(c))

    @staticmethod
    def all_over(nums: Iterable[ExpPoly], den) -> List["ExpRational"]:
        """[ExpRational(num, den) for num in nums], with den normalized and
        split once: every value holds the same denominator and factors."""
        u = ExpRational(1, den)
        return [_rat(n * u.num._content, u._shift, u._atoms, u._den) for n in nums]

    def is_zero(self) -> bool:
        return not self.num._ints

    def is_poly(self) -> bool:
        return self.den == ONE

    @property
    def den(self) -> ExpPoly:
        """The denominator, expanded."""
        d = self._den
        if d is None:
            d = ONE
            for a, k in self._atoms.items():
                for _ in range(k):
                    d = d * a
            d = self._den = _shifted(d, self._shift)
        return d

    def _over(self, shift: LinForm, atoms: Dict[ExpPoly, int]) -> ExpPoly:
        """The numerator over exp(shift) * prod(atoms), a multiple of this
        value's denominator."""
        num = self.num
        if not num._ints:
            return num
        if shift != self._shift:
            num = _shifted(num, _sum_shift(shift, self._shift, -1))
        for a, k in atoms.items():
            for _ in range(k - self._atoms.get(a, 0)):
                num = num * a
        return num

    # -- field operations --------------------------------------------------

    def __add__(self, other) -> "ExpRational":
        other = _coerce_rational(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num._ints:
            return other
        if not other.num._ints:
            return self
        shift, atoms = _lcm((self, other))
        return _rat(self._over(shift, atoms) + other._over(shift, atoms), shift, atoms)

    __radd__ = __add__

    def __neg__(self) -> "ExpRational":
        return _rat(-self.num, self._shift, self._atoms, self._den)

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
            return _rat(self.num * other, self._shift, self._atoms, self._den)
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
        return _rat(self.num * other.num, _sum_shift(self._shift, other._shift), atoms)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ExpRational":
        if isinstance(other, (int, Fraction)):
            if not other:
                raise DivisionByZeroField("division by zero field value")
            return _rat(self.num * (1 / Fraction(other)), self._shift, self._atoms, self._den)
        other = _coerce_rational(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num._ints:
            raise DivisionByZeroField("division by zero field value")
        if not self.num._ints:
            return _ZERO_RAT
        num, atoms = self.num, dict(self._atoms)
        for a, k in other._atoms.items():
            have = atoms.pop(a, 0)
            if have > k:
                atoms[a] = have - k
            for _ in range(k - have):
                num = num * a
        c, shift, atom = _split(other.num)
        if atom is not None:
            atoms[atom] = atoms.get(atom, 0) + 1
        return _rat(num * (1 / c), _sum_shift(_sum_shift(self._shift, shift), other._shift, -1),
                    atoms)

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
        shift, atoms = _lcm((self, other))
        return self._over(shift, atoms) == other._over(shift, atoms)

    def __hash__(self) -> int:
        raise TypeError("ExpRational is not hashable (equality is semantic)")

    def cancel(self) -> "ExpRational":
        """The same value with each atom divided out of the numerator as
        often as ``divexact`` allows, and the monomial moved into the
        numerator, so that the denominator left is monomial-free.

        A trial that fails is refused by divexact's Newton-polytope bounds
        or its leading coefficient, usually within its first steps.
        """
        num = self.num
        if not num._ints:
            return self
        shift, left = self._shift, {}
        for a, k in self._atoms.items():
            while k:
                try:
                    num = divexact(num, a)
                except InexactDivision:
                    break
                k -= 1
            if k:
                left[a] = k
        return _rat(_shifted(num, (-shift[0], -shift[1])), _NO_SHIFT, left)

    # -- calculus ----------------------------------------------------------

    def _top(self, i: int, j: int, w: WaveConstants) -> ExpPoly:
        """T with D_{i,j}(self) = T / (exp(shift) * Q * P), where Q is the
        product of the atoms (with multiplicity) and P of the distinct
        atoms: (n/Q)' = (n'P - n * sum(k * a' * P/a)) / (Q*P)."""
        n = self.num
        dn = n.deriv(i, j, w)
        s = self._shift
        if s != _NO_SHIFT:
            # the derivative of n * exp(-shift), times exp(shift)
            p, q, r = w.deriv_speeds(i, j)
            dn = dn - n * ((p * s[0] + q * s[1]) / r)
        atoms = list(self._atoms.items())
        prod, rest = ONE, _ZERO
        for idx, (a, k) in enumerate(atoms):
            prod = prod * a
            term = a.deriv(i, j, w) * k
            for jdx, (b, _) in enumerate(atoms):
                if jdx != idx:
                    term = term * b
            rest = rest + term
        return dn * prod - n * rest

    def deriv(self, i: int, j: int, w: WaveConstants) -> "ExpRational":
        """Quotient-rule D_{i,j}: every atom's multiplicity rises by one, and
        the monomial is squared, as in (n/d)' = (n'd - nd')/d^2 for a
        monomial d.  So over a one-atom denominator d the result is
        (n'd - nd')/d^2, numerator and denominator."""
        if not self.num._ints:
            return self
        s = self._shift
        return _rat(_shifted(self._top(i, j, w), s), _sum_shift(s, s),
                    {a: k + 1 for a, k in self._atoms.items()})

    def dlog(self, i: int, j: int, w: WaveConstants) -> "ExpRational":
        """Logarithmic derivative D_{i,j} ln(self), equal to deriv/self.

        Formed directly: D(self) = T / (exp(shift) * Q * P) (see _top), so
        D(self)/self = T / (n * P).  The numerator n brings its atom; every
        atom of the denominator stays, with multiplicity one.
        """
        if not self.num._ints:
            raise DivisionByZeroField("log derivative of zero")
        top = self._top(i, j, w)
        c, shift, atom = _split(self.num)
        atoms = dict.fromkeys(self._atoms, 1)
        if atom is not None:
            atoms[atom] = atoms.get(atom, 0) + 1
        return _rat(top * (1 / c), shift, atoms)

    def as_constant(self):
        """Return this value as a Fraction if it is constant, else None."""
        if self.is_zero():
            return _FRAC_ZERO
        try:
            quot = divexact(self.num, self.den)
        except InexactDivision:
            return None
        if _is_const(quot):
            return quot._content
        return None

    def eval(self, t: RatLike, x: RatLike):
        """Numeric value at rational (t, x), as an mpmath mpf (no float
        overflow or underflow); EvalPole where the denominator vanishes to
        working precision (see POLE_BITS)."""
        v = _eval_point(self, t, x)
        if v is None:
            raise EvalPole(f"denominator vanishes to working precision at (t={t}, x={x})")
        return mpmath.mp.make_mpf(v[0])

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


def _rat(num: ExpPoly, shift: LinForm, atoms: Dict[ExpPoly, int],
         den: Optional[ExpPoly] = None) -> ExpRational:
    """Wrap num / (exp(shift) * prod(atoms)) without re-normalizing; den is
    the expanded denominator when already known."""
    if not num._ints:
        return _ZERO_RAT
    r = object.__new__(ExpRational)
    r.num, r._shift, r._atoms, r._den = num, shift, atoms, den
    return r


_ZERO_RAT = ExpRational(_ZERO)


def _lcm(values: Sequence[ExpRational]) -> Tuple[LinForm, Dict[ExpPoly, int]]:
    """(shift, atoms) of the least common denominator of the values: each
    atom at its largest multiplicity, times the componentwise larger
    monomial; the first value's own objects when it already is that."""
    shift, atoms = values[0]._shift, values[0]._atoms
    for v in values[1:]:
        s = v._shift
        if s != shift:
            shift = (max(shift[0], s[0]), max(shift[1], s[1]))
        grow = {a: k for a, k in v._atoms.items() if k > atoms.get(a, 0)}
        if grow:
            atoms = {**atoms, **grow}
    return shift, atoms


def common_denominator(values: Sequence[ExpRational]) -> Tuple[ExpPoly, List[ExpPoly]]:
    """(L, [N]): the least common denominator L of the values (the _lcm of
    their factored denominators), expanded, and each value's numerator over
    it, so that v = N / L.  Where the first nonzero value's denominator
    already is L, as for values that share one denominator, L is that
    denominator as held and each such N the value's own numerator.
    """
    live = [v for v in values if v.num._ints] or [_ZERO_RAT]
    first = live[0]
    shift, atoms = _lcm(live)
    den = first.den if (shift, atoms) == (first._shift, first._atoms) else _rat(ONE, shift, atoms).den
    return den, [v._over(shift, atoms) for v in values]


# -- numeric evaluation -----------------------------------------------------------
#
# Numbers handed out are raw mpmath.libmp values (sign, mantissa, exponent,
# bitcount).  Inside, a polynomial's terms are summed as integers and each
# result is rounded once to EVAL_PRECISION bits; nothing goes through float,
# so no value can overflow.

_RND = libmp.round_nearest
#: (value, mass, D value, D mass) of an identically zero field.
_ZERO_FIELD = (libmp.fzero,) * 4
#: Bits a sum keeps below its largest term, besides those of its coefficients.
_GUARD = EVAL_PRECISION + 8


def _mpf(q) -> tuple:
    """A rational (int or Fraction) as a libmp value."""
    return _round(q.numerator, q.denominator, 0)


def _exp(n: int, d: int) -> tuple:
    """exp(n/d) (d > 0) as a libmp value.  The argument keeps EVAL_PRECISION
    bits after the binary point, so a large one loses no relative accuracy."""
    if not n:
        return libmp.fone
    x = _round(n, d, 0, EVAL_PRECISION + (abs(n) // d).bit_length())
    return libmp.mpf_exp(x, EVAL_PRECISION, _RND)


def _round(p: int, q: int, e: int, prec: int = EVAL_PRECISION) -> tuple:
    """p/q * 2**e (q != 0), rounded once to prec bits.

    The quotient is taken to at least prec + 5 bits, with a sticky low bit
    when inexact, so that rounding it is rounding p/q.
    """
    if q < 0:
        p, q = -p, -q
    sign = 0
    if p < 0:
        sign, p = 1, -p
    if q != 1:
        shift = max(5, prec + 5 - p.bit_length() + q.bit_length())
        p, rem = divmod(p << shift, q)
        e -= shift
        if rem:
            p = p << 1 | 1
            e -= 1
    return libmp.normalize(sign, p, e, p.bit_length(), prec, _RND)


class _Sums:
    """One polynomial of grid_values as integer dot products over the slots.

    Its terms are n_k * exp_k, with the content kept apart, and for a
    derivative dn_k * exp_k with dn_k = n_k * (P*A_k + Q*B_k).
    """

    __slots__ = ("slots", "ns", "abs_ns", "dns", "abs_dns", "dslots", "width", "dwidth")

    def __init__(self, slots, ns, dns=None):
        self.slots, self.ns, self.dns = slots, ns, dns
        self.abs_ns = [abs(n) for n in ns]
        self.width = _GUARD + sum(self.abs_ns).bit_length()
        self.dslots = None  # D sums share the value's largest term
        if dns is not None:
            self.abs_dns = [abs(n) for n in dns]
            self.dwidth = _GUARD + sum(self.abs_dns).bit_length()
            if not all(dns):
                # terms with D factor 0 cannot anchor the D sums
                self.dslots = [s for s, n in zip(slots, dns) if n]
            else:
                self.width = max(self.width, self.dwidth)

    def at(self, ms, es, tops):
        """(e0, value sum, mass sum, D sum, D mass sum): integers that times
        2**e0 are the sums at one point, without the content."""
        slots = self.slots
        e0 = max(map(tops.__getitem__, slots)) - self.width
        if self.dslots:
            e0 = min(e0, max(map(tops.__getitem__, self.dslots)) - self.dwidth)
        al = [m << (e - e0) if e >= e0 else m >> (e0 - e)
              for m, e in zip(map(ms.__getitem__, slots), map(es.__getitem__, slots))]
        s, mass = sum(map(mul, self.ns, al)), sum(map(mul, self.abs_ns, al))
        if self.dns is None:
            return e0, s, mass, 0, 0
        return e0, s, mass, sum(map(mul, self.dns, al)), sum(map(mul, self.abs_dns, al))


class _Field:
    """One value of grid_values: c * num / den, with den None for a
    one-term denominator already divided in; r is R * scale, the
    denominator of the D speeds on grid_values' lattice, or None without a
    derivative."""

    __slots__ = ("num", "den", "vn", "vd", "r")

    def __init__(self, num: _Sums, den: Optional[_Sums], c: Fraction, r: Optional[int]):
        self.num, self.den, self.r = num, den, r
        self.vn, self.vd = c.numerator, c.denominator

    def at(self, ms, es, tops):
        """(value, mass, D value, D mass) at one point, None at a pole."""
        en, n, mn, dn, mdn = self.num.at(ms, es, tops)
        if self.den is None:
            e, d, ad, dd, mdd = en, 1, 1, 0, 0
        else:
            ed, d, md, dd, mdd = self.den.at(ms, es, tops)
            ad = abs(d)
            if ad << POLE_BITS < md:
                return None
            e = en - ed
        vn, vd = self.vn, self.vd
        value = _round(vn * n, vd * d, e)
        mass = _round(abs(vn) * mn, vd * ad, e)
        if self.r is None:
            return value, mass, libmp.fzero, libmp.fzero
        # D(n/d) = (n'd - nd') / d^2, its mass (mass(n')|d| + mass(n)mass(d')) / d^2
        q = vd * self.r * d * d
        return (value, mass, _round(vn * (dn * d - n * dd), q, e),
                _round(abs(vn) * (mdn * ad + mn * mdd), q, e))


def grid_values(values: Mapping, ts: Iterable, xs: Iterable, w: Optional[WaveConstants] = None,
                d_index: Optional[Mapping] = None) -> Iterator[tuple]:
    """Values and masses of some ExpRationals at every point of ts x xs.

    Yields ``(t, x, {key: (value, mass, D value, D mass)})`` for rational t
    and x, in t-major order, with libmp values; a key maps to None where its
    denominator vanishes to working precision.  D is the derivative
    ``d_index[key]`` under the wave constants ``w`` (zero for keys it does
    not name).  The mass is the pre-cancellation scale, the sum of absolute
    term values over |denominator|.  Identically zero values have no entry.
    A one-term denominator never vanishes, so it is divided into the
    numerator up front and never makes a pole.

    Exponents are read off the polynomials' integer lattices, brought to one
    common scale, and each distinct exp(a*t) and exp(b*x) is computed once,
    to EVAL_PRECISION bits; a term's exponential is their exact product.
    Each polynomial is then summed as integers: every term is truncated to a
    multiple of 2**e0 and multiplied by its integer coefficient, with e0 at
    EVAL_PRECISION + 8 + bitlen(sum |n_k|) bits below the largest term (and
    likewise for the D coefficients).  The truncation error is below
    sum |n_k| * 2**e0 <= 2**-(EVAL_PRECISION + 7) times the sum's mass.
    Value, mass, D value and D mass are each one integer ratio times a power
    of two, rounded once to EVAL_PRECISION bits.  The pole rule
    |d| < mass(d) * 2**-POLE_BITS is decided exactly on the integer sums.
    """
    d_index = d_index or {}
    live = {key: u for key, u in values.items() if not u.is_zero()}
    # every exponent as an integer pair over one scale
    scale = lcm(1, *(p.lattice()[0] for u in live.values() for p in (u.num, u.den)))
    slots: Dict[Tuple[int, int], int] = {}  # exponent -> exp slot

    def prepare(poly, ij, shift=(0, 0)) -> _Sums:
        own, ints, _ = poly.lattice()
        f = scale // own
        keys = [(a * f - shift[0], b * f - shift[1]) for a, b in ints]
        idx = [slots.setdefault(k, len(slots)) for k in keys]
        ns = list(ints.values())
        if ij is None:
            return _Sums(idx, ns)
        # D_{i,j} scales exp((A*t + B*x)/scale) by (P*A + Q*B)/(R*scale)
        p, q, _ = w.deriv_speeds(*ij)
        return _Sums(idx, ns, [n * (p * a + q * b) for (a, b), n in zip(keys, ns)])

    fields = {}
    for key, u in live.items():
        ij = d_index.get(key)
        r = None if ij is None else w.deriv_speeds(*ij)[2] * scale
        own, den, dc = u.den.lattice()
        c = u.num.lattice()[2] / dc
        if len(den) == 1:
            (a0, b0), = den
            f = scale // own
            fields[key] = _Field(prepare(u.num, ij, (a0 * f, b0 * f)), None, c, r)
        else:
            fields[key] = _Field(prepare(u.num, ij), prepare(u.den, ij), c, r)

    # exp(a*t + b*x) = exp(a*t) * exp(b*x), each factor computed once
    a_slot: Dict[int, int] = {}
    b_slot: Dict[int, int] = {}
    pairs = [(a_slot.setdefault(a, len(a_slot)), b_slot.setdefault(b, len(b_slot)))
             for a, b in slots]
    exp_x = [(x, [_exp(b * x.numerator, scale * x.denominator) for b in b_slot]) for x in xs]
    for t in ts:
        et = [_exp(a * t.numerator, scale * t.denominator) for a in a_slot]
        for x, ex in exp_x:
            ms = [et[i][1] * ex[j][1] for i, j in pairs]
            es = [et[i][2] + ex[j][2] for i, j in pairs]
            tops = [e + m.bit_length() for m, e in zip(ms, es)]
            yield t, x, {key: f.at(ms, es, tops) for key, f in fields.items()}


def _eval_point(u: ExpRational, t: RatLike, x: RatLike):
    """(value, mass, D value, D mass) of u at one point, None at a pole."""
    _, _, vals = next(grid_values({0: u}, (as_frac(t),), (as_frac(x),)))
    return vals.get(0, _ZERO_FIELD)
