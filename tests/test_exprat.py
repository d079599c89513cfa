"""Exact-arithmetic core: ring/field laws, derivatives, division, evaluation."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from nwave.exprat import (
    DivisionByZeroField,
    EvalPole,
    ExpPoly,
    ExpRational,
    InexactDivision,
    WaveConstants,
    common_denominator,
    divexact,
    sum_of_products,
    wave_constants,
)
from nwave import exprat

import _fracpoly as ref
import _fracrat as rat

W = wave_constants(1, "1/2", "1/3", 1)  # delta = 5/6


def F(v):
    return Fraction(v)


# -- strategies --------------------------------------------------------------

rationals = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)
nonzero_rationals = rationals.filter(lambda q: q != 0)
exponents = st.tuples(rationals, rationals)


@st.composite
def exppolys(draw, max_terms=4):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    p = ExpPoly()
    for _ in range(n):
        a, b = draw(exponents)
        c = draw(nonzero_rationals)
        p = p + ExpPoly.term(c, a, b)
    return p


nonzero_exppolys = exppolys().filter(lambda p: not p.is_zero())


@st.composite
def exprationals(draw):
    return ExpRational(draw(exppolys()), draw(nonzero_exppolys))


# -- construction and canonical form -----------------------------------------

def test_zero_is_empty_map():
    assert ExpPoly().is_zero()
    assert ExpPoly.const(0).is_zero()
    assert ExpPoly.term(0, 1, 2).is_zero()


def test_additive_identity_and_cancellation():
    f = ExpPoly.term(2, 1, 0)
    assert f + ExpPoly() == f
    assert (f + (-f)).is_zero()


def test_distinct_keys_merge():
    f = ExpPoly.term(1, 1, 0) + ExpPoly.term(1, 0, 1)
    assert len(f.terms) == 2


def test_mul_adds_exponents():
    ea = ExpPoly.term(1, "1/2", 0)
    eb = ExpPoly.term(1, "3/2", 0)
    assert ea * eb == ExpPoly.term(1, 2, 0)


def test_mul_annihilator_and_binomial():
    f = ExpPoly.term(3, 1, 1)
    assert (f * ExpPoly()).is_zero()
    s = ExpPoly.term(1, 1, 0) + ExpPoly.term(1, 0, 1)
    sq = s * s
    assert sq == (
        ExpPoly.term(1, 2, 0) + ExpPoly.term(2, 1, 1) + ExpPoly.term(1, 0, 2)
    )


def test_rational_normalization_anchor():
    num = ExpPoly.term(6, 1, 0)
    den = ExpPoly.term(3, 0, 0) + ExpPoly.term(5, 1, 1)
    r = ExpRational(num, den)
    # least denominator key is (0,0); its coefficient must be normalized to 1
    assert r.den.terms[(F(0), F(0))] == 1
    assert r.num.terms[(F(1), F(0))] == 2


def test_zero_rational_is_canonical():
    r = ExpRational(ExpPoly(), ExpPoly.term(7, 2, 3))
    assert r.is_zero()
    assert r.den == ExpPoly.const(1)


def test_zero_denominator_rejected():
    with pytest.raises(DivisionByZeroField):
        ExpRational(ExpPoly.const(1), ExpPoly())


# -- the integer lattice against the Fraction-dict reference -----------------

lattice_rationals = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.sampled_from([1, 2, 3, 4, 6]),
)
term_lists = st.lists(
    st.tuples(lattice_rationals.filter(bool), lattice_rationals, lattice_rationals),
    max_size=5,
)


def _poly_and_reference(terms):
    p = ExpPoly()
    for c, a, b in terms:
        p = p + ExpPoly.term(c, a, b)
    return p, ref.from_terms(terms)


@settings(max_examples=60)
@given(term_lists, term_lists, st.integers(0, 2), st.integers(0, 3))
def test_lattice_core_matches_fraction_reference(ft, gt, i, j):
    f, rf = _poly_and_reference(ft)
    g, rg = _poly_and_reference(gt)
    assert dict(f.terms) == rf
    assert len(f.terms) == len(rf)
    assert dict((f + g).terms) == ref.add(rf, rg)
    assert dict((f - g).terms) == ref.add(rf, {k: -c for k, c in rg.items()})
    assert dict((f * g).terms) == ref.mul(rf, rg)
    assert dict((f * Fraction(-3, 2)).terms) == ref.mul(rf, {(F(0), F(0)): Fraction(-3, 2)})
    assert dict(f.deriv(i, j, W).terms) == ref.deriv(rf, i, j, W)
    assert (f == g) == (rf == rg)
    # the same value reached another way is structurally equal, hash included
    same = (f + g) - g
    assert same == f and hash(same) == hash(f)
    if rg:
        assert dict(divexact(f * g, g).terms) == rf


def test_mixed_scales_meet_on_the_finer_lattice():
    half = ExpPoly.term(1, "1/2", 0)
    square = half * half
    assert square == ExpPoly.term(1, 1, 0)
    assert hash(square) == hash(ExpPoly.term(1, 1, 0))
    assert square.lattice()[0] == 1
    mixed = half * ExpPoly.term(1, 0, "1/3")
    assert dict(mixed.terms) == {(F("1/2"), F("1/3")): 1}
    assert mixed.lattice()[0] == 6
    assert mixed * ExpPoly.term(1, "-1/2", "-1/3") == ExpPoly.const(1)


def test_canonical_form_is_primitive_with_positive_least_coefficient():
    p = ExpPoly.term("-4/3", 1, 0) + ExpPoly.term("2/3", 0, 0)  # (2/3)(1 - 2e^t)
    assert p.lattice() == (1, {(0, 0): 1, (1, 0): -2}, Fraction(2, 3))
    assert (-p).lattice() == (1, {(0, 0): 1, (1, 0): -2}, Fraction(-2, 3))
    assert p.terms[(0, 0)] == Fraction(2, 3) and p.terms[(F(1), 0)] == Fraction(-4, 3)
    assert (Fraction(1, 2), 0) not in p.terms
    with pytest.raises(TypeError):
        p.terms[(0, 0)] = 1


# -- characteristic derivatives ----------------------------------------------

def test_deriv_kills_first_kind_wave():
    # exponent of e^{lam*(d1*t - c1*x)}
    lam = F(3)
    f = ExpPoly.term(1, lam * W.d1, -lam * W.c1)
    assert f.deriv(1, 0, W).is_zero()


def test_deriv_second_index_on_first_kind_wave():
    lam = F(3)
    f = ExpPoly.term(1, lam * W.d1, -lam * W.c1)
    assert f.deriv(0, 1, W) == f * F(-3)


def test_deriv_of_constant_is_zero():
    assert ExpPoly.const(5).deriv(1, 1, W).is_zero()


@given(rationals, rationals, rationals, rationals, st.integers(-3, 3), st.integers(-3, 3),
       exponents)
def test_integer_speeds_and_basis_on_random_constants(c1, c2, d1, d2, i, j, ab):
    assume(c1 * d2 != c2 * d1)
    w = WaveConstants(c1, c2, d1, d2)
    # D_{i,j} scales exp(a*t + b*x) by (P*a + Q*b)/R
    a, b = ab
    p, q, r = w.deriv_speeds(i, j)
    speed = ((i * c1 + j * c2) * a + (i * d1 + j * d2) * b) / w.delta
    assert (p * a + q * b) / r == speed
    assert ExpPoly.term(1, a, b).deriv(i, j, w) == ExpPoly.term(speed, a, b)
    # T times the wave-exponent matrix [[d1, d2], [-c1, -c2]] is h*I
    t11, t12, t21, t22, det, h = w.basis
    assert (t11 * d1 - t12 * c1, t11 * d2 - t12 * c2) == (h, 0)
    assert (t21 * d1 - t22 * c1, t21 * d2 - t22 * c2) == (0, h)
    assert det == t11 * t22 - t12 * t21


@settings(max_examples=35)
@given(exppolys(), exppolys(), st.integers(0, 2), st.integers(0, 3))
def test_leibniz_rule(f, g, i, j):
    lhs = (f * g).deriv(i, j, W)
    rhs = f.deriv(i, j, W) * g + f * g.deriv(i, j, W)
    assert lhs == rhs


@settings(max_examples=35)
@given(exppolys(), st.integers(0, 2), st.integers(0, 3), st.integers(0, 2), st.integers(0, 3))
def test_index_linearity(f, i, j, k, l):
    assert f.deriv(i + k, j + l, W) == f.deriv(i, j, W) + f.deriv(k, l, W)


def test_quotient_rule_degenerate_cases():
    r = ExpRational(ExpPoly.term(2, 1, 1))
    assert r.deriv(1, 0, W) == ExpRational(ExpPoly.term(2, 1, 1).deriv(1, 0, W))
    const = ExpRational(ExpPoly.const(3), ExpPoly.const(4))
    assert const.deriv(1, 1, W).is_zero()


@settings(max_examples=35)
@given(exprationals(), exprationals())
def test_quotient_rule_leibniz(r, s):
    lhs = (r * s).deriv(1, 1, W)
    rhs = r.deriv(1, 1, W) * s + r * s.deriv(1, 1, W)
    assert lhs == rhs


def test_dlog_is_deriv_over_value():
    poly = ExpRational(ExpPoly.term(2, 1, 1) + ExpPoly.const(3))
    quot = ExpRational(ExpPoly.term(1, 1, 0) - ExpPoly.const(1),
                       ExpPoly.term(1, 0, 1) + ExpPoly.const(2))
    for u in (poly, quot):
        for i, j in ((1, 0), (0, 1), (1, 2)):
            assert u.dlog(i, j, W) == u.deriv(i, j, W) / u
    # the direct form (n'd - nd')/(nd) carries no spare factor of d
    assert quot.dlog(1, 1, W).den.terms.keys() == (quot.num * quot.den).terms.keys()
    with pytest.raises(DivisionByZeroField):
        ExpRational.zero().dlog(1, 0, W)


@settings(max_examples=35)
@given(exprationals())
def test_dlog_matches_quotient_rule(r):
    if not r.is_zero():
        assert r.dlog(1, 1, W) == r.deriv(1, 1, W) / r


# -- field laws ----------------------------------------------------------------

@settings(max_examples=25)
@given(exprationals(), exprationals(), exprationals())
def test_field_laws(r, s, u):
    assert r + s == s + r
    assert r * s == s * r
    assert (r + s) + u == r + (s + u)
    assert (r * s) * u == r * (s * u)
    assert r * (s + u) == r * s + r * u


@settings(max_examples=35)
@given(exprationals())
def test_inverse_cancellation(r):
    if not r.is_zero():
        assert r / r == ExpRational.const(1)
        assert (r * (1 / r)) == ExpRational.const(1)
    assert (r - r).is_zero()


def test_division_by_zero_value():
    with pytest.raises(DivisionByZeroField):
        ExpRational.const(1) / ExpRational.zero()


# -- exact division ------------------------------------------------------------

@settings(max_examples=25)
@given(exppolys(), nonzero_exppolys)
def test_divexact_roundtrip(f, g):
    assert divexact(f * g, g) == f


ONE = ExpPoly.const(1)


def test_divexact_inexact_raises():
    num = ExpPoly.term(1, 1, 0) + ExpPoly.const(1)
    den = ExpPoly.term(1, "1/2", 0) + ExpPoly.const(-1)
    # e^t + 1 is NOT divisible by e^{t/2} - 1 (e^t - 1 is); the third
    # candidate quotient key leaves the Newton-polytope box
    with pytest.raises(InexactDivision, match="Newton-polytope"):
        divexact(num, den)


# 1/(1+e^x): the a coordinate never moves; the b bound refuses
@pytest.mark.parametrize("den", [ONE + ExpPoly.term(1, 1, 0), ONE + ExpPoly.term(1, 0, 1)],
                         ids=["1/(1+e^t)", "1/(1+e^x)"])
def test_divexact_refuses_one_over_a_binomial_at_once(den):
    with pytest.raises(InexactDivision, match="Newton-polytope"):
        divexact(ONE, den)


def test_divexact_refuses_a_leading_coefficient_that_does_not_divide():
    # (1 + e^{2t}) / (1 + 2e^t): the first quotient coefficient would be 1/2
    with pytest.raises(InexactDivision, match="does not divide"):
        divexact(ONE + ExpPoly.term(1, 2, 0), ONE + ExpPoly.term(2, 1, 0))


def test_divexact_telescoping_quotient():
    # e^t - 1 = (e^{t/4} - 1)(e^{3t/4} + e^{t/2} + e^{t/4} + 1)
    num = ExpPoly.term(1, 1, 0) + ExpPoly.const(-1)
    den = ExpPoly.term(1, "1/4", 0) + ExpPoly.const(-1)
    q = divexact(num, den)
    assert q * den == num
    assert len(q.terms) == 4


# -- constants and evaluation ----------------------------------------------------

def test_as_constant():
    r = ExpRational(ExpPoly.term(3, 1, 2) + ExpPoly.term(6, 0, 1))
    s = r / r * Fraction(7, 2)
    assert s.as_constant() == Fraction(7, 2)
    assert ExpRational.zero().as_constant() == 0
    assert ExpRational(ExpPoly.term(1, 1, 0)).as_constant() is None
    nonconst = ExpRational(ExpPoly.term(1, 1, 0) + ExpPoly.const(1), ExpPoly.term(1, 0, 1))
    assert nonconst.as_constant() is None
    assert ExpRational(ONE, ONE + ExpPoly.term(1, 1, 0)).as_constant() is None
    half = ExpRational(ONE + ExpPoly.term(3, 1, 0), ONE * 2 + ExpPoly.term(6, 1, 0))
    assert half.as_constant() == Fraction(1, 2)


def test_eval_basics():
    assert ExpRational.const(1).eval(0, 0) == 1.0
    assert ExpRational(ExpPoly.term(1, 1, 0)).eval(0, 0) == 1.0
    v = ExpRational(ExpPoly.term(1, 1, 0)).eval(1, 0)
    assert abs(v - 2.718281828459045) < 1e-12


def test_eval_pole():
    den = ExpPoly.term(1, 1, 0) + ExpPoly.const(-1)  # vanishes at t=0
    r = ExpRational(ExpPoly.const(1), den)
    with pytest.raises(EvalPole):
        r.eval(0, 0)


def test_eval_pole_where_the_denominator_cancels_only_to_rounding():
    # (e^t - e^x)(e^t + 1) vanishes on t = x, but at t = x = 1/3 its terms
    # e^{2t} and e^{t+x} round apart: the sum is a rounding residue, not 0,
    # and the mass-relative pole rule still has to catch it
    e_t, e_x = ExpPoly.term(1, 1, 0), ExpPoly.term(1, 0, 1)
    r = ExpRational(ONE, (e_t - e_x) * (e_t + ONE))
    with pytest.raises(EvalPole):
        r.eval(Fraction(1, 3), Fraction(1, 3))


def test_eval_of_a_tiny_positive_denominator_is_no_pole():
    # e^{2000t} + e^{2001t} is about 1e-87 at t = -1/10, but never zero
    den = ExpPoly.term(1, 2000, 0) + ExpPoly.term(1, 2001, 0)
    v = ExpRational(ONE, den).eval(Fraction(-1, 10), 0)
    assert math.isclose(v, math.exp(200) / (1 + math.exp(-0.1)), rel_tol=1e-12)


@settings(max_examples=25)
@given(exprationals(), exprationals())
def test_canonical_equality_matches_eval(r, s):
    # structural (cross-multiplied) equality and numeric evaluation must agree
    pts = [(F(0), F(0)), (F(1), F("-1/3")), (F("1/2"), F(1)), (F(-1), F("2/3")), (F("1/5"), F("-1/5"))]
    if r == s:
        for t, x in pts:
            try:
                rv, sv = r.eval(t, x), s.eval(t, x)
            except EvalPole:
                continue
            scale = max(1.0, abs(rv), abs(sv))
            assert abs(rv - sv) <= 1e-9 * scale


# -- factored denominators -----------------------------------------------------

_OPS = ("+", "-", "*", "/", "d", "dlog", "cancel", "*/")


@settings(max_examples=30)
@given(st.lists(exprationals(), min_size=2, max_size=3),
       st.lists(st.tuples(st.sampled_from(_OPS), st.integers(0, 7), st.integers(0, 7)),
                max_size=4))
def test_factored_arithmetic_agrees_with_the_cross_multiplied_reference(seeds, program):
    # Random programs over the factored operations, run in step with the
    # plain num/den reference; "*/" forms (x*y)/y and cancels it, so the
    # cancel step has an atom to find.
    vals = [(r, rat.of(r)) for r in seeds]
    for op, a, b in program:
        (x, rx), (y, ry) = vals[a % len(vals)], vals[b % len(vals)]
        if op in ("/", "*/") and y.is_zero() or op == "dlog" and x.is_zero():
            continue
        if op == "+":
            z, rz = x + y, rat.add(rx, ry)
        elif op == "-":
            z, rz = x - y, rat.add(rx, rat.neg(ry))
        elif op == "*":
            z, rz = x * y, rat.mul(rx, ry)
        elif op == "/":
            z, rz = x / y, rat.div(rx, ry)
        elif op == "d":
            z, rz = x.deriv(1, 2, W), rat.deriv(rx, 1, 2, W)
        elif op == "dlog":
            z, rz = x.dlog(0, 1, W), rat.dlog(rx, 0, 1, W)
        elif op == "cancel":
            z, rz = x.cancel(), rx
        else:
            z, rz = (x * y / y).cancel(), rx
        vals.append((z, rz))
    for z, rz in vals:
        assert rat.equal(rat.of(z), rz)
        assert z.den.terms[min(z.den.terms)] == 1  # the least-coefficient-1 anchor
    for k, (x, rx) in enumerate(vals):
        for y, ry in vals[k:]:
            assert (x == y) is rat.equal(rx, ry)


def test_cancel_divides_out_known_atoms_and_the_monomial():
    d = ONE + ExpPoly.term(2, 1, 0)
    n = ExpPoly.term(3, "1/2", 1) - ExpPoly.const(1)
    # each divisor brings the atom d (and the first one a monomial)
    r = ExpRational(n * d * d) / ExpRational(d * ExpPoly.term(5, 0, "1/3")) / d / d
    assert r.den == d * d * d * ExpPoly.term(1, 0, "1/3")
    c = r.cancel()
    assert c == r
    assert c.den == d and c.num == n * ExpPoly.term(Fraction(1, 5), 0, "-1/3")
    # the divisor's atoms cancel against the dividend's: (n/d) / (m/d) is
    # stored as n/m, with no d left in either part
    m = ONE + ExpPoly.term(4, 0, "1/2")
    q = ExpRational(n, d) / ExpRational(m, d)
    assert (q.num, q.den) == (ExpRational(n, m).num, ExpRational(n, m).den)
    # (x * y) / y keeps y's numerator as an atom until cancel divides it out
    x = ExpRational(n, d)
    y = ExpRational(d + ExpPoly.term(1, 0, 1), ExpPoly.term(1, 1, 1))
    z = x * y / y
    assert z == x and len(z.den.terms) > len(x.den.terms)
    assert z.cancel().den == x.den and z.cancel().num == x.num


def test_scalar_operations_keep_a_given_denominator():
    # A scalar product, quotient or negation changes only the numerator:
    # the result keeps the given denominator as it is.
    num, den = ExpPoly.term(1, 1, 0), ONE + ExpPoly.term(1, 0, 1)
    u = ExpRational(num, den)
    for out, want in ((u * 2, num * 2), (u / 3, num * Fraction(1, 3)), (-u, -num)):
        assert (out.num, out.den) == (want, den)
        assert out == ExpRational(want, den)


def test_equality_over_the_same_atoms_forms_no_product(monkeypatch):
    # Values over one atom, with different monomials in the denominator,
    # compare their numerators: one shift, no ExpPoly product.
    d = ONE + ExpPoly.term(1, 1, 0) + ExpPoly.term(3, 0, 2)
    n = ExpPoly.term(2, "1/2", 1) + ExpPoly.const(7)
    u = ExpRational(n * ExpPoly.term(1, 0, 1), d * ExpPoly.term(1, 0, 1))
    v = ExpRational(n, d)
    w = ExpRational(n + ONE, d)
    s = (v * v).deriv(1, 1, W)
    t = (w * v).deriv(1, 1, W)
    mul = ExpPoly.__mul__
    products = []

    def recording(a, b):
        products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(ExpPoly, "__mul__", recording)
    verdicts = (u == v, v == w, s == s, s == t)
    monkeypatch.setattr(ExpPoly, "__mul__", mul)
    assert verdicts == (True, False, True, False)
    assert not products


@settings(max_examples=40)
@given(st.lists(exppolys(), min_size=1, max_size=4), nonzero_exppolys,
       st.lists(exprationals(), max_size=2))
def test_common_denominator_puts_each_value_over_one_lcm(nums, den, others):
    shared = ExpRational.all_over(nums, den)
    for v, n in zip(shared, nums):
        u = ExpRational(n, den)
        assert (v.num, v.den) == (u.num, u.den)
    # one denominator object is taken as it is; split into its factors it
    # gives the same lcm by the general path
    L, ns = common_denominator(shared)
    split = [exprat._rat(v.num, v._shift, v._atoms) for v in shared]
    assert common_denominator(split) == (L, ns)
    if any(nums):
        assert L is next(v.den for v in shared if not v.is_zero())
        assert ns == [v.num for v in shared]
    vals = shared + others
    L, ns = common_denominator(vals)
    for v, n in zip(vals, ns):
        assert ExpRational(n, L) == v


def test_common_denominator_is_the_least_over_the_atoms():
    d = ONE + ExpPoly.term(2, 1, 0)
    e = ONE + ExpPoly.term(1, 0, "1/2")
    n = ExpPoly.term(3, "1/2", 1)
    u = ExpRational(n, d) / ExpRational(e)  # atoms d and e
    v = ExpRational(n + ONE, d * ExpPoly.term(1, 1, 0))  # atom d, monomial e^t
    w = ExpRational(ExpPoly.term(1, 0, 1), e) / ExpRational(e)  # atom e twice
    L, ns = common_denominator([u, ExpRational.zero(), v, w])
    assert L == d * e * e * ExpPoly.term(1, 1, 0)
    assert ns == [n * e * ExpPoly.term(1, 1, 0), ExpPoly.zero(), (n + ONE) * e * e,
                  ExpPoly.term(1, 0, 1) * d * ExpPoly.term(1, 1, 0)]
    assert common_denominator([ExpRational.zero()]) == (ONE, [ExpPoly.zero()])


# -- sums of products against the schoolbook reference -------------------------------

#: Packing forced on every sum: the Kronecker path alone, whatever its cost.
ALWAYS_PACK = {"PACK_SLOTS_PER_TERM": 10 ** 9}

big_coefs = st.one_of(st.integers(-2 ** 130, 2 ** 130).filter(bool), nonzero_rationals)


def spectral_key(sp, sq, w=W):
    """The exponent of a spike wave with position sums sp and sq."""
    return (sp * w.d1 + sq * w.d2, -(sp * w.c1 + sq * w.c2))


@st.composite
def operands(draw):
    """(coefficient, a, b) terms of one operand: spike waves on a lattice of
    its own scale, offset along sQ by a shift of its own, or exponents off
    the spectral lattice; one term or up to eight."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        scale = draw(st.sampled_from([1, 2, 3]))
        shift = draw(st.sampled_from([F(0), Fraction(1, 5), Fraction(-2, 3), F(7)]))
        keys = [spectral_key(Fraction(draw(st.integers(-2, 2)), scale),
                             Fraction(draw(st.integers(0, 9)), scale) + shift) for _ in range(n)]
    else:
        keys = [draw(st.tuples(lattice_rationals, lattice_rationals)) for _ in range(n)]
    return [(draw(big_coefs), a, b) for a, b in keys]


#: Derivative indices (i, j) of the factors ((i, j), x).
DERIVATIVE_INDICES = [(1, 0), (0, 1), (1, 1), (1, 2), (2, -3)]


@st.composite
def factors(draw):
    """(factor, reference dict): an operand x, or about one time in three
    the factor ((i, j), x) with the derivative D_{i,j} x as its reference;
    then sometimes x is one spike wave constant along (i, j), whose
    derivative has no terms."""
    x, rx = _poly_and_reference(draw(operands()))
    if draw(st.integers(0, 2)):
        return x, rx
    i, j = draw(st.sampled_from(DERIVATIVE_INDICES))
    if not draw(st.integers(0, 3)):
        t = F(draw(st.sampled_from([-1, 1, 2])))
        x, rx = _poly_and_reference([(draw(big_coefs), *spectral_key(i * t, j * t))])
    return ((i, j), x), ref.deriv(rx, i, j, W)


def as_poly(x):
    """A factor of sum_of_products as a plain ExpPoly."""
    return x[1].deriv(*x[0], W) if isinstance(x, tuple) else x


@st.composite
def product_sums(draw):
    """(c, [(factor, reference dict)]) terms of one to four factors (see
    factors), a factor sometimes repeated within its term, as in
    (c, p, p, q), or its operand under another derivative, as in
    (c, D_{1,0} p, D_{0,1} p, q); with cancel, each product also enters
    negated with its factors reversed, so the sum is 0."""
    out = []
    for _ in range(draw(st.integers(1, 4))):
        xs = [draw(factors()) for _ in range(draw(st.integers(1, 3)))]
        if draw(st.booleans()):
            x, rx = draw(st.sampled_from(xs))
            if draw(st.booleans()):
                x = x[1] if isinstance(x, tuple) else x
                i, j = draw(st.sampled_from(DERIVATIVE_INDICES))
                x, rx = ((i, j), x), ref.deriv(dict(x.terms), i, j, W)
            xs.insert(draw(st.integers(0, len(xs))), (x, rx))
        out.append((draw(big_coefs), xs))
    if draw(st.booleans()):
        out += [(-c, xs[::-1]) for c, xs in out]
    return out


@st.composite
def product_systems(draw):
    """Sums of products (see product_sums) to form in one call; a last sum
    may multiply operands of the others, so that one operand enters sums of
    different digit widths."""
    sums = draw(st.lists(product_sums(), min_size=1, max_size=2))
    pool = [x for terms in sums for _, xs in terms for x in xs]
    if draw(st.booleans()):
        sums.append(draw(st.lists(
            st.tuples(big_coefs, st.lists(st.sampled_from(pool), min_size=1, max_size=4)),
            min_size=1, max_size=3)))
    return sums


@settings(max_examples=120)
@given(product_systems())
def test_sum_of_products_matches_the_schoolbook_reference(sums):
    wants = []
    for terms in sums:
        want = {}
        for c, xs in terms:
            product = {(F(0), F(0)): F(c)}
            for _, rx in xs:
                product = ref.mul(product, rx)
            want = ref.add(want, product)
        wants.append(want)
    systems = [[(c, *(x for x, _ in xs)) for c, xs in terms] for terms in sums]
    for forced in ({}, ALWAYS_PACK):
        with pytest.MonkeyPatch.context() as mp:
            for name, value in forced.items():
                mp.setattr(exprat, name, value)
            got = sum_of_products(systems, W)
        assert [dict(g.terms) for g in got] == wants
        for g, terms in zip(got, systems):
            assert g == sum((math.prod(map(as_poly, t[1:]), start=ExpPoly.const(t[0]))
                             for t in terms), ExpPoly())


def _pair_loops(monkeypatch, run):
    """run() and the number of ExpPoly.__mul__ calls it made with two
    ExpPolys (schoolbook products; a scalar product is not counted)."""
    mul = ExpPoly.__mul__
    calls = []

    def counting(a, b):
        if isinstance(b, ExpPoly):
            calls.append(b)
        return mul(a, b)

    monkeypatch.setattr(ExpPoly, "__mul__", counting)
    try:
        result = run()
    finally:
        monkeypatch.setattr(ExpPoly, "__mul__", mul)
    return result, len(calls)


@pytest.mark.parametrize("gap, packed", [(1, True), (10 ** 6, False)])
def test_a_sparse_sum_of_products_is_multiplied_term_by_term(monkeypatch, gap, packed):
    # Eight spike waves per operand, the last one gap steps past the others.
    # With a gap of 10**6 the v span is 10**6 slot steps, over 1000 times
    # the 31 operand terms, and the sum is formed by ExpPoly products, the
    # factor ((1, 2), q) as D_{1,2} q; with a gap of 1 it is packed.
    def wave(k):
        return spectral_key(F(1), F(k if k < 7 else 6 + gap))
    p = [(k + 1, *wave(k)) for k in range(8)]
    q = [(2 * k - 5, *wave(k)) for k in range(8)]
    (fp, rp), (fq, rq) = _poly_and_reference(p), _poly_and_reference(q)
    (got,), loops = _pair_loops(monkeypatch, lambda: sum_of_products(
        [[(3, fp, fq), (Fraction(-1, 2), fq, ((1, 2), fq))]], W))
    want = ref.add(ref.mul(ref.mul(rp, rq), {(F(0), F(0)): F(3)}),
                   ref.mul(ref.mul(rq, ref.deriv(rq, 1, 2, W)),
                           {(F(0), F(0)): Fraction(-1, 2)}))
    assert dict(got.terms) == want
    assert (loops == 0) is packed
