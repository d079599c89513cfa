"""Exact-arithmetic core: ring/field laws, derivatives, division, evaluation."""

import fractions
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from nwave.exprat import (
    DivisionByZeroField,
    EvalPole,
    ExpPoly,
    ExpRational,
    InexactDivision,
    TooManyDigits,
    WaveConstants,
    common_denominator,
    divexact,
    sum_of_products,
    wave_constants,
)
from nwave import exprat
from nwave.spectral import spectral_data
from nwave.tau import solution_from_tau
from nwave.verify import _W as W, render_poly
from nwave.wavesys import model

import _fracpoly as ref
import _fracrat as rat
from _calls import forced, recorded


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


def _assert_is(p, rp):
    """p is the reference polynomial rp, its content a coprime pair of ints
    with a positive denominator: rp's content (_fracpoly.content), in
    spectral coordinates up to the sign, which goes with the least
    spectral key there; and its integer coefficients are primitive and
    positive at its least key."""
    assert dict(p.terms) == rp
    if rp:
        cn, cd, ints = p._cn, p._cd, p._ints
        assert type(cn) is int and type(cd) is int and cd > 0 and math.gcd(cn, cd) == 1
        c = ref.content(rp)
        assert Fraction(cn, cd) == c if p._w is None else abs(Fraction(cn, cd)) == abs(c)
        assert math.gcd(*ints.values()) == 1 and ints[min(ints)] > 0


@settings(max_examples=60)
@given(term_lists, term_lists, st.integers(0, 2), st.integers(0, 3))
# negative contents, -1/2 and -2/3
@example([(F("-3/2"), 0, 0), (F("1/2"), 1, 0)], [(F("-2/3"), 0, 1), (F("4/3"), 1, 1)], 1, 0)
# a divisor of content -2: divexact and / flip both signs of the inverse
@example([(F(3), 0, 0), (F(1), 1, 0)], [(F(-2), 0, 0), (F(4), 1, 1)], 0, 1)
# D_{1,0} of 5 exp(x) over W: the spectral scale 5 cancels the content's 5
@example([(F(5), 0, 1)], [(F(1), 0, 0)], 1, 0)
# the divisor (1/3)(3 + 2 e^t): its least coefficient 3 cancels its content's 3
@example([(F(2), 1, 1)], [(F(1), 0, 0), (F("2/3"), 1, 0)], 0, 0)
# contents 2/3 and 4/3 added: the numerators share 2, the denominators 3
@example([(F("2/3"), 0, 0)], [(F("4/3"), 1, 0)], 1, 1)
def test_lattice_core_matches_fraction_reference(ft, gt, i, j):
    f, rf = _poly_and_reference(ft)
    g, rg = _poly_and_reference(gt)
    _assert_is(f, rf)
    assert len(f.terms) == len(rf)
    _assert_is(f + g, ref.add(rf, rg))
    _assert_is(f - g, ref.add(rf, {k: -c for k, c in rg.items()}))
    _assert_is(f * g, ref.mul(rf, rg))
    _assert_is(f * Fraction(-3, 2), ref.mul(rf, {(F(0), F(0)): Fraction(-3, 2)}))
    _assert_is(f.deriv(i, j, W), ref.deriv(rf, i, j, W))
    assert (f == g) == (rf == rg)
    # the same value reached another way is structurally equal, hash included
    same = (f + g) - g
    assert same == f and hash(same) == hash(f)
    if rg:
        _assert_is(divexact(f * g, g), rf)
    if rf and rg:
        # / divides f and g by g's term of least exponent, a unit
        (a, b) = min(rg)
        unit = {(-a, -b): 1 / rg[a, b]}
        q = ExpRational(f) / ExpRational(g)
        _assert_is(q.num, ref.mul(rf, unit))
        _assert_is(q.den, ref.mul(rg, unit))


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
    assert p.lattice() == (1, {(0, 0): 1, (1, 0): -2}, 2, 3)
    assert (-p).lattice() == (1, {(0, 0): 1, (1, 0): -2}, -2, 3)
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
    # D_{i,j} scales exp(a*t + b*x) by ((i*c1 + j*c2)*a + (i*d1 + j*d2)*b)/delta,
    # whichever coordinates the term is held in
    a, b = ab
    speed = ((i * c1 + j * c2) * a + (i * d1 + j * d2) * b) / (c1 * d2 - c2 * d1)
    term = ExpPoly.term(1, a, b)
    assert term.deriv(i, j, w) == ExpPoly.term(speed, a, b)
    assert dict(exprat._spectral(term, w).deriv(i, j, w).terms) == (
        {(a, b): speed} if speed else {})
    # T times the wave-exponent matrix [[d1, d2], [-c1, -c2]] is h*I
    t11, t12, t21, t22, h = w.basis
    assert (t11 * d1 - t12 * c1, t11 * d2 - t12 * c2) == (h, 0)
    assert (t21 * d1 - t22 * c1, t21 * d2 - t22 * c2) == (0, h)
    # the lattice over H is that matrix, and T times the lattice is H*h*I
    H, l1, l2, k1, k2 = w.lattice
    assert [[Fraction(l1, H), Fraction(l2, H)], [Fraction(-k1, H), Fraction(-k2, H)]] == [
        [d1, d2], [-c1, -c2]]
    assert (t11 * l1 - t12 * k1, t11 * l2 - t12 * k2) == (H * h, 0)
    assert (t21 * l1 - t22 * k1, t21 * l2 - t22 * k2) == (0, H * h)


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
    # The log-derivative is written as the quotient deriv / value, and meets
    # the reference's (n'd - nd') / (nd).
    poly = ExpRational(ExpPoly.term(2, 1, 1) + ExpPoly.const(3))
    quot = ExpRational(ExpPoly.term(1, 1, 0) - ExpPoly.const(1),
                       ExpPoly.term(1, 0, 1) + ExpPoly.const(2))
    for u in (poly, quot):
        for i, j in ((1, 0), (0, 1), (1, 2)):
            assert rat.equal(rat.of(u.deriv(i, j, W) / u), rat.dlog(rat.of(u), i, j, W))
    # deriv / self cancels deriv's second factor of d: (n'd - nd')/(nd)
    assert (quot.deriv(1, 1, W) / quot).den.terms.keys() == (quot.num * quot.den).terms.keys()
    zero = ExpRational.zero()
    with pytest.raises(DivisionByZeroField):
        zero.deriv(1, 0, W) / zero


@settings(max_examples=35)
@given(exprationals())
def test_dlog_matches_quotient_rule(r):
    if not r.is_zero():
        assert rat.equal(rat.of(r.deriv(1, 1, W) / r), rat.dlog(rat.of(r), 1, 1, W))


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


@settings(max_examples=30)
@given(exppolys(), nonzero_exppolys, st.integers(-6, 6), rationals)
def test_a_scalar_minus_a_value_is_the_negated_difference(p, q, n, f):
    # c - x runs __rsub__: on an exponent-keyed ExpPoly, the same value in
    # W's spectral coordinates, and an ExpRational over an atom
    r = ExpRational(q, ExpPoly.term(1, 1, 0) + 1)
    assert not r.is_poly()
    for x in (p, exprat._spectral(p, W), r):
        for c in (n, f):
            assert c - x == -(x - c)


def test_division_by_zero_value():
    with pytest.raises(DivisionByZeroField):
        ExpRational.const(1) / ExpRational.zero()


_P = ExpPoly.term(2, 1, 0) + ExpPoly.const(1)
_R = ExpRational(_P, ExpPoly.term(1, 0, 1) + ExpPoly.const(1))
_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__eq__")
#: case -> (call, the exception it raises, or NotImplemented where it returns that)
_REFUSALS = {
    "divexact_by_zero": (lambda: divexact(_P, ExpPoly.zero()), DivisionByZeroField),
    "as_frac_of_a_float": (lambda: exprat.as_frac(0.5), TypeError),
    "ExpRational_of_a_float": (lambda: ExpRational(0.5), TypeError),
    "ExpRational_over_a_float": (lambda: ExpRational(_P, 0.5), TypeError),
}
_REFUSALS.update({
    f"{type(x).__name__}.{op}": (lambda x=x, op=op: getattr(x, op)(0.5), NotImplemented)
    for x, ops in ((_P, _DUNDERS), (_R, _DUNDERS + ("__truediv__", "__rtruediv__")))
    for op in ops})


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_a_zero_divisor_and_an_inexact_operand_are_refused(case):
    # a float is no exact rational: the constructors raise, and every ring
    # operator returns NotImplemented, so Python raises TypeError (== falls
    # back to identity)
    call, refusal = _REFUSALS[case]
    if refusal is NotImplemented:
        assert call() is NotImplemented
    else:
        with pytest.raises(refusal):
            call()


# -- exact division ------------------------------------------------------------

@settings(max_examples=25)
@given(exppolys(), nonzero_exppolys)
def test_divexact_roundtrip(f, g):
    assert divexact(f * g, g) == f


@settings(max_examples=25)
@given(exppolys(), nonzero_rationals, exponents)
def test_divexact_by_a_monomial_is_a_translation(f, c, ab):
    # a monomial is a unit: the quotient is f's keys moved, in canonical form
    m = ExpPoly.term(c, *ab)
    q = divexact(f * m, m)
    assert q == f and q.lattice() == f.lattice()


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
    # an atom of multiplicity 2: constant only once both are divided out
    a = ONE + ExpPoly.term(1, 1, 0)
    over_a2 = ExpRational(ONE, a) * ExpRational(ONE, a)
    assert (over_a2 * (a * a * 5)).as_constant() == 5
    assert (over_a2 * (a * 5)).as_constant() is None


def test_eval_basics():
    assert ExpRational.const(1).eval(0, 0) == 1
    assert ExpRational(ExpPoly.term(1, 1, 0)).eval(0, 0) == 1
    assert ExpRational.zero().eval(1, 0) == 0
    # e, rounded once to EVAL_PRECISION bits (within one unit of 2**-118),
    # as an exact Fraction; the mass of e^t - 1 is e + 1, rounded likewise
    ulp = Fraction(1, 2 ** (exprat.EVAL_PRECISION - 2))
    e = sum(Fraction(1, math.factorial(k)) for k in range(60))
    v = ExpRational(ExpPoly.term(1, 1, 0)).eval(1, 0)
    assert type(v) is Fraction and (v / ulp).denominator == 1 and abs(v - e) <= ulp
    mass = (ExpPoly.term(1, 1, 0) - 1).eval_mass(1, 0)
    assert type(mass) is Fraction and (mass / ulp).denominator == 1
    assert abs(mass - (e + 1)) <= ulp


def test_eval_far_from_zero_is_a_fraction_of_the_exponents_size():
    # e^t at t = +-10**6 is m * 2**e with |e| about 10**6 / ln 2: the exact
    # Fraction carries that many bits, and no more, on one side; the two
    # once-rounded values multiply to 1 within two roundings
    e_t = ExpPoly.term(1, 1, 0)
    big, small = e_t.eval(10 ** 6, 0), e_t.eval(-(10 ** 6), 0)
    exponent = math.floor(10 ** 6 / math.log(2))
    assert big.denominator == 1 and big.numerator.bit_length() == exponent + 1
    assert small.numerator.bit_length() <= exprat.EVAL_PRECISION
    assert small.denominator.bit_length() <= exponent + exprat.EVAL_PRECISION + 2
    assert abs(big * small - 1) <= Fraction(1, 2 ** (exprat.EVAL_PRECISION - 1))


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

_OPS = ("+", "-", "*", "/", "d", "dlog", "cancel", "*/", "//")


@settings(max_examples=30)
@given(st.lists(exprationals(), min_size=2, max_size=3),
       st.lists(st.tuples(st.sampled_from(_OPS), st.integers(0, 7), st.integers(0, 7)),
                max_size=4))
def test_factored_arithmetic_agrees_with_the_cross_multiplied_reference(seeds, program):
    # Random programs over the factored operations, run in step with the
    # plain num/den reference; "*/" forms (x*y)/y and cancels it, so the
    # cancel step has an atom to find; "//" divides every seed by y, which
    # splits y once.
    vals = [(r, rat.of(r)) for r in seeds]
    for op, a, b in program:
        (x, rx), (y, ry) = vals[a % len(vals)], vals[b % len(vals)]
        if op in ("/", "*/", "//") and y.is_zero() or op == "dlog" and x.is_zero():
            continue
        if op == "//":
            vals += [(v / y, rat.div(rv, ry)) for v, rv in vals[:len(seeds)]]
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
            z, rz = x.deriv(0, 1, W) / x, rat.dlog(rx, 0, 1, W)
        elif op == "cancel":
            z, rz = x.cancel(), rx
        else:
            z, rz = (x * y / y).cancel(), rx
        vals.append((z, rz))
    for z, rz in vals:
        assert rat.equal(rat.of(z), rz)
        assert z.den.terms[min(z.den.terms)] == 1  # the least-coefficient-1 anchor
    # every value equals its reference, so equality among the values is
    # equality among their own num/den forms, which stay small
    refs = [(z, rat.of(z)) for z, _ in vals]
    for k, (x, rx) in enumerate(refs):
        for y, ry in refs[k:]:
            assert (x == y) is rat.equal(rx, ry)


@settings(max_examples=40)
@given(exprationals(), exprationals())
def test_every_value_is_its_numerator_over_atoms(r, s):
    # Whatever built it, a denominator carries no unit: its least key is 0
    # with coefficient 1 there, and constructing the value again from its
    # two parts gives back the same parts.
    values = [r, s, r + s, r * s, r.deriv(1, 2, W)]
    if not s.is_zero():
        values.append(r / s)
    if not r.is_zero():
        values.append(r.deriv(0, 1, W) / r)
    for u in values:
        terms = u.den.terms
        assert min(terms) == (0, 0) and terms[(0, 0)] == 1
        again = ExpRational(u.num, u.den)
        assert (again.num, again.den) == (u.num, u.den)
        assert u.is_poly() is (u.den == ONE)


def test_a_divisor_s_monomial_divides_the_numerator_and_cancel_divides_out_atoms():
    d = ONE + ExpPoly.term(2, 1, 0)
    n = ExpPoly.term(3, "1/2", 1) - ExpPoly.const(1)
    # each divisor brings the atom d; the first one's unit part 5e^{x/3}
    # divides the numerator at once
    unit = ExpPoly.term(Fraction(1, 5), 0, "-1/3")
    r = ExpRational(n * d * d) / ExpRational(d * ExpPoly.term(5, 0, "1/3")) / d / d
    assert r.den == d * d * d and r.num == n * d * d * unit
    c = r.cancel()
    assert c == r
    assert c.den == d and c.num == n * unit
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


def test_equality_over_the_same_atoms_forms_no_product():
    # Values over one atom, with different monomials in the denominator,
    # compare their numerators: one shift, no ExpPoly product.
    d = ONE + ExpPoly.term(1, 1, 0) + ExpPoly.term(3, 0, 2)
    n = ExpPoly.term(2, "1/2", 1) + ExpPoly.const(7)
    u = ExpRational(n * ExpPoly.term(1, 0, 1), d * ExpPoly.term(1, 0, 1))
    v = ExpRational(n, d)
    w = ExpRational(n + ONE, d)
    s = (v * v).deriv(1, 1, W)
    t = (w * v).deriv(1, 1, W)
    with recorded("__mul__", ExpPoly) as products:
        verdicts = (u == v, v == w, s == s, s == t)
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
    split = [exprat._rat(v.num, v._atoms) for v in shared]
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
    v = ExpRational(n + ONE, d * ExpPoly.term(1, 1, 0))  # atom d; e^t divides the numerator
    w = ExpRational(ExpPoly.term(1, 0, 1), e) / ExpRational(e)  # atom e twice
    L, ns = common_denominator([u, ExpRational.zero(), v, w])
    assert L == d * e * e
    assert ns == [n * e, ExpPoly.zero(), (n + ONE) * ExpPoly.term(1, -1, 0) * e * e,
                  ExpPoly.term(1, 0, 1) * d]
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


def _under_two_derivatives():
    """One sum, D_{1,0} x * D_{0,1} x for one x of three spike waves in W's
    spectral coordinates, so that both factors hold the one value x, as
    product_systems draws it: each factor with its reference dict."""
    x, rx = _poly_and_reference([(F(2), *spectral_key(F(1), F(0))), (F(-3), *spectral_key(F(0), F(1))),
                                 (F(5), *spectral_key(F(1), F(2)))])
    x = exprat._spectral(x, W)
    return [[(F(1), [(((i, j), x), ref.deriv(rx, i, j, W)) for i, j in ((1, 0), (0, 1))])]]


@settings(max_examples=120)
@given(product_systems())
# one operand under two derivatives in one call: each derived operand is its own
@example(_under_two_derivatives())
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
    for setting in ({}, ALWAYS_PACK):
        with forced(**setting):
            got = sum_of_products(systems, W)
        assert len(got) == len(wants) == len(systems)
        for g, want in zip(got, wants):
            _assert_is(g, want)
        for g, terms in zip(got, systems):
            assert g == sum((math.prod(map(as_poly, t[1:]), start=ExpPoly.const(t[0]))
                             for t in terms), ExpPoly())


@st.composite
def wave_constant_sums(draw):
    """(w, terms, reference dict): nondegenerate random wave constants w and
    a nonzero sum of products of one to three factors, each factor spike
    waves spectral_key(sp, sq, w) on a lattice of its own scale, or about
    one time in three its derivative ((i, j), x)."""
    c1, c2, d1, d2 = (draw(nonzero_rationals) for _ in range(4))
    assume(c1 * d2 != c2 * d1)
    w = WaveConstants(c1, c2, d1, d2)
    terms, want = [], {}
    for _ in range(draw(st.integers(1, 3))):
        c = draw(big_coefs)
        factors, product = [], {(F(0), F(0)): F(c)}
        for _ in range(draw(st.integers(1, 3))):
            scale = draw(st.sampled_from([1, 2, 3]))
            x, rx = _poly_and_reference([
                (draw(big_coefs), *spectral_key(Fraction(draw(st.integers(-2, 2)), scale),
                                                Fraction(draw(st.integers(0, 6)), scale), w))
                for _ in range(draw(st.integers(1, 6)))])
            if not draw(st.integers(0, 2)):
                i, j = draw(st.sampled_from(DERIVATIVE_INDICES))
                x, rx = ((i, j), x), ref.deriv(rx, i, j, w)
            factors.append(x)
            product = ref.mul(product, rx)
        terms.append((c, *factors))
        want = ref.add(want, product)
    assume(want)
    return w, terms, want


@settings(max_examples=60)
@given(wave_constant_sums())
def test_packed_sums_read_back_under_random_wave_constants(case):
    # the Kronecker path alone, its digits read back through w's lattice
    w, terms, want = case
    with forced(**ALWAYS_PACK):
        (got,) = sum_of_products([terms], w)
    assert dict(got.terms) == want


def test_a_packed_sum_reads_back_no_zero_digit():
    # 5*(6 + e^(2t-x))*(7 + e^x) packed on W: some slots of its output row
    # lie off the lattice, and a zero digit there floors onto the key of a
    # real term, the constant 210, which must not be overwritten.
    p, q = ExpPoly.const(6) + ExpPoly.term(1, 2, -1), ExpPoly.const(7) + ExpPoly.term(1, 0, 1)
    with forced(**ALWAYS_PACK):
        (got,) = sum_of_products([[(5, p, q)]], W)
    assert got == p * q * 5 and got.terms[(F(0), F(0))] == 210


def test_a_packed_sum_with_only_zero_coefficients_is_zero():
    # products with coefficient 0 are dropped before packing, so a sum of
    # none is zero: kept, they would make its content a quotient by gcd(0) == 0
    p, q = ExpPoly.const(6) + ExpPoly.term(1, 2, -1), ExpPoly.const(7) + ExpPoly.term(1, 0, 1)
    with forced(**ALWAYS_PACK):
        zero, pq = sum_of_products([[(0, p, q), (F(0), ((1, 2), p))], [(3, p, q)]], W)
    assert zero.is_zero() and pq == p * q * 3


@pytest.mark.parametrize("gap, packed", [(1, True), (10 ** 6, False)])
def test_a_sparse_sum_of_products_is_multiplied_term_by_term(gap, packed):
    # Eight spike waves per operand, the last one gap steps past the others.
    # With a gap of 10**6 the v span is 10**6 slot steps, over 1000 times
    # the 31 operand terms, and the sum is formed by ExpPoly products, the
    # factor ((1, 2), q) as D_{1,2} q; with a gap of 1 it is packed.
    def wave(k):
        return spectral_key(F(1), F(k if k < 7 else 6 + gap))
    p = [(k + 1, *wave(k)) for k in range(8)]
    q = [(2 * k - 5, *wave(k)) for k in range(8)]
    (fp, rp), (fq, rq) = _poly_and_reference(p), _poly_and_reference(q)
    # exprat._product is the dict pair loop, of ExpPoly.__mul__ or of _sum
    with recorded("_product", exprat) as loops:
        (got,) = sum_of_products([[(3, fp, fq), (Fraction(-1, 2), fq, ((1, 2), fq))]], W)
    want = ref.add(ref.mul(ref.mul(rp, rq), {(F(0), F(0)): F(3)}),
                   ref.mul(ref.mul(rq, ref.deriv(rq, 1, 2, W)),
                           {(F(0), F(0)): Fraction(-1, 2)}))
    assert dict(got.terms) == want
    assert (not loops) is packed


# -- large products and exact division on packed rows ------------------------------

#: The kernel (sum_of_products) on every product of two multi-term values, and
#: on every division of more than one quotient term, under constants; or neither.
ALWAYS_KERNEL = {"PRODUCT_PAIRS": 0}
NEVER_KERNEL = {"PRODUCT_PAIRS": 10 ** 9}


@st.composite
def spectral_values(draw, min_terms=1):
    """(value, reference dict): spike waves under W on a lattice of scale 1, 2
    or 3, in W's spectral coordinates (from_lattice with W)."""
    scale = draw(st.sampled_from([1, 2, 3]))
    p, rp = _poly_and_reference([
        (draw(big_coefs), *spectral_key(Fraction(draw(st.integers(-2, 2)), scale),
                                        Fraction(draw(st.integers(0, 9)), scale)))
        for _ in range(draw(st.integers(min_terms, 12)))])
    assume(len(rp) >= min_terms)
    return ExpPoly.from_lattice(*p.lattice(), W), rp


@settings(max_examples=80)
@given(spectral_values(), spectral_values(min_terms=2),
       st.tuples(big_coefs, st.integers(-3, 3), st.integers(-2, 12)))
def test_divexact_and_products_agree_on_both_sides_of_the_crossovers(qr, dr, extra):
    # q*d on the kernel and by the pair loop is the reference product, and
    # divexact(q*d, d) is q on packed rows and by the heap loop; q*d plus
    # one term e has no quotient (d would divide e, a unit), and both refuse it
    (q, rq), (d, rd), (c, u, v) = qr, dr, extra
    e = ExpPoly.from_lattice(*ExpPoly.term(c, *spectral_key(F(u), F(v))).lattice(), W)
    for setting in (ALWAYS_KERNEL, NEVER_KERNEL):
        with forced(**setting):
            num = q * d
            assert dict(num.terms) == ref.mul(rq, rd)
            assert divexact(num, d) == q
            with pytest.raises(InexactDivision):
                divexact(num + e, d)


def _spectral_poly(ints):
    """sum(n * e^theta(u, v)) over {(u, v): n}, in W's spectral coordinates."""
    return exprat._canonical(1, dict(ints), 1, 1, W)


def _binomials(*powers):
    """prod (1 - x**k) over powers, x = e^theta(0, 1): one spectral row."""
    return math.prod((_spectral_poly({(0, 0): 1, (0, k): -1}) for k in powers), start=ExpPoly.const(1))


def _sparse_division():
    """(num, d, q), num = q*d: q of 700 spike waves 60 slot steps apart and
    d = 1 - 2x + 3x^50, x = e^theta(0, 1).  The check product has 6,291
    term pairs, past PRODUCT_PAIRS, and the one-product sum num has about
    40 slots per term, past PACK_SLOTS_PER_TERM."""
    q = _spectral_poly({(0, 60 * i): i + 1 for i in range(700)})
    d = _spectral_poly({(0, 0): 1, (0, 1): -2, (0, 50): 3})
    return q * d, d, q


def _wide_division():
    """(num, d): (1-x^21)...(1-x^29) over (1-x)...(1-x^9), x = e^theta(0, 1),
    3,136 term pairs.  The quotient is the Gaussian binomial [29 choose 9]
    in x, coefficients up to 184,717, but num's 1-norm gives the sum's
    rows 16-bit digits, and the width check refuses the candidate."""
    return _binomials(*range(21, 30)), _binomials(*range(1, 10))


def test_a_quotient_past_the_first_digit_width_is_still_exact():
    # With the kernel on every division: q = sum (-1)^i min(i + 1, N - i) x^i
    # with N = 1000, x = e^theta(0, 1), has coefficients up to 500, and
    # (1 + x) q has coefficients +-1 alone, so its 1-norm 1001 gives the
    # sum's rows 16-bit digits, wide enough for q: the quotient read off the
    # rows is proven.  The Gaussian binomial [19 choose 4], coefficients up
    # to 150, is (1-x^16)...(1-x^19) over (1-x)...(1-x^4), whose 1-norm 16
    # gives 8-bit digits: the width check refuses the candidate read back,
    # and the heap loop returns the quotient.  exprat._packed_quotient is
    # the long division on packed rows, whose result is a quotient or None.
    n_terms = 1000
    q = _spectral_poly({(0, i): (-1) ** i * min(i + 1, n_terms - i)
                        for i in range(n_terms)}) * Fraction(3 ** 40, 7)
    d = _spectral_poly({(0, 0): 1, (0, 1): 1})
    num, den = _binomials(16, 17, 18, 19), _binomials(1, 2, 3, 4)
    with forced(**ALWAYS_KERNEL), recorded("_packed_quotient", exprat) as results:
        assert divexact(q * d, d) == q
        gauss = divexact(num, den)
    assert gauss * den == num and max(gauss.terms.values()) == 150
    assert [r.result is None for r in results] == [False, True]


def test_a_large_sparse_division_stays_on_the_heap_loop():
    # keys 60 slot steps apart: packed rows would hold about 40 slots per
    # term, so the kernel declines them (PACK_SLOTS_PER_TERM) before any
    # long division on packed rows, and the heap loop divides, once
    num, d, q = _sparse_division()
    assert len(d.terms) * (len(num.terms) - len(d.terms)) > exprat.PRODUCT_PAIRS
    with recorded("_packed_quotient", exprat) as results, recorded("heapify", exprat) as heaps:
        assert divexact(num, d) == q
    assert results == [] and len(heaps) == 1


def test_a_division_enters_the_kernel_once():
    # a large sparse division and a large quotient whose digits outgrow the
    # sum's width: divexact makes one sum_of_products call for each, whose
    # fallback is the heap loop and never divexact's gate again
    (num, d, q), (wide, w) = _sparse_division(), _wide_division()
    with (recorded("sum_of_products", exprat) as calls,
          recorded("_packed_quotient", exprat) as results):
        assert divexact(num, d) == q and len(calls) == 1 and results == []
        got = divexact(wide, w)
    assert len(calls) == 2 and [r.result for r in results] == [None]
    assert got * w == wide


# -- sums divided on the kernel's rows ---------------------------------------------

def _outcome(run):
    """run()'s value, or the type of the exact-division error it raised."""
    try:
        return run()
    except (InexactDivision, DivisionByZeroField) as e:
        return type(e)


def _unit(draw):
    """A drawn one-term value."""
    return _poly_and_reference(draw(operands())[:1])[0]


@st.composite
def divided_sums(draw):
    """(sums, divisors) for sum_of_products: one or two sums of one to three
    products of one to three factors, all drawn by factors or all spectral
    values (dense rows, packed as shipped), each sum with a divisor: None,
    one term, any value, or most often a value d that is one more factor
    of every product, so that the sum divides; then sometimes the products
    cancel (a zero sum) or one more term joins them (no quotient by d
    unless d is a unit)."""
    sums, divisors = [], []
    for _ in range(draw(st.integers(1, 2))):
        spectral = draw(st.booleans())
        factor = (lambda: draw(spectral_values())[0]) if spectral else (lambda: draw(factors())[0])
        terms = [[draw(big_coefs), *[factor() for _ in range(draw(st.integers(1, 3)))]]
                 for _ in range(draw(st.integers(1, 3)))]
        kind = draw(st.sampled_from(["none", "unit", "any", "zero", "plus a term"] + ["factor"] * 3))
        d = None if kind == "none" else _unit(draw) if kind == "unit" else (
            draw(spectral_values(min_terms=2))[0] if spectral
            else _poly_and_reference(draw(operands()))[0])
        if kind in ("factor", "zero", "plus a term"):
            for t in terms:
                t.insert(draw(st.integers(1, len(t))), d)
        if kind == "zero":
            terms += [[-t[0], *t[:0:-1]] for t in terms]
        if kind == "plus a term":
            terms.append([draw(big_coefs), _unit(draw)])
        sums.append([tuple(t) for t in terms])
        divisors.append(d)
    return sums, divisors


@settings(max_examples=60)
@given(divided_sums())
# digits past the sum's width: the width check refuses them
@example(([[(1, _binomials(16, 17, 18, 19))]], [_binomials(1, 2, 3, 4)]))
# (1 - x^2) / (1 + x): the divisor's v spacing, 1, is finer than the sum's, 2
@example(([[(1, _binomials(2))]], [_spectral_poly({(0, 0): 1, (0, 1): 1})]))
# past PRODUCT_PAIRS, a sparse sum and an unproven quotient: the heap loop
# divides them, and divexact would send them back to the kernel
@example(([[(1, _sparse_division()[0])]], [_sparse_division()[1]]))
@example(([[(1, _wide_division()[0])]], [_wide_division()[1]]))
def test_a_sum_with_a_divisor_is_divexact_of_the_sum(case):
    # sum_of_products(sums, w, divisors) is divexact of each sum by its
    # divisor, or both raise the same error; as shipped and with packing forced
    sums, divisors = case
    want = _outcome(lambda: [s if d is None else divexact(s, d)
                             for s, d in zip(sum_of_products(sums, W), divisors)])
    for setting in ({}, ALWAYS_PACK):
        with forced(**setting):
            got = _outcome(lambda: sum_of_products(sums, W, divisors))
        assert got == want


def _sparse_pair():
    """Two values of eight spike waves, the last 10**6 slot steps past the others."""
    def wave(k):
        return spectral_key(F(1), F(k if k < 7 else 6 + 10 ** 6))
    return (_poly_and_reference([(k + 1, *wave(k)) for k in range(8)])[0],
            _poly_and_reference([(2 * k - 5, *wave(k)) for k in range(8)])[0])


def _division_cases():
    """(id, sums, divisors, path, quotients or the refusal's message): the
    path is "rows" for a quotient read off the long division of the
    kernel's rows, "divexact" for a one-term divisor divided by divexact
    on the sum read back, "_heap_quotient" for the heap loop on the sum
    read back, and "refused" for a refusal by the long division."""
    p, q = ExpPoly.const(6) + ExpPoly.term(1, 2, -1), ExpPoly.const(7) + ExpPoly.term(1, 0, 1)
    sp, sq = _sparse_pair()
    y1, y2 = _spectral_poly({(0, 0): 1, (1, 0): 1}), _spectral_poly({(0, 0): 1, (1, 0): 2})
    return [
        ("a one-term divisor", [[(3, p, q)]], [ExpPoly.term(2, 1, 1)], "divexact", None),
        ("a zero sum", [[(1, p, q), (-1, q, p)]], [q], "rows", [ExpPoly.zero()]),
        ("a sparse sum", [[(3, sp, sq)]], [sq], "_heap_quotient", [sp * 3]),
        # (1 + y) / (1 + 2y), y = e^theta(1, 0): the leading row does not divide
        ("a nonzero remainder", [[(1, y1)]], [y2], "refused", "leading coefficient does not divide"),
        # (1 + y + 2y^2) / (1 + 2y): after the quotient row y the remainder
        # is 1, which only a quotient row at y^-1, below the Newton box, removes
        ("a quotient row below the u-bound", [[(1, y1 + _spectral_poly({(2, 0): 2}))]], [y2],
         "refused", "quotient key outside the Newton-polytope bounds"),
        # num = (1-x^16)...(1-x^19) and d = (1-x)...(1-x^4): the quotient is
        # the Gaussian binomial [19 choose 4] in x, coefficients up to 150, but
        # the sum's 1-norm 16 gives it 8-bit digits, and the width check
        # refuses the quotient's misread digits
        ("digits past the sum's width", [[(1, _binomials(16, 17, 18, 19))]],
         [_binomials(1, 2, 3, 4)], "_heap_quotient", None),
        # (1 - x^2) / (1 + x): the sum alone has a slot step of 2, the divisor 1
        ("a divisor finer than the sum", [[(1, _binomials(2))]],
         [_spectral_poly({(0, 0): 1, (0, 1): 1})], "rows", [_spectral_poly({(0, 0): 1, (0, 1): -1})]),
        # a 100-term sum (u-rows 0-9, v 0-9) over 30 terms (u-rows 0-2, v 0-54
        # in steps of 6), 2,100 check pairs, so that divexact takes the kernel
        # too: a quotient would have no v slot
        ("a divisor wider than the sum",
         [[(1, _spectral_poly({(u, v): u - v + 11 for u in range(10) for v in range(10)}))]],
         [_spectral_poly({(u, 6 * j): j + 1 for u in range(3) for j in range(10)})],
         "refused", "quotient key outside the Newton-polytope bounds"),
    ]


@pytest.mark.parametrize("case", _division_cases(), ids=lambda case: case[0])
def test_a_divided_sum_takes_its_path_and_stays_exact(case):
    _, sums, divisors, path, expected = case
    want = _outcome(lambda: [divexact(s, d) for s, d in zip(sum_of_products(sums, W), divisors)])
    with (recorded("_packed_quotient", exprat) as results, recorded("divexact", exprat) as units,
          recorded("_heap_quotient", exprat) as heaps):
        if path == "refused":
            with pytest.raises(InexactDivision, match=expected):
                sum_of_products(sums, W, divisors)
        else:
            got = sum_of_products(sums, W, divisors)
    fallbacks = {name: [c.args[1] for c in calls]
                 for name, calls in (("divexact", units), ("_heap_quotient", heaps))}
    if path == "refused":
        # the long division on the kernel's rows raised, and nothing else divided
        assert want is InexactDivision
        assert not any(fallbacks.values()) and [r.returned for r in results] == [False]
        return
    assert got == want and (expected is None or got == expected)
    assert fallbacks == {name: divisors if name == path else [] for name in fallbacks}
    if path == "rows":
        assert all(r.result is not None for r in results)
    elif case[0] == "digits past the sum's width":
        assert [r.result for r in results] == [None]


def test_a_quotient_row_wider_than_its_slots_goes_to_the_heap_loop():
    # (1 + x + x^2) / (x - 255), x = e^theta(0, 1), on the sum's 8-bit
    # digits: the divisor's row is 2**8 - 255 = 1, so the long division's one
    # quotient row is the sum's row, 65,793, past the quotient's two slots;
    # the heap loop then divides the sum read back, and refuses
    num = _spectral_poly({(0, 0): 1, (0, 1): 1, (0, 2): 1})
    d = _spectral_poly({(0, 0): -255, (0, 1): 1})
    with recorded("_packed_quotient", exprat) as rows, recorded("_heap_quotient", exprat) as heaps:
        with pytest.raises(InexactDivision, match="outside the Newton-polytope bounds"):
            sum_of_products([[(1, num)]], W, [d])
    assert [r.result for r in rows] == [None] and len(heaps) == 1


def test_a_divisor_list_of_another_length_is_refused():
    p = ExpPoly.const(6) + ExpPoly.term(1, 2, -1)
    with pytest.raises(ValueError, match="2 divisors for 1 sums"):
        sum_of_products([[(1, p)]], W, [None, p])


# -- the spectral and the exponent form of one value -------------------------------

@st.composite
def random_constants(draw):
    """Nondegenerate wave constants."""
    c1, c2, d1, d2 = (draw(nonzero_rationals) for _ in range(4))
    assume(c1 * d2 != c2 * d1)
    return WaveConstants(c1, c2, d1, d2)


def _canonical_exponents(p):
    """p's canonical form in exponent coordinates, (scale, {(A, B): n}, cn, cd)."""
    return ExpPoly.from_lattice(*p.lattice()).lattice()


def _nonconstant(p):
    return any(key != (0, 0) for key in p.lattice()[1])


@settings(max_examples=60)
@given(term_lists, term_lists, random_constants(), random_constants(),
       st.sampled_from(DERIVATIVE_INDICES))
def test_the_spectral_and_exponent_forms_are_one_value(ft, gt, w, w2, ij):
    f, rf = _poly_and_reference(ft)
    g, rg = _poly_and_reference(gt)
    sf, sg = exprat._spectral(f, w), exprat._spectral(g, w)
    # exponent -> spectral -> exponent is the identity
    assert _canonical_exponents(sf) == f.lattice() and dict(sf.terms) == rf
    assert ExpPoly.from_lattice(*f.lattice(), w) == sf
    # == and hash agree across the two forms
    assert sf == f and f == sf and hash(sf) == hash(f)
    assert (sf == g) == (f == g) == (g == sf) == (sf == sg)
    # +, *, deriv and divexact commute with the conversion, whichever
    # operand brings the spectral form
    for h in (sf + sg, f + sg, sf + g):
        assert _canonical_exponents(h) == (f + g).lattice()
    for h in (sf * sg, f * sg, sf * g):
        assert _canonical_exponents(h) == (f * g).lattice()
    assert dict(sf.deriv(*ij, w).terms) == dict(f.deriv(*ij, w).terms) == ref.deriv(rf, *ij, w)
    # one evaluation of a value in either form, both forms in one call
    if rf:
        (_, _, vals), = exprat.grid_values({0: ExpRational(f), 1: ExpRational(sf)},
                                           [Fraction(1, 3)], [Fraction(-1, 2)])
        assert vals[0] == vals[1]
    if rg:
        for num, den in ((sf * sg, sg), (f * g, sg), (sf * sg, g)):
            assert _canonical_exponents(divexact(num, den)) == f.lattice()
        # a divisor's atom is split at its least exponent in either form
        want = ExpRational(f, g)
        for got in (ExpRational(sf, sg), ExpRational(f, sg), ExpRational(sf, g)):
            assert _canonical_exponents(got.den) == want.den.lattice()
            assert _canonical_exponents(got.num) == want.num.lattice()
    # values with different constants never meet
    if w2 != w and _nonconstant(f) and _nonconstant(g):
        other = exprat._spectral(g, w2)
        for meet in (lambda: sf + other, lambda: sf * other, lambda: sf == other,
                     lambda: divexact(sf * sg, other), lambda: other.deriv(*ij, w),
                     lambda: sum_of_products([[(1, sf, other)]], w)):
            with pytest.raises(ValueError, match="different wave constants"):
                meet()


# -- the one writer ----------------------------------------------------------------


@st.composite
def written_values(draw):
    """(value, reference dict): up to 24 terms by exponents, or spike waves
    spectral_key(sp, sq, w) under random constants w in w's spectral
    coordinates; coefficients often of one size, with either sign, so that
    equal |coefficients| rank by exponent."""
    size = draw(lattice_rationals.filter(bool))
    coefs = st.one_of(lattice_rationals.filter(bool), st.sampled_from([size, -size]))
    n = draw(st.integers(0, 24))
    if draw(st.booleans()):
        w, keys = None, [draw(st.tuples(lattice_rationals, lattice_rationals)) for _ in range(n)]
    else:
        w, scale = draw(random_constants()), draw(st.sampled_from([1, 2, 3]))
        keys = [spectral_key(Fraction(draw(st.integers(-2, 2)), scale),
                             Fraction(draw(st.integers(0, 6)), scale), w) for _ in range(n)]
    p, rp = _poly_and_reference([(draw(coefs), a, b) for a, b in keys])
    return (p if w is None else exprat._spectral(p, w)), rp


@settings(max_examples=80)
@given(written_values())
@example((ExpPoly(0), {}))
# equal |coefficients| of opposite signs: the witness lists them in exponent order
@example(_poly_and_reference([(F(-2), 1, 0), (F(2), 0, 1), (F(-2), 0, 0), (F(1), 2, 2)]))
# spike waves over W: the witness ranks their exponents, not their spectral keys
@example((exprat._spectral(ExpPoly({spectral_key(F(1), F(0)): 3, spectral_key(F(0), F(1)): -3}), W),
          {spectral_key(F(1), F(0)): F(3), spectral_key(F(0), F(1)): F(-3)}))
def test_the_writer_matches_the_fraction_forms(case):
    # term_texts, repr and render_poly each equal their form built from
    # the value's Fractions (tests/_fracpoly.py), in either coordinate system
    p, rp = case
    assert exprat.term_texts(p) == ref.texts(rp)
    assert repr(p) == ref.repr_text(rp)
    assert render_poly(p) == ref.render(rp)


def test_the_writer_refuses_a_number_past_the_digit_limit():
    # the one writer raises TooManyDigits, a ValueError, where str() of an
    # int would refuse; raising the limit writes the number
    limit = sys.get_int_max_str_digits()
    for p in (ExpPoly.const(10 ** limit), ExpPoly.term(1, Fraction(1, 10 ** limit), 0)):
        for write in (exprat.term_texts, repr, render_poly):
            with pytest.raises(TooManyDigits, match=f"more than {limit} digits"):
                write(p)
    sys.set_int_max_str_digits(0)
    try:
        assert exprat.term_texts(ExpPoly.const(10 ** limit)) == [[["0", "0"], "1" + "0" * limit]]
    finally:
        sys.set_int_max_str_digits(limit)


# -- contents are integer pairs ----------------------------------------------------


def test_the_ring_builds_no_fraction():
    # Ring operations on spectral values of a tau solution, each kind at
    # least once, call nothing of the fractions module: no Fraction is
    # built, combined or compared.  On Python 3.12 and later Fraction's own
    # arithmetic builds its results without Fraction.__new__, so every
    # call into the module is counted, not only constructions.
    s = spectral_data(W, [("2", "1"), ("-1", "1/2")], [("1", "1"), ("1/2", "2"), ("-3", "1/3")])
    fields = solution_from_tau(model("B2"), s, 1, 2).fields
    f, g = (fields[k] for k in sorted(fields)[:2])
    p, q = f.num, g.num
    assert p._w is q._w is W and not f.is_poly()
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls.append(frame.f_code.co_name)

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        pq = p * q
        total = pq + p - q * 3
        dp = p.deriv(1, 2, W)
        back = divexact(pq, q)
        ratio = f / g
        same = ratio * g == f
        (hirota,) = sum_of_products([[(1, ((1, 0), p), q), (-2, p, ((0, 1), q)), (3, dp)]], W)
    finally:
        sys.setprofile(old)
    assert calls == []
    assert back == p and same and total == p * q + p - 3 * q and dp
    assert hirota == p.deriv(1, 0, W) * q - 2 * p * q.deriv(0, 1, W) + 3 * dp


def test_equal_speeds_are_equal_constants_however_written():
    w1, w2, w3 = (wave_constants(1, "1/2", "1/3", 1),
                  wave_constants("1", Fraction(2, 4), "2/6", Fraction(3, 3)),
                  wave_constants(Fraction(1), "0.5", "1/3", "1.0"))
    assert w1 == w2 == w3 and hash(w1) == hash(w2) == hash(w3) and len({w1, w2, w3}) == 1
    assert w2 is not w1
    # values under two equal but distinct instances combine as under one
    f = ExpPoly.term(2, 1, 0) + ExpPoly.const(1)
    g = ExpPoly.term(3, 0, 1) - ExpPoly.term("1/2", 1, 1)
    f1, g1, g2 = exprat._spectral(f, w1), exprat._spectral(g, w1), exprat._spectral(g, w2)
    assert g2._w is w2 and g1 == g2 and hash(g1) == hash(g2)
    for got, want in ((f1 + g2, f1 + g1), (g2 + f1, g1 + f1), (f1 * g2, f1 * g1),
                      (g2 * f1, g1 * f1), (divexact(f1 * g2, g1), f1)):
        assert got == want and got.lattice() == want.lattice()
    assert (f1 == g2) is (f1 == g1) is False
    # other speeds are other constants, and their values do not meet: the
    # speeds times 2 have the same integer numerators over another lcm
    for other in (wave_constants(1, "1/2", "1/3", 2), wave_constants(2, 1, "2/3", 2)):
        assert other != w1 and other.lattice != w1.lattice
        go = exprat._spectral(g, other)
        for meet in (lambda: f1 + go, lambda: f1 * go, lambda: f1 == go,
                     lambda: divexact(f1 * go, go)):
            with pytest.raises(ValueError, match="different wave constants"):
                meet()
