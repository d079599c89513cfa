"""The numeric evaluator exprat.grid_values against a 400-bit reference."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import _gridref as ref
from nwave import exprat
from nwave.exprat import POLE_BITS, ExpPoly, ExpRational, grid_values, wave_constants

W = wave_constants("1", "1/2", "1/3", "1")
DERIVS = [None, (1, 0), (0, 1), (1, 1), (1, 2), (2, 3)]

exponents = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([2000, -2000, 2001]),
    st.builds(Fraction, st.integers(-7, 7), st.integers(1, 5)),
)
coefficients = st.one_of(
    st.integers(-5, 5),
    st.integers(-2 ** 130, 2 ** 130),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)),
)
polys = st.lists(st.tuples(st.tuples(exponents, exponents), coefficients),
                 max_size=6).map(ExpPoly)
monomials = st.builds(ExpPoly.term, coefficients.filter(bool), exponents, exponents)
small = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
# p * (e^{k1} - e^{k2}) vanishes wherever the two exponents agree, as at t = x = 0
vanishing = st.builds(lambda p, k1, k2: p * (ExpPoly.term(1, *k1) - ExpPoly.term(1, *k2)),
                      polys, small, small).filter(bool)
values = st.builds(ExpRational, polys, st.one_of(monomials, polys.filter(bool), vanishing))
coords = st.lists(st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1),
                                   Fraction(-3, 7)]), min_size=1, max_size=3, unique=True)


def _close(got, want, bound):
    return abs(mpmath.mp.make_mpf(got) - want) <= bound


@settings(max_examples=150)
@given(st.lists(values, min_size=1, max_size=3), coords, coords,
       st.lists(st.sampled_from(DERIVS), min_size=3, max_size=3))
def test_grid_values_matches_a_400_bit_reference(us, ts, xs, derivs):
    # Each result is within 2**-110 of its mass, times the denominator's
    # cancellation mass(d)/|d| (1 for a one-term or same-sign denominator);
    # pole verdicts agree outside a 4-bit margin around 2**-POLE_BITS.
    fields = dict(enumerate(us))
    d_index = {k: ij for k, ij in zip(fields, derivs) if ij is not None}
    points = list(grid_values(fields, ts, xs, W, d_index))
    assert [(t, x) for t, x, _ in points] == [(t, x) for t in ts for x in xs]
    for t, x, vals in points:
        for k, u in fields.items():
            if u.is_zero():
                assert k not in vals
                continue
            ij = d_index.get(k)
            pq = None if ij is None else ref.speeds(W, *ij)
            value, mass, dvalue, dmass, ad, md = ref.field(u, t, x, pq)
            got = vals[k]
            with mpmath.workprec(ref.PREC):
                if got is None:
                    assert ad < md * mpmath.ldexp(1, 4 - POLE_BITS)
                    continue
                assert ad > md * mpmath.ldexp(1, -4 - POLE_BITS)
                kappa = md / ad
                tol = mpmath.ldexp(kappa, -110)
                assert _close(got[0], value, tol * mass)
                assert _close(got[1], mass, tol * mass)
                assert _close(got[2], dvalue, tol * dmass)
                assert _close(got[3], dmass, tol * dmass)
                if ij is None:
                    assert got[2] == got[3] == exprat.libmp.fzero


def test_grid_values_keeps_the_reference_across_wide_exponent_spreads():
    # Over 1 + e^{-2000t}, at t = +-1 the terms of each sum differ by
    # thousands of bits.  At t = 1 the denominator's largest term, the
    # constant, has D factor 0, and D(1/(1 + e^{-2000t})) is carried by the
    # term 2885 bits below it alone.
    num = ExpPoly.term(1, 2000, 0) + ExpPoly.term(10 ** 40, -2000, 0) - 3
    den = 1 + ExpPoly.term(1, -2000, 0)
    fields = {0: ExpRational(num, den), 1: ExpRational(ExpPoly.const(1), den)}
    ts = [Fraction(-1), Fraction(0), Fraction(1)]
    d_index = {0: (1, 0), 1: (1, 0)}
    for t, x, vals in grid_values(fields, ts, [Fraction(0)], W, d_index):
        for k, u in fields.items():
            value, mass, dvalue, dmass, _, _ = ref.field(u, t, x, ref.speeds(W, 1, 0))
            with mpmath.workprec(ref.PREC):
                for got, want, scale in zip(vals[k], (value, mass, dvalue, dmass),
                                            (mass, mass, dmass, dmass)):
                    assert _close(got, want, mpmath.ldexp(scale, -115))


class _CountingLibmp:
    """Stands in for mpmath.libmp and counts the calls made through it."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        v = getattr(mpmath.libmp, name)
        if not callable(v):
            return v

        def counted(*args, **kwargs):
            self.calls += 1
            return v(*args, **kwargs)
        return counted


def _libmp_calls(monkeypatch, u) -> int:
    counter = _CountingLibmp()
    monkeypatch.setattr(exprat, "libmp", counter)
    list(grid_values({0: u}, [Fraction(-1), Fraction(1, 2)], [Fraction(0), Fraction(1, 3)],
                     W, {0: (1, 1)}))
    monkeypatch.undo()
    return counter.calls


def test_grid_values_makes_no_library_call_per_term(monkeypatch):
    # The denominator already has every exponent of the product, so the
    # exponentials to compute are the same; only the sums grow, to 20x the
    # terms, and they are integer arithmetic.
    den = sum((ExpPoly.term(k + 1, k, 0) + ExpPoly.term(k + 1, 0, k) for k in range(9)),
              ExpPoly.zero())
    num = ExpPoly({(a, b): a - 2 * b + 1 for a in range(3) for b in range(3)})
    twenty = ExpPoly({(a, b): 3 * a + b + 1 for a in range(5) for b in range(4)})
    u, wide = ExpRational(num, den), ExpRational(num * twenty, den)
    assert len(twenty.terms) == 20
    assert _libmp_calls(monkeypatch, wide) == _libmp_calls(monkeypatch, u)


@pytest.mark.parametrize("c, t, pole", [
    (1, Fraction(0), True),
    (1, Fraction(1, 3), False),
    (1 + Fraction(1, 2 ** 59), Fraction(0), True),
    (1 + Fraction(1, 2 ** 58), Fraction(0), False),
])
def test_pole_rule_is_exact_on_the_integer_sums(c, t, pole):
    # e^t - c at t = 0 is 1 - c, with mass 1 + c, both exact: 2**-59 is
    # below (2 + 2**-59) * 2**-POLE_BITS and 2**-58 is not
    assert POLE_BITS == 60
    u = ExpRational(ExpPoly.const(1), ExpPoly.term(1, 1, 0) - c)
    (_, _, vals), = grid_values({0: u}, [t], [Fraction(0)])
    assert (vals[0] is None) == pole
