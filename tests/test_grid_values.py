"""The numeric evaluator exprat.grid_values, its exponential exprat._exp,
its integer form rounded through exprat.round_ratio and written by
exprat.ratio_text, and the numeric judge on that form, against 400-bit and
500-bit mpmath references."""

import functools
import json
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import libmp

import _gridref as ref
from _calls import recorded
from nwave import cli, exprat, verify
from nwave.cli import config_to_doc
from nwave.exprat import (
    POLE_BITS, ExpPoly, ExpRational, grid_values, ratio_text, round_ratio,
)
from nwave.spectral import spectral_data
from nwave.tau import solution_from_tau
from nwave.verify import _W as W
from nwave.wavesys import field_label, model, zero_config

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
    return abs(mpmath.ldexp(*got) - want) <= bound


def _numbers(v):
    """(value, mass, D value, D mass) of one point's integer form
    (V, M, Q, DV, DM, QD, e), each rounded once."""
    V, M, Q, DV, DM, QD, e = v
    return (round_ratio(V, Q, e), round_ratio(M, Q, e),
            round_ratio(DV, QD, e), round_ratio(DM, QD, e))


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
                numbers = _numbers(got)
                assert _close(numbers[0], value, tol * mass)
                assert _close(numbers[1], mass, tol * mass)
                assert _close(numbers[2], dvalue, tol * dmass)
                assert _close(numbers[3], dmass, tol * dmass)
                if ij is None:
                    assert got[3:6] == (0, 0, 1)


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
                for got, want, scale in zip(_numbers(vals[k]), (value, mass, dvalue, dmass),
                                            (mass, mass, dmass, dmass)):
                    assert _close(got, want, mpmath.ldexp(scale, -115))


TS, XS = [Fraction(-1), Fraction(1, 2)], [Fraction(0), Fraction(1, 3)]


def _exp_calls(u, ts=TS, xs=XS) -> int:
    """The exponentials (exprat._exp calls) that grid_values computes for u."""
    with recorded("_exp", exprat) as calls:
        list(grid_values({0: u}, ts, xs, W, {0: (1, 1)}))
    return len(calls)


def _distinct_nonzero_exponents(u, ts, xs) -> int:
    """Distinct nonzero a (b) of u's exponents, summed over the nonzero t (x)."""
    num, den = u.num, u.den
    if len(den.terms) == 1:
        (a0, b0), = den.terms
        keys = [(a - a0, b - b0) for a, b in num.terms]
    else:
        keys = list(num.terms) + list(den.terms)
    return (len({a for a, _ in keys} - {0}) * sum(map(bool, ts))
            + len({b for _, b in keys} - {0}) * sum(map(bool, xs)))


def _values_over_one_den():
    den = sum((ExpPoly.term(k + 1, k, 0) + ExpPoly.term(k + 1, 0, k) for k in range(9)),
              ExpPoly.zero())
    num = ExpPoly({(a, b): a - 2 * b + 1 for a in range(3) for b in range(3)})
    twenty = ExpPoly({(a, b): 3 * a + b + 1 for a in range(5) for b in range(4)})
    return ExpRational(num, den), ExpRational(num * twenty, den), twenty


def test_grid_values_makes_no_library_call_per_term():
    # The denominator already has every exponent of the product, so the
    # exponentials to compute are the same; only the sums grow, to 20x the
    # terms, and they are integer arithmetic.
    u, wide, twenty = _values_over_one_den()
    assert len(twenty.terms) == 20
    assert _exp_calls(wide) == _exp_calls(u) > 0


def test_grid_values_makes_one_exponential_per_distinct_gap():
    # 20 exponents (2 + 3k)(t + x): at each nonzero coordinate the walk
    # computes exp of the least, 2, and of the one gap, 3.
    even = ExpRational(ExpPoly({(2 + 3 * k, 2 + 3 * k): k + 1 for k in range(20)}),
                       ExpPoly.const(1))
    ts, xs = [Fraction(-1), Fraction(1, 2)], [Fraction(1, 3), Fraction(2)]
    assert _exp_calls(even, ts, xs) == 2 * 4
    # never more than one per distinct nonzero exponent and coordinate
    for u in (even, *_values_over_one_den()[:2]):
        for ts, xs in ((ts, xs), (TS, XS)):
            assert _exp_calls(u, ts, xs) <= _distinct_nonzero_exponents(u, ts, xs)


def test_grid_values_rounds_no_value():
    # The walked exponentials keep their own bits, their arguments are
    # exact ratios, and the values are exact integers: the evaluator rounds
    # nothing through round_ratio.
    for u in _values_over_one_den()[:2]:
        with recorded("round_ratio", exprat) as rounded:
            assert _exp_calls(u) > 0
        assert rounded == []


def test_sample_rounds_each_printed_value_once(tmp_path):
    # A2 with one field polynomial, one with a pole on t = 0 and four
    # identically zero, on a 5 x 3 grid: one rounding to text (ratio_text,
    # through round_ratio) per cell that prints a value, none for a pole or
    # a zero field, and none in the evaluator.
    cfg = zero_config("A2", W)
    keys = sorted(cfg.fields, key=field_label)
    pole = ExpRational(ExpPoly.const(1), ExpPoly.term(1, 1, 0) - 1)
    cfg = cfg.with_fields({keys[0]: ExpRational(ExpPoly.term(3, 2, -1) + 1), keys[1]: pole})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_doc(cfg)))
    with recorded("round_ratio", exprat) as rounded, recorded("ratio_text", cli) as texts:
        assert cli.main(["sample", "--in", str(path), "--t0", "-1", "--t1", "1", "--nt", "5",
                         "--x0", "0", "--x1", "1", "--nx", "3", "--csv", str(tmp_path / "s.csv")]) == 0
    rows = [line.split(",")[2:] for line in (tmp_path / "s.csv").read_text().splitlines()[1:]]
    assert len(rows) == 15
    assert [sum(row[k] == "" for row in rows) for k in range(2)] == [0, 3]
    assert all(row[k] == "0.0" for row in rows for k in range(2, 6))
    assert len(texts) == len(rounded) == 15 + 12


# Integer exponents for _exps: dense runs, multiples of a gcd above 1 (with
# duplicates), a single value, lists with 0, and values 2000 apart.
_ints = st.integers(-30, 30)
exp_lists = st.one_of(
    st.builds(lambda a, m: list(range(a, a + m)), _ints, st.integers(1, 60)),
    st.builds(lambda g, ks: [g * k for k in ks], st.integers(2, 12),
              st.lists(_ints, min_size=1, max_size=60)),
    st.builds(lambda k: [k], st.integers(-204, 204)),
    st.builds(lambda ks: ks + [0], st.lists(_ints, max_size=59)),
    st.builds(lambda ks: [2000 * k for k in ks], st.lists(_ints, min_size=1, max_size=60)),
)


@settings(max_examples=100, deadline=None)
@given(exp_lists,
       st.one_of(st.integers(-12, 12), st.integers(-10 ** 30, 10 ** 30)).filter(bool),
       st.one_of(st.integers(1, 12), st.integers(1, 10 ** 30)))
def test_exps_are_within_the_walks_bound_of_a_400_bit_reference(ks, n, d):
    # The walk's values are handed out at its own precision,
    # w = EVAL_PRECISION + 8 + bitlen(2N) bits, each after at most 2N - 1
    # steps that are each within a relative 2**-w (an exponential or a
    # product), so each is within a relative 2**-(EVAL_PRECISION + 8).
    got = exprat._exps(ks, n, d)
    assert len(got) == len(ks)
    with mpmath.workprec(ref.PREC):
        bound = mpmath.ldexp(1, -(exprat.EVAL_PRECISION + 8))
        for k, (m, e) in zip(ks, got):
            want = mpmath.exp(mpmath.mpf(k * n) / d)
            assert abs(mpmath.ldexp(m, e) - want) <= bound * want, (k, n, d)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(-400, 400), st.integers(-2 ** 70, 2 ** 70),
                 st.sampled_from([2 ** 20 + 1, -2 ** 20 - 1, 3 * 2 ** 40, -5 * 2 ** 52])),
       st.one_of(st.integers(1, 64), st.integers(1, 10 ** 30)),
       st.sampled_from([1, 2, 3, 24, 53, 129, 134, 140, 300]))
@example(2 ** 21 + 5, 1, 134)
@example(-(2 ** 21) - 5, 1, 134)
def test_exp_is_within_its_documented_bound_of_a_500_bit_reference(n, d, w):
    # exprat._exp(n, d, w) is m * 2**e with 2**w <= m <= 2**(w+1), within a
    # relative 2**-w of exp(n/d), for arguments from 10**-30 to beyond 2**52
    # in size.
    m, e = exprat._exp(n, d, w)
    assert 2 ** w <= m <= 2 ** (w + 1)
    with mpmath.workprec(500):
        want = mpmath.exp(mpmath.mpf(n) / d)
        assert abs(mpmath.ldexp(m, e) - want) < mpmath.ldexp(want, -w), (n, d, w)


def _mpmath_text(p: int, q: int, e: int, sci: bool) -> str:
    """ratio_text as the package wrote it with mpmath: ``libmp.to_str`` of
    ``libmp.normalize`` of p/q * 2**e, rounded to 120 bits with a sticky
    bit."""
    if sci and not p:
        return "0.000e+00"
    sign, a = (1, -p) if p < 0 else (0, p)
    if q != 1:
        shift = max(5, exprat.EVAL_PRECISION + 5 - a.bit_length() + q.bit_length())
        a, rem = divmod(a << shift, q)
        e -= shift
        if rem:
            a, e = a << 1 | 1, e - 1
    v = libmp.normalize(sign, a, e, a.bit_length(), exprat.EVAL_PRECISION, libmp.round_nearest)
    if not sci:
        return libmp.to_str(v, 17)
    s = libmp.to_str(v, 4, strip_zeros=False, min_fixed=1, max_fixed=0, show_zero_exponent=True)
    mant, _, exp = s.partition("e")
    return f"{mant}e{int(exp):+03d}"


def _near_a_tie(p: int, q: int, e: int, digits: int, bits: int) -> bool:
    """Whether the rounded value of p/q * 2**e lies within 2**-(bits - 8)
    of a tie between two numbers of ``digits`` significant digits."""
    m, x = round_ratio(p, q, e)
    v = Fraction(abs(m)) * Fraction(2) ** x
    k = digits - 1 - (len(str(v.numerator)) - len(str(v.denominator)))
    for k in (k - 1, k, k + 1):  # v * 10**k has its point after digit `digits`
        f = v * Fraction(10) ** k
        if 10 ** (digits - 1) <= f < 10 ** digits:
            frac = f - int(f)
            return abs(frac - Fraction(1, 2)) < f * Fraction(1, 2 ** (bits - 8))
    raise AssertionError(v)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.just(0), st.integers(-99, 99), st.integers(-2 ** 200, 2 ** 200),
                 st.builds(lambda k, s: s * 5 * 10 ** k, st.integers(0, 40), st.sampled_from([1, -1]))),
       st.one_of(st.just(1), st.integers(1, 2 ** 200),
                 st.builds(lambda k: 5 ** k, st.integers(0, 60))),
       st.one_of(st.integers(-60, 60), st.integers(-6000, 6000),
                 st.integers(3450, 3700), st.integers(-3700, -3450)),
       st.booleans())
@example(0, 1, 0, False)
@example(0, 1, 0, True)
@example(-1, 1, 5000, False)
@example(10 ** 17 + 5, 1, 0, False)  # an exact tie at the 18th digit: half up
@example(-(10 ** 17 + 5), 1, 0, False)
@example(99995, 1, 0, True)
# just above a tie, by less than the 76 (33) bits the digits are read from: down
@example(6404221934102794320636981323052867041407878366507,
         1038459371706965525706099265844019200000000000000, 0, False)
@example(123839982553434009, 2 ** 54, 0, True)
@example(-1, 3, -3700, True)
# 2**-1651 = 10**-497.0005: log10 2 at the value's precision puts the first
# decimal exponent tried one too high, and one step down corrects it
@example(1, 1, -1651, False)
@example(7, 3, 10 ** 7, False)  # 4.3 million decimal digits: ratio_text never forms them
@example(-7, 3, -(10 ** 7), True)
# decimal exponents of 15 to 400 digits: found in a step or two, from log10 2
# at the value's precision and 5**|k| enclosed at 128 + bitlen(|k|) bits
@example(1, 3, 10 ** 15, False)
@example(1, 3, -(10 ** 15), True)
@example(1, 3, 10 ** 20, True)
@example(1, 3, -(10 ** 20), False)
@example(1, 3, 10 ** 400, False)
@example(1, 3, 10 ** 400, True)
def test_ratio_text_writes_the_text_of_mpmaths_to_str(p, q, e, sci):
    # ratio_text writes what the package wrote with mpmath: libmp.to_str of
    # the value that round_ratio rounds, with 17 digits or as '%.3e' text,
    # for zero, negative values, exact decimal ties (rounded half up, as
    # mpmath does) and both sides of 2**+-3500, where mpmath scales by a
    # power of ten first.  There mpmath scales by a power of ten rounded to
    # 76 (or 33) bits, and a value within about that of a decimal tie may
    # round the other way; such values are not compared.  Below 2**3500 in
    # size and above 2**-3500 the texts are always the same.
    got, want = ratio_text(p, q, e, sci), _mpmath_text(p, q, e, sci)
    if got != want:
        m, x = round_ratio(p, q, e)
        digits, bits = (4, 33) if sci else (17, 76)
        assert abs(m.bit_length() + x) > 3500 and _near_a_tie(p, q, e, digits, bits), \
            (got, want)


@settings(max_examples=200)
@given(st.integers(1, 2 ** 130), st.integers(-600, 600), st.integers(-300, 300))
@example(1, 0, 60)  # 10**60: the 128-bit enclosure of 5**60 straddles an integer
@example(10 ** 60, 0, -60)  # exactly 1, likewise: both double to 256 bits
def test_floor_scaled_is_the_exact_floor(m, x, k):
    # ratio_text's digits, floor(m * 2**x * 10**k), from enclosures of
    # 5**|k| that double their precision until the two ends agree.
    v = Fraction(m) * Fraction(2) ** x * Fraction(10) ** k
    assert exprat._floor_scaled(m, x, k) == v.numerator // v.denominator


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


# -- the numeric judge on the integer form ------------------------------------------

_ZERO = ExpRational.zero()
_TOL = mpmath.mpf(verify.REL_TOL)  # exactly the float's binary value


@functools.cache
def _solution(algebra: str):
    s = spectral_data(W, [("2", "1"), ("-1", "1/2")], [("1", "1"), ("1/2", "2")])
    return solution_from_tau(model(algebra), s, 1, 1)


def _random_config(algebra: str):
    keys = model(algebra).field_keys
    return st.fixed_dictionaries({k: st.one_of(st.just(_ZERO), values) for k in keys}).map(
        lambda fields: zero_config(algebra, W).with_fields(fields))


def _perturbed(algebra: str, k: int, eps: Fraction):
    sol = _solution(algebra)
    keys = model(algebra).field_keys
    key = keys[k % len(keys)]
    return sol.with_fields({key: sol[key] * (1 + eps)})


def _with_pole(algebra: str, on_lhs: bool):
    """A random configuration with a vanishing denominator, which is 0 at
    t = x = 0, on a left-hand field, or on a product factor whose partner
    is then identically zero."""
    m = model(algebra)
    if on_lhs:
        sites = [(eq.lhs, None) for eq in m.equations]
    else:
        sites = [(a, b) for eq in m.equations for _, a, b in eq.rhs if a != b]

    def place(cfg, site, num, den):
        key, partner = site
        fields = {key: ExpRational(num, den)}
        if partner is not None:
            fields[partner] = _ZERO
        return cfg.with_fields(fields)
    return st.builds(place, _random_config(algebra), st.sampled_from(sites),
                     polys.filter(bool), vanishing)


with_zero = coords.map(lambda c: c if 0 in c else [*c, Fraction(0)])
#: The judge's cases by kind, each drawn on its own (see the test below).
cases = {
    "random": st.tuples(st.sampled_from(["A2", "B2"]).flatmap(_random_config), coords, coords),
    # tau solutions with one field off by eps: cancellation down to REL_TOL and past it
    "perturbed": st.tuples(
        st.builds(_perturbed, st.sampled_from(["A2", "B2"]), st.integers(0, 7),
                  st.sampled_from([Fraction(0), Fraction(1, 10 ** 12), Fraction(1, 10 ** 10),
                                   Fraction(-1, 10 ** 9), Fraction(1, 10 ** 8),
                                   Fraction(1, 10 ** 5)])),
        coords, coords),
    # a pole at (0, 0) of a left-hand field, and of a factor that is skipped
    "lhs-pole": st.tuples(st.sampled_from(["A2", "B2"]).flatmap(lambda a: _with_pole(a, True)),
                          with_zero, with_zero),
    "factor-pole": st.tuples(
        st.sampled_from(["A2", "B2"]).flatmap(lambda a: _with_pole(a, False)),
        with_zero, with_zero),
}


def _reference_residual(eq, ref_fields):
    """(pole, near, R, S, kappa) of one equation from the 400-bit fields:
    whether the reference finds a pole, whether any field it reads is within
    16x of the pole rule, and the residual, scale and largest
    cancellation mass(d)/|d| of the fields it reads."""
    at = 2 ** -POLE_BITS
    reads = [ref_fields.get(eq.lhs)] + [
        f for _, a, b in eq.rhs if a in ref_fields and b in ref_fields
        for f in (ref_fields[a], ref_fields[b])]
    reads = [f for f in reads if f is not None]
    near = any(md * at / 16 <= ad <= md * at * 16 for *_, ad, md in reads)
    if any(ad < md * at for *_, ad, md in reads):
        return True, near, None, None, None
    kappa = max([md / ad for *_, ad, md in reads], default=1)
    r = s = mpmath.mpf(0)
    if eq.lhs in ref_fields:
        _, _, dv, dm, _, _ = ref_fields[eq.lhs]
        r, s = dv, dm
    for c, a, b in eq.rhs:
        if a in ref_fields and b in ref_fields:
            fa, fb = ref_fields[a], ref_fields[b]
            r -= c * fa[0] * fb[0]
            s += abs(c) * fa[1] * fb[1]
    return False, near, r, s, kappa


@pytest.mark.parametrize("kind", list(cases))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_the_integer_judge_matches_a_400_bit_residual(kind, data):
    # Per equation and point: a pole where the reference finds one, and
    # otherwise |R| > REL_TOL * S exactly when the reference's residual and
    # scale say so.  Points within 16x of the pole rule, or within the
    # evaluator's error of the tolerance, are not decided by either.  Each
    # kind of case has its 10 examples of its own, so none goes undrawn.
    cfg, ts, xs = data.draw(cases[kind])
    m = model(cfg.algebra)
    d_index = {eq.lhs: eq.d_index for eq in m.equations}
    points = list(grid_values(cfg.fields, ts, xs, W, d_index))
    judged = [list(verify._equation_points(eq, points)) for eq in m.equations]
    for k, (t, x, _) in enumerate(points):
        with mpmath.workprec(ref.PREC):
            ref_fields = {}
            for key, u in cfg.fields.items():
                if not u.is_zero():
                    ij = d_index.get(key)
                    ref_fields[key] = ref.field(u, t, x, None if ij is None else ref.speeds(W, *ij))
            for eq, points_of_eq in zip(m.equations, judged):
                point = points_of_eq[k][2]
                pole, near, r, s, kappa = _reference_residual(eq, ref_fields)
                if near:
                    continue
                assert (point is None) == pole
                if pole:
                    continue
                margin = kappa * s * mpmath.ldexp(1, -90)
                if abs(abs(r) - _TOL * s) <= margin:
                    continue
                ok, _ = verify._judge([(t, x, point)])
                assert ok == (abs(r) <= _TOL * s), (eq.lhs, t, x)

