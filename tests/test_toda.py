from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nwave import exprat, toda as toda_module
from nwave.exprat import ExpPoly, ExpRational, wave_constants
from nwave.spectral import initial_config, spectral_data
from nwave.tau import solution_from_tau, tau_U
from nwave.toda import (
    ABChain,
    HankelChain,
    ab_closed,
    ab_init,
    ab_recursion_holds,
    ab_step,
    det_bareiss,
    first_root_chain,
    hankel_chain,
    toda_residual,
)
from nwave.transforms import PivotZero, apply, apply_chain
from nwave.verify import _P1 as P1, _P2, _Q2 as Q2, _Q9, _W as W
from nwave.wavesys import MINUS, PLUS, model

from _calls import recorded

Q5, Q6 = _Q9[:5], _Q9[:6]


def s5():
    return spectral_data(W, P1, Q5)


def s6():
    return spectral_data(W, P1, Q6)


# --- determinant conventions and the two implementations


def det_cofactor(rows):
    """Reference determinant by first-row cofactor expansion."""
    n = len(rows)
    if n == 0:
        return ExpPoly.const(1)
    if n == 1:
        return rows[0][0]
    acc = ExpPoly.zero()
    for j in range(n):
        if rows[0][j].is_zero():
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = rows[0][j] * det_cofactor(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def test_det_small_sizes_match_hand_formulas():
    ch = hankel_chain(s5())
    r = ch.seed
    d1 = r.deriv(1, 0, W)
    d2 = d1.deriv(1, 0, W)
    assert ch.det(0) == ExpPoly.const(1)
    assert ch.det(-1) == ExpPoly.zero()
    assert ch.det(1) == r
    assert ch.det(2) == r * d2 - d1 * d1


def hankel_rows(ch, n):
    return [[ch.derivative(i + j) for j in range(n)] for i in range(n)]


def bordered_rows(g, h, n, corner=None):
    """g's size-n Hankel matrix with its last column -> derivatives of h;
    given a corner, its last row too, around the corner."""
    rows = [[g.derivative(i + j) for j in range(n - 1)] + [h.derivative(i)] for i in range(n)]
    if corner is not None:
        rows[-1] = [h.derivative(j) for j in range(n - 1)] + [corner]
    return rows


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bareiss_equals_cofactor_on_hankel_minors(n):
    rows = hankel_rows(hankel_chain(s5()), n)
    assert det_bareiss(rows) == det_cofactor(rows)


def test_bareiss_handles_zero_pivot_and_singularity():
    zero, one = ExpPoly.zero(), ExpPoly.const(1)
    e = ExpPoly.term(1, 1, 0)
    # zero pivot forces a row swap
    assert det_bareiss([[zero, one], [e, zero]]) == -e
    # two equal rows
    assert det_bareiss([[e, one], [e, one]]) == zero
    assert det_bareiss([]) == one


small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


@st.composite
def spikes(draw, n):
    """n distinct positions with nonzero weights, as spectral_data reads them."""
    pos = draw(st.lists(small_rationals, min_size=n, max_size=n, unique=True))
    wts = draw(st.lists(small_rationals.filter(bool), min_size=n, max_size=n))
    return list(zip(pos, wts))


@settings(max_examples=25)
@given(st.integers(1, 5).flatmap(spikes), st.sampled_from([(1, 0), (0, 1), (1, 1)]))
def test_chain_minors_equal_the_reference_elimination(qs, direction):
    # tau_U(0, 1) has one exponential per Q-spike, so its Hankel matrix has
    # rank at most 5 and Det_6 is always past it; asking for Det_6 first
    # runs the chain to its end.
    ch = HankelChain(tau_U(spectral_data(W, [], qs), 0, 1), W, direction)
    ch.det(6)
    for n in range(7):
        assert ch.det(n) == det_bareiss(hankel_rows(ch, n))


FRC_KEYS = [(PLUS, (1, 0)), (MINUS, (1, 0)), (MINUS, (0, 1)), (MINUS, (1, 1)), (MINUS, (1, 2))]


@settings(max_examples=20)
@given(st.integers(2, 5).flatmap(spikes), st.integers(1, 4), st.integers(1, 3))
def test_first_root_chain_equals_the_reference_bordered_minors(spk, n_p, steps):
    # f^-_{1.0} has one exponential per P-spike: with fewer P-spikes than
    # steps its Det_steps vanishes and the chain refuses.
    n_p = min(n_p, len(spk) - 1)
    s = spectral_data(W, spk[:n_p], spk[n_p:])
    seed = initial_config(model("B2"), s)
    g, h = (HankelChain(seed[(MINUS, r)].num, W, (0, 1)) for r in ((1, 0), (1, 1)))
    k = seed[(MINUS, (1, 2))].num
    den = det_bareiss(hankel_rows(g, steps))
    if den.is_zero():
        with pytest.raises(PivotZero):
            first_root_chain(seed, steps)
        return
    cfg = first_root_chain(seed, steps)
    want = [hankel_rows(g, steps - 1), hankel_rows(g, steps + 1), bordered_rows(g, h, steps),
            bordered_rows(g, h, steps + 1), bordered_rows(g, h, steps + 1, k)]
    for key, rows in zip(FRC_KEYS, want):
        assert cfg[key] == ExpRational(det_bareiss(rows), den)


def test_minors_are_subset_sums_without_division_product_or_derivative():
    # Det_n and the bordered minors are Heine's subset sums, read off the
    # seeds' terms: no exact division, no ExpPoly product and no derivative.
    # The first-root chain's divisions are its corner recursion's, one a step.
    s = spectral_data(W, P1, Q5)
    s_frc = spectral_data(W, P3[:2], Q5[:3] + Q5[4:])
    seed = initial_config(model("B2"), s_frc)
    g = HankelChain(seed[(MINUS, (1, 0))].num, W, (0, 1))
    h = seed[(MINUS, (1, 1))].num
    with (recorded("divexact", toda_module) as divisions, recorded("_product", exprat) as products,
          recorded("deriv", ExpPoly) as derivs, recorded("sum_of_products", exprat) as sums):
        dets = [hankel_chain(s).det(n) for n in range(7)]
        bordered = [g.minor(j, h) for j in range(4)]
        assert divisions == products == derivs == sums == []
        cfg = first_root_chain(seed, 2)
    assert len(divisions) == 2
    assert [d.is_zero() for d in dets] == [False] * 6 + [True]
    assert bordered[0] == h and bordered[3].is_zero()
    for j in (1, 2):
        assert bordered[j] == det_bareiss(bordered_rows(g, HankelChain(h, W, (0, 1)), j + 1))
    assert cfg == solution_from_tau(model("B2"), s_frc, 2, 0)


def test_det_on_equally_spaced_positions_equals_the_elimination():
    # equal spacing makes many subsets share a position sum, so their
    # terms meet on one key
    ch = hankel_chain(spectral_data(W, [("9", "1")], [(str(k), "1") for k in range(1, 7)]))
    for n in range(8):
        assert ch.det(n) == det_bareiss(hankel_rows(ch, n))


@st.composite
def grid_seeds(draw, scale):
    """1 to 4 terms with keys on a 3 x 3 grid over ``scale``, so that
    several terms share a D weight along every direction."""
    keys = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                         min_size=1, max_size=4, unique=True))
    coefs = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=len(keys),
                          max_size=len(keys)))
    return exprat._canonical(scale, dict(zip(keys, coefs)), 1, 1, W)


@settings(max_examples=25, deadline=None)
@given(grid_seeds(1), grid_seeds(2), st.sampled_from([(1, 0), (0, 1), (1, 1)]))
def test_minors_of_seeds_with_repeated_d_weights_equal_the_elimination(seed, h, direction):
    # A subset holding two terms of one D weight has a zero Vandermonde, so
    # Heine's sum over the terms is the sum over the distinct weights: the
    # rank is the number of distinct weights, and every minor to one past
    # it, plain and bordered by h (over its own scale), is the elimination's.
    g, hc = HankelChain(seed, W, direction), HankelChain(h, W, direction)
    rank = len(set(exprat._weights(*direction, seed._ints)))
    for n in range(1, rank + 2):
        assert g.minor(n) == det_bareiss(hankel_rows(g, n))
        assert g.minor(n - 1, h) == det_bareiss(bordered_rows(g, hc, n))
    assert g.minor(rank + 1).is_zero()


def test_a_seed_of_one_d_weight_has_rank_one():
    # Along (1, 1) a spectral key (u, v) has D weight v - u, so the keys
    # (0, 1) and (1, 2) share the weight 1: the Hankel matrix is that
    # weight's powers times the seed, of rank 1, though the seed has two terms.
    seed = exprat._canonical(1, {(0, 1): 1, (1, 2): 3}, 1, 1, W)
    ch = HankelChain(seed, W, (1, 1))
    assert ch.det(1) == seed
    assert ch.det(2).is_zero() and det_bareiss(hankel_rows(ch, 2)).is_zero()


# --- the Toda chain's interruption (the relation itself is claim `toda`)

def test_toda_residual_interrupted_chain():
    ch = hankel_chain(spectral_data(W, P1, [("1", "1")]))
    with pytest.raises(PivotZero) as e:
        toda_residual(ch, 2)
    assert e.value.transform_id == "TODA_CHAIN"
    assert e.value.key == (MINUS, (0, 1))
    assert e.value.step == 2


# --- the linear (A, B) chain: recursion vs closed forms

def test_ab_step_forms_its_products_without_pair_loops():
    # With the determinants the steps read already formed, the numerators
    # of A' and B' are packed sums of products: no ExpPoly product runs its
    # pair loop (a product by a scalar or by a constant ExpPoly, such as
    # divexact's by a constant unit, does not).
    s = s6()
    ch = hankel_chain(s)
    for n in range(4):
        ch.det(n)
    with recorded("_product", exprat) as products:
        c1 = ab_step(ab_init(s), ch)
        c2 = ab_step(c1, ch)
    assert not [c for c in products if all(set(x.terms) != {(0, 0)} for x in c.args)]
    for c in (c1, c2):
        assert (c.A, c.B) == ab_closed(s, c.level)


def test_ab_step_above_level_zero_makes_no_divexact_call():
    # Above level 0, Det_n has more than one term, and each numerator is
    # divided on the kernel's rows at its own digit width, never read back:
    # no step to the rank of P1 and nine Q-spikes calls divexact, and each
    # long division is proven: 14 of them, as A and B at the rank, level 9,
    # are zero.  Level 0's Det_0 = 1 is a unit: divexact.
    s = spectral_data(W, P1, _Q9)
    ch, levels = hankel_chain(s), [ab_init(s)]
    for n in range(10):
        ch.det(n + 1)
    levels.append(ab_step(levels[0], ch))
    with recorded("divexact", exprat) as calls, recorded("_packed_quotient", exprat) as quotients:
        for _ in range(8):
            levels.append(ab_step(levels[-1], ch))
    assert calls == [] and len(quotients) == 14 and None not in [q.result for q in quotients]
    assert (levels[2].A, levels[2].B) == ab_closed(s, 2)


def test_ab_step_differentiates_its_factors_at_pack_time():
    # A step takes no ExpPoly derivative: D B, D Det_{n+1} and D_{1,1} A'
    # are packed factors, and the minors are subset sums.
    s = s6()
    ch = hankel_chain(s)
    with recorded("deriv", ExpPoly) as calls:
        c1 = ab_step(ab_init(s), ch)
        c2 = ab_step(c1, ch)
    assert calls == []
    for c in (c1, c2):
        assert (c.A, c.B) == ab_closed(s, c.level)


def test_ab_step_does_not_read_the_previous_a():
    # A' and B' depend on B^n alone; the paper's recursion reads A^n too,
    # so a wrong A^n fails the witness though the step is unchanged.
    s = s6()
    ch, c0 = hankel_chain(s), ab_init(s)
    c1 = ab_step(c0, ch)
    bad = ABChain(0, c0.A * 2, c0.B)
    assert ab_step(bad, ch) == c1
    assert ab_recursion_holds(c0, c1, ch)
    assert not ab_recursion_holds(bad, c1, ch)


speeds = st.tuples(*[small_rationals.filter(bool)] * 4).filter(
    lambda c: c[0] * c[3] != c[1] * c[2])


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 2), st.integers(3, 6), st.data(),
       st.one_of(st.just((1, "1/2", "1/3", 1)), speeds))
def test_every_ab_step_meets_the_papers_recursion(n_p, n_q, data, consts):
    # 1-2 P-spikes and 3-6 Q-spikes, each step until PivotZero: the bilinear
    # step meets the three-part recursion, and the closed form where there
    # are 2n + 2 Q-spikes for it.  Det_n vanishes past n = n_q, so the
    # last level is n_q: the step from it would divide by Det_{n_q + 1} = 0.
    spk = data.draw(spikes(n_p + n_q))
    s = spectral_data(wave_constants(*consts), spk[:n_p], spk[n_p:])
    ch, c = hankel_chain(s), ab_init(s)
    while True:
        try:
            nxt = ab_step(c, ch)
        except PivotZero:
            break
        assert ab_recursion_holds(c, nxt, ch)
        if 2 * nxt.level + 2 <= len(s.qspikes):
            assert (nxt.A, nxt.B) == ab_closed(s, nxt.level)
        c = nxt
    assert c.level == n_q


def test_ab_step_runs_to_the_chains_rank():
    # On P1 and nine Q-spikes Det_10 is the first zero minor: the step
    # reaches level 9 and refuses the next; levels 1 to 3 equal their
    # closed forms.
    s = spectral_data(W, P1, _Q9)
    ch, levels = hankel_chain(s), [ab_init(s)]
    for _ in range(9):
        levels.append(ab_step(levels[-1], ch))
    with pytest.raises(PivotZero):
        ab_step(levels[-1], ch)
    for c in levels[1:4]:
        assert (c.A, c.B) == ab_closed(s, c.level)


def test_ab_chain_reproduces_tau_solution_fields():
    s = s6()
    m = model("B2")
    ch = hankel_chain(s)
    c0 = ab_init(s)
    c1 = ab_step(c0, ch)
    c2 = ab_step(c1, ch)
    for n, prev, cur in [(1, c0, c1), (2, c1, c2)]:
        sol = solution_from_tau(m, s, 0, n)
        dn = ch.det(n)
        assert ExpRational(prev.B, dn * dn) == sol[(MINUS, (1, 0))]
        assert ExpRational(cur.A, dn * dn) == sol[(MINUS, (1, 1))]
        assert ExpRational(cur.B, dn * dn) == sol[(MINUS, (1, 2))]
        assert ExpRational(ch.det(n + 1), dn) == sol[(MINUS, (0, 1))]
        assert ExpRational(ch.det(n - 1), dn) == sol[(PLUS, (0, 1))]


def test_ab_step_past_the_end_of_the_chain_is_a_pivot_zero():
    # On one P-spike and two Q-spikes Det_3 vanishes: the steps to levels
    # 1 and 2 run, and the step from level 2 is refused, as level 3's
    # fields would be 0/0.
    s = spectral_data(W, P1, [("1", "1"), ("1/2", "2")])
    ch, c = hankel_chain(s), ab_init(s)
    for _ in range(2):
        c = ab_step(c, ch)
    with pytest.raises(PivotZero) as e:
        ab_step(c, ch)
    assert (e.value.transform_id, e.value.key, e.value.step) == ("AB_CHAIN", (MINUS, (0, 1)), 2)


def test_ab_closed_rejects_underresolved_data():
    with pytest.raises(ValueError):
        ab_closed(s6(), 3)  # needs 8 Q-spikes
    with pytest.raises(ValueError):
        ab_closed(s6(), -1)


# --- the first-root chain on an all-plus-zero background

P3 = _P2 + (("3", "2"),)


def frc_background():
    s = spectral_data(W, P3, Q2)
    return s, initial_config(model("B2"), s)


def test_first_root_chain_level_zero_is_identity():
    _, seed = frc_background()
    assert first_root_chain(seed, 0) == seed


def test_first_root_chain_level_one_is_the_transformation():
    _, seed = frc_background()
    assert first_root_chain(seed, 1) == apply("B2_T10", seed)


def test_first_root_chain_level_two_is_the_iterated_transformation():
    _, seed = frc_background()
    assert first_root_chain(seed, 2) == apply_chain(["B2_T10", "B2_T10"], seed)


@pytest.mark.parametrize("n", [1, 2])
def test_first_root_chain_matches_tau_solution(n):
    s, seed = frc_background()
    cfg = first_root_chain(seed, n)
    assert cfg == solution_from_tau(model("B2"), s, n, 0)
    # its five nonzero fields hold one denominator object
    dens = [f.den for f in cfg.fields.values() if not f.is_zero()]
    assert len(dens) == 5 and all(d is dens[0] for d in dens)


def test_first_root_chain_rejects_bad_backgrounds():
    s, seed = frc_background()
    with pytest.raises(ValueError):
        first_root_chain(solution_from_tau(model("A2"), s, 0, 0), 1)
    lively = solution_from_tau(model("B2"), s, 1, 1)  # f^+ sector nonzero
    with pytest.raises(ValueError):
        first_root_chain(lively, 1)
    with pytest.raises(ValueError):
        first_root_chain(seed, -1)


def test_first_root_chain_reads_a_monomial_denominator_as_a_polynomial():
    # g*e^t / e^t is the polynomial g: its monomial divides the numerator
    # when the value is built, so the chain runs as on the plain seed.
    _, seed = frc_background()
    key, e_t = (MINUS, (1, 0)), ExpPoly.term(1, 1, 0)
    g = seed[key].num
    over_e_t = seed.with_fields({key: ExpRational(g * e_t, e_t)})
    assert over_e_t[key].is_poly() and over_e_t[key].den == ExpPoly.const(1)
    got, want = first_root_chain(over_e_t, 2), first_root_chain(seed, 2)
    assert got == want
    assert all((got[k].num, got[k].den) == (want[k].num, want[k].den) for k in want.fields)
    over_atom = seed.with_fields({key: ExpRational(g, ExpPoly.const(1) + e_t)})
    with pytest.raises(ValueError, match="f-1.0 must be polynomial"):
        first_root_chain(over_atom, 1)


def test_first_root_chain_interrupted_by_vanishing_minor():
    s = spectral_data(W, [("5", "1")], Q2)
    seed = initial_config(model("B2"), s)
    with pytest.raises(PivotZero) as e:
        first_root_chain(seed, 2)
    assert e.value.transform_id == "FIRST_ROOT_CHAIN"
    assert e.value.key == (MINUS, (1, 0))
    assert e.value.step == 2
