import json
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from nwave import spectral as spectral_module, tau as tau_module
from nwave.cli import config_from_doc
from nwave.exprat import ExpPoly, ExpRational, common_denominator, divexact, wave_constants
from nwave.spectral import initial_config, spectral_data
from nwave.tau import (
    TauZero,
    check_gra,
    solution_from_tau,
    tau_U,
    tau_V_B2,
    _gra_sides,
    _shapes,
    _tau,
    _taus,
)
from nwave.transforms import TRANSFORMS, PivotZero, apply
from nwave.verify import _P2 as P2, _Q2 as Q2, _Q4, _W as W, verify_config
from nwave.wavesys import MINUS, model, residual

import _tausum as ref
from _calls import recorded
from _hirota import equation_residual

Q3 = _Q4[:3]


def test_vandermonde_sq():
    # each subset of integer positions with its squared Vandermonde and sum
    assert _shapes([], 0) == [((), 1, 0)]
    assert _shapes([7], 1) == [((0,), 1, 7)]
    assert _shapes([1, 3], 2) == [((0, 1), 4, 4)]
    assert _shapes([1, 2, 3], 3) == [((0, 1, 2), 4, 6)]
    assert _shapes([-2, 1, 3], 2) == [((0, 1), 9, -1), ((0, 2), 25, 1), ((1, 2), 4, 4)]
    assert _shapes([1, 2], 3) == []


def test_tau_u_base_and_vanishing():
    s = spectral_data(W, P2, Q2)
    assert tau_U(s, 0, 0) == ExpPoly.const(1)
    assert tau_U(s, -1, 0).is_zero()
    assert tau_U(s, 0, -2).is_zero()
    assert tau_U(s, 3, 0).is_zero()  # only 2 pspikes
    assert tau_U(s, 0, 3).is_zero()
    assert not tau_U(s, 2, 2).is_zero()


def test_tau_u_single_spike():
    s = spectral_data(W, [("1", "2")], [])
    assert tau_U(s, 1, 0) == ExpPoly.term(2, W.d1, -W.c1)


def test_tau_u_coupled_pair():
    s = spectral_data(W, [("2", "1")], [("1", "1")])
    assert tau_U(s, 1, 1) == ExpPoly.term(1, 2 * W.d1 + W.d2, -2 * W.c1 - W.c2)


def test_tau_u_matches_seed_fields():
    s = spectral_data(W, P2, Q3)
    cfg = ref.seed(model("A2"), s)
    one = ExpPoly.const(1)
    assert cfg[(-1, (1, 0))] == ExpRational(tau_U(s, 1, 0), one)
    assert cfg[(-1, (0, 1))] == ExpRational(tau_U(s, 0, 1), one)
    assert cfg[(-1, (1, 1))] == ExpRational(tau_U(s, 1, 1), one)


def test_tau_order_independence():
    s1 = spectral_data(W, P2, Q3)
    s2 = spectral_data(W, list(reversed(P2)), list(reversed(Q3)))
    assert tau_U(s1, 2, 2) == tau_U(s2, 2, 2)
    assert tau_V_B2(s1, 1, 2, 1) == tau_V_B2(s2, 1, 2, 1)


def test_tau_v_b2_group_symmetry():
    s = spectral_data(W, P2, Q3)
    for a, b in [(0, 1), (1, 2), (2, 1), (2, 2)]:
        assert tau_V_B2(s, 1, a, b) == tau_V_B2(s, 1, b, a)


def test_tau_v_matches_seed_ladder():
    s = spectral_data(W, P2, Q3)
    one = ExpPoly.const(1)
    b2 = ref.seed(model("B2"), s)
    assert b2[(-1, (1, 2))] == ExpRational(tau_V_B2(s, 1, 1, 1), one)
    g2 = ref.seed(model("G2"), s)
    assert g2[(-1, (1, 0))] == ExpRational(_tau(s, 1, (0, 0, 0)), one)
    assert g2[(-1, (1, 3))] == ExpRational(_tau(s, 1, (1, 1, 1)), one)
    # the unordered two-lambda subset sum is minus the seed field
    assert g2[(-1, (2, 3))] == ExpRational(-_tau(s, 2, (1, 1, 1)), one)


@pytest.mark.parametrize("name,n1,n2", [
    ("A2", 1, 1), ("A2", 2, 1), ("B2", 1, 1), ("G2", 1, 1),
])
def test_ratio_solution_solves_system(name, n1, n2):
    s = spectral_data(W, P2, Q2)
    m = model(name)
    assert verify_config(m, solution_from_tau(m, s, n1, n2)).passed


def test_chain_interrupted_on_second_end():
    # one spike each: at order (1,1) every f^- dies (no larger subsets exist)
    s = spectral_data(W, [("2", "1")], [("1", "1")])
    cfg = solution_from_tau(model("A2"), s, 1, 1)
    assert cfg[(-1, (1, 0))].is_zero()
    assert cfg[(-1, (0, 1))].is_zero()
    assert cfg[(-1, (1, 1))].is_zero()
    assert not cfg[(1, (1, 1))].is_zero()


def test_tau_zero_beyond_interruption():
    s = spectral_data(W, [("2", "1")], [("1", "1")])
    with pytest.raises(TauZero):
        solution_from_tau(model("A2"), s, 2, 0)
    with pytest.raises(ValueError):
        solution_from_tau(model("A2"), s, -1, 0)


def test_gra_holds():
    assert check_gra(spectral_data(W, P2, Q2), 0)
    assert check_gra(spectral_data(W, P2, Q3), 1)
    assert check_gra(spectral_data(W, [], Q3), 0)  # synthetic probe


def test_gra_needs_enough_spikes():
    with pytest.raises(ValueError):
        check_gra(spectral_data(W, P2, Q2), 1)


@pytest.mark.parametrize("n", [-1, -2, -5])
def test_gra_refuses_a_negative_level(n):
    with pytest.raises(ValueError, match=f"level must be nonnegative, got {n}"):
        check_gra(spectral_data(W, P2, Q3), n)


def test_gra_fails_when_perturbed():
    # wrong split on the right side, and wrong multiplier orientation
    s = spectral_data(W, P2, Q3)
    lam = s.pspikes[0].pos
    [lhs] = _gra_sides(s, [lam], 1, 1, multiplier=True)
    assert [lhs] != _gra_sides(s, [lam], 1, 1, multiplier=False)
    assert [lhs] == _gra_sides(s, [lam], 2, 0, multiplier=False)
    assert [-lhs] != _gra_sides(s, [lam], 2, 0, multiplier=False)


# -- the factorised sums against the nested-loop reference ---------------------

small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
#: Positions and weights whose denominators, up to 12, are often coprime.
lattice_rationals = st.builds(Fraction, st.integers(-24, 24), st.integers(1, 12))


@st.composite
def spike_data(draw, p=(0, 4), q=(0, 4), constants=st.just(W), values=small_rationals):
    """Distinct positions, P and Q disjoint, nonzero weights; p, q bound the counts."""
    n_p = draw(st.integers(*p))
    n_q = draw(st.integers(*q))
    n = n_p + n_q
    pos = draw(st.lists(values, min_size=n, max_size=n, unique=True))
    wts = draw(st.lists(values.filter(bool), min_size=n, max_size=n))
    spikes = list(zip(pos, wts))
    return spectral_data(draw(constants), spikes[:n_p], spikes[n_p:])


@st.composite
def lattice_constants(draw):
    """Wave constants of either sign whose four denominators are distinct
    (up to 12), with delta != 0."""
    dens = draw(st.lists(st.integers(1, 12), min_size=4, max_size=4, unique=True))
    c1, c2, d1, d2 = [
        Fraction(draw(st.integers(-20, 20).filter(lambda n, d=d: n and gcd(n, d) == 1)), d)
        for d in dens]
    assume(c1 * d2 != c2 * d1)
    return wave_constants(c1, c2, d1, d2)


@st.composite
def tau_orders(draw):
    """Spike data, a P-group size and one to three Q-group sizes, all in range."""
    s = draw(spike_data(q=(1, 4)))
    n1 = draw(st.integers(0, len(s.pspikes)))
    qsizes = draw(st.lists(st.integers(0, len(s.qspikes)), min_size=1, max_size=3))
    return s, n1, qsizes


@settings(max_examples=60)
@given(tau_orders())
def test_factorised_tau_matches_nested_loops(case):
    s, n1, qsizes = case
    assert _tau(s, n1, qsizes) == ref.tau(s, n1, qsizes)


@st.composite
def tau_order_lists(draw):
    """Spike data and a list of orders (n1, qsizes): repeated orders, equal
    group sizes and sizes out of range on either side included."""
    s = draw(spike_data())
    sizes = st.integers(-1, len(s.qspikes) + 1)
    qsizes = st.one_of(st.lists(sizes, min_size=1, max_size=3),
                       st.builds(lambda n, k: [n] * k, sizes, st.integers(1, 3)))
    order = st.tuples(st.integers(-1, len(s.pspikes) + 1), qsizes)
    orders = draw(st.lists(order, min_size=1, max_size=5))
    return s, orders + draw(st.lists(st.sampled_from(orders), max_size=2))


@settings(max_examples=60)
@given(tau_order_lists())
def test_one_pass_taus_match_nested_loops(case):
    # orders that share P-subsets share their pieces; each value must still
    # be its own subset sum
    s, orders = case
    assert _taus(s, orders) == [ref.tau(s, n1, qsizes) for n1, qsizes in orders]


@settings(max_examples=60)
@given(spike_data(p=(0, 3), q=(0, 4), constants=lattice_constants(), values=lattice_rationals),
       st.data())
def test_lattice_taus_match_nested_loops_on_random_constants(s, data):
    # the lattice scale comes from the position, weight and speed denominators
    group = st.lists(st.integers(0, len(s.qspikes)), min_size=1, max_size=3)
    orders = data.draw(st.lists(st.tuples(st.integers(0, len(s.pspikes)), group),
                                min_size=1, max_size=4))
    assert _taus(s, orders) == [ref.tau(s, n1, qsizes) for n1, qsizes in orders]


@settings(max_examples=40)
@given(spike_data(p=(0, 0), q=(0, 4), constants=lattice_constants(), values=lattice_rationals),
       st.lists(lattice_rationals, min_size=1, max_size=3), st.data(), st.booleans())
def test_lattice_gra_sides_match_double_sum_on_random_constants(s, lams, data, multiplier):
    assume(all(sp.pos != lam for sp in s.qspikes for lam in lams))
    size1, size2 = data.draw(st.tuples(*[st.integers(0, len(s.qspikes))] * 2))
    assert (_gra_sides(s, lams, size1, size2, multiplier)
            == [ref.gra_side(s, lam, size1, size2, multiplier) for lam in lams])


def test_tau_values_are_built_from_the_lattice_alone(monkeypatch):
    # no subset sum goes through the Fraction-keyed ExpPoly constructor
    def no_fraction_keys(self, terms=None):
        raise AssertionError("ExpPoly built from Fraction-keyed terms")

    p3 = P2 + (("4", "1/3"),)
    monkeypatch.setattr(ExpPoly, "__init__", no_fraction_keys)
    cfg = solution_from_tau(model("G2"), spectral_data(W, p3, _Q4), 2, 2)
    assert check_gra(spectral_data(W, P2, _Q4), 1)
    monkeypatch.undo()
    assert verify_config(model("G2"), cfg).passed


def test_solution_validates_once_and_builds_its_taus_in_one_pass():
    # Spectral data is validated once, when it is built; the solution then
    # builds its tau values in one pass.
    with recorded("validate", spectral_module) as validated, recorded("_taus", tau_module) as taus:
        s = spectral_data(W, P2, Q3)
        assert (len(validated), len(taus)) == (1, 0)
        cfg = solution_from_tau(model("G2"), s, 1, 1)
    assert (len(validated), len(taus)) == (1, 1)
    assert verify_config(model("G2"), cfg).passed


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_out_of_range_base_order_raises_before_any_subset(monkeypatch, name):
    def no_shapes(*args):
        raise AssertionError("a subset was enumerated")

    monkeypatch.setattr(tau_module, "_shapes", no_shapes)
    s = spectral_data(W, P2, Q2)
    for n1, n2 in [(3, 0), (0, 3), (3, 3)]:
        with pytest.raises(TauZero):
            solution_from_tau(model(name), s, n1, n2)


@settings(max_examples=40)
@given(spike_data(p=(0, 0)), st.lists(small_rationals, min_size=1, max_size=3), st.data(),
       st.booleans())
def test_factorised_gra_side_matches_double_sum(s, lams, data, multiplier):
    # one call per probe list: what does not depend on lam is shared
    assume(all(sp.pos != lam for sp in s.qspikes for lam in lams))
    size1, size2 = data.draw(st.tuples(*[st.integers(0, len(s.qspikes))] * 2))
    assert (_gra_sides(s, lams, size1, size2, multiplier)
            == [ref.gra_side(s, lam, size1, size2, multiplier) for lam in lams])


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
@settings(max_examples=30)
@given(spike_data(p=(0, 3)))
def test_ratio_solution_base_order_is_seed(name, s):
    """The seed, the order-(0,0) tau solution, equals the ordered-tuple loops."""
    m = model(name)
    assert initial_config(m, s) == ref.seed(m, s)


#: Largest (P, Q) spike counts on which a random map step is still cheap:
#: with known denominator factors cancelled, a B2 or G2 map on 2P+2Q takes
#: milliseconds.
MAP_SPIKES = {"A2": (2, 2), "B2": (2, 2), "G2": (2, 2)}


@settings(max_examples=50)
@given(st.sampled_from(["A2", "B2", "G2"]), spike_data(p=(1, 2), q=(1, 3)),
       st.sampled_from([(1, 1), (1, 0), (0, 1), (0, 0)]), st.data())
def test_random_tau_solutions_verify(name, s, orders, data):
    """Random spike data goes to a tau solution that verifies exactly, and on
    small data a random map of the algebra sends it to another solution."""
    m = model(name)
    n1, n2 = orders
    try:
        cfg = solution_from_tau(m, s, n1, n2)
    except TauZero:
        return
    assert verify_config(m, cfg).passed
    max_p, max_q = MAP_SPIKES[name]
    if len(s.pspikes) > max_p or len(s.qspikes) > max_q:
        return
    tid = data.draw(st.sampled_from([t for t, tr in TRANSFORMS.items() if tr.algebra == name]))
    try:
        image = apply(tid, cfg)
    except PivotZero:
        return
    assert verify_config(m, image).passed


def test_a_solution_normalizes_its_denominator_once():
    # The fields of a solution share one denominator object, normalized by
    # one constructor call, which the residual then takes as it is.
    with recorded("__init__", ExpRational) as calls:
        cfg = solution_from_tau(model("G2"), spectral_data(W, P2, Q3), 1, 1)
    assert len(calls) == 1
    dens = [f.den for f in cfg.fields.values() if not f.is_zero()]
    assert len(dens) > 1 and all(d is dens[0] for d in dens)


def test_a_solution_s_taus_start_at_its_denominator_s_least_exponent():
    # A ratio solution's tau values are divided by the base tau's least
    # exponential as they are built, so putting the numerators over the
    # base tau translates none of them: every one-term ExpPoly multiplied
    # in is a constant.  A plain tau value is not moved.
    s = spectral_data(W, P2, Q3)
    orders = [(1, (1, 1, 1)), (0, (2, 1, 1)), (2, (1, 1, 1)), (1, (0, 1, 1))]
    plain, anchored = _taus(s, orders), _taus(s, orders, True)
    assert plain[0] == _tau(s, 1, (1, 1, 1))
    assert min(anchored[0].lattice()[1]) == (0, 0) != min(plain[0].lattice()[1])
    for p, a in zip(plain, anchored):
        assert p * anchored[0] == a * plain[0]
    with recorded("__mul__", ExpPoly) as products:
        solution_from_tau(model("G2"), s, 1, 1)
    moves = [next(iter(m.lattice()[1])) for _, m in (c.args for c in products)
             if isinstance(m, ExpPoly) and len(m.terms) == 1]
    assert moves and set(moves) == {(0, 0)}


def reference_residual(cfg, eq):
    """D_{i,j} f_lhs - sum coef*f_a*f_b by plain ExpRational arithmetic."""
    i, j = eq.d_index
    acc = cfg[eq.lhs].deriv(i, j, cfg.constants)
    for coef, a, b in eq.rhs:
        acc = acc - cfg[a] * cfg[b] * Fraction(coef)
    return acc


@st.composite
def hirota_cases(draw):
    """(model, configurations): a tau solution of a random algebra and order
    (one shared denominator, 1 at the seed), the same with f-1.0 doubled,
    and, for A2 and B2, map images of both (distinct denominators)."""
    name = draw(st.sampled_from(["A2", "B2", "G2"]))
    orders = draw(st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)]))
    m = model(name)
    mapped = name in MAP_SPIKES and draw(st.booleans())
    max_p, max_q = MAP_SPIKES[name] if mapped else (2, 3)
    s = draw(spike_data(p=(int(mapped), max_p), q=(int(mapped), max_q)))
    try:
        cfg = solution_from_tau(m, s, *orders)
    except TauZero:
        return m, []
    key = (MINUS, (1, 0))
    configs = [cfg, cfg.with_fields({key: cfg[key] * 2})]
    if mapped:
        tid = draw(st.sampled_from([t for t, tr in TRANSFORMS.items() if tr.algebra == name]))
        for c in configs[:2]:
            try:
                configs.append(apply(tid, c))
            except PivotZero:
                pass
    return m, configs


@settings(max_examples=60)
@given(hirota_cases())
def test_residual_matches_the_exprational_reference(case):
    """Solution or not, each residual is the ExpRational residual times
    L^2, L the common denominator of all the configuration's fields; over
    one shared denominator it is the ExpRational residual's numerator."""
    m, configs = case
    for c in configs:
        fields = [f for f in c.fields.values() if not f.is_zero()]
        L, _ = common_denominator(fields)
        for f in fields:
            divexact(f.num * L, f.den)  # InexactDivision unless f.den divides L
        for eq, r in zip(m.equations, residual(m, c, m.equations)):
            want = reference_residual(c, eq)
            assert isinstance(r, ExpPoly)
            assert ExpRational(r, L * L) == want
            if all(f.den == fields[0].den for f in fields):
                assert r == want.num


def frozen_b2_doubled(name):
    """The frozen B2 map image bench/data/configs/<name>.json with f-1.0
    doubled: fields over several denominators, and failing equations whose
    fields' least common denominator is below the configuration's."""
    path = Path(__file__).resolve().parent.parent / "bench" / "data" / "configs" / f"{name}.json"
    cfg = config_from_doc(json.loads(path.read_text()))
    key = (MINUS, (1, 0))
    return model("B2"), [cfg.with_fields({key: cfg[key] * 2})]


@settings(max_examples=60)
@given(hirota_cases())
@example(frozen_b2_doubled("img_B2_T2A2_P2Q2"))
@example(frozen_b2_doubled("img_B2_TM_P2Q2"))
def test_one_pass_residuals_match_the_per_equation_residuals(case):
    """The one pass over the configuration's denominator L_cfg gives every
    equation the verdict of the per-equation Hirota residual over its own
    denominator L_eq, and the same value: r / L_cfg^2 == r_eq / L_eq^2.
    Given that one equation alone, residual forms r_eq itself."""
    m, configs = case
    for c in configs:
        L, _ = common_denominator(list(c.fields.values()))
        for eq, r in zip(m.equations, residual(m, c, m.equations)):
            L_eq, r_eq = equation_residual(c, eq)
            assert r.is_zero() == r_eq.is_zero()
            assert ExpRational(r, L * L) == ExpRational(r_eq, L_eq * L_eq)
            assert residual(m, c, [eq]) == [r_eq]
