"""Acceptance battery: one test per criterion, each enforcing a wall-clock
budget and printing a one-line verdict (visible with -s; pytest -v shows the
per-criterion pass/fail lines either way).

All spectral data below is frozen: positions and weights are chosen so that
every construction is live (no P/Q position collisions, all pivots alive)
and every exact check finishes inside its budget on ordinary hardware.
"""

import functools
import random
import time
from fractions import Fraction

import pytest

from nwave.exprat import ExpPoly, ExpRational, wave_constants
from nwave.spectral import initial_config, spectral_data
from nwave.tau import TauZero, check_gra, solution_from_tau, tau_U
from nwave.toda import ab_closed, ab_init, ab_step, det_n, hankel_chain, toda_residual
from nwave.transforms import PivotZero, apply, apply_chain
from nwave.verify import _const_solution, _generic_config, verify_config, verify_suite
from nwave.wavesys import MINUS, PLUS, model

W = wave_constants("1", "1/2", "1/3", "1")
P1 = [("5", "1")]
P2 = [("2", "1"), ("-1", "1/2")]
Q2 = [("1", "1"), ("1/2", "2")]
Q3 = Q2 + [("-3", "1/3")]
Q4 = Q2 + [("-3", "1/3"), ("3", "-1")]
Q5 = Q2 + [("-3", "1/3"), ("2", "-1"), ("1/4", "1/2")]
Q6 = Q5 + [("-1", "3")]


def _verdict(num, label, budget, t0):
    dt = time.perf_counter() - t0
    ok = dt < budget
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({dt:.2f}s / budget {budget}s) {label}")
    assert ok, f"criterion {num} exceeded its {budget}s budget ({dt:.2f}s)"


# -- configurations proved exactly ----------------------------------------------
#
# Each group yields (label, model, configuration); a construction interrupted
# by TauZero yields the exception in place of the configuration.  Criteria 2,
# 3, 5, 8 and 9 prove their group exactly and criterion 10 re-checks every
# exact pass numerically; _verified runs each group once, whichever of them
# asks first.


def _seed_configs():
    for name in ("A2", "B2", "G2"):
        m = model(name)
        yield f"{name} seed 2P+3Q", m, initial_config(m, spectral_data(W, P2, Q3))


def _a2_tau_grid():
    m = model("A2")
    s = spectral_data(W, P2, Q2)
    for n1 in range(3):
        for n2 in range(3):
            yield f"A2 tau({n1},{n2})", m, solution_from_tau(m, s, n1, n2)


def _b2_seed_images():
    m = model("B2")
    seed = initial_config(m, spectral_data(W, P2, Q2))
    for tid in ("B2_TM", "B2_T10", "B2_T2A2"):
        yield f"{tid} image of B2 seed", m, apply(tid, seed)


def _b2_tau_wide():
    m = model("B2")
    s = spectral_data(W, P2, Q4)
    for n1 in range(2):
        for n2 in range(2):
            yield f"B2 tau({n1},{n2}) 2P+4Q", m, solution_from_tau(m, s, n1, n2)


def _g2_tau_orders():
    m = model("G2")
    s = spectral_data(W, P2, Q4)
    for order in ((0, 0), (1, 0), (0, 1), (1, 1)):
        try:
            cfg = solution_from_tau(m, s, *order)
        except TauZero as e:
            cfg = e
        yield f"G2 tau{order} 2P+4Q", m, cfg


EXACT_GROUPS = (_seed_configs, _a2_tau_grid, _b2_seed_images, _b2_tau_wide, _g2_tau_orders)


@functools.lru_cache(maxsize=None)
def _verified(group):
    """{label: (model, configuration, passed, why)} for one group, built and
    verified exactly once per session; ``why`` names the failing checks, or
    quotes the TauZero that interrupted the construction."""
    out = {}
    for label, m, cfg in group():
        if isinstance(cfg, TauZero):
            out[label] = (m, cfg, False, f"TauZero: {cfg}")
            continue
        rep = verify_config(m, cfg)
        out[label] = (m, cfg, rep.passed, [c.name for c in rep.checks if not c.passed])
    return out


def _assert_all_pass(group):
    bad = [(label, why) for label, (_, _, ok, why) in _verified(group).items() if not ok]
    assert not bad, bad


def _rand_frac(rng):
    return Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))


def _rand_poly(rng):
    p = ExpPoly.zero()
    for _ in range(rng.randint(1, 3)):
        p = p + ExpPoly.term(_rand_frac(rng), _rand_frac(rng), _rand_frac(rng))
    return p


def _rand_nonzero_poly(rng):
    while True:
        p = _rand_poly(rng)
        if not p.is_zero():
            return p


def _rand_rational(rng):
    return ExpRational(_rand_poly(rng), _rand_nonzero_poly(rng))


def _rand_nonzero_rational(rng):
    return ExpRational(_rand_nonzero_poly(rng), _rand_nonzero_poly(rng))


def _rand_index(rng):
    return rng.randint(-2, 2), rng.randint(-2, 2)


# One randomized case = one draw checked against one law.
_LAWS = [
    ("poly add assoc", lambda g: (_rand_poly(g), _rand_poly(g), _rand_poly(g)),
     lambda p, q, r: (p + q) + r == p + (q + r)),
    ("poly add comm", lambda g: (_rand_poly(g), _rand_poly(g)),
     lambda p, q: p + q == q + p),
    ("poly mul comm", lambda g: (_rand_poly(g), _rand_poly(g)),
     lambda p, q: p * q == q * p),
    ("poly mul assoc", lambda g: (_rand_poly(g), _rand_poly(g), _rand_poly(g)),
     lambda p, q, r: (p * q) * r == p * (q * r)),
    ("poly distrib", lambda g: (_rand_poly(g), _rand_poly(g), _rand_poly(g)),
     lambda p, q, r: (p + q) * r == p * r + q * r),
    ("poly Leibniz", lambda g: (_rand_poly(g), _rand_poly(g), _rand_index(g)),
     lambda p, q, ij: (p * q).deriv(*ij, W)
     == p.deriv(*ij, W) * q + p * q.deriv(*ij, W)),
    ("poly index linear", lambda g: (_rand_poly(g), _rand_index(g), _rand_index(g)),
     lambda p, ij, kl: p.deriv(ij[0] + kl[0], ij[1] + kl[1], W)
     == p.deriv(*ij, W) + p.deriv(*kl, W)),
    ("rat mul comm", lambda g: (_rand_rational(g), _rand_rational(g)),
     lambda u, v: u * v == v * u),
    ("rat distrib", lambda g: (_rand_rational(g), _rand_rational(g), _rand_rational(g)),
     lambda u, v, z: u * (v + z) == u * v + u * z),
    ("rat Leibniz", lambda g: (_rand_rational(g), _rand_rational(g), _rand_index(g)),
     lambda u, v, ij: (u * v).deriv(*ij, W)
     == u.deriv(*ij, W) * v + u * v.deriv(*ij, W)),
    ("rat index linear", lambda g: (_rand_rational(g), _rand_index(g), _rand_index(g)),
     lambda u, ij, kl: u.deriv(ij[0] + kl[0], ij[1] + kl[1], W)
     == u.deriv(*ij, W) + u.deriv(*kl, W)),
    ("rat inverse", lambda g: (_rand_nonzero_rational(g),),
     lambda u: u * u.inv() == ExpRational.const(1)),
    ("rat dlog additive",
     lambda g: (_rand_nonzero_rational(g), _rand_nonzero_rational(g), _rand_index(g)),
     lambda u, v, ij: (u * v).dlog(*ij, W)
     == u.dlog(*ij, W) + v.dlog(*ij, W)),
]


def test_criterion_01_ring_and_derivation_laws_hold_on_random_inputs():
    t0 = time.perf_counter()
    rng = random.Random(20260819)
    for case in range(500):
        name, draw, law = _LAWS[case % len(_LAWS)]
        assert law(*draw(rng)), (case, name)
    _verdict(1, "500 randomized exact arithmetic law cases", 5, t0)


def test_criterion_02_initial_configs_solve_each_system_exactly():
    t0 = time.perf_counter()
    _assert_all_pass(_seed_configs)
    _verdict(2, "seed configurations solve A2, B2, G2 on 2P+3Q", 5, t0)


def test_criterion_03_a2_tau_grid_interruption_and_beyond():
    t0 = time.perf_counter()
    _assert_all_pass(_a2_tau_grid)
    m, top, _, _ = _verified(_a2_tau_grid)["A2 tau(2,2)"]
    s = spectral_data(W, P2, Q2)
    # Order (2, 2) exhausts both spike groups: the minus sector dies but the
    # configuration is still an exact solution.
    assert all(top[(MINUS, r)].is_zero() for r in m.roots)
    with pytest.raises(TauZero):
        solution_from_tau(m, s, 3, 2)
    _verdict(3, "A2 tau grid n1,n2<=2 plus interruption behaviour", 10, t0)


def _chain_constant(key, b):
    # Frozen proportionality law between iterated maps and tau ratios:
    # (-1)^b on every field except the f±0.1 pair (b = number of T2 steps).
    return Fraction(-1 if (b % 2 and key[1] != (0, 1)) else 1)


def test_criterion_04_composition_and_iterated_chains_match_tau_ratios():
    t0 = time.perf_counter()
    m = model("A2")
    datasets = [
        spectral_data(W, P2, Q2),
        spectral_data(wave_constants("2", "1", "1", "1/3"),
                      [("3", "1")], [("-1", "2"), ("1/4", "1")]),
        spectral_data(wave_constants("1", "1/3", "1/2", "2"),
                      [("1/2", "2"), ("5", "1")], [("-2", "1")]),
    ]
    for s in datasets:
        seed = initial_config(m, s)
        c12 = apply_chain(["A2_T1", "A2_T2"], seed)
        assert c12 == apply_chain(["A2_T2", "A2_T1"], seed)
        assert c12 == apply("A2_T3", seed)
    s = datasets[0]
    seed = initial_config(m, s)
    live = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (1, 2)]
    for a, b in live:
        chain = apply_chain(["A2_T1"] * a + ["A2_T2"] * b, seed)
        closed = solution_from_tau(m, s, a, b)
        for k in m.field_keys:
            assert chain[k] == closed[k] * _chain_constant(k, b), (a, b, k)
    # The two orders with n1+n2 <= 3 missing above are dead on 2P+2Q data,
    # and both routes agree on that: the tau route raises TauZero, the
    # iterated map hits a vanished pivot.
    for a, b in ((3, 0), (0, 3)):
        with pytest.raises(TauZero):
            solution_from_tau(m, s, a, b)
        with pytest.raises(PivotZero):
            apply_chain(["A2_T1"] * a + ["A2_T2"] * b, seed)
    _verdict(4, "T1/T2/T3 composition on 3 datasets; chains vs tau, n1+n2<=3", 10, t0)


def test_criterion_05_b2_maps_preserve_solutions_invert_and_factor():
    t0 = time.perf_counter()
    m = model("B2")
    s = spectral_data(W, P2, Q2)
    seed = initial_config(m, s)
    _assert_all_pass(_b2_seed_images)
    images = {label.split()[0]: cfg for label, (_, cfg, _, _) in _verified(_b2_seed_images).items()}
    # The first-root round trip is an identity of the formulas themselves:
    # it holds on arbitrary fields, not just solutions.
    g = _generic_config(W)
    assert apply_chain(["B2_T10", "B2_T10_INV"], g) == g
    assert apply_chain(["B2_T10_INV", "B2_T10"], g) == g
    # The factorisation of the second-root map through TM and T10^-1 is an
    # identity of maps on solutions only (the two orders genuinely differ on
    # arbitrary fields).  Evidence: a symbolic proof over the whole solution
    # set in jet coordinates, plus one live exponential instance.
    from _jet import b2_factorization_mismatches

    assert b2_factorization_mismatches() == []
    inst = apply("B2_T10", _const_solution(W))
    assert apply("B2_T2A2", inst) == apply_chain(["B2_T10_INV", "B2_TM"], inst)
    # Zero patterns: the seed keeps the whole plus sector zero; T10 switches
    # on f^+_{1.0} only; T2A2 switches on f^+_{0.1} only and lands exactly
    # on the first tau solution.
    assert all(seed[(PLUS, r)].is_zero() for r in m.roots)
    t10 = images["B2_T10"]
    assert not t10[(PLUS, (1, 0))].is_zero()
    assert all(t10[(PLUS, r)].is_zero() for r in ((0, 1), (1, 1), (1, 2)))
    t2a2 = images["B2_T2A2"]
    assert not t2a2[(PLUS, (0, 1))].is_zero()
    assert all(t2a2[(PLUS, r)].is_zero() for r in ((1, 0), (1, 1), (1, 2)))
    assert t2a2 == solution_from_tau(m, s, 0, 1)
    _verdict(5, "B2 maps: invariance, round trip, factorisation, zero patterns", 15, t0)


def test_criterion_06_toda_relations_and_determinant_subset_sums():
    t0 = time.perf_counter()
    s = spectral_data(W, P1, Q5)
    ch = hankel_chain(s)
    for n in range(5):
        assert det_n(ch, n) == tau_U(s, 0, n), n
    for n in range(1, 5):
        assert toda_residual(ch, n).is_zero(), n
    _verdict(6, "Toda relations n=1..4 and Det_n subset sums on 5 Q-spikes", 15, t0)


def test_criterion_07_ab_chain_closed_forms_and_group_recombination():
    t0 = time.perf_counter()
    s = spectral_data(W, P1, Q6)
    ch = hankel_chain(s)
    ab1 = ab_step(ab_init(s), ch)
    ab2 = ab_step(ab1, ch)
    for level, ab in ((1, ab1), (2, ab2)):
        ca, cb = ab_closed(s, level)
        assert ab.A == ca, level
        assert ab.B == cb, level
    # The suite cross-checks the same closed forms against independent
    # ordered-tuple literals; run it too so that oracle stays wired in.
    assert verify_suite("ab-chain").passed
    s24 = spectral_data(W, P2, Q4)
    for n in (0, 1):
        assert check_gra(s24, n), n
    _verdict(7, "A/B chain steps match closed forms; group recombination", 20, t0)


def test_criterion_08_b2_tau_solutions_verified_on_wide_data():
    t0 = time.perf_counter()
    _assert_all_pass(_b2_tau_wide)
    _verdict(8, "B2 tau solutions (n1,n2) in {0,1}^2 on 2P+4Q", 20, t0)


def test_criterion_09_g2_tau_solutions_pass_at_four_orders():
    t0 = time.perf_counter()
    _assert_all_pass(_g2_tau_orders)
    _verdict(9, "G2 tau solutions at orders (0,0), (1,0), (0,1), (1,1) on 2P+4Q", 30, t0)


def test_criterion_10_numeric_grid_agreement_for_every_exact_pass():
    # Selected alone, this builds and proves the configurations before t0;
    # in module order the earlier criteria already did, inside their budgets.
    passes = [(label, m, cfg) for group in EXACT_GROUPS
              for label, (m, cfg, ok, _) in _verified(group).items() if ok]
    t0 = time.perf_counter()
    assert len(passes) >= 20, [label for label, _, _ in passes]
    bad = []
    for label, m, cfg in passes:
        rep = verify_config(m, cfg, mode="numeric")
        if not rep.passed:
            bad.append((label, [c.name for c in rep.checks if not c.passed]))
    assert not bad, bad
    _verdict(10, f"numeric grid agreement for all {len(passes)} exact passes", 5, t0)
