"""Acceptance battery: one test per criterion, each enforcing a wall-clock
budget and printing a one-line verdict (visible with -s; pytest -v shows the
per-criterion pass/fail lines either way).

Criteria 3 and 5 to 9 call the theory's claims by name from
``nwave.verify.CLAIMS``, where each is written once on frozen data; the
group of seeds below is the battery's own.  All spectral data is frozen:
positions and weights are chosen so that every construction is live (no P/Q
position collisions, all pivots alive) and every exact check finishes inside
its budget on ordinary hardware.
"""

import functools
import random
import time
from fractions import Fraction

import pytest

from nwave.exprat import ExpPoly, ExpRational, wave_constants
from nwave.spectral import initial_config, spectral_data
from nwave.tau import TauZero, solution_from_tau
from nwave.transforms import PivotZero, apply, apply_chain
from nwave.verify import SOLUTIONS, verify_claims, verify_config
from nwave.wavesys import PLUS, model

W = wave_constants("1", "1/2", "1/3", "1")
P2 = [("2", "1"), ("-1", "1/2")]
Q2 = [("1", "1"), ("1/2", "2")]
Q3 = Q2 + [("-3", "1/3")]


def _verdict(num, label, budget, t0):
    dt = time.perf_counter() - t0
    ok = dt < budget
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({dt:.2f}s / budget {budget}s) {label}")
    assert ok, f"criterion {num} exceeded its {budget}s budget ({dt:.2f}s)"


# -- configurations proved exactly ----------------------------------------------
#
# The battery's own group yields (label, model, configuration), as the
# solution claims of nwave.verify do.  Criterion 2 proves it exactly;
# criterion 10 re-checks it numerically, with the configurations of the
# solution claims that criteria 3, 5, 8 and 9 prove.


def _seed_configs():
    for name in ("A2", "B2", "G2"):
        m = model(name)
        yield f"{name} seed 2P+3Q", m, initial_config(m, spectral_data(W, P2, Q3))


@functools.lru_cache(maxsize=None)
def _configs(group):
    """(label, model, configuration or TauZero) of the group above, or
    of a solution claim named in nwave.verify.SOLUTIONS, built once per session."""
    return tuple(SOLUTIONS[group]() if isinstance(group, str) else group())


def _assert_solve(group):
    bad = [(label, c.name) for label, m, cfg in _configs(group)
           for c in verify_config(m, cfg).checks if not c.passed]
    assert not bad, bad


def _assert_claims(*names):
    rep = verify_claims("acceptance", names)
    assert rep.passed, [(c.name, c.detail) for c in rep.checks if not c.passed]


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
     lambda u: u * (1 / u) == ExpRational.const(1)),
    ("rat dlog additive",
     lambda g: (_rand_nonzero_rational(g), _rand_nonzero_rational(g), _rand_index(g)),
     lambda u, v, ij: (u * v).deriv(*ij, W) / (u * v)
     == u.deriv(*ij, W) / u + v.deriv(*ij, W) / v),
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
    _assert_solve(_seed_configs)
    _verdict(2, "seed configurations solve A2, B2, G2 on 2P+3Q", 5, t0)


def test_criterion_03_a2_tau_grid_interruption_and_beyond():
    t0 = time.perf_counter()
    _assert_claims("a2-tau-grid", "a2-interruption")
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
    seed = initial_config(m, spectral_data(W, P2, Q2))
    # Invariance on the (1,1) solution and on the 2P+2Q seed, the round trip
    # on arbitrary fields, one live instance of the factorisation, and the
    # zero patterns of T10 on the 2P+4Q seed and of T2A2, which lands on
    # the first tau solution.
    _assert_claims("b2-invariance", "b2-maps")
    # The factorisation of the second-root map through TM and T10^-1 is an
    # identity of maps on solutions only (the two orders genuinely differ on
    # arbitrary fields): a symbolic proof over the whole solution set in jet
    # coordinates backs the claim's live instance.
    from _jet import b2_factorization_mismatches

    assert b2_factorization_mismatches() == []
    # The 2P+2Q seed keeps the whole plus sector zero; T10 switches on
    # f^+_{1.0} only.
    images = {label: cfg for label, _, cfg in _configs("b2-invariance")}
    t10 = images["B2_T10 image of the seed"]
    assert all(seed[(PLUS, r)].is_zero() for r in m.roots)
    assert not t10[(PLUS, (1, 0))].is_zero()
    assert all(t10[(PLUS, r)].is_zero() for r in ((0, 1), (1, 1), (1, 2)))
    _verdict(5, "B2 maps: invariance, round trip, factorisation, zero patterns", 15, t0)


def test_criterion_06_toda_relations_and_determinant_subset_sums():
    t0 = time.perf_counter()
    _assert_claims("toda")
    _verdict(6, "Toda relations n=1..4 and Det_n subset sums on 5 Q-spikes", 15, t0)


def test_criterion_07_ab_chain_closed_forms_and_group_recombination():
    t0 = time.perf_counter()
    _assert_claims("ab-chain", "gra")
    _verdict(7, "A/B chain steps match closed forms; group recombination", 20, t0)


def test_criterion_08_b2_tau_solutions_verified_on_wide_data():
    t0 = time.perf_counter()
    _assert_claims("b2-tau-grid")
    _verdict(8, "B2 tau solutions (n1,n2) in {0,1}^2 on 2P+4Q", 20, t0)


def test_criterion_09_g2_tau_solutions_pass_at_four_orders():
    t0 = time.perf_counter()
    _assert_claims("g2-orders", "g2-invariance")
    _verdict(9, "G2 tau solutions at orders (0,0), (1,0), (0,1), (1,1) on 2P+4Q;"
             " images of both G2 maps", 30, t0)


def test_criterion_10_numeric_grid_agreement_for_every_exact_pass():
    # Configurations are built before t0: the claims' every time, the
    # battery's own group only if criterion 2 has not built it.
    groups = (_seed_configs, "a2-tau-grid", "b2-invariance", "b2-tau-grid", "g2-orders",
              "g2-invariance")
    passes = [(label, m, cfg) for group in groups
              for label, m, cfg in _configs(group) if not isinstance(cfg, TauZero)]
    t0 = time.perf_counter()
    assert len(passes) >= 20, [label for label, _, _ in passes]
    bad = []
    for label, m, cfg in passes:
        rep = verify_config(m, cfg, mode="numeric")
        if not rep.passed:
            bad.append((m.name, label, [c.name for c in rep.checks if not c.passed]))
    assert not bad, bad
    _verdict(10, f"numeric grid agreement for all {len(passes)} exactly proved configs", 5, t0)
