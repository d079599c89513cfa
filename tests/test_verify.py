"""Verification driver: per-equation verdicts, numeric grid, suite reports."""
import json
from fractions import Fraction
from pathlib import Path

import pytest

from _hirota import equation_residual
from nwave import exprat, transforms, verify, wavesys
from nwave.cli import config_from_doc, config_to_doc
from nwave.exprat import (
    _ZERO_FIELD, ONE, ExpPoly, ExpRational, common_denominator, grid_values, wave_constants,
)
from nwave.spectral import spectral_data
from nwave.tau import solution_from_tau
from nwave.transforms import TRANSFORMS, apply
from nwave.verify import (
    CLAIMS,
    GRID,
    GRID_T,
    GRID_X,
    SUITES,
    Report,
    _judge,
    _eq_name,
    _solution_checks,
    _tau_solutions,
    render_poly,
    verify_config,
    verify_suite,
)
from nwave.wavesys import MINUS, PLUS, model, residual, zero_config

W = wave_constants(1, "1/2", "1/3", 1)
P2 = [("2", "1"), ("-1", "1/2")]
Q2 = [("1", "1"), ("1/2", "2")]
Q4 = Q2 + [("-3", "1/3"), ("3", "-1")]


def a2_solution():
    return solution_from_tau(model("A2"), spectral_data(W, P2, Q2), 1, 1)


def perturbed():
    sol = a2_solution()
    bump = ExpRational(ExpPoly.const(1) + ExpPoly.term(1, 1, 0), ExpPoly.const(1))
    key = (MINUS, (1, 0))
    return sol.with_fields({key: sol[key] * bump})


@pytest.mark.parametrize("mode", ["exact", "numeric"])
def test_zero_config_passes(mode):
    rep = verify_config(model("A2"), zero_config("A2", W), mode)
    assert rep.passed
    assert rep.counterexample is None
    assert len(rep.checks) == 6


@pytest.mark.parametrize("mode", ["exact", "numeric"])
def test_tau_solution_passes(mode):
    rep = verify_config(model("A2"), a2_solution(), mode)
    assert rep.passed


def test_perturbation_fails_exactly_the_equations_touching_the_field():
    m = model("A2")
    bad = perturbed()
    key = (MINUS, (1, 0))
    touching = set()
    for eq in m.equations:
        if key in {eq.lhs} | {a for _, a, _ in eq.rhs} | {b for _, _, b in eq.rhs}:
            i, j = eq.d_index
            sign, (a, b) = eq.lhs
            touching.add(f"D({i},{j}) f{'+' if sign > 0 else '-'}{a}.{b}")
    rep = verify_config(m, bad, "exact")
    failed = {c.name for c in rep.checks if not c.passed}
    assert failed == touching
    assert len(failed) == 3


def test_exact_and_numeric_verdicts_agree():
    m = model("A2")
    bad = perturbed()
    exact = [c.passed for c in verify_config(m, bad, "exact").checks]
    numeric = [c.passed for c in verify_config(m, bad, "numeric").checks]
    assert exact == numeric


def test_failing_report_carries_one_counterexample():
    rep = verify_config(model("A2"), perturbed(), "exact")
    ce = rep.counterexample
    assert ce is not None
    assert set(ce) == {"n_terms", "truncated", "terms", "sha256"}
    assert len(ce["sha256"]) == 64
    assert all(set(t) == {"a", "b", "coef"} for t in ce["terms"])


def test_report_dict_shape_and_determinism():
    m = model("A2")
    bad = perturbed()
    d1 = verify_config(m, bad, "exact").as_dict()
    d2 = verify_config(m, bad, "exact").as_dict()
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    assert set(d1) == {
        "schema", "title", "mode", "pass", "counts", "checks", "counterexample",
    }
    assert d1["schema"] == 1
    assert d1["pass"] is False
    assert d1["counts"] == {"total": 6, "failed": 3}


def test_mode_is_validated():
    with pytest.raises(ValueError):
        verify_config(model("A2"), zero_config("A2", W), "fuzzy")


def test_render_poly_truncates_to_largest_terms():
    wide = ExpPoly({(i, 0): (100 - i) for i in range(25)})
    rp = render_poly(wide)
    assert rp["n_terms"] == 25
    assert rp["truncated"] is True
    assert len(rp["terms"]) == 20
    assert rp["terms"][0]["coef"] == "100"
    # the digest covers all 25 terms, so the two renderings differ
    assert render_poly(ExpPoly({(i, 0): (100 - i) for i in range(24)}))["sha256"] != rp["sha256"]


def residual_check(r):
    """Numeric verdict on one value: it must vanish at every grid point that
    is not a pole, relative to its pre-cancellation scale."""
    points = []
    for t, x, vals in grid_values({"r": r}, GRID_T, GRID_X):
        v = vals.get("r", _ZERO_FIELD)
        points.append((t, x, None, None) if v is None else (t, x, v[0], v[1]))
    return _judge(points)


def test_exactly_zero_residuals_never_hit_poles():
    # normalization drops the denominator of a zero numerator entirely
    t_pole = ExpPoly.term(1, 1, 0) - ExpPoly.const(1)  # e^t - 1
    r = ExpRational(ExpPoly.zero(), t_pole)
    assert r.is_poly()
    ok, detail = residual_check(r)
    assert ok
    assert "poles" not in detail


def test_numeric_check_skips_pole_points_and_continues():
    # denominator e^{t-3x} - 1 vanishes at the grid points (-1,-1/3), (0,0);
    # the numerator's through-origin line factors vanish at the other seven,
    # so the value is exactly zero wherever it is finite.
    def line(a, b):
        return ExpPoly.term(1, a, b) - ExpPoly.const(1)

    num = ExpPoly.const(1)
    for a, b in ((0, 1), (1, 1), (1, 0), (2, 3), (2, -1)):
        num = num * line(a, b)
    ok, detail = residual_check(ExpRational(num, line(1, -3)))
    assert ok
    assert "poles skipped" in detail
    assert "(-1,-1/3)" in detail and "(0,0)" in detail
    assert "over 7 points" in detail


def test_same_sign_denominator_never_makes_a_pole():
    # e^{2000t} + e^{2001t} is about 1e-869 at t = -1, far below any absolute
    # threshold, but it is positive everywhere: no grid point is a pole
    den = ExpPoly.term(1, 2000, 0) + ExpPoly.term(1, 2001, 0)
    points = list(grid_values({"r": ExpRational(ExpPoly.const(1), den)}, GRID_T, GRID_X))
    assert [(t, x) for t, x, _ in points] == list(GRID)
    assert all(values["r"] is not None for _, _, values in points)


def test_numeric_check_flags_a_genuinely_nonzero_value():
    t_pole = ExpPoly.term(1, 1, 0) - ExpPoly.const(1)
    bad, detail = residual_check(ExpRational(ExpPoly.const(1), t_pole))
    assert not bad
    assert "|residual|" in detail


def test_numeric_check_fails_a_nonzero_value_over_a_monomial():
    # (e^{2000t}-1)/e^{2000t} is 1 - e^{-2000t}: nonzero off t = 0, and its
    # one-term denominator never vanishes, so no grid point is a pole
    e = ExpPoly.term(1, 2000, 0)
    ok, detail = residual_check(ExpRational(e - ExpPoly.const(1), e))
    assert not ok
    assert detail.startswith("|residual| = ")


def pole_a2():
    """A2 off the solution set: f+1.1 = 1 and f-0.1 = (e^{2000t}-1)/e^{2000t}."""
    e = ExpPoly.term(1, 2000, 0)
    return zero_config("A2", wave_constants(1, 0, 0, 1)).with_fields({
        (PLUS, (1, 1)): ExpRational.const(1),
        (MINUS, (0, 1)): ExpRational(e - ExpPoly.const(1), e),
    })


@pytest.mark.parametrize("name, q", [("A2", Q2), ("G2", Q4)], ids=["A2-P2Q2", "G2-P2Q4"])
@pytest.mark.parametrize("eps", ["1e-8", "1e-6", "1e-4", "1e-2"])
def test_numeric_mode_fails_a_field_off_by_a_small_relative_error(name, q, eps):
    # A tau solution with f-1.0 scaled by 1 + eps is off by about eps
    # relative to the pre-cancellation scale, at least ten times REL_TOL:
    # every such configuration fails, so a looser tolerance is caught.
    m = model(name)
    sol = solution_from_tau(m, spectral_data(W, P2, q), 1, 1)
    key = (MINUS, (1, 0))
    bad = sol.with_fields({key: sol[key] * (1 + Fraction(eps))})
    assert not verify_config(m, bad, "numeric").passed


@pytest.mark.parametrize("digits", [12, 20, 25])
def test_numeric_mode_fails_a_tiny_nonzero_residual(digits):
    # With every other field zero, D(1,0) f-1.0 = 10^-digits * e^t has
    # nothing to cancel against: its residual is its whole mass, at any size.
    m = model("A2")
    tiny = ExpRational(ExpPoly.term(Fraction(1, 10**digits), 1, 0))
    cfg = zero_config("A2", W).with_fields({(MINUS, (1, 0)): tiny})
    exact = verify_config(m, cfg, "exact")
    numeric = verify_config(m, cfg, "numeric")
    assert [c.name for c in exact.checks if not c.passed] == ["D(1,0) f-1.0"]
    assert [c.passed for c in numeric.checks] == [c.passed for c in exact.checks]


def test_numeric_mode_fails_the_pole_a2_configuration():
    m = model("A2")
    exact = verify_config(m, pole_a2(), "exact")
    numeric = verify_config(m, pole_a2(), "numeric")
    assert not numeric.passed
    assert [c.passed for c in numeric.checks] == [c.passed for c in exact.checks]
    assert numeric.counterexample is not None


def test_numeric_check_that_judges_no_point_fails():
    # 1 - e^{t/10^30} vanishes to working precision at every grid point, so
    # numeric mode judges no point of D(1,0) f-1.0 = e^t / (1 - e^{t/10^30}):
    # that check fails, as in exact mode, and names the poles.
    m = model("A2")
    den = ONE - ExpPoly.term(1, Fraction(1, 10**30), 0)
    cfg = zero_config("A2", W).with_fields({(MINUS, (1, 0)): ExpRational(ExpPoly.term(1, 1, 0), den)})
    exact = verify_config(m, cfg, "exact")
    numeric = verify_config(m, cfg, "numeric")
    assert [c.name for c in exact.checks if not c.passed] == ["D(1,0) f-1.0"]
    assert [c.passed for c in numeric.checks] == [c.passed for c in exact.checks]
    detail = next(c.detail for c in numeric.checks if not c.passed)
    assert detail.startswith("no grid point judged; poles at ")
    assert all(f"({t},{x})" in detail for t, x in GRID)


def test_passing_numeric_check_builds_no_residual(monkeypatch):
    def no_residual(*args):
        raise AssertionError("numeric mode built an exact residual")

    monkeypatch.setattr("nwave.verify.residual", no_residual)
    rep = verify_config(model("A2"), a2_solution(), "numeric")
    assert rep.passed
    assert all("over 9 points" in c.detail for c in rep.checks)


@pytest.mark.parametrize("mode", ["exact", "numeric"])
def test_failing_check_builds_one_witness_residual(monkeypatch, mode):
    # The report renders only the first failing equation's residual, so
    # besides exact mode's one pass over every equation only that one is
    # built, from that equation alone.
    m, bad = model("A2"), perturbed()
    built = []

    def counting(*args):
        built.append(args[2])
        return residual(*args)

    monkeypatch.setattr("nwave.verify.residual", counting)
    rep = verify_config(m, bad, mode)
    failed = [eq for eq, c in zip(m.equations, rep.checks) if not c.passed]
    assert len(failed) >= 2
    assert built == ([m.equations] if mode == "exact" else []) + [failed[:1]]
    assert rep.counterexample == render_poly(residual(m, bad, failed[:1])[0])


def test_grid_is_nine_rational_points():
    assert len(GRID) == 9
    assert len(set(GRID)) == 9


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify_suite("a3-full")


@pytest.mark.parametrize("name", ["toda", "gra", "ab-chain", "a2-full", "b2-full"])
def test_cheap_suites_pass(name):
    rep = verify_suite(name)
    assert rep.passed
    d = rep.as_dict()
    assert d["counts"]["failed"] == 0
    assert d["counts"]["total"] == len(d["checks"])


def test_every_map_is_applied_by_a_claim(monkeypatch):
    # Map ids are recorded at both bindings of transforms.apply: the one
    # apply_chain calls and the one verify imported.
    applied = set()

    def recording(tid, cfg):
        applied.add(tid)
        return apply(tid, cfg)

    for module in (transforms, verify):
        monkeypatch.setattr(module, "apply", recording)
    for name in SUITES:
        verify_suite(name)
    assert set(TRANSFORMS) - applied == set()


def test_g2_suite_gates_every_order():
    rep = verify_suite("g2-full")
    assert [c.name for c in rep.checks] == [
        "order (0,0)", "order (1,0)", "order (0,1)", "order (1,1)",
        "G2_T1 invariance", "G2_TA1_3A2 invariance", "G2_TA1_3A2 image of the seed",
        "G2_T1 image of tau(1,0)", "G2_T1 image of G2_TA1_3A2 of the 2P+1Q seed",
    ]
    assert rep.passed


def test_every_claim_is_in_a_suite_and_every_suite_names_known_claims():
    named = [name for names in SUITES.values() for name in names]
    assert set(named) == set(CLAIMS)
    assert len(named) == len(set(named))


def test_a_solution_claim_reports_tau_zero_as_a_failing_check():
    rep = Report("claim", "exact")
    _solution_checks(lambda: _tau_solutions("A2", tuple(Q2), ((2, 2), (3, 2))), rep)
    assert [c.passed for c in rep.checks] == [True, False]
    assert rep.checks[1].detail.startswith("TauZero: ")


def test_suite_reports_are_deterministic():
    a = json.dumps(verify_suite("toda").as_dict(), sort_keys=True)
    b = json.dumps(verify_suite("toda").as_dict(), sort_keys=True)
    assert a == b


def test_suite_list_is_stable():
    assert set(SUITES) == {
        "a2-full", "b2-full", "g2-full", "toda",
        "ab-chain", "gra",
    }


#: The benchmark's frozen P3 and Q3 spike sets (bench/data/spikes.json).
P3 = P2 + [("4", "1/3")]
Q3 = Q2 + [("-3", "1/3")]


def test_exact_verify_of_g2_forms_its_hirota_residuals_without_pair_loops(monkeypatch):
    # G2 (2,1) on 3P+3Q: every Hirota residual is a packed sum of products
    # of the one residual pass, and no ExpPoly product runs its pair loop.
    # With f-1.0 doubled the failing equations' witnesses come from their
    # own digits and equal the quotient-built residuals.
    m = model("G2")
    cfg = solution_from_tau(m, spectral_data(W, P3, Q3), 2, 1)
    key = (MINUS, (1, 0))
    bad = cfg.with_fields({key: cfg[key] * 2})
    mul = ExpPoly.__mul__
    pair_loops = []

    def counting(a, b):
        if isinstance(b, ExpPoly):
            pair_loops.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(ExpPoly, "__mul__", counting)
    good_rep, bad_rep = verify_config(m, cfg), verify_config(m, bad)
    witnesses = residual(m, bad, m.equations)
    monkeypatch.setattr(ExpPoly, "__mul__", mul)
    assert not pair_loops
    assert good_rep.passed and not bad_rep.passed
    for eq, check, got in zip(m.equations, bad_rep.checks, witnesses):
        rat = bad[eq.lhs].deriv(*eq.d_index, W)
        for coef, a, b in eq.rhs:
            rat = rat - bad[a] * bad[b] * coef
        assert got == rat.num
        assert check.passed is got.is_zero()


def test_exact_verify_of_a_tau_solution_never_squares_tau(monkeypatch):
    # Every field of a tau solution is N/tau: the exact proof is bilinear in
    # the numerators and never multiplies tau by tau, also when the fields
    # hold equal copies of tau, as after a round trip through a document.
    # A product is formed either by ExpPoly.__mul__ or, as a (p, q) operand
    # pair, by the sum of products that residual hands to the packed
    # kernel; both paths are recorded.
    m = model("G2")
    cfg = solution_from_tau(m, spectral_data(W, P2, Q2 + [("-3", "1/3")]), 1, 1)
    tau = cfg[(MINUS, (1, 0))].den
    assert tau != ONE
    mul, packed = ExpPoly.__mul__, wavesys.sum_of_products
    for c in (cfg, config_from_doc(config_to_doc(cfg))):
        assert all(f.den == tau for f in c.fields.values() if not f.is_zero())
        products = []

        def recording_mul(a, b):
            products.append((a, b))
            return mul(a, b)

        def recording_packed(sums, w):
            # a factor ((i, j), x) is recorded as x: D tau * tau squares tau too
            sums = [list(terms) for terms in sums]
            products.extend(tuple(x[1] if isinstance(x, tuple) else x for x in factors)
                            for terms in sums for _, *factors in terms)
            return packed(sums, w)

        with monkeypatch.context() as patch:
            patch.setattr(ExpPoly, "__mul__", recording_mul)
            patch.setattr(wavesys, "sum_of_products", recording_packed)
            rep = verify_config(m, c)
        assert rep.passed and products
        assert not any(a == tau and b == tau for a, b in products)


def test_exact_verify_of_g2_puts_every_field_over_one_denominator_and_converts_each_operand_once(
        monkeypatch):
    # One residual pass: one common denominator for the configuration and
    # one conversion from ExpPoly per distinct operand, the 10 nonzero
    # numerators and tau.  Their derivatives are weighted copies of those
    # operands, one per (operand, root): 9 of the numerators (f+1.3 is one
    # term, constant along its root, so its derivative has no terms) and
    # tau along the 5 roots whose fields are not both zero.  That is 11 + 14,
    # where a pass per equation converts 82 (packing every sum) over 12
    # common denominators.
    m = model("G2")
    cfg = solution_from_tau(m, spectral_data(W, P2, Q2 + [("-3", "1/3")]), 1, 1)
    live = [k for k, f in cfg.fields.items() if not f.is_zero()]
    assert (len(live), len({r for _, r in live})) == (10, 5)
    dens, operands, derived = [], [], []
    common_denominator = wavesys.common_denominator
    operand_init, operand_derived = exprat._Operand.__init__, exprat._Operand.derived

    def counting_dens(values):
        dens.append(values)
        return common_denominator(values)

    def counting_operands(self, *args):
        operands.append(self)
        operand_init(self, *args)

    def counting_derived(self, i, j):
        op = operand_derived(self, i, j)
        derived.append((self, (i, j), op))
        return op

    monkeypatch.setattr(wavesys, "common_denominator", counting_dens)
    monkeypatch.setattr(exprat._Operand, "__init__", counting_operands)
    monkeypatch.setattr(exprat._Operand, "derived", counting_derived)
    assert verify_config(m, cfg).passed
    assert len(dens) == 1
    weighted = [op for *_, op in derived if op is not None]
    assert len([op for op in operands if op not in weighted]) == 11
    assert len({(id(op), ij) for op, ij, _ in derived}) == len(derived) == 15
    assert len(weighted) == 14


@pytest.mark.parametrize("name, q", [("A2", Q2), ("B2", Q4), ("G2", Q2 + [("-3", "1/3")])])
def test_exact_verify_of_a_tau_solution_forms_no_derivative_polynomial(monkeypatch, name, q):
    # The Hirota residual hands each derivative to the packed kernel as a
    # factor ((i, j), x), which weights x's own operand: no ExpPoly.deriv
    # runs on the proof path.
    m = model(name)
    cfg = solution_from_tau(m, spectral_data(W, P2, q), 1, 1)

    def refused(*args):
        raise AssertionError("ExpPoly.deriv on the proof path")

    monkeypatch.setattr(ExpPoly, "deriv", refused)
    assert verify_config(m, cfg).passed


@pytest.mark.parametrize("mode", ["exact", "numeric"])
@pytest.mark.parametrize("name", ["img_B2_T2A2_P2Q2", "img_B2_TM_P2Q2"])
def test_a_witness_is_the_residual_over_its_equations_own_denominator(name, mode):
    # These map images hold fields over several denominators, and the first
    # failing equation's fields have a least common denominator of their
    # own, below the configuration's: the counterexample is the residual
    # over that one, as the per-equation reference forms it.
    path = Path(__file__).resolve().parent.parent / "bench" / "data" / "configs" / f"{name}.json"
    cfg = config_from_doc(json.loads(path.read_text()))
    key = (MINUS, (1, 0))
    bad = cfg.with_fields({key: cfg[key] * 2})
    m = model("B2")
    rep = verify_config(m, bad, mode)
    first = next(c.name for c in rep.checks if not c.passed)
    eq = next(eq for eq in m.equations if _eq_name(eq) == first)
    L, r = equation_residual(bad, eq)
    assert L != common_denominator(list(bad.fields.values()))[0]
    assert rep.counterexample == render_poly(r)
