"""Verification driver: per-equation verdicts, numeric grid, suite reports."""
import itertools
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from _hirota import equation_residual
from nwave import exprat, toda, transforms, verify, wavesys
from nwave.cli import config_from_doc, config_to_doc, main as cli_main
from nwave.exprat import (
    ONE, ExpPoly, ExpRational, common_denominator, grid_values, wave_constants,
)
from nwave.spectral import initial_config, spectral_data
from nwave.tau import solution_from_tau
from nwave.transforms import TRANSFORMS, apply
from nwave.verify import (
    CLAIMS,
    GRID_T,
    GRID_X,
    SUITES,
    Report,
    _judge,
    _eq_name,
    _solution_checks,
    _tau_solutions,
    render_poly,
    verify_claims,
    verify_config,
    verify_suite,
)
from nwave.wavesys import MINUS, PLUS, model, residual, zero_config

#: The numeric grid's nine points, in the order grid_values walks them.
GRID = list(itertools.product(GRID_T, GRID_X))

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
    assert rep.witness is None
    assert rep.as_dict()["counterexample"] is None
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
    ce = rep.as_dict()["counterexample"]
    assert ce == render_poly(rep.witness)
    assert set(ce) == {"n_terms", "truncated", "terms", "sha256"}
    assert len(ce["sha256"]) == 64
    assert all(set(t) == {"a", "b", "coef"} for t in ce["terms"])


def test_a_report_renders_its_witness_only_when_written(monkeypatch):
    # Checking formats no number: the first failing check's witness is kept
    # as a value, and as_dict renders it.
    rendered = []
    monkeypatch.setattr(verify, "render_poly", lambda p: rendered.append(p) or {"n_terms": 0})
    rep = verify_config(model("A2"), perturbed(), "exact")
    assert not rep.passed and rendered == []
    assert rep.as_dict()["counterexample"] == {"n_terms": 0}
    assert rendered == [rep.witness]


def test_a_solution_claim_keeps_the_first_failing_witness():
    # A claim's report takes the witness of its first configuration that fails.
    bad = perturbed()
    rep = Report("claim", "exact")
    _solution_checks(lambda: [("good", model("A2"), a2_solution()), ("bad", model("A2"), bad),
                              ("bad again", model("A2"), bad)], rep)
    assert [c.passed for c in rep.checks] == [True, False, False]
    assert rep.witness == verify_config(model("A2"), bad).witness


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
    is not a pole, relative to its pre-cancellation scale.  The judge reads
    each point's value V/Q * 2**e as the residual and its mass M/Q * 2**e as
    the scale; an identically zero value is 0 over 1."""
    points = []
    for t, x, vals in grid_values({"r": r}, GRID_T, GRID_X):
        v = vals.get("r", (0, 0, 1, 0, 0, 1, 0))
        points.append((t, x, None if v is None else (v[0], v[1], v[2], v[6])))
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
    assert [(t, x) for t, x, _ in points] == GRID
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


def test_numeric_check_skips_a_pole_of_a_product_factor():
    # B2's D(0,1) f+0.1 = f+1.1 f-1.0 + f+1.2 f-1.1.  Here f+0.1 = 0 and the
    # products cancel, but 1/(1 - e^{t-3x}) is singular on t = 3x, at two of
    # the nine grid points, where only a factor of a product has a pole.
    pole = ExpRational(ONE, ONE - ExpPoly.term(1, 1, -3))
    cfg = zero_config("B2", W).with_fields({
        (PLUS, (1, 1)): pole, (PLUS, (1, 2)): pole,
        (MINUS, (1, 0)): ExpRational.const(1), (MINUS, (1, 1)): ExpRational.const(-1),
    })
    check = {c.name: c for c in verify_config(model("B2"), cfg, "numeric").checks}["D(0,1) f+0.1"]
    assert check.passed
    assert check.detail == "max |residual| 0.000e+00 over 7 points; poles skipped at (-1,-1/3), (0,0)"


def pole_a2():
    """A2 off the solution set: f+1.1 = 1 and f-0.1 = (e^{2000t}-1)/e^{2000t}."""
    e = ExpPoly.term(1, 2000, 0)
    return zero_config("A2", wave_constants(1, 0, 0, 1)).with_fields({
        (PLUS, (1, 1)): ExpRational.const(1),
        (MINUS, (0, 1)): ExpRational(e - ExpPoly.const(1), e),
    })


@pytest.mark.parametrize("name, q, root", [
    ("A2", Q2, (1, 0)), ("G2", Q4, (1, 0)),
    ("B2", Q2, (1, 0)), ("B2", Q2, (1, 2)), ("B2", Q4, (1, 0)), ("B2", Q4, (1, 2)),
], ids=["A2-P2Q2", "G2-P2Q4", "B2-P2Q2-f-1.0", "B2-P2Q2-f-1.2", "B2-P2Q4-f-1.0", "B2-P2Q4-f-1.2"])
@pytest.mark.parametrize("eps", ["1e-8", "1e-6", "1e-4", "1e-2"])
def test_numeric_mode_fails_a_field_off_by_a_small_relative_error(name, q, root, eps):
    # A tau solution with one f- scaled by 1 + eps is off by about eps
    # relative to the pre-cancellation scale, at least ten times REL_TOL:
    # every such configuration fails, so a looser tolerance is caught.
    m = model(name)
    sol = solution_from_tau(m, spectral_data(W, P2, q), 1, 1)
    key = (MINUS, root)
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
    assert numeric.witness is not None


def test_numeric_judging_keeps_its_integers_small_across_a_vast_exponent_spread(monkeypatch):
    # f-1.0 = e^{10^7 t} against constant fields: at t = -1 the terms of
    # D(1,0) f-1.0's residual are 14 million bits apart.  The residual and
    # scale stay integers of a few hundred bits, since the term below
    # 2**-480 of the largest is left out, and the verdicts and details are
    # those of the product term alone.
    m = model("A2")
    fields = dict.fromkeys(m.field_keys, ExpRational.const(1))
    fields[(MINUS, (1, 0))] = ExpRational(ExpPoly.term(1, 10 ** 7, 0))
    one_fraction, widths = verify._one_fraction, []

    def recording(parts):
        out = one_fraction(parts)
        widths.append(max(abs(v).bit_length() for v in out[:3]))
        return out

    monkeypatch.setattr(verify, "_one_fraction", recording)
    rep = verify_config(m, zero_config("A2", W).with_fields(fields), "numeric")
    assert widths and max(widths) < 1000
    assert [c.passed for c in rep.checks] == [False] * 6
    assert {c.detail for c in rep.checks} >= {
        "|residual| = 1.000e+00 > 1.000e-09 at (t=-1, x=-1/3)"}


def test_the_judge_reports_the_largest_residual_exactly():
    # Points (t, x, (R, S, D, E)): residual R/D * 2**E with scale S/D * 2**E.
    # An exact zero at a large power of two, a residual far smaller and
    # one within a bit of the largest leave 3/4 the largest; the 2**60
    # scales keep every point passing.
    points = [(0, k, (r, abs(r) << 60 or 1, d, e)) for k, (r, d, e) in enumerate(
        [(3, 1, -2), (0, 7, 40), (-5, 7, 0), (1, 1, -200)])]
    assert verify._judge(points) == (True, "max |residual| 7.500e-01 over 4 points")


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
    # The report keeps only the first failing equation's residual.  Every
    # field is over one denominator, so exact mode takes it from its one
    # pass over every equation, and numeric mode builds only that one, from
    # that equation alone.
    m, bad = model("A2"), perturbed()
    built = []

    def counting(*args):
        built.append(args[2])
        return residual(*args)

    monkeypatch.setattr("nwave.verify.residual", counting)
    rep = verify_config(m, bad, mode)
    failed = [eq for eq, c in zip(m.equations, rep.checks) if not c.passed]
    assert len(failed) >= 2
    assert built == ([m.equations] if mode == "exact" else [failed[:1]])
    assert rep.witness == residual(m, bad, failed[:1])[0]


def _counted_sums(monkeypatch):
    """The number of sum_of_products calls residual makes, as a one-item list."""
    calls, run = [0], wavesys.sum_of_products

    def counting(*args):
        calls[0] += 1
        return run(*args)

    monkeypatch.setattr(wavesys, "sum_of_products", counting)
    return calls


def test_verify_of_a_corrupted_document_runs_the_kernel_once(tmp_path, monkeypatch):
    # The A2 (1,1) solution with f-1.1 doubled: every field is over tau, so
    # the first failing equation's witness is its residual from the one
    # pass over every equation, and the report is what that equation's own
    # residual gives.
    path = Path(__file__).resolve().parent.parent / "bench" / "data" / "configs"
    cfg = config_from_doc(json.loads((path / "tau_A2_P2Q2_11.json").read_text()))
    key = (MINUS, (1, 1))
    bad = cfg.with_fields({key: cfg[key] * 2})
    doc, report = tmp_path / "corrupt.json", tmp_path / "report.json"
    doc.write_text(json.dumps(config_to_doc(bad)))
    calls = _counted_sums(monkeypatch)
    assert cli_main(["verify", "--in", str(doc), "--report", str(report)]) == 1
    assert calls == [1]
    m = model("A2")
    failed = next(eq for eq in m.equations if not residual(m, bad, [eq])[0].is_zero())
    assert json.loads(report.read_text())["counterexample"] == render_poly(
        residual(m, bad, [failed])[0])


def test_grid_is_nine_rational_points():
    assert len(GRID) == 9
    assert len(set(GRID)) == 9


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify_suite("a3-full")


@pytest.mark.parametrize("name", ["toda", "gra", "ab-chain", "first-root", "a2-full", "b2-full"])
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
        "chain interruption: f^- vanish at (2,2)", "chain interruption: TauZero past (2,2)",
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


@pytest.mark.parametrize("algebra", ["A2", "B2", "G2"])
def test_an_interruption_claim_fails_when_an_order_past_the_end_is_built(monkeypatch, algebra):
    # (2,3) built as if the chain went on: the claim fails and names it
    def building(m, s, n1, n2):
        return solution_from_tau(m, s, *((2, 2) if (n1, n2) == (2, 3) else (n1, n2)))

    monkeypatch.setattr(verify, "solution_from_tau", building)
    rep = verify_claims("claim", [f"{algebra.lower()}-interruption"])
    assert [(c.passed, c.detail) for c in rep.checks] == [
        (True, ""), (False, "no TauZero raised at (2,3)")]


def test_the_ab_chain_claim_fails_on_a_doubled_b(monkeypatch):
    # B doubled at level 2 fails its closed form and the paper's recursion
    # from level 1; level 3 then fails both too, the recursion because it
    # reads level 2's A, which the step does not.
    def doubling(prev, chain):
        c = toda.ab_step(prev, chain)
        return toda.ABChain(2, c.A, c.B * 2) if c.level == 2 else c

    monkeypatch.setattr(verify, "ab_step", doubling)
    rep = verify_suite("ab-chain")
    assert [c.name for c in rep.checks if not c.passed] == [
        "second step meets closed form", "second step meets the three-part recursion",
        "third step meets closed form", "third step meets the three-part recursion"]


@pytest.mark.parametrize("suite, refused", [
    ("ab-chain", "second step meets closed form"), ("first-root", "step 2 equals tau(2,0)")])
def test_a_chain_claim_reports_a_refused_step_as_a_failing_check(monkeypatch, capsys, suite,
                                                                 refused):
    # Det_2 + 1 is no Hankel minor: the first step that divides by it is
    # refused with InexactDivision.  The claim fails that step's first check,
    # quoting the refusal, and the suite still ends in a report with exit 1.
    minor = toda.HankelChain.minor
    monkeypatch.setattr(toda.HankelChain, "minor", lambda self, n, h=None: minor(self, n, h)
                        + (ONE if n == 2 and h is None else ExpPoly.zero()))
    rep = verify_suite(suite)
    failed = {c.name: c.detail for c in rep.checks if not c.passed}
    assert failed[refused].startswith("InexactDivision: ")
    assert len(rep.checks) > len(failed)
    capsys.readouterr()
    assert cli_main(["verify", "--suite", suite]) == 1
    out, err = capsys.readouterr()
    assert f"FAIL  {refused}  [InexactDivision: " in out
    assert "error:" not in err


def test_the_toda_claim_reports_a_vanishing_minor_as_a_failing_check(monkeypatch):
    # Det_5 made zero: toda_residual refuses level 5 with PivotZero, which
    # fails that level's check; levels 4 and 6 read Det_5 and fail as values.
    minor = toda.HankelChain.minor
    monkeypatch.setattr(toda.HankelChain, "minor", lambda self, n, h=None:
                        ExpPoly.zero() if n == 5 else minor(self, n, h))
    rep = verify_suite("toda")
    failed = {c.name: c.detail for c in rep.checks if not c.passed}
    assert failed["Toda relation at n=5"] == (
        "PivotZero: TODA_CHAIN (chain step 5): pivot f-0.1 is identically zero")
    assert {"Toda relation at n=4", "Toda relation at n=6"} <= set(failed)
    assert "Toda relation at n=3" not in failed


def test_suite_reports_are_deterministic():
    a = json.dumps(verify_suite("toda").as_dict(), sort_keys=True)
    b = json.dumps(verify_suite("toda").as_dict(), sort_keys=True)
    assert a == b


def test_suite_list_is_stable():
    assert set(SUITES) == {
        "a2-full", "b2-full", "g2-full", "toda",
        "ab-chain", "first-root", "gra",
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
    product = exprat._product
    pair_loops = []

    def counting(a, b):
        pair_loops.append((a, b))
        return product(a, b)

    monkeypatch.setattr(exprat, "_product", counting)
    good_rep, bad_rep = verify_config(m, cfg), verify_config(m, bad)
    witnesses = residual(m, bad, m.equations)
    monkeypatch.setattr(exprat, "_product", product)
    assert not pair_loops
    assert good_rep.passed and not bad_rep.passed
    for eq, check, got in zip(m.equations, bad_rep.checks, witnesses):
        rat = bad[eq.lhs].deriv(*eq.d_index, W)
        for coef, a, b in eq.rhs:
            rat = rat - bad[a] * bad[b] * coef
        assert got == rat.num
        assert check.passed is got.is_zero()


@pytest.mark.parametrize("name", ["A2", "G2"])
@pytest.mark.parametrize("mode", ["exact", "numeric"])
def test_a_model_of_another_algebra_is_refused(name, mode):
    # A2's equations are among B2's, so an A2 model once passed a B2 seed
    # as an "A2 configuration"; a G2 model failed on a missing field.
    cfg = initial_config(model("B2"), spectral_data(W, P2, Q2))
    with pytest.raises(ValueError, match=f"{name} model does not match a B2 configuration"):
        verify_config(model(name), cfg, mode)
    with pytest.raises(ValueError, match=f"{name} model does not match a B2 configuration"):
        residual(model(name), cfg, model(name).equations[:1])


def test_numeric_verify_of_g2_judges_on_integers_and_sums_each_polynomial_once_per_point(
        monkeypatch):
    # The judge reads the evaluator's integer sums: no exponential is
    # computed while judging, and the one number rounded is the largest
    # residual that the detail prints.  The ten nonzero fields of a G2 tau
    # solution share one denominator, tau, also as equal copies after a
    # round trip through a document; it is summed once per grid point, as is
    # each distinct numerator, not once per field.
    m = model("G2")
    cfg = solution_from_tau(m, spectral_data(W, P2, Q4), 1, 1)
    judge, at, round_ratio = verify._judge, exprat._Sums.at, exprat.round_ratio
    rounded = []

    def forbidden(*args, **kwargs):
        raise AssertionError("an exponential while judging")

    def counting_round(*args):
        rounded.append(args)
        return round_ratio(*args)

    def plain_judge(points):
        with monkeypatch.context() as patch:
            patch.setattr(exprat, "_exp", forbidden)
            patch.setattr(exprat, "round_ratio", counting_round)
            del rounded[:]
            verdict = judge(points)
            assert len(rounded) == 1
            return verdict

    for c in (cfg, config_from_doc(config_to_doc(cfg))):
        live = [u for u in c.fields.values() if not u.is_zero()]
        assert len(live) == 10 and len({u.den for u in live}) == 1
        calls = Counter()

        def counting_at(sums, *args):
            calls[sums] += 1
            return at(sums, *args)

        with monkeypatch.context() as patch:
            patch.setattr(verify, "_judge", plain_judge)
            patch.setattr(exprat._Sums, "at", counting_at)
            rep = verify_config(m, c, "numeric")
        assert rep.passed
        assert all("over 9 points" in check.detail for check in rep.checks)
        assert len(calls) == len({u.num for u in live}) + 1
        assert set(calls.values()) == {len(GRID)}


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
    # operands, one per (operand, root): the 10 numerators and tau along the
    # 5 roots whose fields are not both zero (f+1.3's numerator is one term,
    # divided by tau's least term, so D along its root does not kill it).
    # That is 11 + 15, where a pass per equation converts 82 (packing every
    # sum) over 12 common denominators.
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
    assert len(weighted) == 15


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
    # own, below the configuration's: the witness is the residual
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
    assert rep.witness == r


@pytest.mark.parametrize("name", ["img_B2_T2A2_P2Q2", "img_B2_TM_P2Q2"])
def test_a_witness_over_a_smaller_denominator_takes_its_own_kernel_run(monkeypatch, name):
    # The first failing equation's fields have fewer atoms than the
    # configuration's, so exact mode forms its witness by a second
    # residual call, over that equation's own denominator.
    path = Path(__file__).resolve().parent.parent / "bench" / "data" / "configs" / f"{name}.json"
    cfg = config_from_doc(json.loads(path.read_text()))
    key = (MINUS, (1, 0))
    bad = cfg.with_fields({key: cfg[key] * 2})
    m = model("B2")
    calls = _counted_sums(monkeypatch)
    rep = verify_config(m, bad)
    assert calls == [2]
    eq = next(eq for eq, c in zip(m.equations, rep.checks) if not c.passed)
    assert rep.witness == residual(m, bad, [eq])[0]
