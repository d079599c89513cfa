"""Uniform verification driver: exact or numeric residual checks, one report.

Every identity family in the package funnels through here: per-equation
residuals of a configuration, transformation invariance, determinant chains,
the closed-form recursions, and the group-recombination identity.  Reports
are plain data (dicts of strings, bools and lists), deterministic for
identical inputs, and carry at most one rendered counterexample.

This module judges; it does not evaluate.  Numeric mode takes its numbers
from ``exprat.grid_values``, the package's one numeric evaluator (which
``nwave sample`` and ``ExpRational.eval`` use too), and applies the
tolerance rule to them.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from mpmath import libmp

from .exprat import (
    EVAL_PRECISION, _RND, _ZERO_FIELD, ExpPoly, ExpRational, _mpf, grid_values, wave_constants,
)
from .spectral import SpectralData, initial_config, spectral_data, wave_exponent
from .tau import TauZero, check_gra, solution_from_tau, tau_U
from .toda import ab_closed, ab_init, ab_step, det_n, hankel_chain, toda_residual
from .transforms import apply, apply_chain
from .wavesys import AlgebraModel, FieldConfig, MINUS, PLUS, field_label, model, residual

REL_TOL = 1e-9
MASS_FLOOR = 1e-12
#: Rational evaluation grid shared by every numeric check: GRID_T x GRID_X.
GRID_T = (Fraction(-1), Fraction(0), Fraction(1, 2))
GRID_X = (Fraction(-1, 3), Fraction(0), Fraction(1))
GRID: Tuple[Tuple[Fraction, Fraction], ...] = tuple(itertools.product(GRID_T, GRID_X))

@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class Report:
    title: str
    mode: str
    checks: List[Check] = field(default_factory=list)
    counterexample: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "",
            witness: Optional[ExpPoly] = None):
        self.checks.append(Check(name, passed, detail))
        if not passed and self.counterexample is None and witness is not None:
            self.counterexample = render_poly(witness)

    def as_dict(self) -> dict:
        failed = sum(1 for c in self.checks if not c.passed)
        return {
            "schema": 1,
            "title": self.title,
            "mode": self.mode,
            "pass": self.passed,
            "counts": {"total": len(self.checks), "failed": failed},
            "checks": [
                {"name": c.name, "pass": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "counterexample": self.counterexample,
        }


def render_poly(p: ExpPoly) -> dict:
    """Readable identity of an offending value: top terms plus a full hash.

    The 20 largest-|coefficient| terms are listed; the sha256 digest of the
    canonical (exponent-sorted) serialization pins down the complete value.
    """
    items = p.sorted_terms()
    canon = ";".join(f"{a},{b}:{c}" for (a, b), c in items)
    by_size = sorted(items, key=lambda kv: (-abs(kv[1]), kv[0]))
    return {
        "n_terms": len(items),
        "truncated": len(items) > 20,
        "terms": [
            {"a": str(a), "b": str(b), "coef": str(c)} for (a, b), c in by_size[:20]
        ],
        "sha256": hashlib.sha256(canon.encode()).hexdigest(),
    }


# -- configuration verification ---------------------------------------------------


def _eq_name(eq) -> str:
    i, j = eq.d_index
    return f"D({i},{j}) {field_label(eq.lhs)}"


# -- numeric grid checks ----------------------------------------------------------
#
# Values come from exprat.grid_values as raw mpmath.libmp values; the
# tolerance is one too, so no value or tolerance can overflow.

_TOL = libmp.from_float(REL_TOL)
_FLOOR = libmp.from_float(MASS_FLOOR)


def _sci(v) -> str:
    """``'%.3e'`` text of a libmp value, without float's range limit."""
    if not v[1]:
        return "0.000e+00"
    s = libmp.to_str(v, 4, strip_zeros=False, min_fixed=1, max_fixed=0,
                     show_zero_exponent=True)
    mant, _, exp = s.partition("e")
    return f"{mant}e{int(exp):+03d}"


def _judge(points) -> Tuple[bool, str]:
    """Numeric verdict and detail from (t, x, value, scale) at each grid point.

    A point whose value is None is a pole: it is skipped and named in the
    detail.  Any other point fails when |value| > REL_TOL * max(scale,
    MASS_FLOOR), and the first failing point ends the check.
    """
    poles = []
    worst = libmp.fzero
    checked = 0
    for t, x, v, scale in points:
        if v is None:
            poles.append(f"({t},{x})")
            continue
        v = libmp.mpf_abs(v)
        tol = libmp.mpf_mul(_TOL, scale if libmp.mpf_gt(scale, _FLOOR) else _FLOOR)
        if libmp.mpf_gt(v, tol):
            return False, f"|residual| = {_sci(v)} > {_sci(tol)} at (t={t}, x={x})"
        if libmp.mpf_gt(v, worst):
            worst = v
        checked += 1
    detail = f"max |residual| {_sci(worst)} over {checked} points"
    if poles:
        detail += "; poles skipped at " + ", ".join(poles)
    return True, detail


def _equation_points(eq, points):
    """(t, x, residual, scale) of one equation at every grid point.

    ``points`` are the grid_values of the configuration.  The residual is
    D f_lhs - sum c*f_a*f_b and its scale is mass(D f_lhs) +
    sum |c|*mass(f_a)*mass(f_b).  The point is a pole (residual None) when
    the left-hand field, or a factor of a product whose other factor is not
    identically zero, has a pole there.
    """
    coefs = [(_mpf(-c), _mpf(abs(c))) for c, _, _ in eq.rhs]

    def at(vals):
        lhs = vals.get(eq.lhs, _ZERO_FIELD)
        if lhs is None:
            return None, None
        parts, masses = [lhs[2]], [lhs[3]]
        for (neg_c, abs_c), (_, a, b) in zip(coefs, eq.rhs):
            fa, fb = vals.get(a, _ZERO_FIELD), vals.get(b, _ZERO_FIELD)
            if fa is _ZERO_FIELD or fb is _ZERO_FIELD:
                continue
            if fa is None or fb is None:
                return None, None
            parts.append(libmp.mpf_mul(neg_c, libmp.mpf_mul(fa[0], fb[0])))
            masses.append(libmp.mpf_mul(abs_c, libmp.mpf_mul(fa[1], fb[1])))
        return (libmp.mpf_sum(parts, EVAL_PRECISION, _RND),
                libmp.mpf_sum(masses, EVAL_PRECISION, _RND))

    for t, x, vals in points:
        yield (t, x) + at(vals)


def verify_config(m: AlgebraModel, cfg: FieldConfig, mode: str = "exact") -> Report:
    """Per-equation residual verdicts for one configuration.

    Exact mode decides by cancellation of the cleared numerator.  Numeric
    mode never builds a residual: it evaluates each field with
    exprat.grid_values on the fixed 9-point rational grid GRID_T x GRID_X
    (numerator, denominator and the equation's D_{i,j} of the left-hand
    field) and forms D f_lhs - sum c*f_a*f_b from those numbers.  A point
    fails when |residual| exceeds REL_TOL times the pre-cancellation scale
    mass(D f_lhs) + sum |c|*mass(f_a)*mass(f_b), where a field's mass is
    the sum of its absolute term values over |its denominator|.  Points
    where the evaluator finds a denominator vanishing to working precision
    (|value| below its mass times 2**-POLE_BITS) are skipped and recorded
    rather than aborting.  Only the first failing equation has its exact
    residual built, as the report's counterexample.
    """
    if mode not in ("exact", "numeric"):
        raise ValueError(f"unknown mode {mode!r} (expected 'exact' or 'numeric')")
    rep = Report(title=f"{m.name} configuration", mode=mode)
    if mode == "exact":
        for eq in m.equations:
            r = residual(m, cfg, eq)
            ok = r.is_zero()
            rep.add(_eq_name(eq), ok, "" if ok else "residual numerator nonzero",
                    witness=None if ok else r)
        return rep
    points = list(grid_values(cfg.fields, GRID_T, GRID_X, cfg.constants,
                              {eq.lhs: eq.d_index for eq in m.equations}))
    for eq in m.equations:
        ok, detail = _judge(_equation_points(eq, points))
        rep.add(_eq_name(eq), ok, detail,
                witness=None if ok or rep.counterexample is not None else residual(m, cfg, eq))
    return rep


def _solution_checks(rep: Report, name: str, m: AlgebraModel, cfg: FieldConfig) -> None:
    """One check named ``name``: the exact verify_config verdict of ``cfg``."""
    sub = verify_config(m, cfg)
    bad = [c.name for c in sub.checks if not c.passed]
    rep.add(name, not bad, "" if not bad else "nonzero: " + ", ".join(bad))
    if rep.counterexample is None:
        rep.counterexample = sub.counterexample


# -- verification suites ------------------------------------------------------------

_DEF_C = ("1", "1/2")
_DEF_D = ("1/3", "1")
_DEF_P2 = (("2", "1"), ("-1", "1/2"))
_DEF_Q2 = (("1", "1"), ("1/2", "2"))
_DEF_Q4 = _DEF_Q2 + (("-3", "1/3"), ("3", "-1"))
_DEF_P1 = (("5", "1"),)
_DEF_Q5 = _DEF_Q2 + (("-3", "1/3"), ("2", "-1"), ("1/4", "1/2"))
_DEF_Q6 = _DEF_Q5 + (("-1", "3"),)


def _suite_data(params: Optional[dict], pdef, qdef) -> SpectralData:
    params = params or {}
    w = wave_constants(*(tuple(params.get("c", _DEF_C)) + tuple(params.get("d", _DEF_D))))
    return spectral_data(w, list(params.get("P", pdef)), list(params.get("Q", qdef)))


def _suite_a2(rep: Report, params) -> None:
    m = model("A2")
    s = _suite_data(params, _DEF_P2, _DEF_Q2)
    for n1 in range(3):
        for n2 in range(3):
            _solution_checks(
                rep, f"tau({n1},{n2}) residual-zero", m, solution_from_tau(m, s, n1, n2)
            )
    top = solution_from_tau(m, s, 2, 2)
    minus_dead = all(top[(MINUS, r)].is_zero() for r in m.roots)
    rep.add("chain interruption: f^- vanish at (2,2)", minus_dead)
    try:
        solution_from_tau(m, s, 3, 2)
        rep.add("chain interruption: TauZero past (2,2)", False, "no TauZero raised")
    except TauZero:
        rep.add("chain interruption: TauZero past (2,2)", True)
    seed = initial_config(m, s)
    c12 = apply_chain(["A2_T1", "A2_T2"], seed)
    rep.add(
        "composition order immaterial",
        c12 == apply_chain(["A2_T2", "A2_T1"], seed) and c12 == apply("A2_T3", seed),
    )
    gen = solution_from_tau(m, s, 1, 1)
    for tid in ("A2_T1", "A2_T2", "A2_T3"):
        _solution_checks(rep, f"{tid} invariance", m, apply(tid, gen))


def _generic_config(w) -> FieldConfig:
    """Arbitrary two-term fields, off the solution set, every pivot alive."""
    m = model("B2")
    specs = (2, 3, 5, 7, 11, 13, 17, 19)
    data = {}
    for k, (key, c) in enumerate(zip(m.field_keys, specs)):
        num = ExpPoly.const(c) + ExpPoly.term(
            Fraction(1 + k % 3), Fraction(k - 3, 2), Fraction(4 - k, 3)
        )
        data[key] = ExpRational(num, ExpPoly.const(1))
    return FieldConfig("B2", w, data)


def _const_solution(w) -> FieldConfig:
    """Constants with f^-_{0.1} = 0 and f^+ = 0 solve every B2 equation
    (each surviving product has a vanishing factor), and the first-root
    map turns on f^+_{1.0}, so both factor maps apply to its image."""
    m = model("B2")
    data = {k: ExpRational.zero() for k in m.field_keys}
    for r, c in zip(((1, 0), (1, 1), (1, 2)), (2, 3, 5)):
        data[(MINUS, r)] = ExpRational.const(c)
    return FieldConfig("B2", w, data)


def _suite_b2(rep: Report, params) -> None:
    m = model("B2")
    s = _suite_data(params, _DEF_P2, _DEF_Q4)
    for n1 in range(2):
        for n2 in range(2):
            _solution_checks(
                rep, f"tau({n1},{n2}) residual-zero", m, solution_from_tau(m, s, n1, n2)
            )
    small = spectral_data(s.constants, list(_DEF_P2), list(_DEF_Q2))
    gen = solution_from_tau(m, small, 1, 1)
    for tid in ("B2_TM", "B2_T10", "B2_T10_INV"):
        _solution_checks(rep, f"{tid} invariance", m, apply(tid, gen))
    g = _generic_config(s.constants)
    rep.add(
        "T10 roundtrip identity on arbitrary fields",
        apply_chain(["B2_T10", "B2_T10_INV"], g) == g
        and apply_chain(["B2_T10_INV", "B2_T10"], g) == g,
    )
    sol = apply("B2_T10", _const_solution(s.constants))
    rep.add(
        "second-root map factors through TM and T10^-1",
        apply("B2_T2A2", sol) == apply_chain(["B2_T10_INV", "B2_TM"], sol),
    )
    seed = initial_config(m, s)
    t10 = apply("B2_T10", seed)
    rep.add(
        "T10 preserves the plus-sector zero pattern",
        all(t10[(PLUS, r)].is_zero() for r in ((0, 1), (1, 1), (1, 2))),
    )
    sseed = initial_config(m, small)
    t2a2 = apply("B2_T2A2", sseed)
    rep.add(
        "second-root map steps the seed to the first tau solution",
        t2a2 == solution_from_tau(m, small, 0, 1),
    )
    rep.add(
        "second-root image switches on f^+_{0.1} only",
        all(t2a2[(PLUS, r)].is_zero() for r in ((1, 0), (1, 1), (1, 2)))
        and not t2a2[(PLUS, (0, 1))].is_zero(),
    )


def _suite_g2(rep: Report, params) -> None:
    m = model("G2")
    s = _suite_data(params, _DEF_P2, _DEF_Q4)
    for n1, n2 in ((0, 0), (1, 0), (0, 1), (1, 1)):
        try:
            cfg = solution_from_tau(m, s, n1, n2)
        except TauZero as e:
            rep.add(f"order ({n1},{n2})", False, f"TauZero: {e}")
            continue
        _solution_checks(rep, f"order ({n1},{n2})", m, cfg)


def _suite_toda(rep: Report, params) -> None:
    s = _suite_data(params, _DEF_P1, _DEF_Q5)
    ch = hankel_chain(s)
    rep.add(
        "Det_n equals single-group subset sum (n <= 4)",
        all(det_n(ch, n) == tau_U(s, 0, n) for n in range(5)),
    )
    for n in range(1, 5):
        r = toda_residual(ch, n)
        rep.add(f"Toda relation at n={n}", r.is_zero(),
                witness=None if r.is_zero() else r.num)


def _tuple_literal(s: SpectralData, npts: int, weight_fn, scale: Fraction) -> ExpPoly:
    P = [(sp.pos, sp.weight) for sp in s.pspikes]
    Q = [(sp.pos, sp.weight) for sp in s.qspikes]
    terms: Dict[Tuple[Fraction, Fraction], Fraction] = {}
    for lam, wl in P:
        for tup in itertools.product(Q, repeat=npts):
            mus = [mu for mu, _ in tup]
            coef = wl * weight_fn(mus) * scale
            for mu, v in tup:
                coef *= v / (lam - mu)
            if not coef:
                continue
            key = wave_exponent(lam, sum(mus), s.constants)
            terms[key] = terms.get(key, Fraction(0)) + coef
    return ExpPoly(terms)


def _suite_ab_chain(rep: Report, params) -> None:
    s = _suite_data(params, _DEF_P1, _DEF_Q6)
    ch = hankel_chain(s)
    c0 = ab_init(s)
    a0, b0 = ab_closed(s, 0)
    rep.add("level 0 pair equals closed form", c0.A == a0 and c0.B == b0)
    c1 = ab_step(c0, ch)
    a1, b1 = ab_closed(s, 1)
    rep.add("first step meets closed form", c1.A == a1 and c1.B == b1)
    lit_a1 = _tuple_literal(s, 3, lambda mu: (mu[0] - mu[2]) ** 2, Fraction(1, 2))
    lit_b1 = _tuple_literal(
        s, 4, lambda mu: (mu[0] - mu[3]) ** 2 * (mu[1] - mu[2]) ** 2, Fraction(1, 4)
    )
    rep.add("first step meets the ordered-tuple literals", c1.A == lit_a1 and c1.B == lit_b1)
    c2 = ab_step(c1, ch)
    a2, b2 = ab_closed(s, 2)
    rep.add("second step meets closed form", c2.A == a2 and c2.B == b2)


def _suite_gra(rep: Report, params) -> None:
    s = _suite_data(params, _DEF_P2, _DEF_Q4)
    for n in (0, 1):
        rep.add(f"group recombination at n={n}", check_gra(s, n))


_SUITE_FNS = {
    "a2-full": _suite_a2,
    "b2-full": _suite_b2,
    "g2-hypothesis": _suite_g2,
    "toda": _suite_toda,
    "ab-chain": _suite_ab_chain,
    "gra": _suite_gra,
}
SUITES = tuple(_SUITE_FNS)


def verify_suite(name: str, params: Optional[dict] = None) -> Report:
    """Run one named identity suite and aggregate a deterministic report."""
    if name not in _SUITE_FNS:
        raise ValueError(f"unknown suite {name!r} (expected one of {', '.join(SUITES)})")
    rep = Report(title=f"suite {name}", mode="exact")
    _SUITE_FNS[name](rep, params)
    return rep
