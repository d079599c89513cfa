"""Uniform verification driver: exact or numeric residual checks, one report.

Every identity family in the package funnels through here: per-equation
residuals of a configuration, and ``CLAIMS``, the one table of the theory's
claims by name (tau solutions and map images that solve their systems,
which ``SOLUTIONS`` lists, map identities, determinant chains, the
closed-form recursions, and group recombination).  A suite in ``SUITES``
is a tuple of claim names; ``verify_claims`` runs any list of them.
Reports are plain data (dicts of strings, bools and lists), deterministic
for identical inputs, and carry at most one rendered counterexample.

This module judges; it does not evaluate.  Numeric mode takes its numbers
from ``exprat.grid_values``, the package's one numeric evaluator (which
``nwave sample`` and ``ExpRational.eval`` use too), and applies the
tolerance rule to them.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from mpmath import libmp

from .exprat import (
    EVAL_PRECISION, _RND, _ZERO_FIELD, ExpPoly, ExpRational, _mpf, grid_values, wave_constants,
)
from .spectral import SpectralData, initial_config, spectral_data, wave_exponent
from .tau import TauZero, check_gra, solution_from_tau, tau_U
from .toda import ab_closed, ab_init, ab_step, hankel_chain, toda_residual
from .transforms import apply, apply_chain
from .wavesys import AlgebraModel, FieldConfig, MINUS, PLUS, field_label, model, residual

REL_TOL = 1e-9
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
    detail.  Any other point fails when |value| > REL_TOL * scale, and the
    first failing point ends the check.  The scale is the mass before
    cancellation, so the bound is relative at every size; it is 0 only
    when every part is 0.  A check with no point left to judge fails.
    """
    poles = []
    worst = libmp.fzero
    checked = 0
    for t, x, v, scale in points:
        if v is None:
            poles.append(f"({t},{x})")
            continue
        v = libmp.mpf_abs(v)
        tol = libmp.mpf_mul(_TOL, scale)
        if libmp.mpf_gt(v, tol):
            return False, f"|residual| = {_sci(v)} > {_sci(tol)} at (t={t}, x={x})"
        if libmp.mpf_gt(v, worst):
            worst = v
        checked += 1
    if not checked:
        return False, "no grid point judged; poles at " + ", ".join(poles)
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

    Exact mode decides each equation by cancellation of its cleared
    numerator, all of them from one residual pass.  Numeric
    mode never builds a residual to judge: it evaluates each field with
    exprat.grid_values on the fixed 9-point rational grid GRID_T x GRID_X
    (numerator, denominator and the equation's D_{i,j} of the left-hand
    field) and forms D f_lhs - sum c*f_a*f_b from those numbers.  A point
    fails when |residual| exceeds REL_TOL times the pre-cancellation scale
    mass(D f_lhs) + sum |c|*mass(f_a)*mass(f_b), where a field's mass is
    the sum of its absolute term values over |its denominator|.  Points
    where the evaluator finds a denominator vanishing to working precision
    (|value| below its mass times 2**-POLE_BITS) are skipped and recorded
    rather than aborting.  In either mode the report's counterexample is
    the first failing equation's own residual, residual(m, cfg, [eq]),
    over the least common denominator of that equation's fields.
    """
    if mode not in ("exact", "numeric"):
        raise ValueError(f"unknown mode {mode!r} (expected 'exact' or 'numeric')")
    if mode == "exact":
        verdicts = [(True, "") if r.is_zero() else (False, "residual numerator nonzero")
                    for r in residual(m, cfg, m.equations)]
    else:
        points = list(grid_values(cfg.fields, GRID_T, GRID_X, cfg.constants,
                                  {eq.lhs: eq.d_index for eq in m.equations}))
        verdicts = [_judge(_equation_points(eq, points)) for eq in m.equations]
    rep = Report(title=f"{m.name} configuration", mode=mode)
    for eq, (ok, detail) in zip(m.equations, verdicts):
        rep.add(_eq_name(eq), ok, detail,
                witness=None if ok or rep.counterexample is not None
                else residual(m, cfg, [eq])[0])
    return rep


# -- the claims table ---------------------------------------------------------------
#
# Each theory claim is written once, by name, on frozen spectral data.  A
# solution claim yields (check name, model, configuration or TauZero); any
# other claim adds its own checks to a report.

_W = wave_constants("1", "1/2", "1/3", "1")
_P1 = (("5", "1"),)
_P2 = (("2", "1"), ("-1", "1/2"))
_Q2 = (("1", "1"), ("1/2", "2"))
_Q4 = _Q2 + (("-3", "1/3"), ("3", "-1"))
_Q5 = _Q2 + (("-3", "1/3"), ("2", "-1"), ("1/4", "1/2"))
_Q6 = _Q5 + (("-1", "3"),)


def _solution_checks(solutions, rep: Report) -> None:
    """Prove a solution claim: one check per configuration, its exact verdict,
    or a failure quoting the TauZero that interrupted its construction."""
    for name, m, cfg in solutions():
        if isinstance(cfg, TauZero):
            rep.add(name, False, f"TauZero: {cfg}")
            continue
        sub = verify_config(m, cfg)
        bad = [c.name for c in sub.checks if not c.passed]
        rep.add(name, not bad, "" if not bad else "nonzero: " + ", ".join(bad))
        if rep.counterexample is None:
            rep.counterexample = sub.counterexample


def _tau_solutions(algebra: str, q, orders, label: str = "tau({},{}) residual-zero"):
    """The tau solution of each order on 2P spikes and ``q``, or the TauZero
    that interrupted its construction."""
    m = model(algebra)
    s = spectral_data(_W, _P2, q)
    for n1, n2 in orders:
        try:
            cfg = solution_from_tau(m, s, n1, n2)
        except TauZero as e:
            cfg = e
        yield label.format(n1, n2), m, cfg


def _invariance(algebra: str, tids, seed_tids=(), more=()):
    """Map images of tau solutions on 2P spikes: each map's image of the
    order-(1,1) solution on 2P+2Q spikes, then of the 2P+2Q seed, then each
    case in ``more``, (check name, map ids in order, Q spikes, order).  Each
    solution is built once."""
    m = model(algebra)
    cases = [(f"{t} invariance", (t,), _Q2, (1, 1)) for t in tids]
    cases += [(f"{t} image of the seed", (t,), _Q2, (0, 0)) for t in seed_tids]
    sols = {}
    for name, chain, q, order in cases + list(more):
        if (q, order) not in sols:
            sols[q, order] = solution_from_tau(m, spectral_data(_W, _P2, q), *order)
        yield name, m, apply_chain(chain, sols[q, order])


#: The solution claims by name.
SOLUTIONS = {
    "a2-tau-grid": lambda: _tau_solutions("A2", _Q2, itertools.product(range(3), repeat=2)),
    "a2-invariance": lambda: _invariance("A2", ("A2_T1", "A2_T2", "A2_T3")),
    "b2-tau-grid": lambda: _tau_solutions("B2", _Q4, itertools.product(range(2), repeat=2)),
    "b2-invariance": lambda: _invariance(
        "B2", ("B2_TM", "B2_T10", "B2_T10_INV", "B2_T2A2"), ("B2_TM", "B2_T10", "B2_T2A2")),
    "g2-orders": lambda: _tau_solutions(
        "G2", _Q4, ((0, 0), (1, 0), (0, 1), (1, 1)), "order ({},{})"),
    "g2-invariance": lambda: _invariance("G2", ("G2_T1", "G2_TA1_3A2"), ("G2_TA1_3A2",), [
        ("G2_T1 image of tau(1,0)", ("G2_T1",), _Q2, (1, 0)),
        ("G2_T1 image of G2_TA1_3A2 of the 2P+1Q seed", ("G2_TA1_3A2", "G2_T1"),
         _Q2[:1], (0, 0)),
    ]),
}


def _a2_interruption(rep: Report) -> None:
    m = model("A2")
    s = spectral_data(_W, _P2, _Q2)
    top = solution_from_tau(m, s, 2, 2)
    minus_dead = all(top[(MINUS, r)].is_zero() for r in m.roots)
    rep.add("chain interruption: f^- vanish at (2,2)", minus_dead)
    try:
        solution_from_tau(m, s, 3, 2)
        rep.add("chain interruption: TauZero past (2,2)", False, "no TauZero raised")
    except TauZero:
        rep.add("chain interruption: TauZero past (2,2)", True)


def _a2_composition(rep: Report) -> None:
    seed = initial_config(model("A2"), spectral_data(_W, _P2, _Q2))
    c12 = apply_chain(["A2_T1", "A2_T2"], seed)
    rep.add("composition order immaterial",
            c12 == apply_chain(["A2_T2", "A2_T1"], seed) and c12 == apply("A2_T3", seed))


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


def _b2_maps(rep: Report) -> None:
    """The B2 maps invert each other, factor, and keep their zero patterns."""
    m = model("B2")
    g = _generic_config(_W)
    rep.add("T10 roundtrip identity on arbitrary fields",
            apply_chain(["B2_T10", "B2_T10_INV"], g) == g
            and apply_chain(["B2_T10_INV", "B2_T10"], g) == g)
    sol = apply("B2_T10", _const_solution(_W))
    rep.add("second-root map factors through TM and T10^-1",
            apply("B2_T2A2", sol) == apply_chain(["B2_T10_INV", "B2_TM"], sol))
    t10 = apply("B2_T10", initial_config(m, spectral_data(_W, _P2, _Q4)))
    rep.add("T10 preserves the plus-sector zero pattern",
            all(t10[(PLUS, r)].is_zero() for r in ((0, 1), (1, 1), (1, 2))))
    s = spectral_data(_W, _P2, _Q2)
    t2a2 = apply("B2_T2A2", initial_config(m, s))
    rep.add("second-root map steps the seed to the first tau solution",
            t2a2 == solution_from_tau(m, s, 0, 1))
    rep.add("second-root image switches on f^+_{0.1} only",
            all(t2a2[(PLUS, r)].is_zero() for r in ((1, 0), (1, 1), (1, 2)))
            and not t2a2[(PLUS, (0, 1))].is_zero())


def _toda(rep: Report) -> None:
    s = spectral_data(_W, _P1, _Q5)
    ch = hankel_chain(s)
    rep.add(
        "Det_n equals single-group subset sum (n <= 4)",
        all(ch.det(n) == tau_U(s, 0, n) for n in range(5)),
    )
    for n in range(1, 5):
        r = toda_residual(ch, n)
        rep.add(f"Toda relation at n={n}", r.is_zero(),
                witness=None if r.is_zero() else r.num)


def _tuple_literal(s: SpectralData, npts: int, weight_fn, scale: Fraction) -> ExpPoly:
    terms: Dict[Tuple[Fraction, Fraction], Fraction] = {}
    for p in s.pspikes:
        for tup in itertools.product(s.qspikes, repeat=npts):
            mus = [q.pos for q in tup]
            coef = p.weight * weight_fn(mus) * scale
            for q in tup:
                coef *= q.weight / (p.pos - q.pos)
            if not coef:
                continue
            key = wave_exponent(p.pos, sum(mus), s.constants)
            terms[key] = terms.get(key, Fraction(0)) + coef
    return ExpPoly(terms)


def _ab_chain(rep: Report) -> None:
    s = spectral_data(_W, _P1, _Q6)
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


def _gra(rep: Report) -> None:
    s = spectral_data(_W, _P2, _Q4)
    for n in (0, 1):
        rep.add(f"group recombination at n={n}", check_gra(s, n))


#: Every claim by name: a function that adds the claim's checks to a report.
CLAIMS: Dict[str, Callable[[Report], None]] = {
    **{name: functools.partial(_solution_checks, sols) for name, sols in SOLUTIONS.items()},
    "a2-interruption": _a2_interruption,
    "a2-composition": _a2_composition,
    "b2-maps": _b2_maps,
    "toda": _toda,
    "ab-chain": _ab_chain,
    "gra": _gra,
}

#: Each suite's claims, in the order its report lists them.
SUITES = {
    "a2-full": ("a2-tau-grid", "a2-interruption", "a2-composition", "a2-invariance"),
    "b2-full": ("b2-tau-grid", "b2-invariance", "b2-maps"),
    "g2-full": ("g2-orders", "g2-invariance"),
    **{name: (name,) for name in ("toda", "ab-chain", "gra")},
}


def verify_claims(title: str, names) -> Report:
    """Exact report of the named claims, run in the given order."""
    rep = Report(title=title, mode="exact")
    for name in names:
        CLAIMS[name](rep)
    return rep


def verify_suite(name: str) -> Report:
    """Run one named suite: its claims, under the title ``suite NAME``."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r} (expected one of {', '.join(SUITES)})")
    return verify_claims(f"suite {name}", SUITES[name])
