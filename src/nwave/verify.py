"""Uniform verification driver: exact or numeric residual checks, one report.

Every identity family in the package funnels through here: per-equation
residuals of a configuration, and ``CLAIMS``, the one table of the theory's
claims by name (tau solutions and map images that solve their systems,
which ``SOLUTIONS`` lists, map identities, determinant chains, the
closed-form recursions, and group recombination).  A suite in ``SUITES``
is a tuple of claim names; ``verify_claims`` runs any list of them.
A report keeps its first failing check's witness as a value and renders
it only in ``Report.as_dict``, which gives the report as plain data (dicts
of strings, bools and lists), deterministic for identical inputs.

This module judges; it does not evaluate.  Numeric mode takes its numbers
from ``exprat.grid_values``, the package's one numeric evaluator, as exact
integers, and applies the tolerance rule to them exactly; it rounds only
the numbers a detail prints, each once, with ``exprat.ratio_text``.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from .exprat import (EVAL_PRECISION, ExpPoly, ExpRational, InexactDivision, grid_values,
                     ratio_text, term_texts, wave_constants)
from .spectral import SpectralData, initial_config, spectral_data, wave_exponent
from .tau import TauZero, check_gra, solution_from_tau, tau_U
from .toda import (ab_closed, ab_init, ab_recursion_holds, ab_step, det_bareiss,
                   first_root_chain, hankel_chain, toda_residual)
from .transforms import PivotZero, apply, apply_chain
from .wavesys import (AlgebraModel, EquationSpec, FieldConfig, MINUS, PLUS, field_label, model,
                      residual, residual_atoms)

REL_TOL = 1e-9
#: Rational evaluation grid shared by every numeric check: GRID_T x GRID_X.
GRID_T = (Fraction(-1), Fraction(0), Fraction(1, 2))
GRID_X = (Fraction(-1, 3), Fraction(0), Fraction(1))

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
    witness: Optional[ExpPoly] = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "",
            witness: Optional[ExpPoly] = None):
        self.checks.append(Check(name, passed, detail))
        if not passed and self.witness is None:
            self.witness = witness

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
            "counterexample": None if self.witness is None else render_poly(self.witness),
        }


def render_poly(p: ExpPoly) -> dict:
    """Readable identity of an offending value: top terms plus a full hash.

    The 20 largest-|coefficient| terms (by |n|, as each is n times one
    content; ties in exponent order) are listed; the sha256 digest of the
    canonical (exponent-sorted) serialization pins down the complete value.
    """
    items = term_texts(p)
    canon = ";".join(f"{a},{b}:{c}" for (a, b), c in items)
    ns = [n for _, n in sorted(p.lattice()[1].items())]  # in the order of items
    by_size = [t for _, t in sorted(zip(ns, items), key=lambda nt: -abs(nt[0]))]
    return {
        "n_terms": len(items),
        "truncated": len(items) > 20,
        "terms": [
            {"a": a, "b": b, "coef": c} for (a, b), c in by_size[:20]
        ],
        "sha256": hashlib.sha256(canon.encode()).hexdigest(),
    }


# -- configuration verification ---------------------------------------------------


def _eq_name(eq) -> str:
    i, j = eq.d_index
    return f"D({i},{j}) {field_label(eq.lhs)}"


# -- numeric grid checks ----------------------------------------------------------
#
# Values come from exprat.grid_values as exact integers, so each equation's
# residual and scale are integer sums over one denominator and one power of
# two, and the tolerance rule is decided on them exactly; only the numbers a
# detail prints are rounded, each once.

#: REL_TOL as the binary fraction the float holds: _TOL_NUM / _TOL_DEN, a power of two below.
_TOL_NUM, _TOL_DEN = REL_TOL.as_integer_ratio()


def _exceeds(a, b) -> bool:
    """Whether p/q * 2**e of a = (p, q, e) exceeds that of b, both >= 0 with
    q > 0: by their binary magnitudes when these are 2 or more apart, else by
    one exact cross-multiplication."""
    (p1, q1, e1), (p2, q2, e2) = a, b
    if not (p1 and p2):
        return p1 > p2
    # p/q * 2**e lies strictly between 2**(m - 1) and 2**(m + 1) for m = e + bitlen(p) - bitlen(q)
    gap = e1 + p1.bit_length() - q1.bit_length() - (e2 + p2.bit_length() - q2.bit_length())
    if abs(gap) > 1:
        return gap > 0
    x, y = p1 * q2, p2 * q1
    return (x << e1 - e2 if e1 >= e2 else x) > (y << e2 - e1 if e2 > e1 else y)


def _judge(points) -> Tuple[bool, str]:
    """Numeric verdict and detail from (t, x, (R, S, D, E)) at each grid
    point: the residual R/D * 2**E and its scale S/D * 2**E, integers with
    D > 0 (see _equation_points).

    A point given None is a pole: it is skipped and named in the detail.
    Any other point fails when |R| > REL_TOL * S, compared exactly on the
    integers with REL_TOL's binary value, and the first failing point ends
    the check.  The scale is the mass before cancellation, so the bound is
    relative at every size; it is 0 only when every part is 0.  The largest
    |residual| is tracked exactly; only the numbers the detail prints are
    rounded.  A check with no point left to judge fails.
    """
    poles = []
    worst = (0, 1, 0)
    checked = 0
    for t, x, point in points:
        if point is None:
            poles.append(f"({t},{x})")
            continue
        r, s, d, e = point
        r = abs(r)
        if r * _TOL_DEN > _TOL_NUM * s:
            return False, (f"|residual| = {ratio_text(r, d, e, True)} > "
                           f"{ratio_text(_TOL_NUM * s, _TOL_DEN * d, e, True)} at (t={t}, x={x})")
        if _exceeds((r, d, e), worst):
            worst = r, d, e
        checked += 1
    if not checked:
        return False, "no grid point judged; poles at " + ", ".join(poles)
    detail = f"max |residual| {ratio_text(*worst, True)} over {checked} points"
    if poles:
        detail += "; poles skipped at " + ", ".join(poles)
    return True, detail


def _one_fraction(parts) -> Tuple[int, int, int, int]:
    """(R, S, D, E) with R/D * 2**E the sum of r/d * 2**e and S/D * 2**E
    that of s/d * 2**e over the parts (r, s, d, e), where s >= |r| and
    d > 0: D is the product of the kept parts' d and E their least e.

    A part whose s/d * 2**e is below 2**-(4 * EVAL_PRECISION) of the largest
    part's is left out, an error below 2**-(4 * EVAL_PRECISION - 1) of S
    each, so that no integer grows with the spread of the exponents; a part
    with s = 0 is 0.
    """
    parts = [part for part in parts if part[1]]
    if not parts:
        return 0, 0, 1, 0
    # s/d * 2**e lies strictly between 2**(top - 1) and 2**(top + 1)
    tops = [e + s.bit_length() - d.bit_length() for _, s, d, e in parts]
    least = max(tops) - 4 * EVAL_PRECISION
    parts = [part for part, top in zip(parts, tops) if top >= least]
    e0 = min(e for _, _, _, e in parts)
    r0, s0, d0 = 0, 0, 1
    for r, s, d, e in parts:
        r0, s0, d0 = r0 * d + (r << e - e0) * d0, s0 * d + (s << e - e0) * d0, d0 * d
    return r0, s0, d0, e0


def _equation_points(eq, points):
    """(t, x, (R, S, D, E)) of one equation at every grid point, with
    (t, x, None) at a pole.

    ``points`` are the grid_values of the configuration.  The residual
    D f_lhs - sum c*f_a*f_b is R/D * 2**E and its scale mass(D f_lhs) +
    sum |c|*mass(f_a)*mass(f_b) is S/D * 2**E, integer sums over D, the
    product of the terms' denominators (see _one_fraction).  The point is a
    pole when the left-hand field, or a factor of a product whose other
    factor is not identically zero, has a pole there.
    """
    def at(vals):
        parts = []
        if eq.lhs in vals:
            lhs = vals[eq.lhs]
            if lhs is None:
                return None
            parts.append(lhs[3:])
        for c, a, b in eq.rhs:  # c is an integer
            if a not in vals or b not in vals:
                continue
            fa, fb = vals[a], vals[b]
            if fa is None or fb is None:
                return None
            parts.append((-c * fa[0] * fb[0], abs(c) * fa[1] * fb[1], fa[2] * fb[2],
                          fa[6] + fb[6]))
        return _one_fraction(parts)

    for t, x, vals in points:
        yield t, x, at(vals)


def verify_config(m: AlgebraModel, cfg: FieldConfig, mode: str = "exact") -> Report:
    """Per-equation residual verdicts for one configuration.

    Exact mode decides each equation by cancellation of its cleared
    numerator, all of them from one residual pass.  Numeric
    mode never builds a residual to judge: it evaluates each field on the
    fixed 9-point rational grid GRID_T x GRID_X (numerator, denominator and
    the equation's D_{i,j} of the left-hand field), as the exact integers
    exprat.grid_values yields, and forms D f_lhs - sum c*f_a*f_b and its
    pre-cancellation scale mass(D f_lhs) + sum |c|*mass(f_a)*mass(f_b) as
    integer sums over one denominator and one power of two, where a
    field's mass is the sum of its absolute term values over |its
    denominator|.  A point fails when |residual| exceeds REL_TOL times the
    scale, decided exactly on those integers.  Points where the evaluator
    finds a denominator vanishing to working precision (|value| below its
    mass times 2**-POLE_BITS) are skipped and recorded rather than
    aborting.  In either mode the report's witness is
    the first failing equation's own residual, residual(m, cfg, [eq]),
    over the least common denominator of that equation's fields (see
    _witness).  A model of another algebra than the configuration's is
    refused (ValueError).
    """
    cfg.check_model(m)
    if mode not in ("exact", "numeric"):
        raise ValueError(f"unknown mode {mode!r} (expected 'exact' or 'numeric')")
    if mode == "exact":
        sums = residual(m, cfg, m.equations)
        verdicts = [(True, "") if r.is_zero() else (False, "residual numerator nonzero")
                    for r in sums]
    else:
        sums = [None] * len(m.equations)
        points = list(grid_values(cfg.fields, GRID_T, GRID_X, cfg.constants,
                                  {eq.lhs: eq.d_index for eq in m.equations}))
        verdicts = [_judge(_equation_points(eq, points)) for eq in m.equations]
    rep = Report(title=f"{m.name} configuration", mode=mode)
    for eq, r, (ok, detail) in zip(m.equations, sums, verdicts):
        rep.add(_eq_name(eq), ok, detail,
                witness=None if ok or rep.witness is not None else _witness(m, cfg, eq, r))
    return rep


def _witness(m: AlgebraModel, cfg: FieldConfig, eq: EquationSpec,
             formed: Optional[ExpPoly]) -> ExpPoly:
    """residual(m, cfg, [eq])[0], eq's residual over the least common
    denominator of its own fields.  ``formed`` is exact mode's residual of
    eq over that of all of m's equations' fields (None in numeric mode):
    over the same atoms it is that residual, and no second kernel run is
    made."""
    if formed is not None and residual_atoms(cfg, [eq]) == residual_atoms(cfg, m.equations):
        return formed
    return residual(m, cfg, [eq])[0]


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
_Q8 = _Q6 + (("5/2", "1/4"), ("-5/3", "2/3"))
_Q9 = _Q8 + (("7/4", "5"),)
_P4 = (("5", "1"), ("-2", "1/2"), ("4", "1/3"), ("7/2", "2"))


def _solution_checks(solutions, rep: Report) -> None:
    """Prove a solution claim: one check per configuration, its exact verdict,
    or a failure quoting the TauZero that interrupted its construction."""
    for name, m, cfg in solutions():
        if isinstance(cfg, TauZero):
            rep.add(name, False, f"TauZero: {cfg}")
            continue
        sub = verify_config(m, cfg)
        bad = [c.name for c in sub.checks if not c.passed]
        rep.add(name, not bad, "" if not bad else "nonzero: " + ", ".join(bad), sub.witness)


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


def _interruption(algebra: str, rep: Report) -> None:
    """The chain on 2P+2Q spikes ends at (2,2): every f^- vanishes there,
    and orders (3,2) and (2,3) raise TauZero, from solution_from_tau's
    size guard (two spikes have no 3-subset), before any tau is built."""
    (_, m, top), *past = _tau_solutions(algebra, _Q2, ((2, 2), (3, 2), (2, 3)), "({},{})")
    rep.add("chain interruption: f^- vanish at (2,2)", not isinstance(top, TauZero)
            and all(top[(MINUS, r)].is_zero() for r in m.roots))
    alive = [order for order, _, cfg in past if not isinstance(cfg, TauZero)]
    rep.add("chain interruption: TauZero past (2,2)", not alive,
            "no TauZero raised at " + ", ".join(alive) if alive else "")


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


def _chain_step(rep: Report, name: str, build):
    """build(), a chain step; None if the step is refused (InexactDivision,
    PivotZero), after a failing check ``name`` quoting the refusal."""
    try:
        return build()
    except (InexactDivision, PivotZero) as e:
        rep.add(name, False, f"{type(e).__name__}: {e}")
        return None


def _toda(rep: Report) -> None:
    """The Toda chain on P1+9Q to its rank.  Det_n and tau_U(0, n) are one
    subset enumeration (tau._shapes): det_bareiss (n <= 4) and the Toda
    relation are the claim's independent witnesses."""
    s = spectral_data(_W, _P1, _Q9)
    ch = hankel_chain(s)
    hankel = [[ch.derivative(i + j) for j in range(4)] for i in range(4)]
    rep.add("Det_n equals its elimination det_bareiss, an independent witness (n <= 4)",
            all(ch.det(n) == det_bareiss([row[:n] for row in hankel[:n]]) for n in range(5)))
    rep.add("Det_n equals tau_U(0, n), the same subset sum (n <= 9)",
            all(ch.det(n) == tau_U(s, 0, n) for n in range(10)))
    for n in range(1, 10):
        r = _chain_step(rep, f"Toda relation at n={n}", lambda: toda_residual(ch, n))
        if r is not None:
            rep.add(f"Toda relation at n={n}", r.is_zero(),
                    witness=None if r.is_zero() else r.num)
    rep.add("Det_10 vanishes past the rank", ch.det(10).is_zero())


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
    s = spectral_data(_W, _P1, _Q8)
    ch = hankel_chain(s)
    levels = [ab_init(s)]
    rep.add("level 0 pair equals closed form", (levels[0].A, levels[0].B) == ab_closed(s, 0))
    for n, step in enumerate(("first", "second", "third"), 1):
        c = _chain_step(rep, f"{step} step meets closed form", lambda: ab_step(levels[-1], ch))
        if c is None:
            break
        levels.append(c)
        rep.add(f"{step} step meets closed form", (c.A, c.B) == ab_closed(s, n))
        rep.add(f"{step} step meets the three-part recursion",
                ab_recursion_holds(levels[n - 1], c, ch))
    # the literals take 0.35 s on eight Q-spikes, 0.11 s on six (2-core host)
    s = spectral_data(_W, _P1, _Q6)
    c1 = _chain_step(rep, "first step meets the ordered-tuple literals",
                     lambda: ab_step(ab_init(s), hankel_chain(s)))
    if c1 is None:
        return
    lit_a1 = _tuple_literal(s, 3, lambda mu: (mu[0] - mu[2]) ** 2, Fraction(1, 2))
    lit_b1 = _tuple_literal(
        s, 4, lambda mu: (mu[0] - mu[3]) ** 2 * (mu[1] - mu[2]) ** 2, Fraction(1, 4)
    )
    rep.add("first step meets the ordered-tuple literals", c1.A == lit_a1 and c1.B == lit_b1)


def _first_root(rep: Report) -> None:
    """The first-root chain on the B2 seed over 4P+6Q, by bordered Hankel
    minors, to its rank: step n is the order-(n, 0) tau solution and solves
    B2 for n = 1 to 4, and step 5, past the four P-spikes, is refused."""
    m = model("B2")
    s = spectral_data(_W, _P4, _Q6)
    seed = initial_config(m, s)
    steps = []
    for n in range(1, 5):
        cfg = _chain_step(rep, f"step {n} equals tau({n},0)", lambda: first_root_chain(seed, n))
        if cfg is not None:
            rep.add(f"step {n} equals tau({n},0)", cfg == solution_from_tau(m, s, n, 0))
            steps.append((n, cfg))
    _solution_checks(lambda: [(f"step {n} solves B2", m, cfg) for n, cfg in steps], rep)
    try:
        first_root_chain(seed, 5)
    except PivotZero:
        rep.add("step 5 past the rank raises PivotZero", True)
    except InexactDivision as e:
        rep.add("step 5 past the rank raises PivotZero", False, f"InexactDivision: {e}")
    else:
        rep.add("step 5 past the rank raises PivotZero", False, "step 5 was built")


def _gra(rep: Report) -> None:
    s = spectral_data(_W, _P2, _Q4)
    for n in (0, 1):
        rep.add(f"group recombination at n={n}", check_gra(s, n))


#: Every claim by name: a function that adds the claim's checks to a report.
CLAIMS: Dict[str, Callable[[Report], None]] = {
    **{name: functools.partial(_solution_checks, sols) for name, sols in SOLUTIONS.items()},
    **{f"{a.lower()}-interruption": functools.partial(_interruption, a)
       for a in ("A2", "B2", "G2")},
    "a2-composition": _a2_composition,
    "b2-maps": _b2_maps,
    "toda": _toda,
    "ab-chain": _ab_chain,
    "first-root": _first_root,
    "gra": _gra,
}

#: Each suite's claims, in the order its report lists them.
SUITES = {
    "a2-full": ("a2-tau-grid", "a2-interruption", "a2-composition", "a2-invariance"),
    "b2-full": ("b2-tau-grid", "b2-interruption", "b2-invariance", "b2-maps"),
    "g2-full": ("g2-orders", "g2-interruption", "g2-invariance"),
    **{name: (name,) for name in ("toda", "ab-chain", "first-root", "gra")},
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
