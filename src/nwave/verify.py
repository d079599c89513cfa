"""Uniform verification driver: exact or numeric residual checks, one report.

Every identity family in the package funnels through here: per-equation
residuals of a configuration, transformation invariance, determinant chains,
the closed-form recursions, and the group-recombination identity.  Reports
are plain data (dicts of strings, bools and lists), deterministic for
identical inputs, and carry at most one rendered counterexample.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Tuple

from mpmath import libmp

from .exprat import EVAL_PRECISION, POLE_BITS, ExpPoly, ExpRational, wave_constants
from .spectral import SpectralData, initial_config, spectral_data, wave_exponent
from .tau import TauZero, check_gra, solution_from_tau, tau_U
from .toda import ab_closed, ab_init, ab_step, det_n, hankel_chain, toda_residual
from .transforms import apply, apply_chain
from .wavesys import AlgebraModel, FieldConfig, MINUS, PLUS, field_label, model, residual

REL_TOL = 1e-9
MASS_FLOOR = 1e-12
#: Rational evaluation grid shared by every numeric check.
GRID: Tuple[Tuple[Fraction, Fraction], ...] = tuple(
    (t, x)
    for t in (Fraction(-1), Fraction(0), Fraction(1, 2))
    for x in (Fraction(-1, 3), Fraction(0), Fraction(1))
)

SUITES = (
    "a2-full",
    "b2-full",
    "g2-hypothesis",
    "toda",
    "ab-chain",
    "transforms-algebra",
    "gra",
)


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
# Numbers here are raw mpmath.libmp values (sign, mantissa, exponent, bitcount).
# The products that feed one sum are kept exact and the sum is rounded once to
# EVAL_PRECISION bits; nothing goes through float, so no value or tolerance can
# overflow.

_RND = libmp.round_nearest
_TOL = libmp.from_float(REL_TOL)
_FLOOR = libmp.from_float(MASS_FLOOR)
#: (value, mass, D value, D mass) of an identically zero field.
_ZERO_FIELD = (libmp.fzero,) * 4


def _ratio(n: int, d: int) -> tuple:
    """The rational n/d (d > 0) as a libmp value."""
    if d == 1:
        return libmp.from_int(n, EVAL_PRECISION, _RND)
    return libmp.from_rational(n, d, EVAL_PRECISION, _RND)


def _mpf(q) -> tuple:
    """A rational (int or Fraction) as a libmp value."""
    return _ratio(q.numerator, q.denominator)


def _exp(q) -> tuple:
    return libmp.mpf_exp(_mpf(q), EVAL_PRECISION, _RND) if q else libmp.fone


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
    detail = f"max |residual| {_sci(worst)} over {len(GRID) - len(poles)} points"
    if poles:
        detail += "; poles skipped at " + ", ".join(poles)
    return True, detail


def _dot(terms, k: int, exps) -> Tuple[tuple, tuple]:
    """Signed and absolute sums of coefficient ``k`` of each term times its exp."""
    prods = [libmp.mpf_mul(term[k], exps[term[0]]) for term in terms]
    return (libmp.mpf_sum(prods, EVAL_PRECISION, _RND),
            libmp.mpf_sum(prods, EVAL_PRECISION, _RND, absolute=True))


class _GridValues:
    """Values and masses of some ExpRationals at every GRID point.

    ``points[n][key]`` is (value, mass, D value, D mass) at ``GRID[n]``, or
    None where the key's denominator vanishes to working precision (below
    its own mass times 2**-POLE_BITS); D is the derivative
    ``d_index[key]`` (zero for keys it does not name).  The mass is the
    pre-cancellation scale, the sum of absolute term values over
    |denominator|.  Identically zero values have no entry.  A one-term
    denominator never vanishes, so it is divided into the numerator up front
    and never makes a pole.  Exponents are read off the polynomials'
    integer lattices, brought to one common scale, and each distinct
    exp(a*t) and exp(b*x) is computed once.
    """

    def __init__(self, values: Dict, w=None, d_index: Optional[Dict] = None):
        d_index = d_index or {}
        live = {key: u for key, u in values.items() if not u.is_zero()}
        # every exponent as an integer pair over one scale
        scale = lcm(1, *(p.lattice()[0] for u in live.values() for p in (u.num, u.den)))
        # (i, j) -> (P, Q, R): D_{i,j} scales exp((A*t + B*x)/scale) by (P*A + Q*B)/R
        speeds = {}
        for ij in set(d_index.values()):
            p, q = w.deriv_speeds(*ij)
            speeds[ij] = (p.numerator * q.denominator, q.numerator * p.denominator,
                          p.denominator * q.denominator * scale)
        slots: Dict[Tuple[int, int], int] = {}  # exponent -> exp slot
        factors: Dict[tuple, tuple] = {}  # (slot, (i, j)) -> D_{i,j} factor

        def prepare(poly, ij, shift=(0, 0), divisor=1):
            # (exp slot, coefficient, coefficient * D factor) per term
            own, ints, content = poly.lattice()
            f = scale // own
            content = content / divisor
            cn, cd = content.numerator, content.denominator
            out = []
            for (a, b), n in ints.items():
                k = (a * f - shift[0], b * f - shift[1])
                slot = slots.setdefault(k, len(slots))
                c = _ratio(cn * n, cd)
                if ij is None:
                    out.append((slot, c, None))
                    continue
                fac = factors.get((slot, ij))
                if fac is None:
                    p, q, r = speeds[ij]
                    fac = factors[(slot, ij)] = _ratio(p * k[0] + q * k[1], r)
                out.append((slot, c, libmp.mpf_mul(c, fac, EVAL_PRECISION, _RND)))
            return out

        fields = {}
        for key, u in live.items():
            ij = d_index.get(key)
            own, den, content = u.den.lattice()
            if len(den) == 1:
                (a0, b0), = den
                f = scale // own
                fields[key] = (prepare(u.num, ij, (a0 * f, b0 * f), content), None,
                               ij is not None)
            else:
                fields[key] = (prepare(u.num, ij), prepare(u.den, ij), ij is not None)

        # exp(a*t + b*x) = exp(a*t) * exp(b*x), each factor computed once
        a_slot: Dict[int, int] = {}
        b_slot: Dict[int, int] = {}
        pairs = [(a_slot.setdefault(a, len(a_slot)), b_slot.setdefault(b, len(b_slot)))
                 for a, b in slots]
        exp_t = {t: [_exp(Fraction(a, scale) * t) for a in a_slot]
                 for t in {t for t, _ in GRID}}
        exp_x = {x: [_exp(Fraction(b, scale) * x) for b in b_slot]
                 for x in {x for _, x in GRID}}
        self.points = []
        for t, x in GRID:
            et, ex = exp_t[t], exp_x[x]
            exps = [libmp.mpf_mul(et[i], ex[j], EVAL_PRECISION, _RND) for i, j in pairs]
            self.points.append({key: self._at(*f, exps) for key, f in fields.items()})

    @staticmethod
    def _at(num, den, with_d, exps):
        n, mn = _dot(num, 1, exps)
        dn, mdn = _dot(num, 2, exps) if with_d else (libmp.fzero, libmp.fzero)
        if den is None:
            return n, mn, dn, mdn
        d, md = _dot(den, 1, exps)
        ad = libmp.mpf_abs(d)
        if libmp.mpf_lt(ad, libmp.mpf_shift(md, -POLE_BITS)):
            return None
        value = libmp.mpf_div(n, d, EVAL_PRECISION, _RND)
        mass = libmp.mpf_div(mn, ad, EVAL_PRECISION, _RND)
        if not with_d:
            return value, mass, dn, mdn
        # D(n/d) = (n'd - nd') / d^2, its mass (mass(n')|d| + mass(n)mass(d')) / d^2
        dd, mdd = _dot(den, 2, exps)
        d2 = libmp.mpf_mul(d, d)
        top = libmp.mpf_sub(libmp.mpf_mul(dn, d), libmp.mpf_mul(n, dd), EVAL_PRECISION, _RND)
        top_mass = libmp.mpf_add(libmp.mpf_mul(mdn, ad), libmp.mpf_mul(mn, mdd),
                                 EVAL_PRECISION, _RND)
        return (value, mass, libmp.mpf_div(top, d2, EVAL_PRECISION, _RND),
                libmp.mpf_div(top_mass, d2, EVAL_PRECISION, _RND))


def _numeric_residual_check(r: ExpRational) -> Tuple[bool, str]:
    """Numeric verdict on one residual value: it must vanish at every grid
    point that is not a pole, relative to its pre-cancellation scale."""
    points = []
    for (t, x), vals in zip(GRID, _GridValues({"r": r}).points):
        v = vals.get("r", _ZERO_FIELD)
        points.append((t, x, None, None) if v is None else (t, x, v[0], v[1]))
    return _judge(points)


def _equation_points(eq, grid: _GridValues):
    """(t, x, residual, scale) of one equation at every grid point.

    The residual is D f_lhs - sum c*f_a*f_b and its scale is mass(D f_lhs) +
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

    for (t, x), vals in zip(GRID, grid.points):
        yield (t, x) + at(vals)


def verify_config(m: AlgebraModel, cfg: FieldConfig, mode: str = "exact") -> Report:
    """Per-equation residual verdicts for one configuration.

    Exact mode decides by cancellation of the cleared numerator.  Numeric
    mode never builds a residual: it evaluates each field pointwise with
    mpmath on the fixed 9-point rational grid (numerator, denominator and
    the equation's D_{i,j} of the left-hand field) and forms D f_lhs -
    sum c*f_a*f_b from those numbers.  A point fails when |residual| exceeds
    REL_TOL times the pre-cancellation scale mass(D f_lhs) +
    sum |c|*mass(f_a)*mass(f_b), where a field's mass is the sum of its
    absolute term values over |its denominator|.  Points where a
    denominator vanishes to working precision (|value| below its mass
    times 2**-POLE_BITS) are skipped and recorded rather than aborting.
    Only a failing equation has its exact residual built, as the report's
    counterexample.
    """
    if mode not in ("exact", "numeric"):
        raise ValueError(f"unknown mode {mode!r} (expected 'exact' or 'numeric')")
    rep = Report(title=f"{m.name} configuration", mode=mode)
    if mode == "exact":
        for eq in m.equations:
            r = residual(m, cfg, eq)
            ok = r.is_zero()
            rep.add(_eq_name(eq), ok, "" if ok else "residual numerator nonzero",
                    witness=None if ok else r.num)
        return rep
    grid = _GridValues(cfg.fields, cfg.constants, {eq.lhs: eq.d_index for eq in m.equations})
    for eq in m.equations:
        ok, detail = _judge(_equation_points(eq, grid))
        rep.add(_eq_name(eq), ok, detail,
                witness=None if ok else residual(m, cfg, eq).num)
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
    _solution_checks(rep, "seed residual-zero", m, initial_config(m, s))
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
    _solution_checks(rep, "seed residual-zero", m, initial_config(m, s))
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


def _suite_transforms(rep: Report, params) -> None:
    a2 = model("A2")
    sa = _suite_data(params, _DEF_P2, _DEF_Q2)
    seed = initial_config(a2, sa)
    c12 = apply_chain(["A2_T1", "A2_T2"], seed)
    rep.add(
        "A2: T2*T1 == T1*T2 == T3",
        c12 == apply_chain(["A2_T2", "A2_T1"], seed) and c12 == apply("A2_T3", seed),
    )
    b2 = model("B2")
    g = _generic_config(sa.constants)
    rep.add(
        "B2: T10 and its inverse cancel on arbitrary fields",
        apply_chain(["B2_T10", "B2_T10_INV"], g) == g
        and apply_chain(["B2_T10_INV", "B2_T10"], g) == g,
    )
    sol = apply("B2_T10", _const_solution(sa.constants))
    rep.add(
        "B2: second-root map factors",
        apply("B2_T2A2", sol) == apply_chain(["B2_T10_INV", "B2_TM"], sol),
    )
    sb = spectral_data(sa.constants, list(_DEF_P2), list(_DEF_Q2))
    rep.add(
        "B2: second-root map equals one tau step on the seed",
        apply("B2_T2A2", initial_config(b2, sb)) == solution_from_tau(b2, sb, 0, 1),
    )


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
    "transforms-algebra": _suite_transforms,
    "gra": _suite_gra,
}


def verify_suite(name: str, params: Optional[dict] = None) -> Report:
    """Run one named identity suite and aggregate a deterministic report."""
    if name not in _SUITE_FNS:
        raise ValueError(f"unknown suite {name!r} (expected one of {', '.join(SUITES)})")
    rep = Report(title=f"suite {name}", mode="exact")
    _SUITE_FNS[name](rep, params)
    return rep
