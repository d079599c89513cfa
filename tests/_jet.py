"""Jet-coordinate symbolic checker: do the maps send solutions to solutions?

Each field of a model carries exactly one evolution equation, in the
direction of the field's own index.  Writing Dt = D_{1,0} and Dx = D_{0,1},
that equation expresses one directional derivative of the field through the
fields themselves; the complementary derivatives remain free jet symbols.
Every rational expression in fields and derivatives then has a normal form
in these coordinates, and an identity holds on the whole solution manifold
iff its normal form is zero — no probe data involved.

The transformation rows are the package's own (transforms.TRANSFORMS),
run on jets with d = JetRing.d, and the equation tables come straight from
the package model, so the proof covers the code that ships.
"""
from fractions import Fraction

import sympy as sp
from sympy import Rational as Q

from nwave.transforms import TRANSFORMS
from nwave.wavesys import PLUS, field_label, model


def _name(key):
    sign, (i, j) = key
    return ("p" if sign == PLUS else "m") + f"{i}{j}"


class JetRing:
    """Jet coordinates of one algebra's solution manifold, keyed by FieldKey."""

    def __init__(self, algebra: str):
        m = model(algebra)
        self.keys = list(m.field_keys)
        self.equations = m.equations
        self.evo = {eq.lhs: eq.d_index for eq in m.equations}
        self._ctower = {f: ("t" if self.evo[f] == (0, 1) else "x") for f in self.keys}
        self.sym = {}
        for f in self.keys:
            for k in range(0, 9):
                nm = _name(f) if k == 0 else f"{_name(f)}_{self._ctower[f]}{k}"
                self.sym[(f, k)] = sp.Symbol(nm)
        self.F = {f: self.sym[(f, 0)] for f in self.keys}
        self.R = {}
        for eq in m.equations:
            self.R[eq.lhs] = sp.Add(*[
                Q(Fraction(c)) * self.F[a] * self.F[b] for c, a, b in eq.rhs
            ])
        self._dt_cache = {}
        self._dx_cache = {}
        self._owner = {s: fk for fk, s in self.sym.items()}

    def _dt0(self, f):
        i, j = self.evo[f]
        if i == 0:
            return self.sym[(f, 1)]
        return (self.R[f] - Q(j) * self.sym[(f, 1)]) / Q(i)

    def _dx0(self, f):
        i, j = self.evo[f]
        if i == 0:
            return self.R[f] / Q(j)
        return self.sym[(f, 1)]

    def _dt_sym(self, s):
        if s not in self._dt_cache:
            f, k = self._owner[s]
            if self._ctower[f] == "t":
                out = self.sym[(f, k + 1)]
            else:
                out = self._dt0(f)
                for _ in range(k):
                    out = self.dx(out)
            self._dt_cache[s] = out
        return self._dt_cache[s]

    def _dx_sym(self, s):
        if s not in self._dx_cache:
            f, k = self._owner[s]
            if self._ctower[f] == "x":
                out = self.sym[(f, k + 1)]
            else:
                out = self._dx0(f)
                for _ in range(k):
                    out = self.dt(out)
            self._dx_cache[s] = out
        return self._dx_cache[s]

    def dt(self, e):
        e = sp.sympify(e)
        return sp.Add(*[sp.diff(e, s) * self._dt_sym(s) for s in e.free_symbols])

    def dx(self, e):
        e = sp.sympify(e)
        return sp.Add(*[sp.diff(e, s) * self._dx_sym(s) for s in e.free_symbols])

    def d(self, i, j, e):
        return Q(i) * self.dt(e) + Q(j) * self.dx(e)

    def residual_labels(self, rows):
        """Names of model equations the row set fails to satisfy identically."""
        bad = []
        for eq in self.equations:
            i, j = eq.d_index
            r = self.d(i, j, rows[eq.lhs])
            for c, a, b in eq.rhs:
                r = r - Q(Fraction(c)) * rows[a] * rows[b]
            if sp.expand(sp.numer(sp.together(r))) != 0:
                bad.append(f"D{eq.d_index} {field_label(eq.lhs)}")
        return bad


def _run(J, rows, F=None):
    """A registry row set on jets, each row normalised by sp.cancel (exact)."""
    out = rows(J.F if F is None else F, J.d)
    return {k: sp.cancel(v) for k, v in out.items()}


def manifold_residuals(tid: str):
    t = TRANSFORMS[tid]
    J = JetRing(t.algebra)
    return J.residual_labels(_run(J, t.rows))


def b2_factorization_mismatches():
    """Fields where B2_T2A2 = T10_INV∘TM differs from TM∘T10_INV on the B2
    manifold: the identity says the two composition orders agree on every
    solution.
    """
    J = JetRing("B2")
    lhs = _run(J, TRANSFORMS["B2_T2A2"].rows)
    rhs = _run(J, TRANSFORMS["B2_TM"].rows, F=_run(J, TRANSFORMS["B2_T10_INV"].rows))
    bad = []
    for key in sorted(lhs):
        d = sp.together(lhs[key] - rhs[key])
        if sp.expand(sp.numer(d)) != 0:
            bad.append(field_label(key))
    return bad
