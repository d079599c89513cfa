"""Hankel-determinant chains living inside one-directional backgrounds.

When every f^+ field of a B2 configuration vanishes, repeated discrete
transformations collapse to classical determinant recursions: the pair
(f^+_{0.1}, f^-_{0.1}) runs a one-dimensional Toda chain whose tau functions
are Hankel minors of the single seed function, the pair (f^-_{1.1}, f^-_{1.2})
runs a linear chain (A^n, B^n) on top of it, and the first-root analogue is
solved by bordered Hankel minors.  Everything here is exact ExpPoly
arithmetic.

A chain's minors are subset sums.  For the seed's terms r_k, D r_k =
lam_k r_k, the Hankel matrix is V diag(r_k) V^T, V the weights' Vandermonde
matrix, and Cauchy-Binet gives Heine's identity (G. Szego, Orthogonal
Polynomials, section 2.1) over the n-subsets K of the terms,

    Det_n = sum_K prod_{a<b in K} (lam_a - lam_b)^2 prod_{k in K} r_k,

tau's subset sum (tau._shapes): a subset with two terms of one weight has
a zero Vandermonde and drops out.  With its last column (D^i h)_i, h =
sum_mu h_mu, the size-(n+1) minor is that sum with each subset times
sum_mu prod_{k in K} (mu - lam_k) h_mu.  No division; past the number of
distinct weights, the matrix's rank, the sum is empty and the chain stops.
``det_bareiss``, the general elimination with row swaps, is the tests'
reference and, with the Toda relation, the ``toda`` claim's witness.

The (A, B) chain steps by a Hirota-type bilinear identity (R. Hirota, The
Direct Method in Soliton Theory, 2004), Det_n B^{n+1} = D_{1,1} A^{n+1}
Det_{n+1} - 2 A^{n+1} D Det_{n+1} + B^n Det_{n+2}: B^n alone gives the next
level, by two divisions by Det_n.  The identity is checked, not proven;
the paper's three-part recursion, which also reads A^n, is the witness
``ab_recursion_holds`` that the ``ab-chain`` claim runs at every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Dict, List, Optional, Sequence, Tuple

from .exprat import (ONE, ExpPoly, ExpRational, WaveConstants, _canonical, _common_scale,
                     _spectral, _times, _weights, divexact, sum_of_products)
from .spectral import SpectralData
from .tau import _shapes, tau_U, tau_V_B2
from .transforms import PivotZero
from .wavesys import MINUS, PLUS, FieldConfig, FieldKey, Root, model


# -- determinants ---------------------------------------------------------------


def det_bareiss(rows: Sequence[Sequence[ExpPoly]]) -> ExpPoly:
    """Fraction-free determinant: every intermediate entry stays an ExpPoly.

    One-step condensation divides exactly by the previous pivot; row swaps
    flip the sign.  Cost grows with minor size, not with nesting depth,
    which keeps term counts far below cofactor expansion for n >= 4.
    """
    n = len(rows)
    if n == 0:
        return ExpPoly.const(1)
    m = [list(row) for row in rows]
    sign = 1
    prev = ExpPoly.const(1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            for r in range(k + 1, n):
                if not m[r][k].is_zero():
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return ExpPoly.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = divexact(m[k][k] * m[i][j] - m[i][k] * m[k][j], prev)
        prev = m[k][k]
    out = m[n - 1][n - 1]
    return out if sign > 0 else -out


# -- the Toda chain of the second simple root ------------------------------------


#: The chain's seed field and the D_{i,j} its Hankel entries differentiate by.
CHAIN_SEED_KEY: FieldKey = (MINUS, (0, 1))
CHAIN_DIRECTION = (1, 0)


@dataclass
class HankelChain:
    """Main minors Det_n of the Hankel matrix of one seed, as subset sums.

    Entry (i, j) of the matrix is the (i+j)-th derivative of the seed along
    ``direction``; Det_0 = 1 and Det_{-1} = 0 by convention (the n = 0 and
    n = -1 cases of the chain relations force both).  ``minor`` forms Det_n
    and bordered minors by Heine's identity over the seed's terms (module
    docstring): no derivative, and zero past the seed's distinct D weights.
    """

    seed: ExpPoly
    constants: WaveConstants
    direction: Root
    _ders: List[ExpPoly] = field(default_factory=list, repr=False)
    _dets: Dict[int, ExpPoly] = field(default_factory=dict, repr=False)

    def derivative(self, k: int) -> ExpPoly:
        if not self._ders:
            self._ders.append(self.seed)
        i, j = self.direction
        while len(self._ders) <= k:
            self._ders.append(self._ders[-1].deriv(i, j, self.constants))
        return self._ders[k]

    def minor(self, n: int, h: Optional[ExpPoly] = None) -> ExpPoly:
        """Det_n; given h, the size-(n+1) minor on columns 0..n-1 and (D^i h)_i.
        Weights are integers over the scale S: the sum is over S^(n(n-1)), S^(n^2) with h."""
        w, ij = self.constants, self.direction
        g = _spectral(self.seed, w)
        scale, ints, border, k, cn, cd = g._scale, g._ints, None, n * (n - 1), 1, 1
        if h is not None:
            g, h, scale, ints, h_ints = _common_scale(g, _spectral(h, w))
            border = list(zip(h_ints.items(), _weights(*ij, h_ints)))
            k, cn, cd = n * n, h._cn, h._cd
        cn, cd = _times(*_times(cn, cd, g._cn ** n, g._cd ** n), 1, scale ** k)
        terms, lams = list(ints.items()), _weights(*ij, ints)
        out: Dict[Tuple[int, int], int] = {}
        for idx, c, _ in _shapes(lams, n):
            u = v = 0
            for i in idx:
                (a, b), d = terms[i]
                u, v, c = u + a, v + b, c * d
            for key, x in ([((u, v), c)] if border is None else
                           [((u + a, v + b), c * d * prod([mu - lams[i] for i in idx]))
                            for ((a, b), d), mu in border]):
                out[key] = out.get(key, 0) + x
        return _canonical(scale, out, cn, cd, w)

    def det(self, n: int) -> ExpPoly:
        if n <= 0:
            return ONE if n == 0 else ExpPoly.zero()
        if n not in self._dets:
            self._dets[n] = self.minor(n)
        return self._dets[n]


def hankel_chain(s: SpectralData) -> HankelChain:
    """Toda chain of the seed r = f^-_{0.1} = tau_U(0, 1), differentiated along (1, 0)."""
    return HankelChain(tau_U(s, 0, 1), s.constants, CHAIN_DIRECTION)


def det_n(chain: HankelChain, n: int) -> ExpPoly:
    return chain.det(n)


def toda_residual(chain: HankelChain, n: int) -> ExpRational:
    """D^2 log Det_n minus Det_{n-1} Det_{n+1} / Det_n^2, exactly.

    Zero identically iff level n of the chain satisfies the Toda relation.
    The logarithmic second derivative is realized polynomially as
    (Det * D^2 Det - (D Det)^2) / Det^2, Det^2 formed for a nonzero sum only.
    """
    dn = chain.det(n)
    if dn.is_zero():
        raise PivotZero("TODA_CHAIN", CHAIN_SEED_KEY, step=n)
    i, j = chain.direction
    d1 = dn.deriv(i, j, chain.constants)
    d2 = d1.deriv(i, j, chain.constants)
    num = dn * d2 - d1 * d1 - chain.det(n - 1) * chain.det(n + 1)
    return ExpRational(num, dn * dn) if num else ExpRational.zero()


# -- the linear (A, B) chain riding on the Toda background -----------------------


@dataclass(frozen=True)
class ABChain:
    """Level-n pair: f^-_{1.1} = A / Det_n^2 and f^-_{1.2} = B / Det_n^2.
    ab_step reads B alone; ab_recursion_holds reads both."""

    level: int
    A: ExpPoly
    B: ExpPoly


def _as_poly(f: ExpRational, what: str) -> ExpPoly:
    if not f.is_poly():
        raise ValueError(f"{what} must be polynomial (constant denominator)")
    return f.num


def ab_init(s: SpectralData) -> ABChain:
    """Level 0: the seed values of f^-_{1.1} and f^-_{1.2} (Det_0 = 1)."""
    return ABChain(0, tau_V_B2(s, 1, 1, 0), tau_V_B2(s, 1, 1, 1))


def ab_step(prev: ABChain, chain: HankelChain) -> ABChain:
    """One exact step of the linear chain; it reads B^n, not A^n.

    2 Det_n A' = Det_{n+1} D B - 2 B D Det_{n+1}, and B' by the bilinear
    identity Det_n B' = D_{1,1} A' Det_{n+1} - 2 A' D Det_{n+1} + B Det_{n+2}
    (D = D_{1,0}, the chain's direction): each one sum_of_products call with
    its derivatives as factors ((i, j), x), differentiated at pack time, and
    its divisor 2 Det_n or Det_n, so that the numerator is divided exactly
    on its packed rows and never read back (InexactDivision off genuine
    chain data).
    The identity stands in for the paper's three-part recursion, which
    ``ab_recursion_holds`` checks without a division.

    Level n + 1's fields are A' / Det_{n+1}^2 and B' / Det_{n+1}^2, so past
    the chain's rank, where Det_{n+1} vanishes, the step is refused
    (PivotZero at step n): the last level is the rank.
    """
    n = prev.level
    dn1 = chain.det(n + 1)
    if dn1.is_zero():
        raise PivotZero("AB_CHAIN", CHAIN_SEED_KEY, step=n)
    dn, w, ij, b = chain.det(n), chain.constants, chain.direction, prev.B
    [a] = sum_of_products([[(1, dn1, (ij, b)), (-2, b, (ij, dn1))]], w, [dn * 2])
    [b] = sum_of_products([[(1, ((1, 1), a), dn1), (-2, a, (ij, dn1)),
                            (1, b, chain.det(n + 2))]], w, [dn])
    return ABChain(n + 1, a, b)


def ab_recursion_holds(prev: ABChain, nxt: ABChain, chain: HankelChain) -> bool:
    """Whether nxt.B meets the paper's three-part recursion from prev: its
    numerator over 4 Det_n^4 minus 4 Det_n^4 nxt.B is zero, one
    sum_of_products call of eight products of up to five factors, no
    division, and D(D B) its one ExpPoly derivative."""
    n = prev.level
    dn, dn1, w, ij = chain.det(n), chain.det(n + 1), chain.constants, chain.direction
    a, b, d1 = prev.A, prev.B, (ij, dn1)
    [rest] = sum_of_products([[
        (1, dn, dn, dn1, dn1, (ij, b.deriv(*ij, w))), (-4, dn, dn, dn1, d1, (ij, b)),
        (4, dn, dn, d1, d1, b), (2, dn, dn1, dn1, a, d1), (-2, dn, dn1, dn1, dn1, (ij, a)),
        (2, dn1, dn1, dn1, a, (ij, dn)), (2, dn1, dn1, dn1, b, chain.det(n - 1)),
        (-4, dn, dn, dn, dn, nxt.B)]], w)
    return rest.is_zero()


def ab_closed(s: SpectralData, n: int) -> Tuple[ExpPoly, ExpPoly]:
    """Closed forms: two independent Q-groups against a single P-group.

    A^n pairs groups of sizes (n, n+1), B^n pairs (n+1, n+1); both couple
    every mu to the single lambda.  Needs at least 2n+2 Q-spikes and one
    P-spike to be a faithful instantiation.
    """
    if n < 0:
        raise ValueError("chain level must be nonnegative")
    if len(s.qspikes) < 2 * n + 2 or len(s.pspikes) < 1:
        raise ValueError(
            f"level {n} closed form needs >= {2 * n + 2} Q-spikes and one P-spike"
        )
    return tau_V_B2(s, 1, n, n + 1), tau_V_B2(s, 1, n + 1, n + 1)


# -- the chain of the first simple root ------------------------------------------

_FRC_ZERO_KEYS = tuple((PLUS, r) for r in model("B2").roots)


def first_root_chain(cfg: FieldConfig, steps: int) -> FieldConfig:
    """n steps of the first-root transformation on an all-f^+-zero background.

    The whole chain is solved at once by bordered Hankel minors in the
    direction (0, 1) of the seed g = f^-_{1.0}: the plain minors Det_n of
    g's HankelChain give f^+_{1.0} and f^-_{1.0}, replacing the last column
    by derivatives of h = f^-_{1.1} gives f^-_{0.1} and f^-_{1.1}, and the
    symmetric bordering with corner k = f^-_{1.2} gives f^-_{1.2}.  The f^+
    zero pattern is preserved at every level.
    """
    if cfg.algebra != "B2":
        raise ValueError(f"first-root chain acts on B2 configs, got {cfg.algebra}")
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    for key in _FRC_ZERO_KEYS:
        if not cfg[key].is_zero():
            raise ValueError("background must have every f^+ identically zero")
    if steps == 0:
        return cfg

    w = cfg.constants
    g = HankelChain(_as_poly(cfg[(MINUS, (1, 0))], "f-1.0"), w, (0, 1))
    h = _as_poly(cfg[(MINUS, (1, 1))], "f-1.1")
    k = _as_poly(cfg[(MINUS, (1, 2))], "f-1.2")

    den = g.det(steps)
    if den.is_zero():
        raise PivotZero("FIRST_ROOT_CHAIN", (MINUS, (1, 0)), step=steps)
    # b[j]: g's size-(j+1) minor with its last column replaced by h's derivatives
    b = [g.minor(j, h) for j in range(steps + 1)]
    # the size-(j+1) symmetric bordering with corner k, by Sylvester's
    # identity: c_0 = k, c_{j+1} = (Det_{j+1} c_j - b[j]^2) / Det_j
    corner = k
    for j in range(steps):
        corner = divexact(g.det(j + 1) * corner - b[j] * b[j], g.det(j))
    fields = {key: ExpRational.zero() for key in _FRC_ZERO_KEYS}
    keys = [(PLUS, (1, 0)), (MINUS, (1, 0)), (MINUS, (0, 1)), (MINUS, (1, 1)), (MINUS, (1, 2))]
    nums = [g.det(steps - 1), g.det(steps + 1), b[steps - 1], b[steps], corner]
    fields.update(zip(keys, ExpRational.all_over(nums, den)))
    return FieldConfig("B2", w, fields)
