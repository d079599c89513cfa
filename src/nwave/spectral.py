"""Spike (delta-measure) spectral data and the seed soliton configurations.

The seed configuration of each algebra puts every f^+ to zero and fills the
f^- ladder with exponential sums driven by two families of spikes: P-spikes
at positions lambda (E-waves, annihilated by D_{1,0}) and Q-spikes at
positions mu (F-waves, annihilated by D_{0,1}).  All constructions are exact
over Fraction; correctness means residual zero for every equation of the
algebra, which the tests enforce.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .exprat import ExpPoly, ExpRational, LinForm, RatLike, WaveConstants, as_frac
from .wavesys import MINUS, AlgebraModel, FieldConfig, FieldKey

# Signs of the three higher G2 seed fields.  The f-1.2 sign is flipped
# relative to the printed form: only the +1 choice gives residual zero for
# the full G2 system (see test_g2_seed_signs_are_forced), which is the
# machine arbiter we committed to.  The f-2.3 prefactor -1/2 is forced the
# same way.
G2_SIGN_12 = Fraction(1)
G2_SIGN_13 = Fraction(1)
G2_SIGN_23 = Fraction(-1, 2)


class InvalidSpectralData(ValueError):
    """Spectral data violating a structural invariant (poles, duplicates)."""


@dataclass(frozen=True)
class Spike:
    """One delta spike: position (lambda or mu) and a nonzero weight."""

    pos: Fraction
    weight: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "pos", as_frac(self.pos))
        object.__setattr__(self, "weight", as_frac(self.weight))


@dataclass(frozen=True)
class SpectralData:
    constants: WaveConstants
    pspikes: Tuple[Spike, ...]
    qspikes: Tuple[Spike, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pspikes", tuple(self.pspikes))
        object.__setattr__(self, "qspikes", tuple(self.qspikes))


def validate(s: SpectralData) -> None:
    """Raise InvalidSpectralData naming the first violated invariant."""
    if s.constants.delta == 0:
        raise InvalidSpectralData("degenerate wave constants: c1*d2 - c2*d1 = 0")
    for kind, spikes in (("P", s.pspikes), ("Q", s.qspikes)):
        seen = set()
        for sp in spikes:
            if sp.weight == 0:
                raise InvalidSpectralData(f"{kind}-spike at {sp.pos} has zero weight")
            if sp.pos in seen:
                raise InvalidSpectralData(f"duplicate {kind}-spike position {sp.pos}")
            seen.add(sp.pos)
    ppos = {sp.pos for sp in s.pspikes}
    for sp in s.qspikes:
        if sp.pos in ppos:
            raise InvalidSpectralData(
                f"P-spike and Q-spike share position {sp.pos} (coupling pole)"
            )


def spectral_data(constants: WaveConstants, pspikes, qspikes) -> SpectralData:
    s = SpectralData(
        constants,
        tuple(Spike(as_frac(p), as_frac(w)) for p, w in pspikes),
        tuple(Spike(as_frac(p), as_frac(w)) for p, w in qspikes),
    )
    validate(s)
    return s


def wave_exponent(lam: Fraction, mu: Fraction, w: WaveConstants) -> LinForm:
    """Exponent (a, b) of E(lam)*F(mu) = exp(a*t + b*x)."""
    return (lam * w.d1 + mu * w.d2, -(lam * w.c1 + mu * w.c2))


def f_wave(mu: RatLike, w: WaveConstants, coef: RatLike = 1) -> ExpPoly:
    return ExpPoly.term(as_frac(coef), *wave_exponent(Fraction(0), as_frac(mu), w))


def _accumulate(terms: Dict[LinForm, Fraction], key: LinForm, coef: Fraction) -> None:
    terms[key] = terms.get(key, Fraction(0)) + coef


def initial_config(m: AlgebraModel, s: SpectralData) -> FieldConfig:
    """Seed configuration: all f^+ = 0, f^- ladder built from the spikes."""
    validate(s)
    w = s.constants
    P = [(sp.pos, sp.weight) for sp in s.pspikes]
    Q = [(sp.pos, sp.weight) for sp in s.qspikes]

    def poly(terms: Dict[LinForm, Fraction]) -> ExpRational:
        return ExpRational(ExpPoly(terms), ExpPoly.const(1))

    f10: Dict[LinForm, Fraction] = {}
    for lam, wt in P:
        _accumulate(f10, wave_exponent(lam, Fraction(0), w), wt)

    f01: Dict[LinForm, Fraction] = {}
    for mu, v in Q:
        _accumulate(f01, wave_exponent(Fraction(0), mu, w), v)

    def ladder(nq: int, sign: Fraction) -> ExpRational:
        # f^-_{1.nq}: one lambda against an ordered nq-tuple of mus (repeats
        # allowed), weight w * prod(v_a) / prod(lam - mu_a).
        terms: Dict[LinForm, Fraction] = {}
        for lam, wt in P:
            for tup in itertools.product(Q, repeat=nq):
                coef = sign * wt
                mu_sum = Fraction(0)
                for mu, v in tup:
                    coef *= v / (lam - mu)
                    mu_sum += mu
                _accumulate(terms, wave_exponent(lam, mu_sum, w), coef)
        return poly(terms)

    fields: Dict[FieldKey, ExpRational] = {
        k: ExpRational.zero() for k in m.field_keys
    }
    fields[(MINUS, (1, 0))] = poly(f10)
    fields[(MINUS, (0, 1))] = poly(f01)
    fields[(MINUS, (1, 1))] = ladder(1, Fraction(1))
    if m.name in ("B2", "G2"):
        fields[(MINUS, (1, 2))] = ladder(2, G2_SIGN_12 if m.name == "G2" else Fraction(1))
    if m.name == "G2":
        fields[(MINUS, (1, 3))] = ladder(3, G2_SIGN_13)
        terms23: Dict[LinForm, Fraction] = {}
        for (l1, w1), (l2, w2) in itertools.product(P, repeat=2):
            if l1 == l2:
                continue  # (l1 - l2)^2 weight vanishes
            base = G2_SIGN_23 * (l1 - l2) ** 2 * w1 * w2
            for tup in itertools.product(Q, repeat=3):
                coef = base
                mu_sum = Fraction(0)
                for mu, v in tup:
                    coef *= v / ((l1 - mu) * (l2 - mu))
                    mu_sum += mu
                _accumulate(terms23, wave_exponent(l1 + l2, mu_sum, w), coef)
        fields[(MINUS, (2, 3))] = poly(terms23)
    return FieldConfig(m.name, w, fields)
