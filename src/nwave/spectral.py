"""Spike (delta-measure) spectral data and the seed soliton configurations.

Spectral data are two families of spikes: P-spikes at positions lambda
(E-waves, annihilated by D_{1,0}) and Q-spikes at positions mu (F-waves,
annihilated by D_{0,1}).  The seed configuration of each algebra is its
order-(0,0) tau solution (``nwave.tau.solution_from_tau``): every f^+ is
zero, and each f^- is a subset sum of coupled spike waves over the constant
base tau 1.  Every construction is exact, in integers and rationals;
correctness means residual zero for every equation, which the tests enforce.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .exprat import LinForm, WaveConstants, as_frac
from .wavesys import AlgebraModel, FieldConfig


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
    """P- and Q-spikes over wave constants, validated when built."""

    constants: WaveConstants
    pspikes: Tuple[Spike, ...]
    qspikes: Tuple[Spike, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pspikes", tuple(self.pspikes))
        object.__setattr__(self, "qspikes", tuple(self.qspikes))
        validate(self)


def validate(s: SpectralData) -> None:
    """Raise InvalidSpectralData naming the first violated invariant."""
    for kind, spikes in (("P", s.pspikes), ("Q", s.qspikes)):
        seen = set()
        for sp in spikes:
            if sp.weight == 0:
                raise InvalidSpectralData(
                    f"{kind}-spike at {reprlib.repr(str(sp.pos))} has zero weight")
            if sp.pos in seen:
                raise InvalidSpectralData(
                    f"duplicate {kind}-spike position {reprlib.repr(str(sp.pos))}")
            seen.add(sp.pos)
    ppos = {sp.pos for sp in s.pspikes}
    for sp in s.qspikes:
        if sp.pos in ppos:
            raise InvalidSpectralData(
                f"P-spike and Q-spike share position {reprlib.repr(str(sp.pos))} (coupling pole)"
            )


def spectral_data(constants: WaveConstants, pspikes, qspikes) -> SpectralData:
    return SpectralData(constants, [Spike(p, w) for p, w in pspikes],
                        [Spike(p, w) for p, w in qspikes])


def wave_exponent(lam: Fraction, mu: Fraction, w: WaveConstants) -> LinForm:
    """Exponent (a, b) of E(lam)*F(mu) = exp(a*t + b*x)."""
    return (lam * w.d1 + mu * w.d2, -(lam * w.c1 + mu * w.c2))


def initial_config(m: AlgebraModel, s: SpectralData) -> FieldConfig:
    """Seed configuration: the order-(0,0) tau solution, all f^+ = 0."""
    from .tau import solution_from_tau  # tau builds on this module

    return solution_from_tau(m, s, 0, 0)
