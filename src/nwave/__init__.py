"""Exact multisoliton constructions for rank-2 n-wave interacting systems."""

from .exprat import (
    DivisionByZeroField,
    EvalPole,
    ExpPoly,
    ExpRational,
    InexactDivision,
    TooManyDigits,
    WaveConstants,
    divexact,
    wave_constants,
)

__all__ = [
    "DivisionByZeroField",
    "EvalPole",
    "ExpPoly",
    "ExpRational",
    "InexactDivision",
    "TooManyDigits",
    "WaveConstants",
    "divexact",
    "wave_constants",
]

__version__ = "0.1.0"
