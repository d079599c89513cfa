"""Frozen inputs of the benchmark and their seeded variants.

Seed 0 is the frozen data exactly as stored under ``data/``.  A nonzero seed
multiplies every P-spike weight by one factor alpha and every Q-spike weight
by one factor beta, both drawn from ``FACTORS``; positions never change.
Every tau function is a subset sum of fixed group sizes, so it is homogeneous
in each group's weights: a spike-derived field f^-_{p.q} scales by
alpha^p * beta^q (f^+_{p.q} by the inverse), no term appears or cancels, and
term structure and cost shape stay those of seed 0.  ``gauge`` applies that
scaling to the frozen configurations, so they never have to be rebuilt.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from nwave import cli, spectral, wavesys
from nwave.exprat import ExpRational

DATA = Path(__file__).resolve().parent / "data"
CONFIGS = DATA / "configs"

FACTORS = tuple(Fraction(f) for f in ("1/2", "2/3", "3/4", "4/3", "3/2", "2"))

#: Frozen configurations that do not come from spikes; seeds leave them alone.
UNSEEDED = frozenset({"generic_B2", "pole_A2"})


def weight_factors(seed: int) -> tuple:
    """(alpha, beta) for the P and Q weights; (1, 1) for seed 0."""
    if seed == 0:
        return Fraction(1), Fraction(1)
    rng = random.Random(seed)
    return rng.choice(FACTORS), rng.choice(FACTORS)


@lru_cache(maxsize=None)
def _spikes() -> dict:
    return json.loads((DATA / "spikes.json").read_text())


def spectral_doc(pset: str, qset: str, seed: int) -> dict:
    """Spectral document (the CLI's schema) for spike sets like 'P2', 'Q4'."""
    raw = _spikes()
    alpha, beta = weight_factors(seed)

    def scaled(name, factor):
        return [{"pos": sp["pos"], "w": str(Fraction(sp["w"]) * factor)}
                for sp in raw["sets"][name]]

    return {"schema": 1, "c": raw["c"], "d": raw["d"],
            "P": scaled(pset, alpha), "Q": scaled(qset, beta)}


def spectral_data(pset: str, qset: str, seed: int):
    return cli.spectral_from_doc(spectral_doc(pset, qset, seed))


def gauge(cfg: wavesys.FieldConfig, seed: int) -> wavesys.FieldConfig:
    """The configuration the seed's weight rescaling turns ``cfg`` into."""
    alpha, beta = weight_factors(seed)
    if alpha == beta == 1:
        return cfg
    fields = {}
    for (sign, (p, q)), value in cfg.fields.items():
        factor = alpha ** p * beta ** q
        if sign == wavesys.PLUS:
            factor = 1 / factor
        fields[(sign, (p, q))] = ExpRational(value.num * factor, value.den)
    return wavesys.FieldConfig(cfg.algebra, cfg.constants, fields)


def config_doc(name: str) -> dict:
    return json.loads((CONFIGS / f"{name}.json").read_text())


def load_config(name: str, seed: int) -> wavesys.FieldConfig:
    """A frozen configuration, rescaled for the seed unless it is unseeded."""
    cfg = cli.config_from_doc(config_doc(name))
    return cfg if name in UNSEEDED else gauge(cfg, seed)


def seed_config(algebra: str, pset: str, qset: str, seed: int) -> wavesys.FieldConfig:
    """The zero-background seed configuration, built (it costs milliseconds)."""
    return spectral.initial_config(wavesys.model(algebra), spectral_data(pset, qset, seed))


def write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    return path
