"""Regenerate the frozen configurations under ``bench/data/configs``.

    python3 bench/make_data.py

Every file is a configuration document in the CLI's schema, built at seed 0
from ``data/spikes.json``.  They are the inputs of acceptance criterion 10
(the numeric cross-check), the suite's arbitrary B2 configuration, and the
numeric negative whose single field is (e^{2000t} - 1) / e^{2000t}.  Freezing
them keeps the B2_T2A2 image (seconds to build) out of the benchmark's
set-up time.  ``test_bench.py`` checks that the stored values still equal a
fresh build.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nwave import cli, tau, transforms, verify, wavesys  # noqa: E402
from nwave.exprat import ExpPoly, ExpRational, wave_constants  # noqa: E402

import inputs  # noqa: E402

A2_GRID = [(n1, n2) for n1 in range(3) for n2 in range(3)]
B2_ORDERS = [(0, 0), (0, 1), (1, 0), (1, 1)]
G2_ORDERS = [(0, 0), (1, 0), (0, 1), (1, 1)]


def frozen_configs() -> dict:
    """Name -> configuration, in the order criterion 10 meets them."""
    out = {}
    for algebra in ("A2", "B2", "G2"):
        out[f"seed_{algebra}_P2Q3"] = inputs.seed_config(algebra, "P2", "Q3", 0)
    a2, b2, g2 = (wavesys.model(n) for n in ("A2", "B2", "G2"))
    s22 = inputs.spectral_data("P2", "Q2", 0)
    for n1, n2 in A2_GRID:
        out[f"tau_A2_P2Q2_{n1}{n2}"] = tau.solution_from_tau(a2, s22, n1, n2)
    seed = inputs.seed_config("B2", "P2", "Q2", 0)
    for tid in ("B2_TM", "B2_T10", "B2_T2A2"):
        out[f"img_{tid}_P2Q2"] = transforms.apply(tid, seed)
    s24 = inputs.spectral_data("P2", "Q4", 0)
    for n1, n2 in B2_ORDERS:
        out[f"tau_B2_P2Q4_{n1}{n2}"] = tau.solution_from_tau(b2, s24, n1, n2)
    for n1, n2 in G2_ORDERS:
        out[f"tau_G2_P2Q4_{n1}{n2}"] = tau.solution_from_tau(g2, s24, n1, n2)
    w = inputs.spectral_data("P2", "Q2", 0).constants
    out["generic_B2"] = verify._generic_config(w)
    out["pole_A2"] = pole_config()
    return out


def pole_config() -> wavesys.FieldConfig:
    """A2 with constants (1, 0, 0, 1), f+1.1 = 1, f-0.1 = (e^{2000t}-1)/e^{2000t}.

    Not a solution (exact mode fails it); the numeric grid check passes it.
    """
    e = ExpPoly.term(1, 2000, 0)
    cfg = wavesys.zero_config("A2", wave_constants(1, 0, 0, 1))
    return cfg.with_fields({
        (wavesys.PLUS, (1, 1)): ExpRational.const(1),
        (wavesys.MINUS, (0, 1)): ExpRational(e - ExpPoly.const(1), e),
    })


def main() -> None:
    inputs.CONFIGS.mkdir(parents=True, exist_ok=True)
    for name, cfg in frozen_configs().items():
        inputs.write_json(inputs.CONFIGS / f"{name}.json", cli.config_to_doc(cfg))
        print(name)


if __name__ == "__main__":
    main()
