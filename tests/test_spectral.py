from fractions import Fraction

import pytest

import nwave.tau as tau
from nwave.exprat import ExpPoly, ExpRational
from nwave.spectral import (
    InvalidSpectralData,
    Spike,
    SpectralData,
    initial_config,
    spectral_data,
)
from nwave.verify import _P2 as P2, _Q4, _W as W, verify_config
from nwave.wavesys import model

Q3 = _Q4[:3]


def test_validate_rejects_duplicate_positions():
    with pytest.raises(InvalidSpectralData, match="duplicate P"):
        spectral_data(W, [("1", "1"), ("1", "2")], [])
    with pytest.raises(InvalidSpectralData, match="duplicate Q"):
        spectral_data(W, [], [("1", "1"), ("1", "2")])


def test_validate_rejects_shared_position():
    with pytest.raises(InvalidSpectralData, match="share position"):
        spectral_data(W, [("1", "1")], [("1", "1")])


def test_validate_rejects_zero_weight():
    with pytest.raises(InvalidSpectralData, match="zero weight"):
        spectral_data(W, [("1", "0")], [])


def test_spectral_data_is_validated_when_built_directly():
    with pytest.raises(InvalidSpectralData, match="duplicate Q"):
        SpectralData(W, (), (Spike(1, 1), Spike(1, 2)))


def test_single_p_spike_seed():
    s = spectral_data(W, [("1", "1")], [])
    cfg = initial_config(model("A2"), s)
    assert cfg[(-1, (1, 0))] == ExpRational(
        ExpPoly.term(1, W.d1, -W.c1), ExpPoly.const(1)
    )
    # empty Q: everything downstream of f-0.1 vanishes
    assert cfg[(-1, (0, 1))].is_zero()
    assert cfg[(-1, (1, 1))].is_zero()


def test_coupled_seed_value():
    s = spectral_data(W, [("2", "1")], [("1", "1")])
    cfg = initial_config(model("A2"), s)
    want = ExpRational(
        ExpPoly.term(Fraction(1, 1), 2 * W.d1 + W.d2, -2 * W.c1 - W.c2),
        ExpPoly.const(1),
    )
    assert cfg[(-1, (1, 1))] == want


def test_all_plus_fields_zero():
    s = spectral_data(W, P2, Q3)
    for name in ("A2", "B2", "G2"):
        cfg = initial_config(model(name), s)
        for sign, root in model(name).field_keys:
            if sign > 0:
                assert cfg[(sign, root)].is_zero()


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_seed_is_exact_solution_small(name):
    s = spectral_data(W, [("2", "1")], [("1", "1")])
    assert verify_config(model(name), initial_config(model(name), s)).passed


def test_adding_p_spike_leaves_f01_unchanged():
    s1 = spectral_data(W, P2, Q3)
    s2 = spectral_data(W, P2 + (("3", "1/4"),), Q3)
    c1 = initial_config(model("B2"), s1)
    c2 = initial_config(model("B2"), s2)
    assert c1[(-1, (0, 1))] == c2[(-1, (0, 1))]
    assert c1[(-1, (1, 0))] != c2[(-1, (1, 0))]


def test_g2_seed_signs_are_forced(monkeypatch):
    # Flipping the calibration sign of G2's f-1.2 or f-2.3 must break at
    # least one equation of the seed: the exact residual check is the
    # arbiter that fixed them.
    s = spectral_data(W, P2, Q3[:2])
    m = model("G2")
    signs = tau._SIGNS
    assert verify_config(m, initial_config(m, s)).passed
    monkeypatch.setitem(signs, (-1, (1, 2)), -1)
    assert not verify_config(m, initial_config(m, s)).passed
    monkeypatch.setitem(signs, (-1, (1, 2)), 1)
    monkeypatch.setitem(signs, (-1, (2, 3)), 1)
    assert not verify_config(m, initial_config(m, s)).passed


def test_seed_residuals_all_reported():
    s = spectral_data(W, P2, Q3)
    m = model("B2")
    rep = verify_config(m, initial_config(m, s))
    assert len(rep.checks) == len(m.equations)
    assert rep.passed
