import time
from fractions import Fraction

import pytest

from nwave.exprat import ExpRational, wave_constants
from nwave.spectral import initial_config, spectral_data
from nwave.tau import solution_from_tau
from nwave.transforms import TRANSFORMS, PivotZero, apply, apply_chain
from nwave.verify import verify_config
from nwave.wavesys import MINUS, PLUS, FieldConfig, model

W = wave_constants(1, "1/2", "1/3", 1)

P2 = [("2", "1"), ("-1", "1/2")]
Q1 = [("1", "1")]
Q2 = [("1", "1"), ("1/2", "2")]
Q4 = Q2 + [("-3", "1/3"), ("3", "-1")]


def a2_data():
    return spectral_data(W, P2, Q2)


def b2_data(q=Q2):
    return spectral_data(W, P2, q)


def g2_data():
    return spectral_data(W, P2, Q2)


def assert_solution(cfg):
    rep = verify_config(model(cfg.algebra), cfg)
    assert rep.passed, [c.name for c in rep.checks if not c.passed]


def config_terms(cfg):
    return sum(len(v.num.terms) + len(v.den.terms) for v in cfg.fields.values())


@pytest.mark.parametrize("q, orders", [(Q4, (0, 0)), (Q2, (1, 0)), (Q2, (1, 1))],
                         ids=["2P+4Q seed", "2P+2Q (1,0)", "2P+2Q (1,1)"])
def test_b2_composite_is_as_small_as_the_closed_form(q, orders):
    # Every atom the TM pivot brings in is cancelled again, in the TM image
    # and in the final one: the image is stored over the new tau, not over
    # products of pivots (the 2P+4Q seed image has the 163 terms of (0,1)).
    s = b2_data(q)
    n1, n2 = orders
    gen = solution_from_tau(model("B2"), s, n1, n2)
    start = time.perf_counter()
    out = apply("B2_T2A2", gen)
    elapsed = time.perf_counter() - start
    closed = solution_from_tau(model("B2"), s, n1, n2 + 1)
    assert out == closed
    assert config_terms(out) <= config_terms(closed)
    assert elapsed < 1.0


@pytest.mark.parametrize("orders", [(0, 1), (1, 1)])
def test_b2_roundtrip_returns_no_more_terms_than_it_got(orders):
    gen = solution_from_tau(model("B2"), b2_data(), *orders)
    back = apply_chain(["B2_T10", "B2_T10_INV"], gen)
    assert back == gen
    assert config_terms(back) <= config_terms(gen)


# --- the pair of B2 maps invert each other (both directions)

def test_b2_roundtrips_are_identities():
    gen = solution_from_tau(model("B2"), b2_data(Q1), 1, 1)
    assert apply_chain(["B2_T10", "B2_T10_INV"], gen) == gen
    assert apply_chain(["B2_T10_INV", "B2_T10"], gen) == gen


# --- zero patterns

def const_config(algebra, values):
    m = model(algebra)
    return FieldConfig(
        algebra, W, {k: ExpRational.const(values.get(k, 0)) for k in m.field_keys}
    )


def test_b2_t10_keeps_plus_sector_zero():
    cfg = const_config(
        "B2", {(MINUS, (1, 0)): 2, (MINUS, (1, 1)): 3, (MINUS, (1, 2)): 5}
    )
    assert_solution(cfg)
    out = apply("B2_T10", cfg)
    for key in [(PLUS, (0, 1)), (PLUS, (1, 1)), (PLUS, (1, 2))]:
        assert out[key].is_zero()
    assert (out[(PLUS, (1, 0))] - ExpRational.const(Fraction(1, 2))).is_zero()
    assert_solution(out)


# --- the second-root G2 map: algebraic rows relative to its pivot

def test_g2_second_root_algebraic_rows():
    cfg = solution_from_tau(model("G2"), g2_data(), 0, 1)
    out = apply("G2_TA1_3A2", cfg)
    m13 = cfg[(MINUS, (1, 3))]
    assert (out[(PLUS, (1, 3))] - 1 / m13).is_zero()
    assert (out[(PLUS, (0, 1))] - cfg[(MINUS, (1, 2))] / m13).is_zero()
    assert (out[(PLUS, (1, 2))] + cfg[(MINUS, (0, 1))] / m13).is_zero()
    assert (out[(MINUS, (1, 0))] - cfg[(MINUS, (2, 3))] / m13).is_zero()


# --- error paths

def test_unknown_transform_rejected():
    seed = initial_config(model("A2"), a2_data())
    with pytest.raises(ValueError):
        apply("A2_T9", seed)


def test_algebra_mismatch_rejected():
    seed = initial_config(model("A2"), a2_data())
    with pytest.raises(ValueError):
        apply("B2_T10", seed)


def test_pivot_zero_reports_transform_and_field():
    cfg = const_config("A2", {(MINUS, (0, 1)): 4, (MINUS, (1, 1)): 7})
    assert_solution(cfg)
    with pytest.raises(PivotZero) as e:
        apply("A2_T1", cfg)
    assert e.value.transform_id == "A2_T1"
    assert e.value.key == (MINUS, (1, 0))
    assert e.value.step is None


def test_pivot_zero_in_chain_reports_step():
    cfg = const_config("A2", {(MINUS, (0, 1)): 4, (MINUS, (1, 1)): 7})
    with pytest.raises(PivotZero) as e:
        apply_chain(["A2_T3", "A2_T1"], cfg)
    assert e.value.step == 1


def test_transform_registry_is_complete():
    assert len(TRANSFORMS) == 9
    for tid, t in TRANSFORMS.items():
        assert tid.startswith(t.algebra + "_")
        assert t.pivot in model(t.algebra).field_keys
    seed = initial_config(model("A2"), a2_data())
    for tid in ["A2_T1", "A2_T2", "A2_T3"]:
        assert apply(tid, seed).algebra == "A2"


def test_registry_pivots_are_pinned():
    # A conjugate's pivot is derived, as the exchange's image of its base's.
    assert {tid: (t.algebra, t.pivot) for tid, t in TRANSFORMS.items()} == {
        "A2_T1": ("A2", (MINUS, (1, 0))),
        "A2_T2": ("A2", (MINUS, (0, 1))),
        "A2_T3": ("A2", (MINUS, (1, 1))),
        "B2_TM": ("B2", (MINUS, (1, 2))),
        "B2_T10": ("B2", (MINUS, (1, 0))),
        "B2_T10_INV": ("B2", (PLUS, (1, 0))),
        "B2_T2A2": ("B2", (MINUS, (1, 2))),
        "G2_T1": ("G2", (MINUS, (1, 0))),
        "G2_TA1_3A2": ("G2", (MINUS, (1, 3))),
    }


@pytest.mark.parametrize("tid, derivatives", [("B2_TM", 4), ("B2_T2A2", 8), ("G2_T1", 5)])
def test_a_map_forms_each_derivative_once(monkeypatch, tid, derivatives):
    # A row set that names D(m12) or D(m01) twice, as B2_TM's and G2_T1's
    # do, differentiates each value once per map (6, 12 and 10 calls if not).
    t = TRANSFORMS[tid]
    seed = initial_config(model(t.algebra), spectral_data(W, P2, Q2))
    deriv, calls = ExpRational.deriv, []

    def counting(self, i, j, w):
        calls.append((i, j, self))
        return deriv(self, i, j, w)

    monkeypatch.setattr(ExpRational, "deriv", counting)
    image = apply(tid, seed)
    monkeypatch.undo()
    assert len(calls) == derivatives
    assert_solution(image)
