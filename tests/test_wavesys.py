from fractions import Fraction

import pytest

from nwave.exprat import ExpPoly, ExpRational, wave_constants
from nwave.verify import verify_config
from nwave.wavesys import (
    _A2_TABLE,
    _B2_TABLE,
    _G2_TABLE,
    A2_SWAP_10_01,
    A2_SWAP_10_11,
    B2_SWAP_10_12,
    B2_SWAP_10_12_MIRROR,
    G2_SWAP_10_13,
    MINUS,
    PLUS,
    FieldConfig,
    exchanged_field,
    field_label,
    model,
    parse_field_label,
    residual,
    zero_config,
)

W = wave_constants(1, "1/2", "1/3", 1)


def E(lam, coef=1):
    lam = Fraction(lam)
    return ExpRational.const(0) + ExpRational(
        ExpPoly.term(coef, lam * W.d1, -lam * W.c1), ExpPoly.const(1)
    )


def F(mu, coef=1):
    mu = Fraction(mu)
    return ExpRational(ExpPoly.term(coef, mu * W.d2, -mu * W.c2), ExpPoly.const(1))


def test_equation_counts():
    assert len(model("A2").equations) == 6
    assert len(model("B2").equations) == 8
    assert len(model("G2").equations) == 12


def test_unknown_algebra_rejected():
    with pytest.raises(ValueError):
        model("C2")


def test_derivative_index_matches_lhs_root():
    for name in ("A2", "B2", "G2"):
        for eq in model(name).equations:
            assert eq.d_index == eq.lhs[1]


def test_equations_are_grade_homogeneous():
    # grade of f^s_{p.q} is s*(p, q); every product on the rhs must carry the
    # same total grade as the lhs field.
    for name in ("A2", "B2", "G2"):
        for eq in model(name).equations:
            s, (p, q) = eq.lhs
            want = (s * p, s * q)
            for _coef, (sa, (pa, qa)), (sb, (pb, qb)) in eq.rhs:
                assert (sa * pa + sb * pb, sa * qa + sb * qb) == want


@pytest.mark.parametrize("name, table", [("A2", _A2_TABLE), ("B2", _B2_TABLE), ("G2", _G2_TABLE)])
def test_equation_tables_are_complete(name, table):
    # The '+' equation of root alpha has one product per pair of positive
    # roots with beta + gamma = alpha or beta - gamma = alpha, written as
    # the signed pair {+beta, +gamma} or {+beta, -gamma}, and no other.
    roots = model(name).roots
    assert sorted(root for root, _ in table) == sorted(roots)
    for alpha, rhs in table:
        want = set()
        for b in roots:
            for c in roots:
                for sign in (PLUS, MINUS):
                    if (b[0] + sign * c[0], b[1] + sign * c[1]) == alpha:
                        want.add(frozenset([(PLUS, b), (sign, c)]))
        got = [frozenset([a, b]) for _, a, b in rhs]
        assert len(got) == len(set(got)) and set(got) == want, (name, alpha)


def _normalize_eq(lhs, d_index, rhs) -> tuple:
    merged = {}
    for coef, a, b in rhs:
        key = tuple(sorted((a, b)))
        merged[key] = merged.get(key, Fraction(0)) + Fraction(coef)
    terms = tuple(sorted((k, c) for k, c in merged.items() if c))
    return (lhs, d_index, terms)


def substituted_equation(eq, dmap, fmap) -> tuple:
    """Apply a (sign, relabel) substitution to one equation and normalize.

    From  eta*D'_{r'}(eps_L*f_{L'}) = sum coef*eps_A*eps_B*f_{A'}*f_{B'}
    the normalized claim is  D'_{r'} f_{L'} = sum (coef*eps_A*eps_B/(eta*eps_L)) ...
    """
    eta, new_d = dmap[eq.d_index]
    eps_l, new_lhs = fmap[eq.lhs]
    rhs = []
    for coef, a, b in eq.rhs:
        eps_a, new_a = fmap[a]
        eps_b, new_b = fmap[b]
        rhs.append((Fraction(coef, 1) * eps_a * eps_b / (eta * eps_l), new_a, new_b))
    return _normalize_eq(new_lhs, new_d, rhs)


def substitution_is_symmetry(m, dmap, fmap) -> bool:
    """True iff the substitution maps the equation set onto itself exactly."""
    original = {_normalize_eq(eq.lhs, eq.d_index, eq.rhs) for eq in m.equations}
    mapped = {substituted_equation(eq, dmap, fmap) for eq in m.equations}
    return mapped == original


def test_plus_minus_exchange_is_a_symmetry():
    for name in ("A2", "B2", "G2"):
        m = model(name)
        dmap = {r: (+1, r) for r in m.roots}
        fmap = {(s, r): (+1, (-s, r)) for (s, r) in m.field_keys}
        assert substitution_is_symmetry(m, dmap, fmap)


EXCHANGES = {
    "A2_SWAP_10_01": ("A2", A2_SWAP_10_01),
    "A2_SWAP_10_11": ("A2", A2_SWAP_10_11),
    "B2_SWAP_10_12": ("B2", B2_SWAP_10_12),
    "B2_SWAP_10_12_MIRROR": ("B2", B2_SWAP_10_12_MIRROR),
    "G2_SWAP_10_13": ("G2", G2_SWAP_10_13),
}


def field_map(m, exchange):
    return {key: exchanged_field(exchange, key) for key in m.field_keys}


@pytest.mark.parametrize("name", sorted(EXCHANGES))
def test_exchange_is_a_symmetry(name):
    algebra, exchange = EXCHANGES[name]
    m = model(algebra)
    assert set(exchange) == set(m.roots)
    assert substitution_is_symmetry(m, exchange, field_map(m, exchange))


@pytest.mark.parametrize("name", sorted(EXCHANGES))
def test_exchange_is_an_involution(name):
    # transforms applies one table on both sides of a conjugation
    algebra, exchange = EXCHANGES[name]
    for r in model(algebra).roots:
        e1, r1 = exchange[r]
        e2, r2 = exchange[r1]
        assert (e1 * e2, r2) == (1, r)
    for key in model(algebra).field_keys:
        e1, k1 = exchanged_field(exchange, key)
        e2, k2 = exchanged_field(exchange, k1)
        assert (e1 * e2, k2) == (1, key)


@pytest.mark.parametrize("name", sorted(EXCHANGES))
def test_exchange_fails_with_the_sector_rule_flipped_at_any_root(name):
    # f^s_r -> eta_r f^{+eta_r s}: the sector kept where it should flip and
    # flipped where it should be kept, at one root at a time.
    algebra, exchange = EXCHANGES[name]
    m = model(algebra)
    for root in m.roots:
        fmap = field_map(m, exchange)
        for s in (1, -1):
            eta, (_, image) = fmap[(s, root)]
            fmap[(s, root)] = (eta, (eta * s, image))
        assert not substitution_is_symmetry(m, exchange, fmap), root


def test_g2_exchange_fails_with_flipped_f01_sign():
    # The same exchange with f_{0.1} -> -f_{0.1} (other sign) is NOT a symmetry.
    m = model("G2")
    fmap = field_map(m, G2_SWAP_10_13)
    for s in (1, -1):
        eps, key = fmap[(s, (0, 1))]
        fmap[(s, (0, 1))] = (-eps, key)
    assert not substitution_is_symmetry(m, G2_SWAP_10_13, fmap)


def test_field_labels_roundtrip():
    for name in ("A2", "B2", "G2"):
        for key in model(name).field_keys:
            assert parse_field_label(field_label(key)) == key
    assert field_label((1, (1, 2))) == "f+1.2"
    assert field_label((-1, (2, 3))) == "f-2.3"


@pytest.mark.parametrize("label", ["f+01.0", "f+ 1.0", "f+1.+0", "f+1.0 ", "f+1_0.0",
                                   "g+1.0", "f*1.0", "f+1", "f+1.0.0", "f+", ""])
def test_only_the_canonical_label_parses(label):
    with pytest.raises(ValueError, match="bad field label"):
        parse_field_label(label)


def test_field_config_requires_total_assignment():
    m = model("A2")
    fields = {k: ExpRational.zero() for k in m.field_keys}
    del fields[(1, (1, 1))]
    with pytest.raises(ValueError):
        FieldConfig("A2", W, fields)


@pytest.mark.parametrize("other, equal", [
    (zero_config("A2", wave_constants(1, "1/2", "1/3", 1)), True),  # equal constants, not W
    (zero_config("B2", W), False),
    (zero_config("A2", wave_constants(1, "1/2", "1/3", 2)), False),
    (0, False),
])
def test_a_config_equals_only_a_config_of_its_algebra_and_constants(other, equal):
    cfg = zero_config("A2", W)
    assert (cfg == other) is equal and (other == cfg) is equal
    if not isinstance(other, FieldConfig):
        assert cfg.__eq__(other) is NotImplemented


def test_zero_config_is_exact_solution():
    for name in ("A2", "B2", "G2"):
        assert verify_config(model(name), zero_config(name, W)).passed


def test_single_wave_is_exact_solution():
    # One exponential riding on f-1.0 alone solves every system: the wave
    # travels in the direction annihilated by D_{1,0} and all couplings vanish.
    for name in ("A2", "B2", "G2"):
        cfg = zero_config(name, W).with_fields({(-1, (1, 0)): E(2)})
        assert verify_config(model(name), cfg).passed


def test_two_wave_a2_solution():
    lam, mu, w, v = Fraction(2), Fraction(1), Fraction(1), Fraction(3)
    cfg = zero_config("A2", W).with_fields(
        {
            (-1, (1, 0)): E(lam, w),
            (-1, (0, 1)): F(mu, v),
            (-1, (1, 1)): E(lam, w * v / (lam - mu)) * F(mu),
        }
    )
    assert verify_config(model("A2"), cfg).passed


def test_residual_localizes_broken_field():
    # Scaling f-1.1 in the two-wave solution breaks exactly the equations in
    # which that field appears, and no others.
    lam, mu = Fraction(2), Fraction(1)
    cfg = zero_config("A2", W).with_fields(
        {
            (-1, (1, 0)): E(lam),
            (-1, (0, 1)): F(mu),
            (-1, (1, 1)): E(lam, Fraction(5) / (lam - mu)) * F(mu),  # wrong scale
        }
    )
    m = model("A2")
    bad = {eq.lhs for eq, r in zip(m.equations, residual(m, cfg, m.equations)) if r}
    assert bad == {(-1, (1, 1))}


def test_residual_is_exact_rational():
    m = model("A2")
    cfg = zero_config("A2", W).with_fields({(-1, (1, 1)): E(1) * F(2)})
    eq = next(e for e in m.equations if e.lhs == (-1, (1, 1)))
    r, = residual(m, cfg, [eq])
    # D_{1,1} E(1)F(2) = (2-1)*EF, rhs is zero: residual is exactly EF.
    assert isinstance(r, ExpPoly)
    assert r == (E(1) * F(2)).num
