"""The discrete-transformation engine.

Each transformation maps a FieldConfig to a new FieldConfig of the same
algebra, exactly: derivatives via the bilinear D_{i,j} rule, divisions as
normalized ExpRational quotients.  The defining property, checked by the
verify suites and proved for every map by the symbolic jet tests, is that
solutions map to solutions.

Rows are written out for A2_T1, B2_TM and G2_T1 only.  B2_T2A2 composes
B2_TM with B2_T10_INV; every other map is one of the three conjugated by an
exchange of its algebra (see wavesys), its pivot the image of theirs.

A map's rows are written once, as ``rows(F, d)``: ``F`` maps each
FieldKey to a value and ``d(i, j, e)`` is the derivation D_{i,j}; a
log-derivative is the quotient ``d(i, j, e) / e``.  Rows use only field
arithmetic, integer and Fraction scalars, ``d`` and ``cancel()``,
so the same functions run on ExpRational values (``apply``) and on sympy
jets (the tests).  Every row is evaluated in the order written: an
ExpRational's stored form depends on the order of operations.  ``apply``
cancels the known denominator factors of every image value, so an image
keeps no atom that its numerator still contains.

Naming: local aliases like m10 / p12 stand for f^-_{1.0} / f^+_{1.2}.

Where the source material for a map was internally inconsistent (signs or
indices that break exact invariance), the implemented row is the minimal
correction that restores invariance; the arbiter is always the residual
check, never the printed glyph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict

from .wavesys import (
    A2_SWAP_10_01, A2_SWAP_10_11, B2_SWAP_10_12, B2_SWAP_10_12_MIRROR, G2_SWAP_10_13,
    MINUS, PLUS, Exchange, FieldConfig, FieldKey, exchanged_field, field_label, model,
)

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


@dataclass(frozen=True)
class Transform:
    algebra: str
    #: Field that must not vanish identically for the map to be defined.
    pivot: FieldKey
    #: rows(F, d) -> the image of every field.
    rows: Callable[..., Dict[FieldKey, object]]


class PivotZero(ZeroDivisionError):
    """The pivot field of a transformation vanishes identically."""

    def __init__(self, transform_id: str, key: FieldKey, step: int = None):
        self.transform_id = transform_id
        self.key = key
        self.step = step
        at = f" (chain step {step})" if step is not None else ""
        super().__init__(f"{transform_id}{at}: pivot {field_label(key)} is identically zero")


def _cancelled(image):
    """The image with common factors cancelled from every value: cancel()
    is ExpRational.cancel (known denominator factors divided out) or, on
    sympy jets, sympy's cancel."""
    return {key: v.cancel() for key, v in image.items()}


def _values(F, algebra):
    """The f^+ values over the algebra's roots, then the f^- values."""
    roots = model(algebra).roots
    return [F[(PLUS, r)] for r in roots] + [F[(MINUS, r)] for r in roots]


def _a2_t1(F, d):
    p10, p01, p11, m10, m01, m11 = _values(F, "A2")
    return {
        (PLUS, (1, 0)): 1 / m10,
        (MINUS, (0, 1)): m11 / m10,
        (PLUS, (1, 1)): -p01 / m10,
        (PLUS, (0, 1)): d(1, 1, p01 / m10) * m10,
        (MINUS, (1, 1)): d(0, 1, m11 / m10) * m10,
        (MINUS, (1, 0)): (p10 * m10 + d(0, 1, d(1, 1, m10) / m10)) * m10,
    }


def _b2_tm(F, d):
    p10, p01, p11, p12, m10, m01, m11, m12 = _values(F, "B2")

    def D(f):
        return d(1, 0, f)

    dlog12 = D(m12) / m12
    tm12 = (
        D(dlog12) * QUARTER
        + (m11 * D(m01) - m01 * D(m11)) / (m12 * 2)
        + p12 * m12 + p11 * m11 + p01 * m01
    ) * m12
    return {
        (PLUS, (1, 2)): 1 / m12,
        (PLUS, (0, 1)): m11 / m12,
        (PLUS, (1, 1)): -m01 / m12,
        (PLUS, (1, 0)): p10 + m01 * m01 / m12,
        (MINUS, (1, 0)): m10 - m11 * m11 / m12,
        (MINUS, (0, 1)): -D(m01) - p11 * m12 + m01 * dlog12 * HALF,
        (MINUS, (1, 1)): -D(m11) + p01 * m12 + m11 * dlog12 * HALF,
        (MINUS, (1, 2)): tm12,
    }


def _g2_t1(F, d):
    p10, p01, p11, p12, p13, p23, m10, m01, m11, m12, m13, m23 = _values(F, "G2")

    def D(f):
        return d(1, 2, f)

    dlog10 = D(m10) / m10

    def half_deriv(f):
        # (m10*Df - (1/2) f*Dm10) / m10  ==  Df - (1/2) f * dlog10
        return D(f) - f * dlog10 * HALF

    tm23 = (
        half_deriv(m23) - m10 * m13
        + (m23 * m23 * p13 * (-1) + m11 * m11 * m11 * 2 + m23 * m11 * p01 * 3) / (m10 * 2)
    )
    tp01 = (
        half_deriv(p01) - p11 * m10
        + (m11 * m11 * p13 * 2 + p01 * p01 * m11 + m23 * p01 * p13) / (m10 * 2)
    )
    tp13 = (
        half_deriv(p13) + p23 * m10
        + (p13 * p13 * m23 - p13 * m11 * p01 * 3 - p01 * p01 * p01 * 2) / (m10 * 2)
    )
    tm11 = (
        half_deriv(m11) + m01 * m10
        - (p01 * p01 * m23 * 2 + m11 * m11 * p01 + m23 * m11 * p13) / (m10 * 2)
    )
    tm10 = (
        D(dlog10) * QUARTER
        + m10 * p10
        + (m01 * p01 + m11 * p11) * Fraction(3, 2)
        + (m23 * p23 + m13 * p13) * HALF
        + (p01 * D(m11) - m11 * D(p01)) / m10 * Fraction(3, 4)
        - (p13 * D(m23) - m23 * D(p13)) / m10 * QUARTER
        - (
            (m11 * p01) * (m11 * p01) * 3
            - (m23 * p13) * (m23 * p13)
            + m11 * p01 * m23 * p13 * 6
            + m11 * m11 * m11 * p13 * 4
            + p01 * p01 * p01 * m23 * 4
        ) / m10 / m10 * QUARTER
    ) * m10
    return {
        (PLUS, (1, 0)): 1 / m10,
        (MINUS, (1, 3)): -m23 / m10,
        (PLUS, (1, 1)): -p01 / m10,
        (MINUS, (0, 1)): m11 / m10,
        (PLUS, (2, 3)): p13 / m10,
        (PLUS, (1, 2)): p12 + (m11 * p13 + p01 * p01) / m10,
        (MINUS, (1, 2)): m12 - (m23 * p01 + m11 * m11) / m10,
        (MINUS, (2, 3)): tm23,
        (PLUS, (0, 1)): tp01,
        (PLUS, (1, 3)): tp13,
        (MINUS, (1, 1)): tm11,
        (MINUS, (1, 0)): tm10,
    }


def _conjugated(base: Transform, exchange: Exchange) -> Transform:
    """``base`` conjugated by the involution ``exchange``: inputs relabelled,
    rows run with the derivation substituted, outputs relabelled back.  Its
    linear map of exponent charges commutes with field arithmetic, so it
    cancels.  A sign is applied by negating, only where it is -1."""
    fields = [(key, *exchanged_field(exchange, key))
              for r in exchange for key in ((PLUS, r), (MINUS, r))]

    def rows(F, d):
        def sub(i, j, f):
            eta, (i2, j2) = exchange[(i, j)]
            v = d(i2, j2, f)
            return -v if eta < 0 else v

        inner = {target: -F[key] if eta < 0 else F[key] for key, eta, target in fields}
        image = base.rows(inner, sub)
        return {target: -image[key] if eta < 0 else image[key] for key, eta, target in fields}

    return Transform(base.algebra, exchanged_field(exchange, base.pivot)[1], rows)


_A2_T1 = Transform("A2", (MINUS, (1, 0)), _a2_t1)
_B2_TM = Transform("B2", (MINUS, (1, 2)), _b2_tm)
_B2_T10_INV = _conjugated(_B2_TM, B2_SWAP_10_12_MIRROR)
_G2_T1 = Transform("G2", (MINUS, (1, 0)), _g2_t1)


def _b2_t2a2(F, d):
    # the second-root map factors as TM followed by T10^-1; the TM image is
    # cancelled first, as apply cancels every image
    return _B2_T10_INV.rows(_cancelled(_b2_tm(F, d)), d)


TRANSFORMS: Dict[str, Transform] = {
    "A2_T1": _A2_T1,
    "A2_T2": _conjugated(_A2_T1, A2_SWAP_10_01),
    "A2_T3": _conjugated(_A2_T1, A2_SWAP_10_11),
    "B2_TM": _B2_TM,
    "B2_T10": _conjugated(_B2_TM, B2_SWAP_10_12),
    "B2_T10_INV": _B2_T10_INV,
    "B2_T2A2": Transform("B2", (MINUS, (1, 2)), _b2_t2a2),
    "G2_T1": _G2_T1,
    "G2_TA1_3A2": _conjugated(_G2_T1, G2_SWAP_10_13),
}


def apply(tid: str, cfg: FieldConfig) -> FieldConfig:
    t = TRANSFORMS.get(tid)
    if t is None:
        raise ValueError(f"unknown transform {tid!r}")
    if cfg.algebra != t.algebra:
        raise ValueError(f"{tid} acts on {t.algebra} configs, got {cfg.algebra}")
    if cfg[t.pivot].is_zero():
        raise PivotZero(tid, t.pivot)
    w, memo = cfg.constants, {}  # (i, j, id(f)) -> (f, D_{i,j} f): f kept alive keeps its id

    def d(i, j, f):
        if (i, j, id(f)) not in memo:
            memo[i, j, id(f)] = f, f.deriv(i, j, w)
        return memo[i, j, id(f)][1]

    return FieldConfig(cfg.algebra, w, _cancelled(t.rows(cfg.fields, d)))


def apply_chain(tids, cfg: FieldConfig) -> FieldConfig:
    for step, tid in enumerate(tids):
        try:
            cfg = apply(tid, cfg)
        except PivotZero as e:
            raise PivotZero(e.transform_id, e.key, step=step) from None
    return cfg
