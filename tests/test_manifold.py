"""Symbolic proof that every registered map preserves the solution set.

These checks run the shipped rows (transforms.TRANSFORMS) in jet
coordinates (see _jet), so they cover all solutions at once — including
field patterns no finite spike configuration reaches.
"""
import pytest

pytest.importorskip("sympy")

from _jet import b2_factorization_mismatches, manifold_residuals

from nwave.transforms import TRANSFORMS


@pytest.mark.parametrize("tid", sorted(TRANSFORMS))
def test_rows_preserve_solutions_identically(tid):
    assert manifold_residuals(tid) == []


def test_b2_second_root_composition_orders_agree_on_solutions():
    # T10_INV o TM == TM o T10_INV on the manifold; off it they differ,
    # so the probe really does need jet coordinates.
    assert b2_factorization_mismatches() == []
