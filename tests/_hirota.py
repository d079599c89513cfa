"""The per-equation Hirota residual: the reference for
``wavesys.residual(m, cfg, [eq])``, which forms one equation's residual
over its own fields' denominator, and through it for the one pass over
every equation of a configuration."""

from nwave.exprat import common_denominator


def equation_residual(cfg, eq):
    """(L, N_lhs' L - N_lhs L' - sum coef*N_a*N_b) for one equation, with L
    the least common denominator of that equation's fields alone and N a
    field's numerator over it, formed by ExpPoly products."""
    i, j = eq.d_index
    w = cfg.constants
    fields = [cfg[eq.lhs]] + [cfg[k] for _, a, b in eq.rhs for k in (a, b)]
    L, (n, *nums) = common_denominator(fields)
    r = n.deriv(i, j, w) * L - n * L.deriv(i, j, w)
    for (coef, _, _), na, nb in zip(eq.rhs, nums[::2], nums[1::2]):
        r = r - na * nb * coef
    return L, r
