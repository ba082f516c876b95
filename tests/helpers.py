"""Small construction/comparison utilities shared by the test modules."""

from multid.groebner import (
    LeftIdeal,
    _buchberger_packed,
    _elimination_order,
    _packed,
    collect_stats,
    from_ipoly,
    ideal_equal,
    to_ipoly,
)
from multid.parsing import parse_polynomial
from multid.pipeline import polynomial_ring


def ideal_of(variables, *polys):
    """A LeftIdeal in C[variables] from polynomial source strings."""
    variables = tuple(variables)
    sig = polynomial_ring(variables)
    return LeftIdeal(sig, [parse_polynomial(p, variables) for p in polys])


def gens_match(gens, variables, *polys):
    """True when <gens> equals the ideal spanned by the given sources."""
    if not gens:
        return not polys
    sig = gens[0].sig
    return ideal_equal(LeftIdeal(sig, list(gens)), ideal_of(variables, *polys))


def buchberger_by(sig, gens, order, sugar):
    """`buchberger_ipolys(sig, gens, order)` with the pair selection forced
    to sugar (True) or normal (False) instead of `order.by_sugar`."""
    return _packed(
        sig, order, gens, lambda pk, p, st: _buchberger_packed(pk, p, sugar, st)
    )


def eliminate_by_normal_selection(I, target, then=None):
    """The generators of `eliminate(I, target, then)`, forcing normal
    selection.

    Returns them with the GBStats of the one Buchberger run.
    """
    sig = I.sig
    keep = {sig.slot_of(n) for n in target.slot_names}
    order = _elimination_order(sig, target, then)
    gens = [to_ipoly(g) for g in I.generators]
    with collect_stats() as stats:
        basis, _ = buchberger_by(sig, gens, order, False)
    elements = [from_ipoly(sig, g) for g in basis]
    return [g.over(target) for g in elements if g.support_slots() <= keep], stats
