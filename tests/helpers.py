"""Small construction/comparison utilities shared by the test modules."""

from multid.groebner import (
    LeftIdeal,
    TermOrder,
    _buchberger,
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


def eliminate_by_normal_selection(I, target):
    """The generators of `eliminate(I, target)`, forcing normal selection.

    Returns them with the GBStats of the one Buchberger run.
    """
    sig = I.sig
    keep = {sig.slot_of(n) for n in target.slot_names}
    order = TermOrder(sig, [0 if i in keep else 1 for i in range(sig.nslots)])
    gens = [to_ipoly(g, order) for g in I.generators]
    with collect_stats() as stats:
        basis, _ = _buchberger(sig, gens, order, False)
    elements = [from_ipoly(sig, g) for g in basis]
    return [g.project(target) for g in elements if g.support_slots() <= keep], stats
