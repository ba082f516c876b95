"""Small construction/comparison utilities shared by the test modules."""

from fractions import Fraction

from multid.groebner import (
    LeftIdeal,
    _buchberger_packed,
    _elimination_order,
    _packed,
    collect_stats,
    colon,
    eliminate,
    from_ipoly,
    ideal_equal,
    to_ipoly,
)
from multid.parsing import parse_polynomial
from multid.pipeline import S_NAME, polynomial_ring
from multid.rationals import UPoly, rational_roots
from multid.weyl import Signature


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
    return [
        g.over(target)
        for g in elements
        if all(not v or i in keep for e in g.terms for i, v in enumerate(e))
    ], stats


def b_by_elimination(J, input):
    """The generator of (J : g) cap C[s], factored, read off the
    elimination of J : g down to C[s]: an oracle for the minimal
    polynomial that `pipeline._b_of_colon` reads instead."""
    K = eliminate(colon(J, input.g.over(J.sig)), Signature(central=(S_NAME,)))
    (p,) = K.generators
    coeffs = [Fraction(0)] * (p.total_degree() + 1)
    for e, c in p.terms.items():
        coeffs[e[0]] = c
    return rational_roots(UPoly(coeffs))
