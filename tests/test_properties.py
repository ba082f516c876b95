"""Randomized algebraic invariants, independent of any fixed numbers."""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from multid.groebner import LeftIdeal, TermOrder, normal_form
from multid.rationals import FactoredBPoly, rational_roots
from multid.weyl import Signature, WeightVector, WeylElement


SIG = Signature(xvars=("x",), tvars=("t",))
VW = WeightVector.v_filtration(SIG)


def _element(sig):
    exps = st.tuples(
        *[st.integers(min_value=0, max_value=3) for _ in range(sig.nslots)]
    )
    coeffs = st.fractions(
        min_value=-5, max_value=5, max_denominator=4
    ).filter(lambda c: c != 0)
    term = st.tuples(exps, coeffs)
    return st.lists(term, min_size=0, max_size=4).map(
        lambda terms: WeylElement(sig, dict(terms))
    )


elements = _element(SIG)


@settings(max_examples=500, deadline=None)
@given(elements, elements, elements)
def test_multiplication_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@settings(max_examples=200, deadline=None)
@given(elements, elements, elements)
def test_multiplication_distributive(p, q, r):
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r


@settings(max_examples=200, deadline=None)
@given(elements, elements, st.fractions(min_value=-3, max_value=3, max_denominator=3))
def test_multiplication_bilinear(p, q, c):
    assert p.scale(c) * q == (p * q).scale(c)
    assert p * q.scale(c) == (p * q).scale(c)


@settings(max_examples=500, deadline=None)
@given(elements, elements)
def test_weight_additivity(p, q):
    if p.is_zero() or q.is_zero():
        return
    assert (p * q).ord_weight(VW) == p.ord_weight(VW) + q.ord_weight(VW)


@settings(max_examples=200, deadline=None)
@given(elements, elements)
def test_initial_form_multiplicative(p, q):
    if p.is_zero() or q.is_zero():
        return
    assert (p * q).initial_form(VW) == p.initial_form(VW) * q.initial_form(VW)


def _polynomial(sig):
    poly_exps = st.tuples(
        *[
            st.integers(min_value=0, max_value=3)
            if i in sig.var_slots() or i in sig.central_slots()
            else st.just(0)
            for i in range(sig.nslots)
        ]
    )
    coeffs = st.fractions(
        min_value=-5, max_value=5, max_denominator=4
    ).filter(lambda c: c != 0)
    return st.lists(st.tuples(poly_exps, coeffs), min_size=0, max_size=4).map(
        lambda terms: WeylElement(sig, dict(terms))
    )


@settings(max_examples=200, deadline=None)
@given(elements, elements, _polynomial(SIG))
def test_action_consistency(p, q, h):
    lhs = (p * q).act_on_polynomial(h)
    rhs = p.act_on_polynomial(q.act_on_polynomial(h))
    assert lhs == rhs


HSIG = SIG.with_central("u1")
HVW = WeightVector.v_filtration(HSIG)
helements = _element(SIG).map(lambda p: p.lift(HSIG))


@settings(max_examples=200, deadline=None)
@given(helements)
def test_dehomogenization_roundtrip(p):
    if p.is_zero():
        return
    h = p.homogenize(HVW, "u1")
    big = WeightVector(
        HSIG, HVW.slot_weights[:-1] + (1,)
    )
    assert h.is_homogeneous(big)
    assert h.substitute_central("u1", 1) == p


root_lists = st.lists(
    st.fractions(min_value=-4, max_value=-1, max_denominator=6),
    min_size=0,
    max_size=4,
    unique=True,
)
mults = st.integers(min_value=1, max_value=3)


@settings(max_examples=200, deadline=None)
@given(st.builds(
    lambda roots, ms: FactoredBPoly(tuple(zip(roots, ms))),
    root_lists,
    st.lists(mults, min_size=4, max_size=4),
))
# a trailing coefficient with the prime factor 100003
@example(FactoredBPoly(((Fraction(-100003, 7), 1), (Fraction(-5, 6), 2))))
def test_rational_roots_roundtrip(b):
    assert rational_roots(b.expand()) == b


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_polynomial(SIG), min_size=1, max_size=3).filter(
        lambda gens: any(not g.is_zero() for g in gens)
    ),
    _polynomial(SIG),
)
def test_normal_form_difference_is_member(gens, h):
    gens = [g for g in gens if not g.is_zero()]
    order = TermOrder.grevlex(SIG)
    I = LeftIdeal(SIG, gens)
    G = I.groebner(order)
    nf = normal_form(h, G, order)
    assert I.contains(h - nf)
    if nf.is_zero():
        assert I.contains(h)
