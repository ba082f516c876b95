"""Randomized algebraic invariants, independent of any fixed numbers."""

import os
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, reject, settings, strategies as st

from multid.errors import ComputationTimeout
from multid.groebner import (
    TIME_LIMIT_ENV,
    LeftIdeal,
    TermOrder,
    _buchberger,
    collect_stats,
    member,
    normal_form,
    spairs_reduce_to_zero,
    to_ipoly,
)
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


def _weyl_ideal_and_permutation():
    gens = st.lists(
        st.dictionaries(
            st.tuples(*[st.integers(min_value=0, max_value=2)] * SIG.nslots),
            st.sampled_from((-3, -2, -1, 1, 2, 3)),
            min_size=1,
            max_size=3,
        ).map(lambda terms: WeylElement(SIG, terms)),
        min_size=1,
        max_size=3,
    )
    return gens.flatmap(lambda gs: st.tuples(st.just(gs), st.permutations(gs)))


def _gens(*terms_list):
    return [WeylElement(SIG, terms) for terms in terms_list]


# Leads coprime, elements not commuting, so the product criterion must not
# drop the pair: <Dx, t^2 + x> is the unit ideal, and
# <3*x^2*Dx*Dt, x^2*Dx + 3*t^2*Dt - 3*x*Dt> contains x*Dt.
_DX, _T2_X = {(0, 0, 1, 0): 1}, {(0, 2, 0, 0): 1, (1, 0, 0, 0): 1}
_A = {(2, 0, 1, 1): 3}
_B = {(2, 0, 1, 0): 1, (0, 2, 0, 1): 3, (1, 0, 0, 1): -3}


@settings(max_examples=80, deadline=None)
@given(_weyl_ideal_and_permutation())
@example((_gens(_DX, _T2_X), _gens(_T2_X, _DX)))
@example((_gens(_A, _B), _gens(_B, _A)))
def test_pair_criteria_keep_the_groebner_property(gens_and_permutation):
    gens, permuted = gens_and_permutation
    order = TermOrder.grevlex(SIG)
    # some random Weyl ideals need minutes; an example that exceeds the
    # budget is discarded as too large, not counted as a pass or a failure
    with mock.patch.dict(os.environ, {TIME_LIMIT_ENV: "500"}), collect_stats():
        try:
            I = LeftIdeal(SIG, gens)
            basis = I.groebner_ipolys(order)
            # the audit checks every pair of the basis, pruning none
            assert spairs_reduce_to_zero(SIG, basis, order)
            assert all(member(g, I, order) for g in gens)
            assert LeftIdeal(SIG, permuted).groebner_ipolys(order) == basis
        except ComputationTimeout:
            reject()


@settings(max_examples=80, deadline=None)
@given(_weyl_ideal_and_permutation())
@example((_gens(_DX, _T2_X), _gens(_T2_X, _DX)))
@example((_gens(_A, _B), _gens(_B, _A)))
def test_normal_selection_gives_the_same_basis(gens_and_permutation):
    gens, permuted = gens_and_permutation
    order = TermOrder.grevlex(SIG)
    # the same budget as the test above, whose grevlex runs select by sugar
    with mock.patch.dict(os.environ, {TIME_LIMIT_ENV: "500"}), collect_stats():
        try:
            basis = LeftIdeal(SIG, gens).groebner_ipolys(order)
            for gs in (gens, permuted):
                ipolys = [to_ipoly(g, order) for g in gs]
                normal, _ = _buchberger(SIG, ipolys, order, False)
                assert normal == basis
        except ComputationTimeout:
            reject()
