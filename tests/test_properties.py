"""Randomized algebraic invariants, independent of any fixed numbers."""

import operator
import os
from fractions import Fraction
from math import gcd
from unittest import mock

from hypothesis import example, given, reject, settings, strategies as st

from multid.errors import ComputationTimeout
from multid.groebner import (
    LeftIdeal,
    TermOrder,
    _Basis,
    _packed,
    _unpack,
    _working,
    basis_ipolys,
    buchberger_ipolys,
    collect_stats,
    exact_divide,
    member,
    spairs_reduce_to_zero,
    to_ipoly,
)
from multid.rationals import FactoredBPoly, rational_roots
from multid.request import TIME_LIMIT_ENV
from multid.weyl import Signature, WeightVector, WeylElement

from helpers import buchberger_by


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


# two variables, a t and a central s: the layout of the pipeline's D_Y[s]
ASIG = Signature(xvars=("x", "y"), tvars=("t1",), central=("s",))


@settings(max_examples=200, deadline=None)
@given(_element(ASIG), _element(ASIG), _polynomial(ASIG))
def test_action_consistency(p, q, h):
    # a module action, (PQ)(h) = P(Q(h)), though act_on_polynomial only
    # drops the terms of a product that carry a differential
    lhs = (p * q).act_on_polynomial(h)
    assert lhs == p.act_on_polynomial(q.act_on_polynomial(h))
    assert lhs.is_polynomial()


CSIG = Signature(central=("x", "y", "s"))


@settings(max_examples=200, deadline=None)
@given(_polynomial(CSIG), _polynomial(CSIG).filter(lambda g: not g.is_zero()))
def test_exact_divide_inverts_a_product(q, g):
    assert exact_divide(q * g, g) == q


HSIG = SIG.with_central("u1")
HVW = WeightVector.v_filtration(HSIG)
helements = _element(SIG).map(lambda p: p.over(HSIG))


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


# a nonzero element of SIG as a dict of small integer coefficients
_weyl_terms = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=2)] * SIG.nslots),
    st.sampled_from((-3, -2, -1, 1, 2, 3)),
    min_size=1,
    max_size=3,
)


def _weyl_ideal_and_permutation():
    gens = st.lists(
        _weyl_terms.map(lambda terms: WeylElement(SIG, terms)),
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


_X, _DT = {(1, 0, 0, 0): 1}, {(0, 0, 0, 1): 1}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_weyl_terms, _weyl_terms), min_size=1, max_size=3))
# x*Dx in <Dx>; Dx*(t^2 + x) - (t^2 + x)*Dx = 1, which needs the S-pair
# that the product criterion must keep; Dt*A + x*B for the pair A, B above
@example([(_X, _DX)])
@example([({e: -c for e, c in _T2_X.items()}, _DX), (_DX, _T2_X)])
@example([(_DT, _A), (_X, _B)])
def test_left_combinations_are_members(pairs):
    # sum q_i*g_i lies in the left ideal of the g_i; the q_i multiply from
    # the left, so the Weyl relations reorder every product
    gens = [WeylElement(SIG, g) for _, g in pairs]
    h = WeylElement.zero(SIG)
    for (q, _), g in zip(pairs, gens):
        h = h + WeylElement(SIG, q) * g
    # the same budget as the tests below
    with mock.patch.dict(os.environ, {TIME_LIMIT_ENV: "500"}), collect_stats():
        try:
            assert member(h, LeftIdeal(SIG, gens))
        except ComputationTimeout:
            reject()


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
            basis = basis_ipolys(I, order)
            # the audit checks every pair of the basis, pruning none
            assert spairs_reduce_to_zero(SIG, basis, order)
            assert all(member(g, I) for g in gens)
            assert basis_ipolys(LeftIdeal(SIG, permuted), order) == basis
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
            basis = basis_ipolys(LeftIdeal(SIG, gens), order)
            for gs in (gens, permuted):
                ipolys = [to_ipoly(g) for g in gs]
                normal, _ = buchberger_by(SIG, ipolys, order, False)
                assert normal == basis
        except ComputationTimeout:
            reject()


@settings(max_examples=80, deadline=None)
@given(
    st.lists(_weyl_terms, min_size=1, max_size=3),
    _weyl_terms,
    st.sampled_from((1, -4, 6)),
    # grevlex, and the order that weighs t, Dx and Dt (algorithm 2's)
    st.sampled_from(((0, 0, 0, 0), (0, 1, 1, 1))),
)
@example([_DX, _T2_X], {(1, 1, 1, 1): 2}, 6, (0, 0, 0, 0))
@example([_A, _B], {(2, 0, 1, 1): 1, (1, 0, 0, 1): 3}, -4, (0, 1, 1, 1))
def test_reduce_reports_the_exact_normal_form(gens, h_terms, scale, row):
    # the primitive remainder times the reported factor is the normal form
    # itself: h - NF(h) lies in the ideal, and no lead divides a term of NF(h)
    order = TermOrder(SIG, row)
    I = LeftIdeal(SIG, [WeylElement(SIG, g) for g in gens])
    h = WeylElement(SIG, {e: scale * c for e, c in h_terms.items()})

    def run(pk, polys, stats):
        ih, *G = polys
        r, q = _Basis(pk, G).reduce(*_working(ih), stats)
        leads = [pk.unpack(pk.exp_of(g[0])) for g in G]
        return {e: q * c for e, c in _unpack(pk, r)}, leads

    # the same budget as the tests above
    with mock.patch.dict(os.environ, {TIME_LIMIT_ENV: "500"}), collect_stats():
        try:
            basis = basis_ipolys(I, order)
            # h has integer coefficients, so to_ipoly leaves it unscaled
            terms, leads = _packed(SIG, order, [to_ipoly(h)] + basis, run)[0]
            nf = WeylElement(SIG, terms)
            assert member(h - nf, I)
        except ComputationTimeout:
            reject()
    for e in nf.terms:
        assert not any(all(map(operator.le, lead, e)) for lead in leads)


def _sorted_primitive(terms: dict, order) -> list:
    """terms as a term list sorted descending by `TermOrder.key`, primitive,
    with a positive leading coefficient."""
    ip = sorted(terms.items(), key=lambda t: order.key(t[0]), reverse=True)
    g = 0
    for _, c in ip:
        g = gcd(g, c)
    g = g if ip[0][1] > 0 else -g
    return [(e, c // g) for e, c in ip]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(_weyl_terms, min_size=1, max_size=3),
    _weyl_terms,
    st.lists(st.sampled_from((-6, -1, 2, 3)), min_size=4, max_size=4),
    st.randoms(use_true_random=False),
)
def test_core_takes_term_lists_in_any_order_and_scale(gens, h, scales, rnd):
    # the Groebner core sorts and normalizes its input itself: term lists
    # shuffled and rescaled give what sorted primitive ones give
    order = TermOrder.grevlex(SIG)

    def mess(ip, k):
        ip = [(e, k * c) for e, c in ip]
        rnd.shuffle(ip)
        return ip

    tidy = [_sorted_primitive(g, order) for g in gens + [h]]
    messy = [mess(ip, k) for ip, k in zip(tidy, scales)]
    *G_tidy, h_tidy = [WeylElement(SIG, dict(ip)) for ip in tidy]
    *G_messy, h_messy = [
        WeylElement(SIG, {e: Fraction(c, 4) for e, c in ip}) for ip in messy
    ]
    # the same budget as the tests above
    with mock.patch.dict(os.environ, {TIME_LIMIT_ENV: "500"}), collect_stats():
        try:
            basis, stats = buchberger_ipolys(SIG, tidy[:-1], order)
            got, got_stats = buchberger_ipolys(SIG, messy[:-1], order)
            assert got == basis
            stats.millis = got_stats.millis = 0
            assert got_stats == stats
            assert spairs_reduce_to_zero(SIG, messy[:-1], order) == (
                spairs_reduce_to_zero(SIG, tidy[:-1], order)
            )
            assert spairs_reduce_to_zero(SIG, [mess(g, -2) for g in basis], order)
            assert member(h_messy, LeftIdeal(SIG, G_messy)) == member(
                h_tidy, LeftIdeal(SIG, G_tidy)
            )
        except ComputationTimeout:
            reject()
