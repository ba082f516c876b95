"""The packed monomials of the Groebner core (`weyl.Packing`, `mono_mul`)."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from multid import groebner
from multid.errors import PackingOverflow
from multid.groebner import TermOrder, buchberger_ipolys, to_ipoly
from multid.weyl import Packing, Signature, WeylElement, mono_mul


SIGNATURES = (
    Signature(central=("x", "y", "z")),
    Signature(xvars=("x", "y")),
    Signature(xvars=("x",), tvars=("t",)),
    Signature(xvars=("x", "y"), tvars=("t",), central=("s", "u")),
)


@st.composite
def packed_setup(draw, nexps=6):
    """(signature, weight rows, exponent tuples, packing for their degrees).

    One row or two: a two-row order packs its lower row into a bounded
    field."""
    sig = draw(st.sampled_from(SIGNATURES))
    row = st.tuples(*[st.integers(0, 5) for _ in range(sig.nslots)])
    rows = tuple(draw(st.lists(row, min_size=1, max_size=2)))
    exp = st.tuples(*[st.integers(0, 6) for _ in range(sig.nslots)])
    exps = draw(st.lists(exp, min_size=2, max_size=nexps))
    pk = Packing(sig, rows, max(sum(e) for e in exps))
    return sig, rows, exps, pk


def _cmp(a, b) -> int:
    return (a > b) - (a < b)


@settings(max_examples=300, deadline=None)
@given(packed_setup())
def test_order_int_compares_like_the_term_order_key(setup):
    sig, rows, exps, pk = setup
    key = TermOrder(sig, *rows).key
    for a in exps:
        for b in exps:
            assert _cmp(pk.pack(a)[0], pk.pack(b)[0]) == _cmp(key(a), key(b))


@settings(max_examples=300, deadline=None)
@given(packed_setup())
def test_packed_divisibility_lcm_and_round_trip(setup):
    _, _, exps, pk = setup
    for a in exps:
        oa, ea = pk.pack(a)
        assert pk.unpack(ea) == a
        assert pk.exp_of(oa) == ea
        assert pk.degree(oa) == sum(a)
        for b in exps:
            ob, eb = pk.pack(b)
            divides = all(x <= y for x, y in zip(a, b))
            assert (not (eb - ea) & pk.guards) == divides
            lcm = pk.lcm(ea, eb)
            assert pk.unpack(lcm) == tuple(map(max, a, b))
            # the order int of a product is the sum of the factors'
            assert pk.order(ea + eb) == oa + ob
            coprime = not any(x and y for x, y in zip(a, b))
            assert (not pk.support(ea) & pk.support(eb)) == coprime


def _pair_product(a: int, b: int) -> dict:
    """D^a x^b as {(x exponent, D exponent): coeff}, by applying D a times
    with D x^j = x^j D + j x^(j-1)."""
    out = {(b, 0): 1}
    for _ in range(a):
        nxt: dict = {}
        for (j, d), c in out.items():
            nxt[(j, d + 1)] = nxt.get((j, d + 1), 0) + c
            if j:
                nxt[(j - 1, d)] = nxt.get((j - 1, d), 0) + j * c
        out = nxt
    return out


def _naive_mono_mul(sig: Signature, m: tuple, e: tuple) -> dict:
    """Normal-order product of two monomials, one pair at a time."""
    nr = sig.n + sig.r
    base = [m[i] + e[i] for i in range(sig.nslots)]
    out = {tuple(base): 1}
    for i in range(nr):
        # x^m_i D^m_{nr+i} x^e_i D^e_{nr+i}: only D^m_{nr+i} x^e_i reorders
        nxt: dict = {}
        for exp, c in out.items():
            for (j, d), k in _pair_product(m[nr + i], e[i]).items():
                le = list(exp)
                le[i] = m[i] + j
                le[nr + i] = d + e[nr + i]
                key = tuple(le)
                nxt[key] = nxt.get(key, 0) + c * k
        out = nxt
    return out


@settings(max_examples=200, deadline=None)
@given(packed_setup(nexps=4), st.lists(st.integers(-4, 4), min_size=4, max_size=4))
def test_packed_mono_mul_matches_the_boundary_product(setup, coeffs):
    sig, rows, exps, _ = setup
    m, terms = exps[0], exps[1:]
    f = WeylElement(sig, {e: Fraction(c) for e, c in zip(terms, coeffs)})
    if f.is_zero():
        return
    deg = f.total_degree()
    pk = Packing(sig, rows, sum(m) + deg)
    packed = [pk.pack(e) + (c,) for e, c in f.terms.items()]
    got = mono_mul(pk, *pk.pack(m), packed, deg)
    got = {pk.unpack(pk.exp_of(o)): c for o, c in got.items()}
    boundary = (WeylElement.monomial(sig, m) * f).terms
    assert got == boundary
    naive: dict = {}
    for e, c in f.terms.items():
        for exp, k in _naive_mono_mul(sig, m, e).items():
            naive[exp] = naive.get(exp, 0) + c * k
    assert got == {e: c for e, c in naive.items() if c}


def test_overflow_guard_raises_before_a_field_carries():
    sig = Signature(xvars=("x",), tvars=("t",))
    pk = Packing(sig, (), 3)
    assert pk.limit == 3
    with pytest.raises(PackingOverflow):
        pk.pack((4, 0, 0, 0))
    mo, me = pk.pack((0, 0, 2, 0))  # Dx^2
    terms = [pk.pack((2, 0, 0, 0)) + (1,)]  # x^2
    with pytest.raises(PackingOverflow):
        mono_mul(pk, mo, me, terms, 2)
    # within the limit the product is exact: Dx^2 x = x Dx^2 + 2 Dx
    terms = [pk.pack((1, 0, 0, 0)) + (1,)]
    got = mono_mul(pk, mo, me, terms, 1)
    assert {pk.unpack(pk.exp_of(o)): c for o, c in got.items()} == {
        (1, 0, 2, 0): 1,
        (0, 0, 1, 0): 2,
    }


def test_a_run_that_overflows_widens_and_keeps_its_basis():
    sig = Signature(xvars=("x", "y"))
    x, y, dx, dy = (WeylElement.generator(sig, n) for n in ("x", "y", "Dx", "Dy"))
    order = TermOrder.grevlex(sig)
    gens = [to_ipoly(p) for p in (x * dx * dx + y * dy, y * y - dx)]
    basis, stats = buchberger_ipolys(sig, gens, order)
    widths = []

    def spy(*args):
        pk = Packing(*args)
        widths.append(pk.width)
        return pk

    # fields sized for the input degree alone are too narrow for this run
    with mock.patch.object(groebner, "_HEADROOM", 1), mock.patch.object(
        groebner, "Packing", spy
    ):
        narrow, narrow_stats = buchberger_ipolys(sig, gens, order)
    assert len(widths) >= 2 and widths == sorted(set(widths))
    assert narrow == basis
    stats.millis = narrow_stats.millis = 0
    assert narrow_stats == stats
