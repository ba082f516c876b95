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
    packed = [(pk.pack(e)[0], c) for e, c in f.terms.items()]
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
    terms = [(pk.pack((2, 0, 0, 0))[0], 1)]  # x^2
    with pytest.raises(PackingOverflow):
        mono_mul(pk, mo, me, terms, 2)
    # within the limit the product is exact: Dx^2 x = x Dx^2 + 2 Dx
    terms = [(pk.pack((1, 0, 0, 0))[0], 1)]
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


# -- the reducer basis of a Groebner run (`groebner._Basis`) -----------------


def _first_divisor(pk: Packing, leads: list, e: int, skip: int = -1) -> int:
    """The first index other than skip whose lead divides e, by a scan."""
    for i, lead in enumerate(leads):
        if i != skip and not (e - lead) & pk.guards:
            return i
    return -1


@settings(max_examples=100, deadline=None)
@given(packed_setup(nexps=7), st.data())
def test_divisor_index_finds_the_first_divisor_of_a_scan(setup, data):
    sig, rows, exps, _ = setup
    pk = Packing(sig, rows, 2 * max(sum(e) for e in exps))
    # products of two leads, so that most probes have a divisor
    probes = [pk.pack(tuple(map(sum, zip(a, b))))[1] for a in exps for b in exps]
    probes += [pk.pack(e)[1] for e in exps]
    basis = groebner._Basis(pk)
    # each lead is added after the lookups against the leads before it
    for exp in exps:
        for e in probes:
            assert basis.divisor(e) == _first_divisor(pk, basis.leads, e)
        basis.add((pk.pack(exp)[0], 1))
        skip = data.draw(st.integers(0, len(basis.leads) - 1))
        for e in probes:
            assert basis.divisor(e, skip) == _first_divisor(pk, basis.leads, e, skip)


def _x_part_from(sig: Signature, m: tuple, other: tuple) -> tuple:
    """m with its non-differential slots taken from other."""
    diff = set(sig.diff_slots())
    return tuple(m[i] if i in diff else other[i] for i in range(sig.nslots))


@settings(max_examples=150, deadline=None)
@given(
    packed_setup(nexps=5),
    st.lists(st.integers(-4, 4), min_size=4, max_size=4),
    st.integers(-3, 3).filter(bool),
)
def test_basis_multiple_matches_mono_mul(setup, coeffs, scale):
    sig, rows, exps, _ = setup
    terms = {e: c for e, c in zip(exps[1:], coeffs) if c}
    if not terms:
        return
    deg = max(map(sum, terms))
    pk = Packing(sig, rows, 3 * max(map(sum, exps)))
    pairs = sorted(((pk.pack(e)[0], c) for e, c in terms.items()), reverse=True)
    g = groebner._flat(pairs)
    basis = groebner._Basis(pk)
    basis.add(g)
    lo, lc = pairs[0]
    # the same differential part twice: the second multiple reads the cache
    second = _x_part_from(sig, exps[0], exps[-1])
    with mock.patch.object(groebner, "mono_mul", wraps=mono_mul) as spy:
        for m in (exps[0], second):
            mo, me = pk.pack(m)
            p, heap = {}, []
            basis.addmul(p, heap, 0, mo, me, scale)
            want = mono_mul(pk, mo, me, pairs, deg)
            assert want.pop(mo + lo) == lc
            assert p == {o: scale * c for o, c in want.items()}
            assert sorted(set(heap)) == sorted(-o for o in p)
    assert spy.call_count <= 1


def test_a_cached_differential_part_still_overflows():
    sig = Signature(xvars=("x",))
    pk = Packing(sig, (), 3)
    assert pk.limit == 3
    basis = groebner._Basis(pk)
    basis.add((pk.pack((1, 0))[0], 1))  # x
    p, heap = {}, []
    basis.addmul(p, heap, 0, *pk.pack((0, 1)), 1)  # Dx x = x Dx + 1
    assert {pk.unpack(pk.exp_of(o)): c for o, c in p.items()} == {(0, 0): 1}
    assert basis.lower[0]
    # x^2 Dx reuses Dx's product, but x^2 Dx x has degree 4
    with pytest.raises(PackingOverflow):
        basis.addmul({}, [], 0, *pk.pack((2, 1)), 1)
    with pytest.raises(PackingOverflow):
        mono_mul(pk, *pk.pack((2, 1)), [(pk.pack((1, 0))[0], 1)], 1)


def test_a_run_that_overflows_on_a_cached_product_keeps_its_basis():
    sig = Signature(xvars=("x", "y"))
    x, y, dx, dy = (WeylElement.generator(sig, n) for n in ("x", "y", "Dx", "Dy"))
    order = TermOrder.grevlex(sig)
    gens = [to_ipoly(p) for p in ((y - x) * dx * dy, x * dy)]
    basis, _ = buchberger_ipolys(sig, gens, order)
    cached = []
    real = groebner._Basis.addmul

    def spy(self, p, heap, i, mo, me, c):
        hit = (me & self.pk.diff_bits) in self.lower[i]
        try:
            return real(self, p, heap, i, mo, me, c)
        except PackingOverflow:
            cached.append(hit)
            raise

    with mock.patch.object(groebner, "_HEADROOM", 1), mock.patch.object(
        groebner._Basis, "addmul", spy
    ):
        narrow, _ = buchberger_ipolys(sig, gens, order)
    assert True in cached
    assert narrow == basis
