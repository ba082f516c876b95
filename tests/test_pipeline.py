import gc
import weakref
from fractions import Fraction
from itertools import combinations_with_replacement
from unittest import mock

import pytest

from multid import groebner
from multid.errors import UnsupportedM, ZeroDivisor
from multid.groebner import (
    _elimination_order,
    collect_stats,
    member,
    spairs_reduce_to_zero,
    to_ipoly,
)
from multid.parsing import parse_polynomial
from multid.pipeline import (
    S_NAME,
    IdealInput,
    ann_fs_generators,
    bfunction,
    bfunction_alg2,
    bfunction_level,
    build_If,
    build_Jf_m,
    compute_If1,
    ideal_power_products,
    polynomial_ring,
    polynomial_ring_s,
)
from multid.weyl import WeightVector, WeylElement

from conftest import make_input
from helpers import eliminate_by_normal_selection


def gen(sig, name):
    return WeylElement.generator(sig, name)


# -- input validation ---------------------------------------------------------


def test_input_rejects_reserved_names():
    for bad in ("s", "Dx", "t1", "u2"):
        with pytest.raises(ValueError):
            make_input((bad,), ("%s^2" % bad,))
    # an empty name is a ValueError too, not an IndexError
    with pytest.raises(ValueError, match="nonempty"):
        IdealInput(("",), (WeylElement.one(polynomial_ring(("",))),))


def test_input_rejects_zero_data():
    x = parse_polynomial("x", ("x",))
    zero = x - x
    with pytest.raises(ValueError):
        IdealInput(("x",), (zero,))
    with pytest.raises(ZeroDivisor):
        IdealInput(("x",), (x,), zero)
    with pytest.raises(ValueError):
        IdealInput(("x",), (x,), None, 0)


# -- annihilator generators -----------------------------------------------------


def test_ann_fs_smooth():
    inp = make_input(("x",), ("x",))
    sig = inp.weyl_sig()
    x, t, dx, dt = (gen(sig, n) for n in ("x", "t1", "Dx", "Dt1"))
    assert ann_fs_generators(inp) == [t - x, dx + dt]


def test_ann_fs_cusp():
    inp = make_input(("x", "y"), ("x^2+y^3",))
    sig = inp.weyl_sig()
    x, y, t = gen(sig, "x"), gen(sig, "y"), gen(sig, "t1")
    dx, dy, dt = gen(sig, "Dx"), gen(sig, "Dy"), gen(sig, "Dt1")
    assert ann_fs_generators(inp) == [
        t - x * x - y * y * y,
        dx + (x * dt).scale(2),
        dy + (y * y * dt).scale(3),
    ]


def test_ann_fs_two_generators():
    inp = make_input(("x", "y"), ("x^2", "y^3"))
    sig = inp.weyl_sig()
    x, y = gen(sig, "x"), gen(sig, "y")
    t1, t2 = gen(sig, "t1"), gen(sig, "t2")
    dx, dy = gen(sig, "Dx"), gen(sig, "Dy")
    dt1, dt2 = gen(sig, "Dt1"), gen(sig, "Dt2")
    assert ann_fs_generators(inp) == [
        t1 - x * x,
        t2 - y * y * y,
        dx + (x * dt1).scale(2),
        dy + (y * y * dt2).scale(3),
    ]


# -- I_f and I_f1 ----------------------------------------------------------------


def test_build_If_smooth():
    inp = make_input(("x",), ("x",))
    I = build_If(inp)
    sig = I.sig
    x, t = gen(sig, "x"), gen(sig, "t1")
    dx, dt = gen(sig, "Dx"), gen(sig, "Dt1")
    u1, u2 = gen(sig, "u1"), gen(sig, "u2")
    assert list(I.generators) == [
        t * u1 - x,
        u1 * dx + dt,
        u1 * u2 - WeylElement.one(sig),
    ]


def test_build_If_dehomogenizes_to_ann():
    inp = make_input(("x", "y"), ("x^2+y^3",))
    I = build_If(inp)
    wsig = inp.weyl_sig()
    ann = ann_fs_generators(inp)
    dehom = [
        g.substitute_central("u1", 1).substitute_central("u2", 1)
        for g in I.generators
    ]
    # The u1u2-1 generator collapses to 0; the rest match Ann exactly.
    recovered = [p.over(wsig) for p in dehom if not p.is_zero()]
    assert recovered == ann


def test_If1_generators_are_homogeneous():
    inp = make_input(("x", "y"), ("x^2+y^3",))
    I1 = compute_If1(inp)
    vw = WeightVector.v_filtration(I1.sig)
    assert I1.generators
    for g in I1.generators:
        assert g.is_homogeneous(vw)


def test_If1_selects_by_sugar():
    # compute_If1's top weight row eliminates only the central u1 and u2,
    # so it selects by sugar: the same generators as normal selection, in
    # fewer S-pairs
    inp = make_input(("x", "y"), ("x^2", "x*y", "y^4"))
    with collect_stats() as by_sugar:
        I1 = compute_If1(inp)
    reference, normal = eliminate_by_normal_selection(
        build_If(inp), inp.weyl_sig(), inp.poly_sig()
    )
    assert list(I1.generators) == reference
    assert by_sugar.spairs < normal.spairs


def test_If1_is_a_basis_under_the_restriction_order():
    # I_{f,1}'s generators, lifted to D_Y[s], are already a Groebner basis
    # under the order that the J_f(m) and I_2 restrictions eliminate with
    inp = make_input(("x", "y"), ("x^2", "x*y", "y^4"))
    big = inp.weyl_sig().with_central(S_NAME)
    order = _elimination_order(big, polynomial_ring_s(inp.variables))
    gens = [to_ipoly(g.over(big)) for g in compute_If1(inp).generators]
    assert spairs_reduce_to_zero(big, gens, order)
    assert len(gens) == 22


def test_If1_contained_in_annihilator():
    from multid.groebner import LeftIdeal

    inp = make_input(("x", "y"), ("x^2+y^3",))
    I1 = compute_If1(inp)
    ann = LeftIdeal(I1.sig, ann_fs_generators(inp))
    for g in I1.generators:
        assert member(g, ann)
    # t1 - f lies in Ann but is not (w,-w)-homogeneous, so it cannot
    # belong to the homogeneous part.
    sig = I1.sig
    x, y, t = gen(sig, "x"), gen(sig, "y"), gen(sig, "t1")
    assert not member(t - x * x - y * y * y, I1)


# -- J_f(m) ----------------------------------------------------------------------


def test_ideal_power_products_count():
    inp = make_input(("x", "y"), ("x^2", "y^3"))
    assert len(ideal_power_products(inp, 1)) == 2
    assert len(ideal_power_products(inp, 2)) == 3
    assert len(ideal_power_products(inp, 3)) == 4


def test_ideal_power_products_keep_the_combination_order():
    inp = make_input(("x", "y", "z"), ("x+y", "y*z", "z^2-x"))
    for m in (1, 2, 3, 4):
        naive = []
        for combo in combinations_with_replacement(inp.f, m):
            p = combo[0]
            for q in combo[1:]:
                p = p * q
            naive.append(p)
        assert ideal_power_products(inp, m) == naive


def test_Jf1_smooth_contains_functional_equation_witness():
    inp = make_input(("x",), ("x",))
    J = build_Jf_m(inp)
    sig = J.sig
    x, s = gen(sig, "x"), gen(sig, "s")
    assert member(x * (s + WeylElement.one(sig)), J)


def test_stage_results_are_freed_with_the_input():
    inp = make_input(("x",), ("x",))
    ref = weakref.ref(build_Jf_m(inp))
    del inp
    gc.collect()
    assert ref() is None


# -- b-functions -------------------------------------------------------------------


def test_bfunction_smooth():
    assert str(bfunction(make_input(("x",), ("x",)))) == "(s+1)"


def test_bfunction_cusp():
    assert str(bfunction(make_input(("x", "y"), ("x^2+y^3",)))) == (
        "(s+5/6)(s+1)(s+7/6)"
    )


def test_bfunction_cusp_multipliers():
    cusp = make_input(("x", "y"), ("x^2+y^3",))
    gx = parse_polynomial("x", ("x", "y"))
    gy = parse_polynomial("y", ("x", "y"))
    assert str(bfunction(cusp.with_g(gx))) == "(s+1)(s+11/6)(s+13/6)"
    assert str(bfunction(cusp.with_g(gy))) == "(s+1)(s+7/6)(s+11/6)"


def test_bfunction_level_differs_for_nonunit_g():
    # The level-m polynomial of sigma on g*delta modulo V^1 is a proper
    # divisor of the classical relative b-function here: the functional
    # equation (s+1) x f^s = (1/2) Dx f^(s+1) kills everything at level 1.
    cusp = make_input(("x", "y"), ("x^2+y^3",))
    gx = parse_polynomial("x", ("x", "y"))
    assert str(bfunction_level(cusp.with_g(gx))) == "(s+1)"


def test_bfunction_and_bfunction_level_share_one_memo_entry():
    # for m > 1 both compute the generator of (J_f(m) : g) cap C[s]
    variables = ("x", "y")
    inp = make_input(variables, ("x^2", "y^3"), m=2)
    inp = inp.with_g(parse_polynomial("x", variables))
    b = bfunction(inp)
    real = groebner._buchberger
    with mock.patch.object(groebner, "_buchberger", wraps=real) as run:
        assert bfunction_level(inp) == b
    run.assert_not_called()


def test_bfunction_alg2_agrees():
    cusp = make_input(("x", "y"), ("x^2+y^3",))
    assert bfunction_alg2(cusp) == bfunction(cusp)
    gx = parse_polynomial("x", ("x", "y"))
    assert str(bfunction_alg2(cusp.with_g(gx))) == "(s+1)(s+11/6)(s+13/6)"
    # inputs the cross-check corpus lacks: a repeated root with g, a
    # non-principal ideal with g, and one whose in(I0) basis takes 117
    # S-pairs; then those where the block order of initial_ideal cuts its
    # run's reductions most (two_branch 795 -> 389, four_lines 732 -> 211)
    for polys, g in (
        (("x*y*(x+y)*(x+2*y)",), "x"),
        (("x^3", "y^4"), "y"),
        (("x^2", "x*y", "y^4"), None),
        (("(x+y)^2-(x-y)^5",), None),
        (("x*y*(x+y)*(x+2*y)",), None),
        (("x^2", "y^3"), "x"),
    ):
        a = make_input(("x", "y"), polys, g)
        assert bfunction_alg2(a) == bfunction(a)


def test_bfunction_alg2_rejects_higher_level():
    cusp = make_input(("x", "y"), ("x^2+y^3",), m=2)
    with pytest.raises(UnsupportedM):
        bfunction_alg2(cusp)


def test_bfunction_generator_invariance():
    base = bfunction(make_input(("x", "y"), ("x^2", "y^3")))
    swapped = bfunction(make_input(("x", "y"), ("y^3", "x^2")))
    redundant = bfunction(make_input(("x", "y"), ("x^2", "y^3", "x^2+y^3")))
    assert swapped == base
    assert redundant == base


def _divides(b_small, b_big):
    big = b_big.root_multiset()
    return all(big.get(r, 0) >= m for r, m in b_small.root_multiset().items())


def test_bfunction_level_divisibility_in_g():
    # If g divides h, then the level polynomial for h divides the one
    # for g; in particular every level polynomial divides the g=1 case.
    a = make_input(("x", "y"), ("x^2", "y^3"))
    variables = ("x", "y")
    b_one = bfunction_level(a)
    b_x = bfunction_level(a.with_g(parse_polynomial("x", variables)))
    b_x2 = bfunction_level(a.with_g(parse_polynomial("x^2", variables)))
    assert _divides(b_x, b_one)
    assert _divides(b_x2, b_x)


def test_bfunction_roots_negative_rational():
    for inp in (
        make_input(("x",), ("x",)),
        make_input(("x", "y"), ("x^2+y^3",)),
        make_input(("x", "y"), ("x^2", "y^3")),
    ):
        for root in bfunction(inp).roots:
            assert isinstance(root, Fraction)
            assert root < 0
