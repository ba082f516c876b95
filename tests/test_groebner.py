from fractions import Fraction
from unittest import mock

import pytest

from multid import groebner
from multid.errors import NoncommutativeContext, SignatureMismatch
from multid.groebner import (
    LeftIdeal,
    TermOrder,
    _buchberger,
    basis_ipolys,
    buchberger_ipolys,
    collect_stats,
    colon,
    eliminate,
    exact_divide,
    ideal_equal,
    initial_ideal,
    intersect,
    member,
    minimal_polynomial,
    saturate,
    spairs_reduce_to_zero,
    to_ipoly,
    weight_homogenization,
)
from multid.parsing import parse_polynomial
from multid.pipeline import (
    IdealInput,
    ann_fs_generators,
    build_Jf_m,
    compute_If1,
    polynomial_ring,
)
from multid.weyl import Signature, WeightVector, WeylElement

from conftest import make_input
from helpers import eliminate_by_normal_selection, ideal_of


XYZ = ("x", "y", "z")


def pol(src, variables=XYZ):
    return parse_polynomial(src, variables)


def gen(sig, name):
    return WeylElement.generator(sig, name)


# -- membership ---------------------------------------------------------------


def test_member_left_multiple():
    # x*Dx lies in the left ideal <Dx>; Dx*x = x*Dx + 1 does not
    sig = Signature(xvars=("x",))
    x, dx = gen(sig, "x"), gen(sig, "Dx")
    I = LeftIdeal(sig, [dx])
    assert member(x * dx, I)
    assert not member(dx * x, I)


def test_member_no_division():
    assert not member(pol("x"), ideal_of(XYZ, "y"))


def test_member_defining_relation():
    sig = Signature(xvars=("x",))
    x, dx = gen(sig, "x"), gen(sig, "Dx")
    assert member(dx * x, LeftIdeal(sig, [x * dx + WeylElement.one(sig)]))


def test_reducer_keeps_remainder_at_the_working_scale():
    # Hand-checked reduced bases in Q[x, y] under grevlex.  Reducing the
    # second generator against the first takes a remainder: in the
    # first basis, y^41 is set aside before the content division after
    # step 32 of 40; in the second, x^2 is set aside before the step that
    # rescales by 2.
    XY = ("x", "y")
    order = TermOrder.grevlex(pol("x", XY).sig)
    for gens, reduced in (
        (["x-2", "y^41+x^40"], ["x-2", f"y^41+{2**40}"]),
        (["2*y+1", "x^2+y"], ["y+1/2", "x^2-1/2"]),
    ):
        G = [pol(g, XY) for g in gens]
        assert LeftIdeal(order.sig, G).groebner() == [
            pol(g, XY) for g in reduced
        ]
        basis, _ = buchberger_ipolys(order.sig, [to_ipoly(g) for g in G], order)
        for terms in basis:
            keys = [order.key(e) for e, _ in terms]
            assert all(a > b for a, b in zip(keys, keys[1:]))


# -- buchberger -------------------------------------------------------------


def test_gb_of_monomials_is_trivial():
    I = ideal_of(("x", "y"), "x", "y")
    order = TermOrder.grevlex(I.sig)
    G = I.groebner()
    assert spairs_reduce_to_zero(I.sig, basis_ipolys(I, order), order)
    assert sorted(str(g) for g in G) == ["x", "y"]


def test_gb_elimination_twisted_cubic():
    I = ideal_of(XYZ, "x^2-y", "x^3-z")
    J = eliminate(I, polynomial_ring(("y", "z")))
    assert ideal_equal(J, ideal_of(("y", "z"), "y^3-z^2"))
    assert member(pol("y^3-z^2"), I)


def test_gb_weyl_unit_ideal():
    sig = Signature(xvars=("x",))
    x, dx = gen(sig, "x"), gen(sig, "Dx")
    I = LeftIdeal(sig, [dx, x])
    assert member(WeylElement.one(sig), I)


def test_every_generator_reduces_to_zero():
    I = ideal_of(XYZ, "x^2-y", "x^3-z", "x*y*z-1")
    order = TermOrder.grevlex(I.sig)
    G = I.groebner()
    for g in I.generators:
        assert member(g, LeftIdeal(I.sig, G))
    assert spairs_reduce_to_zero(I.sig, basis_ipolys(I, order), order)


# -- reduced GB -------------------------------------------------------------


def test_reduced_gb_basics():
    sig = pol("x").sig
    assert LeftIdeal(sig, [pol("2*x"), pol("x^2+x")]).groebner() == [pol("x")]
    rg = LeftIdeal(sig, [pol("x+y"), pol("y")]).groebner()
    assert rg == [pol("y"), pol("x")] or rg == [pol("x"), pol("y")]
    assert LeftIdeal(sig, rg).groebner() == rg


def test_reduced_gb_permutation_invariant():
    gens = [pol("x^2-y"), pol("x*y-z"), pol("y^2-x*z")]
    a = LeftIdeal(gens[0].sig, gens).groebner()
    b = LeftIdeal(gens[0].sig, gens[::-1]).groebner()
    assert a == b


# -- elimination / intersection ---------------------------------------------


def test_eliminate_to_zero_ideal():
    I = ideal_of(("x", "y"), "x-y")
    J = eliminate(I, polynomial_ring(("y",)))
    assert J.sig == polynomial_ring(("y",))
    assert J.is_zero_ideal()


def test_eliminate_identity():
    I = ideal_of(XYZ, "x^2-y", "x^3-z")
    assert ideal_equal(eliminate(I, I.sig), I)


def test_eliminate_rejects_a_then_outside_target():
    # a then slot outside target would be dropped from the second row
    I = ideal_of(XYZ, "x^2-y", "x^3-z")
    with pytest.raises(ValueError, match="outside target"):
        eliminate(I, polynomial_ring(("y", "z")), polynomial_ring(("x",)))


def test_intersect_coprime_monomials():
    I = intersect(ideal_of(("x", "y"), "x"), ideal_of(("x", "y"), "y"))
    assert ideal_equal(I, ideal_of(("x", "y"), "x*y"))


def test_intersect_idempotent():
    I = ideal_of(("x", "y"), "x^2-y", "x*y")
    assert ideal_equal(intersect(I, I), I)


def test_intersect_principal_coprime():
    I = intersect(ideal_of(("x",), "x"), ideal_of(("x",), "x+1"))
    assert ideal_equal(I, ideal_of(("x",), "x^2+x"))


def test_intersect_signature_mismatch():
    with pytest.raises(SignatureMismatch):
        intersect(ideal_of(("x",), "x"), ideal_of(("x", "y"), "x"))


def _fresh_grevlex(K):
    """K's reduced grevlex basis from a run on its generators."""
    gens = [to_ipoly(g) for g in K.generators]
    return buchberger_ipolys(K.sig, gens, TermOrder.grevlex(K.sig))[0]


@pytest.mark.parametrize("fixture", ["cusp", "x2y3", "four_lines", "two_branch"])
@pytest.mark.parametrize("op", ["eliminate", "intersect", "saturate", "colon"])
def test_an_elimination_hands_over_the_grevlex_basis(request, fixture, op):
    # eliminate, and intersect and saturate through it, hand their result
    # its reduced grevlex basis; colon's quotients by g need not be reduced,
    # so its result computes its own
    inp = request.getfixturevalue(fixture)
    J = build_Jf_m(inp)
    x = gen(J.sig, inp.variables[0])
    s = gen(J.sig, "s")
    if op == "eliminate":
        # a fresh input, so that J_f(1)'s own elimination runs here
        K = build_Jf_m(IdealInput(inp.variables, inp.f))
    elif op == "intersect":
        K = intersect(J, LeftIdeal(J.sig, [x]))
    elif op == "saturate":
        K = saturate(J, s + WeylElement.one(J.sig))
    else:
        K = colon(J, x)
    if op != "colon":
        assert K._basis is not None
    assert K.groebner_ipolys() == _fresh_grevlex(K)


def test_a_reordered_target_gets_its_own_grevlex_basis():
    # the restriction of the elimination basis is reduced under grevlex in
    # the source's slot order, where y^2 leads; C[z, y]'s grevlex leads by z^2
    I = ideal_of(XYZ, "x-y", "y^2+y*z+2*z^2")
    ZY = ("z", "y")
    K = eliminate(I, polynomial_ring(ZY))
    assert K.groebner() == [pol("z^2+1/2*z*y+1/2*y^2", ZY)]
    assert K.groebner_ipolys() == _fresh_grevlex(K)
    # in the source's order the same restriction is handed over
    YZ = ("y", "z")
    L = eliminate(I, polynomial_ring(YZ))
    assert L._basis is not None
    assert L.groebner() == [pol("y^2+y*z+2*z^2", YZ)]


def test_slotwise_operations_reject_a_signature_mismatch():
    # Q[x, y] and Q[y, x] have the same slot count, so comparing exponent
    # tuples slot by slot would read x as y
    x = pol("x", ("x", "y"))
    with pytest.raises(SignatureMismatch):
        member(x, ideal_of(("y", "x"), "y"))
    with pytest.raises(SignatureMismatch):
        exact_divide(pol("x^2*y", ("y", "x")), x)


# -- initial ideal ------------------------------------------------------------


def test_initial_ideal_hypersurface():
    sig = Signature(xvars=("x",), tvars=("t",))
    vw = WeightVector.v_filtration(sig)
    x, t = gen(sig, "x"), gen(sig, "t")
    dx, dt = gen(sig, "Dx"), gen(sig, "Dt")
    I = LeftIdeal(sig, [t - x * x, dx + (x * dt).scale(2)])
    J = initial_ideal(I, vw)
    assert member(x * x, J)
    for g in J.generators:
        assert g.is_homogeneous(vw)


def test_initial_ideal_of_homogeneous_ideal():
    sig = Signature(tvars=("t",))
    vw = WeightVector.v_filtration(sig)
    t, dt = gen(sig, "t"), gen(sig, "Dt")
    I = LeftIdeal(sig, [t * dt, dt * dt])
    assert ideal_equal(initial_ideal(I, vw), I)


def test_initial_ideal_selects_by_sugar():
    # the elimination in initial_ideal removes only the central u2, so it
    # selects by sugar: the same ideal as normal selection, in fewer S-pairs
    inp = make_input(("x", "y"), ("x^2", "x*y", "y^4"))
    sig = inp.weyl_sig()
    vw = WeightVector.v_filtration(sig)
    ann = LeftIdeal(sig, ann_fs_generators(inp))
    with collect_stats() as by_sugar:
        J = initial_ideal(ann, vw)
    H = weight_homogenization(ann, vw)
    u1 = H.sig.central[-2]
    K, normal = eliminate_by_normal_selection(H, sig.with_central(u1))
    assert list(J.generators) == [g.substitute_central(u1, 0).over(sig) for g in K]
    assert by_sugar.spairs < normal.spairs


def _initial_ideal_input(fixture, request):
    """(sig, I0, the poly signature) for algorithm 2's in(I0) of a fixture:
    Ann f^s, intersected with D_Y x for x2y3_g_x."""
    name = fixture.removesuffix("_g_x")
    inp = request.getfixturevalue(name)
    sig = inp.weyl_sig()
    I0 = LeftIdeal(sig, ann_fs_generators(inp))
    if name != fixture:
        I0 = intersect(I0, LeftIdeal(sig, [gen(sig, "x")]))
    return sig, I0, inp.poly_sig()


@pytest.fixture(scope="module")
def x2xyy4():
    return make_input(("x", "y"), ("x^2", "x*y", "y^4"))


@pytest.mark.parametrize(
    "fixture", ["cusp", "two_branch", "four_lines", "x2xyy4", "x2y3_g_x"]
)
def test_initial_ideal_with_then_is_the_same_ideal(request, fixture):
    # then only reorders the run; the ideal, (-w,w)-homogeneous, stays
    sig, I0, poly = _initial_ideal_input(fixture, request)
    vw = WeightVector.v_filtration(sig)
    J = initial_ideal(I0, vw, poly)
    assert ideal_equal(J, initial_ideal(I0, vw))
    assert all(g.is_homogeneous(vw) for g in J.generators)


def test_initial_ideal_block_order_keeps_sugar_in_fewer_spairs(x2xyy4):
    # the top row still weighs only the central u2, so the block-order run
    # selects by sugar, and its second row cuts the S-pairs
    sig = x2xyy4.weyl_sig()
    vw = WeightVector.v_filtration(sig)
    ann = LeftIdeal(sig, ann_fs_generators(x2xyy4))
    with collect_stats() as one_row:
        initial_ideal(ann, vw)
    spy = mock.patch.object(groebner, "_buchberger", wraps=_buchberger)
    with spy as run, collect_stats() as block:
        initial_ideal(ann, vw, x2xyy4.poly_sig())
    (call,) = run.call_args_list
    _, _, order, sugar = call.args
    assert len(order.rows) == 2 and sugar
    assert block.spairs < one_row.spairs


def _counts(stats):
    return stats.spairs, stats.reductions


def _both_selections(sig, gens, order):
    """The GBStats of a sugar and of a normal-selection run."""
    with collect_stats():
        return (
            _buchberger(sig, gens, order, True)[1],
            _buchberger(sig, gens, order, False)[1],
        )


def test_selection_follows_the_order():
    # sugar selection unless the order's top row weighs a slot of the Weyl
    # part
    sig = Signature(xvars=("x",), tvars=("t",))
    x, t, dx, dt = (gen(sig, v) for v in ("x", "t", "Dx", "Dt"))
    I = LeftIdeal(
        sig,
        [
            (x * x * t * dx * dt).scale(3) - x * t,
            (t * t * dx * dt).scale(2) - (t * dx * dt * dt).scale(2),
        ],
    )
    order = TermOrder.grevlex(sig)
    with collect_stats() as grevlex:
        basis_ipolys(I, order)
    by_sugar, normal = _both_selections(sig, [to_ipoly(g) for g in I.generators], order)
    assert _counts(by_sugar) != _counts(normal)
    assert _counts(grevlex) == _counts(by_sugar)
    # I_{f,1}'s block order weighs t, Dx and Dt only in its lower row, and
    # the top row alone picks the selection
    inp = make_input(("x", "y"), ("x^2", "y^3"))
    spy = mock.patch.object(groebner, "_buchberger", wraps=_buchberger)
    with spy as run, collect_stats() as if1:
        compute_If1(inp)
    (call,) = run.call_args_list
    assert len(call.args[2].rows) == 2
    by_sugar, normal = _both_selections(*call.args[:3])
    assert _counts(by_sugar) != _counts(normal)
    assert _counts(if1) == _counts(by_sugar)
    # the restriction of J_f(1) to C[x,s] weighs t, Dx and Dt; for
    # <x^2, y^3> (unlike the cusp) the two selections differ there
    spy = mock.patch.object(groebner, "_buchberger", wraps=_buchberger)
    with spy as run, collect_stats() as jf:
        build_Jf_m(inp)
    (call,) = run.call_args_list
    by_sugar, normal = _both_selections(*call.args[:3])
    assert _counts(by_sugar) != _counts(normal)
    assert _counts(jf) == _counts(normal)


# -- colon / saturation -----------------------------------------------------


def test_colon_examples():
    XY = ("x", "y")
    assert ideal_equal(colon(ideal_of(XY, "x*y"), pol("x", XY)), ideal_of(XY, "y"))
    I = ideal_of(XY, "x^2-y", "x*y")
    assert ideal_equal(colon(I, pol("1", XY)), I)
    assert ideal_equal(
        colon(ideal_of(XY, "x^2", "x*y"), pol("x", XY)), ideal_of(XY, "x", "y")
    )


def test_colon_rejects_noncommutative():
    sig = Signature(xvars=("x",))
    dx = gen(sig, "Dx")
    with pytest.raises(NoncommutativeContext):
        colon(LeftIdeal(sig, [dx]), gen(sig, "x"))


def test_colon_multiply_back_in():
    XY = ("x", "y")
    I = ideal_of(XY, "x^2*y", "x*y^3")
    g = pol("x*y", XY)
    Q = colon(I, g)
    for q in Q.generators:
        assert member(q * g, I)


def test_saturate_examples():
    XY = ("x", "y")
    assert ideal_equal(
        saturate(ideal_of(XY, "x^2*y"), pol("x", XY)), ideal_of(XY, "y")
    )
    I = ideal_of(XY, "x^2-y")
    assert ideal_equal(saturate(I, pol("1", XY)), I)


def test_saturate_clears_s_multiples():
    XYS = ("x", "y", "s")
    I = ideal_of(XYS, "(s+1)^2*x", "(s+1)*y")
    S = saturate(I, pol("s+1", XYS))
    assert ideal_equal(S, ideal_of(XYS, "x", "y"))


def test_saturation_chain():
    XY = ("x", "y")
    I = ideal_of(XY, "x^2*y^2", "x^3")
    g = pol("x", XY)
    C = colon(I, g)
    S = saturate(I, g)
    for h in I.generators:
        assert member(h, C)
    for h in C.generators:
        assert member(h, S)


# -- membership / equality ---------------------------------------------------


def test_member_examples():
    XY = ("x", "y")
    assert member(pol("x", XY), ideal_of(XY, "x", "y"))
    assert not member(pol("1", XY), ideal_of(XY, "x"))
    assert member(pol("y^3-z^2"), ideal_of(XYZ, "x^2-y", "x^3-z"))


def test_ideal_equal_examples():
    XY = ("x", "y")
    assert ideal_equal(ideal_of(XY, "x", "y"), ideal_of(XY, "y", "x+y"))
    assert not ideal_equal(ideal_of(XY, "x"), ideal_of(XY, "x^2"))
    assert ideal_equal(
        ideal_of(XY, "x+y", "(x-y)^2"), ideal_of(XY, "x+y", "x*y")
    )


# -- exact division -----------------------------------------------------------


def test_exact_divide():
    XY = ("x", "y")
    p = pol("x^2*y+x*y^2", XY)
    g = pol("x*y", XY)
    assert exact_divide(p, g) == pol("x+y", XY)
    # x^2 - 1 = (3x + 3) * ((1/3)x - 1/3), all built with int coefficients
    sig = Signature(xvars=("x",))
    p = WeylElement(sig, {(2, 0): 1, (0, 0): -1})
    g = WeylElement(sig, {(1, 0): 3, (0, 0): 3})
    q = exact_divide(p, g)
    assert q == WeylElement(sig, {(1, 0): Fraction(1, 3), (0, 0): Fraction(-1, 3)})
    assert all(type(c) is Fraction for c in q.terms.values())


# -- brute-force commutative oracle -------------------------------------------


def _linear_membership(h, gens, deg_bound):
    """Degree-bounded linear algebra check that h is in <gens>.

    Solves for cofactors q_i of degree <= deg_bound - deg(g_i) over the
    monomials of the ambient polynomial ring; sound for the small fixed
    instances below where the bound is known to suffice.
    """
    import itertools

    sig = h.sig

    def monomials(d):
        for exps in itertools.product(range(d + 1), repeat=sig.nslots):
            if sum(exps) <= d:
                yield exps

    # Unknown columns: (generator index, cofactor monomial).
    columns = []
    for gi, g in enumerate(gens):
        room = deg_bound - g.total_degree()
        if room < 0:
            continue
        for m in monomials(room):
            prod = WeylElement.monomial(sig, m) * g
            columns.append(prod)
    targets = set(h.terms)
    for c in columns:
        targets.update(c.terms)
    rows = sorted(targets)
    # Gaussian elimination on the dense rational matrix [columns | h].
    mat = [[col.terms.get(r, Fraction(0)) for col in columns] for r in rows]
    rhs = [h.terms.get(r, Fraction(0)) for r in rows]
    nrows, ncols = len(mat), len(columns)
    rank_row = 0
    for c in range(ncols):
        piv = next(
            (r for r in range(rank_row, nrows) if mat[r][c] != 0), None
        )
        if piv is None:
            continue
        mat[rank_row], mat[piv] = mat[piv], mat[rank_row]
        rhs[rank_row], rhs[piv] = rhs[piv], rhs[rank_row]
        inv = 1 / mat[rank_row][c]
        mat[rank_row] = [v * inv for v in mat[rank_row]]
        rhs[rank_row] *= inv
        for r in range(nrows):
            if r != rank_row and mat[r][c] != 0:
                f = mat[r][c]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank_row])]
                rhs[r] -= f * rhs[rank_row]
        rank_row += 1
    # Consistent iff no zero row maps to a nonzero rhs.
    for r in range(nrows):
        if all(v == 0 for v in mat[r]) and rhs[r] != 0:
            return False
    return True


def test_member_agrees_with_linear_algebra_oracle():
    XY = ("x", "y")
    I = ideal_of(XY, "x^2-y", "x*y")
    candidates = ["x^3", "y^2", "x^2*y", "x^4-x*y", "x", "y", "x^2", "x^2+y"]
    for src in candidates:
        h = pol(src, XY)
        assert member(h, I) == _linear_membership(h, list(I.generators), 6)


def test_colon_agrees_with_oracle():
    XY = ("x", "y")
    I = ideal_of(XY, "x^2", "x*y^2")
    g = pol("x", XY)
    Q = colon(I, g)
    for src in ["x", "y^2", "y", "1", "x*y"]:
        h = pol(src, XY)
        assert member(h, Q) == _linear_membership(h * g, list(I.generators), 8)


# -- diagnostics ---------------------------------------------------------------


def test_stats_counters_exposed():
    I = ideal_of(XYZ, "x^2-y*z", "y^2-x*z", "z^2-x*y")
    with collect_stats() as stats:
        I.groebner()
    assert stats is not None
    d = stats.as_dict()
    assert d["spairs"] >= 0
    assert 0 <= d["zero_spairs"] <= d["spairs"]
    assert d["reductions"] > 0
    assert 0 <= d["zero_steps"] <= d["reductions"]
    assert d["max_coeff_bits"] >= 1
    # the leads x^2 and y^2 of the first two generators are coprime
    assert d["pruned_product"] >= 1
    assert d["pruned_chain"] >= 0
    assert set(d) >= {
        "spairs", "zero_spairs", "pruned_chain", "pruned_product", "reductions",
        "max_coeff_bits", "millis", "zero_steps",
    }


def test_member_steps_count_in_the_request_block():
    # J's basis comes from its elimination, so member starts no run, and its
    # reduction steps reach the block all the same
    J = eliminate(ideal_of(XYZ, "x^2-y", "x^3-z"), polynomial_ring(("y", "z")))
    with collect_stats() as stats:
        assert member(pol("y^3-z^2", ("y", "z")), J)
    assert stats.spairs == 0
    assert stats.reductions > 0


def test_minimal_polynomial_steps_count_in_the_request_block():
    # x acting on C[x]/<x^2> has minimal polynomial t^2; the block counts
    # the normal forms' steps on top of those of the basis run
    I = ideal_of(("x",), "x^2")
    order = TermOrder.grevlex(I.sig)
    x, one = pol("x", ("x",)), WeylElement.one(I.sig)
    with collect_stats() as run:
        basis_ipolys(I, order)
    with collect_stats() as stats:
        assert minimal_polynomial(I, order, x, one) == [0, 0, 1]
    assert stats.reductions > run.reductions
