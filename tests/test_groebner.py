from fractions import Fraction
from unittest import mock

import pytest

from multid import groebner
from multid.errors import NoncommutativeContext, SignatureMismatch
from multid.groebner import (
    LeftIdeal,
    TermOrder,
    _buchberger,
    collect_stats,
    colon,
    eliminate,
    exact_divide,
    ideal_equal,
    initial_ideal,
    intersect,
    member,
    normal_form,
    reduced_gb,
    saturate,
    spairs_reduce_to_zero,
    to_ipoly,
    weight_homogenization,
)
from multid.parsing import parse_polynomial
from multid.pipeline import (
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


# -- normal form ------------------------------------------------------------


def test_normal_form_left_multiple():
    sig = Signature(xvars=("x",))
    x, dx = gen(sig, "x"), gen(sig, "Dx")
    order = TermOrder.grevlex(sig)
    assert normal_form(x * dx, [dx], order).is_zero()


def test_normal_form_no_division():
    nf = normal_form(pol("x"), [pol("y")], TermOrder.grevlex(pol("x").sig))
    assert nf == pol("x")


def test_normal_form_defining_relation():
    sig = Signature(xvars=("x",))
    x, dx = gen(sig, "x"), gen(sig, "Dx")
    order = TermOrder.grevlex(sig)
    assert normal_form(dx * x, [x * dx + WeylElement.one(sig)], order).is_zero()


# -- buchberger -------------------------------------------------------------


def test_gb_of_monomials_is_trivial():
    I = ideal_of(("x", "y"), "x", "y")
    order = TermOrder.grevlex(I.sig)
    G = I.groebner(order)
    assert spairs_reduce_to_zero(I.sig, [g for g in I.groebner_ipolys(order)], order)
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
    assert I.contains(WeylElement.one(sig))


def test_every_generator_reduces_to_zero():
    I = ideal_of(XYZ, "x^2-y", "x^3-z", "x*y*z-1")
    order = TermOrder.grevlex(I.sig)
    G = I.groebner(order)
    for g in I.generators:
        assert normal_form(g, G, order).is_zero()
    assert spairs_reduce_to_zero(I.sig, I.groebner_ipolys(order), order)


# -- reduced GB -------------------------------------------------------------


def test_reduced_gb_basics():
    sig = pol("x").sig
    order = TermOrder.grevlex(sig)
    assert reduced_gb([pol("2*x"), pol("x^2+x")], order) == [pol("x")]
    rg = reduced_gb([pol("x+y"), pol("y")], order)
    assert rg == [pol("y"), pol("x")] or rg == [pol("x"), pol("y")]
    assert reduced_gb(rg, order) == rg


def test_reduced_gb_permutation_invariant():
    gens = [pol("x^2-y"), pol("x*y-z"), pol("y^2-x*z")]
    order = TermOrder.grevlex(gens[0].sig)
    a = LeftIdeal(gens[0].sig, gens).groebner(order)
    b = LeftIdeal(gens[0].sig, gens[::-1]).groebner(order)
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
    assert list(J.generators) == [g.substitute_central(u1, 0).project(sig) for g in K]
    assert by_sugar.spairs < normal.spairs


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
    # sugar selection unless the order weighs a slot of the Weyl part
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
        I.groebner_ipolys(order)
    by_sugar, normal = _both_selections(
        sig, [to_ipoly(g, order) for g in I.generators], order
    )
    assert _counts(by_sugar) != _counts(normal)
    assert _counts(grevlex) == _counts(by_sugar)
    # the restriction of J_f(1) to C[x,s] weighs t, Dx and Dt; for
    # <x^2, y^3> (unlike the cusp) the two selections differ there
    inp = make_input(("x", "y"), ("x^2", "y^3"))
    compute_If1(inp)
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
    assert d["max_coeff_bits"] >= 1
    # the leads x^2 and y^2 of the first two generators are coprime
    assert d["pruned_product"] >= 1
    assert d["pruned_chain"] >= 0
    assert set(d) >= {
        "spairs", "zero_spairs", "pruned_chain", "pruned_product", "reductions",
        "max_coeff_bits", "millis",
    }
