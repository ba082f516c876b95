"""Acceptance suite: one test (and one printed pass line) per criterion.

Run with -s to see the per-criterion lines.  The stress fixtures (-m stress)
have no pass requirement and exist only to exercise the engine at scale.
"""

from fractions import Fraction

import pytest

from multid.groebner import LeftIdeal, ideal_equal
from multid.multiplier import jumping_coefficients, lct, multiplier_ideal
from multid.oracles import cross_check, howald_filtration, verify_minimality
from multid.parsing import parse_polynomial
from multid.pipeline import bfunction, build_Jf_m, polynomial_ring_s

from conftest import make_input
from helpers import gens_match, ideal_of


def _ok(criterion, detail):
    print(f"criterion {criterion}: PASS ({detail})")


# -- criterion 1: principal b-functions ----------------------------------------


def test_criterion_1_principal_bfunctions(cusp, two_branch, four_lines):
    assert str(bfunction(cusp)) == "(s+5/6)(s+1)(s+7/6)"
    XY = ("x", "y")
    gx, gy = parse_polynomial("x", XY), parse_polynomial("y", XY)
    assert str(bfunction(cusp.with_g(gx))) == "(s+1)(s+11/6)(s+13/6)"
    assert str(bfunction(cusp.with_g(gy))) == "(s+1)(s+7/6)(s+11/6)"
    assert str(bfunction(two_branch)) == (
        "(s+7/10)(s+9/10)(s+1)(s+11/10)(s+13/10)"
    )
    assert str(bfunction(four_lines)) == (
        "(s+1/2)(s+3/4)(s+1)^2(s+5/4)(s+3/2)"
    )
    _ok(1, "principal b-function regressions")


# -- criterion 2: non-principal b-functions -------------------------------------


def test_criterion_2_nonprincipal_bfunctions(x2y3, t456_curve, sphere_cusp):
    XY = ("x", "y")
    assert str(bfunction(x2y3)) == "(s+5/6)(s+7/6)(s+4/3)(s+3/2)(s+5/3)(s+2)"
    gx, gy = parse_polynomial("x", XY), parse_polynomial("y", XY)
    assert str(bfunction(x2y3.with_g(gx))) == (
        "(s+4/3)(s+5/3)(s+11/6)(s+2)(s+13/6)(s+5/2)"
    )
    assert str(bfunction(x2y3.with_g(gy))) == (
        "(s+7/6)(s+3/2)(s+5/3)(s+11/6)(s+2)(s+7/3)"
    )
    assert str(bfunction(t456_curve)) == (
        "(s+17/12)(s+3/2)(s+19/12)(s+7/4)(s+11/6)"
        "(s+23/12)(s+2)(s+25/12)(s+13/6)(s+9/4)"
    )
    assert str(bfunction(sphere_cusp)) == "(s+11/6)(s+2)(s+13/6)"
    _ok(2, "non-principal b-function regressions")


def test_criterion_2_generic_2x3_minors():
    variables = ("x1", "x2", "x3", "x4", "x5", "x6")
    minors = make_input(
        variables,
        ("x1*x5-x2*x4", "x2*x6-x3*x5", "x3*x4-x1*x6"),
    )
    assert str(bfunction(minors)) == "(s+2)(s+3)"
    _ok(2, "2x2 minors of the generic 2x3 matrix")


# -- criterion 3: multiplier-ideal filtrations -----------------------------------


def test_criterion_3_two_branch_table(two_branch):
    XY = ("x", "y")
    filt = jumping_coefficients(two_branch, Fraction(19, 20))
    assert filt.lct == Fraction(7, 10)
    assert filt.jumps == (Fraction(7, 10), Fraction(9, 10))
    assert gens_match(filt.steps[0][1], XY, "1")
    assert gens_match(filt.ideal_at(Fraction(7, 10)), XY, "x", "y")
    assert gens_match(filt.ideal_at(Fraction(9, 10)), XY, "x+y", "x*y")
    _ok(3, "two-branch curve filtration to c < 1")


def test_criterion_3_four_lines_table(four_lines):
    XY = ("x", "y")
    filt = jumping_coefficients(four_lines, Fraction(3, 2))
    assert filt.jumps == (
        Fraction(1, 2),
        Fraction(3, 4),
        Fraction(1),
        Fraction(3, 2),
    )
    # 5/4 is a root of the level-2 polynomial but not a jump.
    assert Fraction(5, 4) not in filt.jumps
    assert gens_match(filt.ideal_at(Fraction(1, 2)), XY, "x", "y")
    assert gens_match(
        filt.ideal_at(Fraction(3, 4)), XY, "x^2", "x*y", "y^2"
    )
    assert gens_match(filt.ideal_at(Fraction(1)), XY, "x*y*(x+y)*(x+2*y)")
    assert gens_match(
        filt.ideal_at(Fraction(5, 4)), XY, "x*y*(x+y)*(x+2*y)"
    )
    _ok(3, "four-lines filtration, non-jump 5/4 rejected")


def test_criterion_3_sphere_cusp_table(sphere_cusp):
    XYZ = ("x", "y", "z")
    filt = jumping_coefficients(sphere_cusp, Fraction(19, 10))
    assert filt.jumps == (Fraction(11, 6),)
    assert gens_match(filt.ideal_at(Fraction(11, 6)), XYZ, "x", "y", "z^2-1")
    # The defining commutative ideal J_f(1) matches its printed generators.
    J = build_Jf_m(sphere_cusp)
    ssig = polynomial_ring_s(XYZ)
    quoted_polys = [
        "x^3-y^2*z",
        "x^2+y^2+z^2-1",
        "(s+11/6)*(s+2)*(s+13/6)",
        "(s+2)*y",
        "(s+2)*(6*s+13)*x",
        "(s+2)*(z+1)*(z-1)",
    ]
    vars_s = XYZ + ("s",)
    gens = [parse_polynomial(src, vars_s).project(ssig) for src in quoted_polys]
    assert ideal_equal(J, LeftIdeal(ssig, gens))
    _ok(3, "sphere-cusp two-step table and J_f(1) generator identity")


def test_criterion_3_t456_curve_table(t456_curve):
    X = ("x1", "x2", "x3")
    filt = jumping_coefficients(t456_curve, Fraction(2))
    assert filt.jumps == (
        Fraction(17, 12),
        Fraction(7, 4),
        Fraction(11, 6),
        Fraction(23, 12),
        Fraction(2),
    )
    for rejected in (
        Fraction(3, 2),
        Fraction(19, 12),
        Fraction(25, 12),
        Fraction(13, 6),
        Fraction(9, 4),
    ):
        assert rejected not in filt.jumps
    assert gens_match(filt.ideal_at(Fraction(17, 12)), X, "x1", "x2", "x3")
    assert gens_match(filt.ideal_at(Fraction(7, 4)), X, "x1^2", "x2", "x3")
    assert gens_match(
        filt.ideal_at(Fraction(11, 6)), X, "x1^2", "x1*x2", "x2^2", "x3"
    )
    assert gens_match(
        filt.ideal_at(Fraction(23, 12)),
        X,
        "x1^2", "x1*x2", "x1*x3", "x2^2", "x2*x3", "x3^2",
    )
    assert gens_match(
        filt.ideal_at(Fraction(2)), X, "x2^2-x1*x3", "x1^3-x3^2"
    )
    _ok(3, "T^4,T^5,T^6 curve: five jumps in (0,2] with quoted ideals")


# -- criterion 4: monomial oracle agreement ---------------------------------------


MONOMIAL_CORPUS = [
    (("x",), ("x",), [(1,)]),
    (("x", "y"), ("x", "y"), [(1, 0), (0, 1)]),
    (("x", "y"), ("x^2", "y^3"), [(2, 0), (0, 3)]),
    (("x", "y"), ("x^3", "y^4"), [(3, 0), (0, 4)]),
    (("x", "y"), ("x^2", "x*y", "y^4"), [(2, 0), (1, 1), (0, 4)]),
]


def test_criterion_4_oracle_agreement():
    cmax = Fraction(2)
    for variables, polys, exponents in MONOMIAL_CORPUS:
        inp = make_input(variables, polys)
        oracle = howald_filtration(exponents, cmax, variables)
        assert lct(inp) == oracle.lct
        filt = jumping_coefficients(inp, cmax)
        assert filt.jumps == oracle.jumps
        for (c1, g1), (c2, g2) in zip(filt.steps, oracle.steps):
            assert c1 == c2
            assert ideal_equal(
                LeftIdeal(g1[0].sig, list(g1)), LeftIdeal(g2[0].sig, list(g2))
            )
    _ok(4, "pipeline = Newton-polyhedron oracle on the monomial corpus")


# -- criterion 5: property suites ---------------------------------------------------


def test_criterion_5_property_suites(cusp, x2y3, two_branch):
    import random

    from multid.groebner import TermOrder, member, spairs_reduce_to_zero
    from multid.weyl import Signature, WeightVector, WeylElement

    # (a) associativity and weight additivity on randomized small elements.
    sig = Signature(xvars=("x",), tvars=("t",))
    vw = WeightVector.v_filtration(sig)
    rng = random.Random(20240817)

    def rand_element():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exp = tuple(rng.randint(0, 3) for _ in range(sig.nslots))
            terms[exp] = Fraction(rng.randint(-5, 5) or 1)
        return WeylElement(sig, terms)

    for _ in range(500):
        p, q, r = rand_element(), rand_element(), rand_element()
        assert (p * q) * r == p * (q * r)
        if not p.is_zero() and not q.is_zero():
            pq = p * q
            assert pq.ord_weight(vw) == p.ord_weight(vw) + q.ord_weight(vw)

    # (b) every cached Groebner basis passes the S-pair zero-reduction audit.
    audited = 0
    for inp in (cusp, x2y3):
        from multid.pipeline import compute_If1

        I = compute_If1(inp)
        order = TermOrder.grevlex(I.sig)
        assert spairs_reduce_to_zero(I.sig, I.groebner_ipolys(order), order)
        audited += 1
    assert audited == 2

    # (c) algorithm agreement on the m=1 corpus.
    XY = ("x", "y")
    m1_corpus = [
        make_input(("x",), ("x",)),
        cusp,
        cusp.with_g(parse_polynomial("x", XY)),
        cusp.with_g(parse_polynomial("y", XY)),
        two_branch.with_g(parse_polynomial("x+y", XY)),
    ]
    for inp in m1_corpus:
        assert cross_check(inp)

    # (d) minimality and root negativity/rationality of every output.
    for inp in m1_corpus + [x2y3]:
        b = bfunction(inp)
        assert verify_minimality(b, inp)
        for root in b.roots:
            assert isinstance(root, Fraction) and root < 0

    # (e) antitone filtration and principal recursion on [1, 2).
    filt = jumping_coefficients(cusp, Fraction(2))
    prev = None
    for _, gens in filt.steps:
        I = LeftIdeal(gens[0].sig, list(gens))
        if prev is not None:
            for g in I.generators:
                assert member(g, prev)
            assert not ideal_equal(prev, I)
        prev = I
    f = parse_polynomial("x^2+y^3", XY)
    for c in (Fraction(1), Fraction(7, 6), Fraction(11, 6)):
        direct = multiplier_ideal(cusp, c)
        shifted = [f * g for g in multiplier_ideal(cusp, c - 1)]
        assert ideal_equal(
            LeftIdeal(f.sig, direct), LeftIdeal(f.sig, shifted)
        )
    _ok(5, "property suites (randomized, audits, agreements, recursion)")


# -- criterion 6: opt-in stress fixtures (no pass requirement) ----------------------


@pytest.mark.stress
def test_stress_generic_3x3_determinant():
    variables = tuple(f"x{i}" for i in range(1, 10))
    det = (
        "x1*(x5*x9-x6*x8)-x2*(x4*x9-x6*x7)+x3*(x4*x8-x5*x7)"
    )
    inp = make_input(variables, (det,))
    print("det3 b-function:", bfunction(inp))


@pytest.mark.stress
def test_stress_t6_t8_t11_curve():
    inp = make_input(("x1", "x2", "x3"), ("x1^4-x2^3", "x3^2-x1*x2^2"))
    print("T^6,T^8,T^11 b-function:", bfunction(inp))


@pytest.mark.stress
def test_stress_level_two_t345_curve():
    inp = make_input(
        ("x1", "x2", "x3"),
        ("x1^3-x2*x3", "x2^2-x1*x3", "x3^2-x1^2*x2"),
        m=2,
    )
    J = build_Jf_m(inp)
    print("J_f(2) generators:", len(J.generators))
