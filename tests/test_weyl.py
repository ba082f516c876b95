from fractions import Fraction

import pytest

from multid.errors import (
    NonGradedWeight,
    NotAPolynomial,
    NoTVariables,
    SignatureMismatch,
    ZeroElement,
)
from multid.weyl import Signature, WeightVector, WeylElement, build_sigma


XY = Signature(xvars=("x", "y"))
XT = Signature(xvars=("x",), tvars=("t",))


def gen(sig, name):
    return WeylElement.generator(sig, name)


def test_signature_rejects_duplicate_names():
    with pytest.raises(ValueError):
        Signature(xvars=("x", "x"))
    with pytest.raises(ValueError):
        Signature(xvars=("x",), central=("Dx",))


def test_signature_partner_slots():
    sig = XT
    assert sig.partner(sig.slot_of("x")) == sig.slot_of("Dx")
    assert sig.partner(sig.slot_of("Dt")) == sig.slot_of("t")
    s = sig.with_central("s")
    assert s.partner(s.slot_of("s")) is None


def test_defining_relation():
    x, dx = gen(XY, "x"), gen(XY, "Dx")
    assert dx * x == x * dx + WeylElement.one(XY)


def test_reordering_identity_second_order():
    x, dx = gen(XY, "x"), gen(XY, "Dx")
    lhs = dx * dx * (x * x)
    rhs = (
        x * x * dx * dx
        + (x * dx).scale(4)
        + WeylElement.constant(XY, 2)
    )
    assert lhs == rhs
    # Acting on 1 both sides give the constant 2.
    one = WeylElement.one(XY)
    assert lhs.act_on_polynomial(one) == WeylElement.constant(XY, 2)


def test_distinct_variables_commute():
    x, y, dy = gen(XY, "x"), gen(XY, "y"), gen(XY, "Dy")
    assert x * y == y * x
    assert dy * x == x * dy


def test_signature_mismatch():
    with pytest.raises(SignatureMismatch):
        gen(XY, "x") * gen(XT, "x")


def test_ord_weight_v_filtration():
    vw = WeightVector.v_filtration(XT)
    t, dt = gen(XT, "t"), gen(XT, "Dt")
    assert (t * dt).ord_weight(vw) == 0
    assert (dt * dt).ord_weight(vw) == 2
    x = gen(XT, "x")
    p = x * x * x * dt + t * t
    assert p.ord_weight(vw) == 1
    with pytest.raises(ZeroElement):
        WeylElement.zero(XT).ord_weight(vw)


def test_initial_form():
    vw = WeightVector.v_filtration(XT)
    t, dt, x, dx = (gen(XT, n) for n in ("t", "Dt", "x", "Dx"))
    assert (t * dt + dt).initial_form(vw) == dt
    homog = t * dt + WeylElement.one(XT)
    assert homog.initial_form(vw) == homog
    assert (dx + (x * dt).scale(2)).initial_form(vw) == (x * dt).scale(2)


def test_initial_form_rejects_filtration_only_weights():
    # weight 1 on both x and Dx: a filtration, not a grading
    bad = WeightVector(XT, (1, 0, 1, 0))
    assert not bad.is_graded()
    with pytest.raises(NonGradedWeight):
        gen(XT, "x").initial_form(bad)
    sig = XT.with_central("u1")
    with pytest.raises(NonGradedWeight):
        gen(sig, "x").homogenize(WeightVector(sig, (1, 0, 1, 0, 1)), "u1")


def test_homogenize():
    sig = XT.with_central("u1")
    vw = WeightVector.v_filtration(sig)
    t, dt, u1 = gen(sig, "t"), gen(sig, "Dt"), gen(sig, "u1")
    p = dt + t * t
    h = p.homogenize(vw, "u1")
    assert h == dt + t * t * u1 * u1 * u1
    weighted = WeightVector(sig, vw.slot_weights[:-1] + (1,))
    assert h.is_homogeneous(weighted)
    assert h.substitute_central("u1", 1) == p
    # Already homogeneous elements are fixed points.
    assert (t * dt).homogenize(vw, "u1") == t * dt
    q = t * dt + WeylElement.one(sig)
    assert q.homogenize(vw, "u1") == q


def test_build_sigma():
    s1 = build_sigma(XT)
    t, dt = gen(XT, "t"), gen(XT, "Dt")
    assert s1 == -(t * dt) - WeylElement.one(XT)
    sig2 = Signature(xvars=("x",), tvars=("t1", "t2"))
    s2 = build_sigma(sig2)
    expect = (
        -(gen(sig2, "t1") * gen(sig2, "Dt1"))
        - gen(sig2, "t2") * gen(sig2, "Dt2")
        - WeylElement.constant(sig2, 2)
    )
    assert s2 == expect
    sig3 = Signature(tvars=("t1", "t2", "t3"))
    assert build_sigma(sig3).terms[(0,) * sig3.nslots] == -3
    with pytest.raises(NoTVariables):
        build_sigma(XY)


def test_act_on_polynomial():
    x, dx = gen(XY, "x"), gen(XY, "Dx")
    x3 = x * x * x
    assert dx.act_on_polynomial(x3) == (x * x).scale(3)
    assert (x * dx).act_on_polynomial(x * x) == (x * x).scale(2)
    with pytest.raises(NotAPolynomial):
        dx.act_on_polynomial(dx)


def test_substitute_central_only():
    sig = XY.with_central("s")
    s = gen(sig, "s")
    p = s * s + gen(sig, "x")
    assert p.substitute_central("s", Fraction(1, 2)) == gen(sig, "x") + (
        WeylElement.constant(sig, Fraction(1, 4))
    )
    with pytest.raises(ValueError):
        p.substitute_central("x", 1)


def test_over_roundtrip():
    small = Signature(xvars=("x",))
    big = Signature(xvars=("x", "y"), central=("s",))
    p = gen(small, "x") * gen(small, "Dx") + WeylElement.one(small)
    assert p.over(big).over(small) == p
    with pytest.raises(ValueError):
        (gen(big, "y")).over(small)
    # a target may lack a name whose slot is zero in every term
    other = Signature(xvars=("x",), central=("s",))
    assert p.over(big).over(other) == p.over(other)
    # a nonzero slot missing from the target cannot be re-expressed
    with pytest.raises(ValueError, match="absent from target"):
        p.over(Signature(xvars=("y",)))


def test_total_degree_and_polynomial_predicates():
    x, dx = gen(XY, "x"), gen(XY, "Dx")
    assert (x * x + x).total_degree() == 2
    assert (x * x).is_polynomial()
    assert not (x * dx).is_polynomial()
    assert WeylElement.constant(XY, 3).is_constant()


def test_format_element():
    x, y, dx = gen(XY, "x"), gen(XY, "y"), gen(XY, "Dx")
    p = (x * x * dx) + y.scale(Fraction(3, 2))
    assert str(p) == "x^2*Dx + (3/2)*y"
    assert str(WeylElement.zero(XY)) == "0"
