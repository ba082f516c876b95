from fractions import Fraction

import pytest

from multid import groebner, pipeline
from multid.errors import UnitIdeal
from multid.groebner import LeftIdeal, ideal_equal, member
from multid.multiplier import (
    jumping_coefficients,
    lct,
    membership_test,
    multiplier_ideal,
    multiplier_ideal_ideal,
)
from multid.oracles import cross_check
from multid.parsing import parse_polynomial

from conftest import make_input
from helpers import gens_match, ideal_of


def test_lct_cusp(cusp):
    assert lct(cusp) == Fraction(5, 6)


def test_lct_smooth_divisor():
    assert lct(make_input(("x",), ("x",))) == 1


def test_lct_monomial_pair(x2y3):
    assert lct(x2y3) == Fraction(5, 6)


def test_lct_unit_ideal():
    for variables, polys in (
        (("x",), ("1",)),
        (("x",), ("x", "x+1")),
        (("x",), ("x^2+1", "x")),
        (("x", "y"), ("x*y-1", "x")),
    ):
        with pytest.raises(UnitIdeal):
            lct(make_input(variables, polys))


def test_lct_reads_the_memoised_bfunction(monkeypatch):
    inp = make_input(("x", "y", "z"), ("x^2+y^2+z^2", "x-1", "y"))
    assert str(pipeline.bfunction(inp)) == "(s+3)"
    runs = []
    real = groebner.buchberger_ipolys

    def counting(*args):
        runs.append(args[0])
        return real(*args)

    monkeypatch.setattr(groebner, "buchberger_ipolys", counting)
    assert lct(inp) == 3
    assert runs == []


def test_multiplier_ideal_at_zero(cusp):
    assert gens_match(multiplier_ideal(cusp, Fraction(0)), ("x", "y"), "1")


def test_multiplier_ideal_four_lines(four_lines):
    gens = multiplier_ideal(four_lines, Fraction(3, 4))
    assert gens_match(gens, ("x", "y"), "x^2", "x*y", "y^2")


def test_multiplier_ideal_two_branch(two_branch):
    gens = multiplier_ideal(two_branch, Fraction(9, 10))
    assert gens_match(gens, ("x", "y"), "x+y", "x*y")


def test_jumps_smooth_divisor():
    filt = jumping_coefficients(make_input(("x",), ("x",)), Fraction(2))
    assert filt.jumps == (1, 2)
    assert gens_match(filt.ideal_at(Fraction(3, 2)), ("x",), "x")
    assert gens_match(filt.ideal_at(Fraction(2)), ("x",), "x^2")


def test_jumps_cusp(cusp):
    filt = jumping_coefficients(cusp, Fraction(2))
    assert filt.lct == Fraction(5, 6)
    assert filt.jumps == (
        Fraction(5, 6),
        Fraction(1),
        Fraction(11, 6),
        Fraction(2),
    )
    assert gens_match(filt.ideal_at(Fraction(5, 6)), ("x", "y"), "x", "y")
    assert gens_match(filt.ideal_at(Fraction(1)), ("x", "y"), "x^2+y^3")


def test_jumps_extract_each_bfunction_once(monkeypatch):
    calls = []
    real = pipeline.rational_roots

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(pipeline, "rational_roots", counting)
    cusp = make_input(("x", "y"), ("x^2+y^3",))
    jumping_coefficients(cusp, Fraction(2))
    # lct, the candidate scan and every direct multiplier ideal read the
    # same level-1 b-function, memoised on the input
    assert len(calls) == 1
    # the algorithm-2 route is never memoised, so this still compares two
    # independent computations
    assert cross_check(cusp)


def test_filtration_step_lookup(cusp):
    filt = jumping_coefficients(cusp, Fraction(1))
    assert filt.ideal_at(Fraction(0)) == filt.steps[0][1]
    assert filt.ideal_at(Fraction(1, 2)) == filt.steps[0][1]
    with pytest.raises(ValueError):
        filt.ideal_at(Fraction(3))


def test_membership_trivial_below_lct(cusp):
    one = parse_polynomial("1", ("x", "y"))
    assert membership_test(cusp, one, Fraction(1, 2))
    assert not membership_test(cusp, one, Fraction(5, 6))


def test_membership_x2y3(x2y3):
    gx = parse_polynomial("x", ("x", "y"))
    assert not membership_test(x2y3, gx, Fraction(4, 3))
    assert membership_test(x2y3, gx, Fraction(5, 6))


def test_membership_matches_ideal(cusp):
    for c in (Fraction(5, 6), Fraction(1), Fraction(3, 2)):
        gens = multiplier_ideal(cusp, c)
        for g in gens:
            assert membership_test(cusp, g, c)
    # A witness outside J(f^(5/6)): the constant 1.
    one = parse_polynomial("1", ("x", "y"))
    assert not membership_test(cusp, one, Fraction(5, 6))


def test_filtration_antitone(cusp):
    filt = jumping_coefficients(cusp, Fraction(2))
    ideals = [LeftIdeal(g[0].sig, list(g)) for _, g in filt.steps]
    for prev, cur in zip(ideals, ideals[1:]):
        for g in cur.generators:
            assert member(g, prev)
        assert not ideal_equal(prev, cur)


def test_recursion_consistency_principal(cusp):
    # J(f^c) = f * J(f^(c-1)) on [1, 2) for principal ideals.
    f = parse_polynomial("x^2+y^3", ("x", "y"))
    for c in (Fraction(1), Fraction(4, 3), Fraction(11, 6)):
        direct = multiplier_ideal_ideal(cusp, c)
        below = multiplier_ideal(cusp, c - 1)
        shifted = LeftIdeal(f.sig, [f * g for g in below])
        assert ideal_equal(direct, shifted)
