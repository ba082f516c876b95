from fractions import Fraction

import pytest

from multid.errors import ParseError, UnknownVariable
from multid.parsing import MAX_EXPONENT, parse_polynomial
from multid.pipeline import polynomial_ring
from multid.weyl import WeylElement


XY = ("x", "y")


def gen(name):
    return WeylElement.generator(polynomial_ring(XY), name)


def test_simple_sum():
    x, y = gen("x"), gen("y")
    assert parse_polynomial("x^2+y^3", XY) == x * x + y * y * y


def test_example_53_expands():
    x, y = gen("x"), gen("y")
    expect = (x + y) * (x + y) - (x - y) * (x - y) * (x - y) * (x - y) * (x - y)
    assert parse_polynomial("(x+y)^2-(x-y)^5", XY) == expect


def test_implicit_multiplication_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("xy", XY)
    with pytest.raises(ParseError):
        parse_polynomial("2x", XY)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x^2+*y", XY)
    assert err.value.position is not None


def test_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse_polynomial("x+z", XY)


def test_rational_coefficients():
    x = gen("x")
    assert parse_polynomial("3/2*x", XY) == x.scale(Fraction(3, 2))
    assert parse_polynomial("-x^2", XY) == -(gen("x") * gen("x"))


def test_whitespace_and_parentheses():
    p = parse_polynomial(" ( x + y ) * ( x - y ) ", XY)
    x, y = gen("x"), gen("y")
    assert p == x * x - y * y


def test_constant_polynomial():
    assert parse_polynomial("7", XY) == WeylElement.constant(polynomial_ring(XY), 7)


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("x+", XY)
    with pytest.raises(ParseError):
        parse_polynomial("x)", XY)


def test_exponent_limit():
    x = gen("x")
    big = parse_polynomial(f"x^{MAX_EXPONENT}", XY)
    assert big.total_degree() == MAX_EXPONENT and big.terms[(MAX_EXPONENT, 0)] == 1
    with pytest.raises(ParseError, match="exponent"):
        parse_polynomial(f"x^{MAX_EXPONENT + 1}", XY)
    # powers by repeated squaring agree with repeated products
    p = parse_polynomial("x+2*y", XY)
    expect = WeylElement.one(p.sig)
    for _ in range(13):
        expect = expect * p
    assert parse_polynomial("(x+2*y)^13", XY) == expect
    assert parse_polynomial("x^0", XY) == WeylElement.one(x.sig)
