from fractions import Fraction

import pytest

from multid.errors import IrrationalResidue
from multid.rationals import (
    NEG_INFINITY,
    FactoredBPoly,
    UPoly,
    format_rational,
    parse_rational,
    rational_roots,
)


def test_rational_serialization_roundtrip():
    for text in ("5/6", "-3", "0", "17/12", "-23/10"):
        assert format_rational(parse_rational(text)) == text
    assert format_rational(Fraction(4, 2)) == "2"


def test_upoly_mul():
    s_plus_1 = UPoly([1, 1])
    s_minus_1 = UPoly([-1, 1])
    assert s_plus_1 * s_minus_1 == UPoly([-1, 0, 1])
    assert (s_plus_1 * UPoly.zero()).is_zero()
    assert UPoly([3, 2]) * UPoly([1, 3]) == UPoly([3, 11, 6])


def test_upoly_degree_sentinel():
    assert UPoly.zero().degree == NEG_INFINITY
    assert UPoly([0]).degree == NEG_INFINITY
    assert UPoly([5]).degree == 0
    assert UPoly([0, 0, 1]).degree == 2


def test_upoly_divide_exact():
    s2_minus_1 = UPoly([-1, 0, 1])
    assert s2_minus_1.divmod(UPoly([-1, 1])) == (UPoly([1, 1]), UPoly.zero())
    p = UPoly([3, 11, 6])
    assert p.divmod(UPoly.one()) == (p, UPoly.zero())
    assert p.divmod(UPoly([3, 2])) == (UPoly([1, 3]), UPoly.zero())


def test_upoly_divmod_identity():
    p = UPoly([Fraction(1, 2), 3, 0, 7, 1])
    d = UPoly([1, Fraction(2, 3), 1])
    q, r = p.divmod(d)
    assert q * d + r == p
    assert r.degree < d.degree


def test_upoly_eval():
    p = UPoly([1, 2, 1])  # (s+1)^2
    assert p.eval(-1) == 0
    assert p.eval(Fraction(1, 2)) == Fraction(9, 4)


def test_rational_roots_linear():
    assert rational_roots(UPoly([1, 1])).factors == ((Fraction(-1), 1),)


def test_rational_roots_cusp_bfunction():
    b = FactoredBPoly(
        ((Fraction(-5, 6), 1), (Fraction(-1), 1), (Fraction(-7, 6), 1))
    )
    assert rational_roots(b.expand()) == b
    assert set(rational_roots(b.expand()).roots) == {
        Fraction(-7, 6),
        Fraction(-1),
        Fraction(-5, 6),
    }


def test_rational_roots_multiplicity():
    b = FactoredBPoly(((Fraction(-1), 2), (Fraction(-1, 2), 1)))
    assert rational_roots(b.expand()).root_multiset() == {
        Fraction(-1): 2,
        Fraction(-1, 2): 1,
    }


def test_rational_roots_at_zero():
    # s^2 (s+1)
    p = UPoly([0, 0, 1, 1])
    assert rational_roots(p).root_multiset() == {Fraction(0): 2, Fraction(-1): 1}


def test_rational_roots_irrational_residue():
    with pytest.raises(IrrationalResidue):
        rational_roots(UPoly([1, 0, 1]))  # s^2 + 1


def test_rational_roots_requires_monic():
    with pytest.raises(ValueError):
        rational_roots(UPoly([1, 2]))


def test_rational_roots_of_product_is_union():
    p = FactoredBPoly(((Fraction(-5, 6), 1), (Fraction(-1), 2)))
    q = FactoredBPoly(((Fraction(-1), 1), (Fraction(-3, 2), 1)))
    got = rational_roots(p.expand() * q.expand()).root_multiset()
    assert got == {Fraction(-5, 6): 1, Fraction(-1): 3, Fraction(-3, 2): 1}


def test_factored_printing_ascending():
    b = FactoredBPoly(
        ((Fraction(-1), 2), (Fraction(-5, 6), 1), (Fraction(-7, 6), 1))
    )
    assert str(b) == "(s+5/6)(s+1)^2(s+7/6)"
    assert str(FactoredBPoly(())) == "1"


def test_factored_drop_one():
    b = FactoredBPoly(((Fraction(-1), 2), (Fraction(-1, 2), 1)))
    dropped = b.drop_one(Fraction(-1))
    assert dropped.root_multiset() == {Fraction(-1): 1, Fraction(-1, 2): 1}
    with pytest.raises(ValueError):
        b.drop_one(Fraction(-3))


def test_factored_rejects_duplicate_roots():
    with pytest.raises(ValueError):
        FactoredBPoly(((Fraction(-1), 1), (Fraction(-1), 1)))
