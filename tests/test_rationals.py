import subprocess
import sys
import textwrap
from collections import Counter
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


def test_upoly_degree_sentinel():
    assert UPoly([]).degree == NEG_INFINITY
    assert UPoly([0]).degree == NEG_INFINITY
    assert UPoly([5]).degree == 0
    assert UPoly([0, 0, 1]).degree == 2


def test_expand_coefficients():
    def coeffs(*factors):
        return FactoredBPoly(factors).expand().coeffs

    assert coeffs() == (1,)
    assert coeffs((Fraction(1), 1), (Fraction(-1), 1)) == (-1, 0, 1)
    assert coeffs((Fraction(0), 2)) == (0, 0, 1)
    # (s + 5/6)(s + 1)^2 = s^3 + 17/6 s^2 + 8/3 s + 5/6
    assert coeffs((Fraction(-5, 6), 1), (Fraction(-1), 2)) == tuple(
        map(Fraction, ("5/6", "8/3", "17/6", "1"))
    )


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
    assert dict(rational_roots(b.expand()).factors) == {
        Fraction(-1): 2,
        Fraction(-1, 2): 1,
    }


def test_rational_roots_at_zero():
    # s^2 (s+1)
    p = UPoly([0, 0, 1, 1])
    assert dict(rational_roots(p).factors) == {Fraction(0): 2, Fraction(-1): 1}


def test_rational_roots_large_trailing_coefficient_without_sympy():
    # t456's b-function: its primitive trailing coefficient is about 1.0e10
    script = textwrap.dedent(
        """
        import sys
        from fractions import Fraction
        from multid.rationals import FactoredBPoly, rational_roots

        roots = "17/12 3/2 19/12 7/4 11/6 23/12 2 25/12 13/6 9/4".split()
        b = FactoredBPoly(tuple((-Fraction(r), 1) for r in roots))
        got = rational_roots(b.expand())
        print(got == b, got, "sympy" in sys.modules)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "True",
        "(s+17/12)(s+3/2)(s+19/12)(s+7/4)(s+11/6)"
        "(s+23/12)(s+2)(s+25/12)(s+13/6)(s+9/4)",
        "False",
    ]


def test_rational_roots_irrational_residue():
    with pytest.raises(IrrationalResidue, match=r"\[1, 0, 1\]"):
        rational_roots(UPoly([1, 0, 1]))  # s^2 + 1


def test_rational_roots_requires_monic():
    with pytest.raises(ValueError):
        rational_roots(UPoly([1, 2]))
    with pytest.raises(ValueError):
        rational_roots(UPoly([]))


def test_rational_roots_of_product_is_union():
    p = FactoredBPoly(((Fraction(-5, 6), 1), (Fraction(-1), 2)))
    q = FactoredBPoly(((Fraction(-1), 1), (Fraction(-3, 2), 1)))
    # p q, expanded from the merged factorisation; its coefficients are
    # the convolution of p's and q's
    merged = Counter(dict(p.factors)) + Counter(dict(q.factors))
    pq = FactoredBPoly(tuple(merged.items())).expand()
    a, b = p.expand().coeffs, q.expand().coeffs
    assert pq.coeffs == tuple(
        sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
        for k in range(len(a) + len(b) - 1)
    )
    got = dict(rational_roots(pq).factors)
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
    assert dict(dropped.factors) == {Fraction(-1): 1, Fraction(-1, 2): 1}
    with pytest.raises(ValueError):
        b.drop_one(Fraction(-3))


def test_factored_rejects_duplicate_roots():
    with pytest.raises(ValueError):
        FactoredBPoly(((Fraction(-1), 1), (Fraction(-1), 1)))
