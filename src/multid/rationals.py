"""Exact rational scalars and the two forms of a b-function.

The scalar type is ``fractions.Fraction`` (arbitrary precision, always stored
in lowest terms with a positive denominator).  A b-function arrives as the
dense monic coefficients of a minimal polynomial in s (`UPoly`), is split
over Q by `rational_roots`, and is kept fully factored as (root,
multiplicity) pairs (`FactoredBPoly`), which `expand` multiplies out again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import IrrationalResidue, ParseError

NEG_INFINITY = float("-inf")


def format_rational(q: Fraction) -> str:
    """Serialize as "p/q", omitting the denominator when it is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse a rational such as "5/6"; ParseError if text is not one."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"not a rational number: {text!r}") from e


class UPoly:
    """A univariate polynomial over Q in the variable s: its coefficients,
    lowest degree first, with trailing zeros dropped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self):
        """Degree, with -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY


@dataclass(frozen=True)
class FactoredBPoly:
    """A monic polynomial split over Q, stored as (root, multiplicity) pairs.

    Roots are pairwise distinct; factors are kept sorted descending by root,
    so b-functions (all roots negative) print as (s+c1)(s+c2)... with the
    c_i increasing, matching the conventional presentation.  Expanding
    prod (s - root)^mult reproduces the source polynomial exactly.
    """

    factors: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        roots = [r for r, _ in self.factors]
        if len(set(roots)) != len(roots):
            raise ValueError("roots must be pairwise distinct")
        if any(m < 1 for _, m in self.factors):
            raise ValueError("multiplicities must be positive")
        object.__setattr__(
            self,
            "factors",
            tuple(sorted(self.factors, key=lambda f: f[0], reverse=True)),
        )

    @property
    def roots(self) -> tuple[Fraction, ...]:
        return tuple(r for r, _ in self.factors)

    def expand(self) -> UPoly:
        """prod (s - root)^mult, by one synthetic multiplication by
        (s - root) per factor: coefficient i becomes c_{i-1} - root c_i."""
        coeffs = [Fraction(1)]
        for root, mult in self.factors:
            for _ in range(mult):
                coeffs = [a - root * b for a, b in zip([0] + coeffs, coeffs + [0])]
        return UPoly(coeffs)

    def is_one(self) -> bool:
        return not self.factors

    def drop_one(self, root: Fraction) -> "FactoredBPoly":
        """Remove one copy of the factor (s - root)."""
        out = []
        found = False
        for r, m in self.factors:
            if r == root and not found:
                found = True
                if m > 1:
                    out.append((r, m - 1))
            else:
                out.append((r, m))
        if not found:
            raise ValueError(f"{root} is not a root")
        return FactoredBPoly(tuple(out))

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for root, mult in self.factors:
            if root == 0:
                base = "s"
            elif root < 0:
                base = f"(s+{format_rational(-root)})"
            else:
                base = f"(s-{format_rational(root)})"
            parts.append(base + (f"^{mult}" if mult > 1 else ""))
        return "".join(parts)


def _divisors(n: int) -> list[int]:
    """The positive divisors of n != 0, ascending.

    Built from a trial-division factorisation that stops once d^2 exceeds
    the unfactored part (which is then 1 or a prime).  The trailing
    coefficient of a b-function is a product of small root numerators, so
    the loop ends early.
    """
    n = abs(n)
    divs = [1]
    d = 2
    while d * d <= n:
        k = 0
        while n % d == 0:
            n //= d
            k += 1
        if k:
            divs = [q * d**i for q in divs for i in range(k + 1)]
        d += 1
    if n > 1:
        divs += [q * n for q in divs]
    return sorted(divs)


def _divide_linear(ints: list[int], num: int, den: int) -> list[int] | None:
    """ints / (den*s - num) over Z, or None if den*s - num does not divide it.

    For a primitive ints and coprime num, den the quotient is integral
    whenever num/den is a root (Gauss's lemma), so one exact synthetic
    division both tests the candidate and divides it out.
    """
    quot = []
    acc = 0
    for c in reversed(ints[1:]):
        acc, rem = divmod(c + num * acc, den)
        if rem:
            return None
        quot.append(acc)
    if ints[0] + num * acc:
        return None
    return quot[::-1]


def rational_roots(p: UPoly) -> FactoredBPoly:
    """Factor a monic polynomial completely into rational linear factors.

    Clears denominators to a primitive integer polynomial and tries the
    candidates +/-(divisor of trailing coefficient)/(divisor of leading
    coefficient) by exact integer division, repeated for the multiplicity.
    Raises IrrationalResidue if a nonconstant factor without rational roots
    remains.
    """
    if not p.coeffs:
        raise ValueError("cannot factor the zero polynomial")
    if p.coeffs[-1] != 1:
        raise ValueError("polynomial must be monic")
    # the leading coefficient of a monic p is the lcm of the denominators,
    # so this integer list is already primitive
    den = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * den) for c in p.coeffs]
    zeros = next(i for i, c in enumerate(ints) if c)
    ints = ints[zeros:]
    factors = [(Fraction(0), zeros)] if zeros else []
    while len(ints) > 1:
        leads = _divisors(ints[-1])
        candidates = (
            (c, d)
            for n in _divisors(ints[0])
            for d in leads
            if math.gcd(n, d) == 1
            for c in (n, -n)
        )
        for num, dq in candidates:
            quot = _divide_linear(ints, num, dq)
            if quot is not None:
                break
        else:
            raise IrrationalResidue(
                "no rational root of the residual factor with integer"
                f" coefficients {ints}, lowest degree first"
            )
        mult = 0
        while quot is not None:
            ints, mult = quot, mult + 1
            quot = _divide_linear(ints, num, dq)
        factors.append((Fraction(num, dq), mult))
    return FactoredBPoly(tuple(factors))
