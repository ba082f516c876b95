"""Exact rational scalars and univariate polynomial arithmetic.

The scalar type is ``fractions.Fraction`` (arbitrary precision, always stored
in lowest terms with a positive denominator).  Univariate polynomials over Q
are dense coefficient lists in the variable s.
b-functions are kept fully factored as (root, multiplicity) pairs.
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
    """Univariate polynomial over Q in the variable s, dense representation."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @staticmethod
    def zero() -> "UPoly":
        return UPoly([])

    @staticmethod
    def one() -> "UPoly":
        return UPoly([1])

    @staticmethod
    def linear_root(root: Fraction) -> "UPoly":
        """(s - root)"""
        return UPoly([-Fraction(root), Fraction(1)])

    @property
    def degree(self):
        """Degree, with -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, UPoly) and self.coeffs == other.coeffs

    def __mul__(self, other: "UPoly") -> "UPoly":
        if self.is_zero() or other.is_zero():
            return UPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UPoly(out)

    def __repr__(self) -> str:
        return f"UPoly({format_upoly(self)})"


def format_upoly(p: UPoly, var: str = "s") -> str:
    if p.is_zero():
        return "0"
    parts = []
    for i in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            term = format_rational(abs(c))
        else:
            mag = "" if abs(c) == 1 else format_rational(abs(c)) + "*"
            term = f"{mag}{var}" + (f"^{i}" if i > 1 else "")
        if not parts:
            parts.append(("-" if c < 0 else "") + term)
        else:
            parts.append(("-" if c < 0 else "+") + term)
    return "".join(parts)


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

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.factors)

    def expand(self) -> UPoly:
        out = UPoly.one()
        for root, mult in self.factors:
            lin = UPoly.linear_root(root)
            for _ in range(mult):
                out = out * lin
        return out

    def is_one(self) -> bool:
        return not self.factors

    def root_multiset(self) -> dict[Fraction, int]:
        return dict(self.factors)

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
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if not p.is_monic():
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
            residue = UPoly([Fraction(c, ints[-1]) for c in ints])
            raise IrrationalResidue(
                f"no rational root of residual factor {format_upoly(residue)}"
            )
        mult = 0
        while quot is not None:
            ints, mult = quot, mult + 1
            quot = _divide_linear(ints, num, dq)
        factors.append((Fraction(num, dq), mult))
    return FactoredBPoly(tuple(factors))
