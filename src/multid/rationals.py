"""Exact rational scalars and univariate polynomial arithmetic.

The scalar type is ``fractions.Fraction`` (arbitrary precision, always stored
in lowest terms with a positive denominator), re-exported as ``Rational``.
Univariate polynomials over Q are dense coefficient lists in the variable s.
b-functions are kept fully factored as (root, multiplicity) pairs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import IrrationalResidue

Rational = Fraction

NEG_INFINITY = float("-inf")


def format_rational(q: Fraction) -> str:
    """Serialize as "p/q", omitting the denominator when it is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    return Fraction(text.strip())


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

    def monic(self) -> "UPoly":
        if self.is_zero():
            return self
        lc = self.coeffs[-1]
        return UPoly([c / lc for c in self.coeffs])

    def __eq__(self, other) -> bool:
        return isinstance(other, UPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "UPoly") -> "UPoly":
        a, b = self.coeffs, other.coeffs
        return UPoly(
            [x + y for x, y in itertools.zip_longest(a, b, fillvalue=Fraction(0))]
        )

    def __neg__(self) -> "UPoly":
        return UPoly([-c for c in self.coeffs])

    def __sub__(self, other: "UPoly") -> "UPoly":
        return self + (-other)

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

    def scale(self, c) -> "UPoly":
        c = Fraction(c)
        return UPoly([a * c for a in self.coeffs])

    def divmod(self, other: "UPoly") -> tuple["UPoly", "UPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        dq = len(other.coeffs) - 1
        lc = other.coeffs[-1]
        quot = [Fraction(0)] * max(len(rem) - dq, 0)
        while len(rem) - 1 >= dq and rem:
            k = len(rem) - 1 - dq
            c = rem[-1] / lc
            quot[k] = c
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= c * b
            while rem and rem[-1] == 0:
                rem.pop()
        return UPoly(quot), UPoly(rem)

    def eval(self, x) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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


def _int_divisors(n: int) -> list[int]:
    n = abs(n)
    if n >= 10**10:
        # the direct scan is quadratic in the digit count; factor instead
        # (trailing coefficients met here are products of small root
        # numerators, so factoring is cheap)
        from sympy import divisors

        return divisors(n)
    small, large = [], []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def rational_roots(p: UPoly) -> FactoredBPoly:
    """Factor a monic polynomial completely into rational linear factors.

    Clears denominators to a primitive integer polynomial and enumerates
    candidates +/-(divisor of trailing coefficient)/(divisor of leading
    coefficient); multiplicities come from repeated exact division.  Raises
    IrrationalResidue if a nonconstant factor without rational roots remains.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if not p.is_monic():
        raise ValueError("polynomial must be monic")
    factors: list[tuple[Fraction, int]] = []
    cur = p
    # Strip roots at zero first.
    zero_mult = 0
    while not cur.is_zero() and cur.coeffs[0] == 0:
        cur = UPoly(cur.coeffs[1:])
        zero_mult += 1
    if zero_mult:
        factors.append((Fraction(0), zero_mult))
    while cur.degree >= 1:
        den = math.lcm(*(c.denominator for c in cur.coeffs))
        ints = [int(c * den) for c in cur.coeffs]
        g = math.gcd(*ints)
        ints = [c // g for c in ints]
        lead, trail = ints[-1], ints[0]
        root = None
        for num in _int_divisors(trail):
            for dq in _int_divisors(lead):
                for cand in (Fraction(num, dq), Fraction(-num, dq)):
                    if cur.eval(cand) == 0:
                        root = cand
                        break
                if root is not None:
                    break
            if root is not None:
                break
        if root is None:
            raise IrrationalResidue(
                f"no rational root of residual factor {format_upoly(cur)}"
            )
        lin = UPoly.linear_root(root)
        mult = 0
        while True:
            quot, rem = cur.divmod(lin)
            if not rem.is_zero():
                break
            cur = quot
            mult += 1
        factors.append((root, mult))
    factors.sort(key=lambda rm: rm[0])
    return FactoredBPoly(tuple(factors))
