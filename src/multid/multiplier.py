"""Multiplier ideals, log-canonical thresholds and jumping coefficients.

For c below the recursion threshold B = min(n, r), the ideal J(a^c) is read
off J_f(m) by saturating away the b-function roots <= c and eliminating s;
for c >= B the recursion J(a^c) = a J(a^{c-1}) applies (B bounds the
analytic spread), so J(a^c) = a^k J(a^{c-k}) with c - k < B.  All
comparisons are exact rational; "just below a candidate" always means the
previous filtration step, never a numeric epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

from .errors import UnitIdeal, ZeroDivisor
from .groebner import LeftIdeal, eliminate, saturate
from .pipeline import (
    IdealInput,
    bfunction,
    bfunction_level,
    build_Jf_m,
    expand_in_s,
    ideal_power_products,
    polynomial_ring,
)
from .request import check_deadline, within_request
from .weyl import WeylElement


@dataclass(frozen=True)
class MultiplierFiltration:
    """The filtration c -> J(a^c) as a finite list of constancy steps.

    Each step is (c_start, generators); the ideal is constant on
    [c_start, next c_start).  The first step is (0, [1]) and the second
    step starts at the log-canonical threshold.
    """

    lct: Fraction
    steps: tuple[tuple[Fraction, tuple[WeylElement, ...]], ...]
    valid_up_to: Fraction

    @property
    def jumps(self) -> tuple[Fraction, ...]:
        return tuple(c for c, _ in self.steps[1:])

    def ideal_at(self, c: Fraction) -> tuple[WeylElement, ...]:
        """Generators of J(a^c) for 0 <= c <= valid_up_to."""
        if c < 0 or c > self.valid_up_to:
            raise ValueError("c outside the computed range")
        gens = self.steps[0][1]
        for start, g in self.steps:
            if start <= c:
                gens = g
        return gens


@within_request()
def lct(input: IdealInput) -> Fraction:
    """The log-canonical threshold: minimal root of b_a(-s).

    b_a = 1 exactly for the unit ideal: for a nonzero proper ideal, -lct(a)
    is a root of b_a (Budur-Mustata-Saito 2006).
    """
    b = bfunction(input.with_g(WeylElement.one(input.poly_sig())).with_m(1))
    if b.is_one():
        raise UnitIdeal("the ideal contains a unit; lct is undefined")
    return min(-root for root in b.roots)


def _recursion_bound(input: IdealInput) -> int:
    return min(input.n, input.r)


def _level_for(c: Fraction, lct_val: Fraction) -> int:
    """The smallest m with c < lct + m."""
    if c < lct_val:
        return 1
    return floor(c - lct_val) + 1


def _multiplier_ideal_direct(input: IdealInput, c: Fraction) -> LeftIdeal:
    """J(a^c) for c < lct + m via saturation of J_f(m).

    The ideal depends on c only through the roots it saturates away, so it
    is memoised on m and those roots: the filtration walk and the step
    J(a^c) = a^k J(a^{c-k}) then share one computation per ideal.
    """
    b = bfunction_level(input.with_g(WeylElement.one(input.poly_sig())))
    above = tuple(root for root in b.roots if -root > c)

    def build():
        J = build_Jf_m(input)
        # prod (s + c_i) over the distinct roots -c_i with c_i > c
        p = expand_in_s([(root, 1) for root in above], J.sig)
        return eliminate(saturate(J, p), polynomial_ring(input.variables))

    return input.memoized(("multiplier", input.m, above), build)


def multiplier_ideal_ideal(input: IdealInput, c: Fraction) -> LeftIdeal:
    c = Fraction(c)
    if c < 0:
        raise ValueError("c must be nonnegative")
    psig = polynomial_ring(input.variables)
    # J(a^c) = a^k J(a^{c-k}) for the least k with c - k < B
    B = _recursion_bound(input)
    k = floor(c - B) + 1 if c >= B else 0
    c -= k
    J = LeftIdeal(psig, [WeylElement.one(psig)])
    if c > 0:
        lct_val = lct(input)
        if c >= lct_val:
            J = _multiplier_ideal_direct(input.with_m(_level_for(c, lct_val)), c)
    if k == 0:
        # J itself, with the reduced basis its elimination handed over
        return J
    return LeftIdeal(
        psig, [p * g for p in ideal_power_products(input, k) for g in J.generators]
    )


@within_request()
def multiplier_ideal(input: IdealInput, c: Fraction) -> list[WeylElement]:
    """Reduced grevlex generators of J(a^c)."""
    return multiplier_ideal_ideal(input, c).groebner()


def _jump_candidates(input: IdealInput, cmax: Fraction, lct_val: Fraction):
    """Exact candidate set: b^{(m)} roots below B, then +1 translations.

    Jumps below B = min(n, r) lie among the roots of b^{(m)}_a(-s) for the
    m covering that range; for c > B a jump at c forces a jump at c - 1,
    and c = B itself is always tested, so closing the candidate set under
    +1 translation (and adding B) covers everything up to cmax.  That
    closure takes about cmax steps, each checking the request's time budget.
    """
    B = _recursion_bound(input)
    direct_top = min(cmax, Fraction(B))
    # candidates are strictly below direct_top, so m = ceil(top - lct) covers
    mstar = max(1, ceil(direct_top - lct_val))
    b = bfunction_level(
        input.with_g(WeylElement.one(input.poly_sig())).with_m(mstar)
    )
    cands = {-r for r in b.roots if 0 < -r <= cmax and -r < B}
    if B <= cmax:
        cands.add(Fraction(B))
    frontier = set(cands)
    while frontier:
        check_deadline()
        nxt = {c + 1 for c in frontier if c + 1 <= cmax}
        nxt -= cands
        cands |= nxt
        frontier = nxt
    return sorted(cands)


@within_request()
def jumping_coefficients(input: IdealInput, cmax: Fraction) -> MultiplierFiltration:
    """All jumping coefficients in (0, cmax] with the filtration steps."""
    cmax = Fraction(cmax)
    if cmax <= 0:
        raise ValueError("cmax must be positive")
    psig = polynomial_ring(input.variables)
    one = WeylElement.one(psig)
    lct_val = lct(input)
    steps = [(Fraction(0), (one,))]
    prev = (one,)
    if cmax >= lct_val:
        for c in _jump_candidates(input, cmax, lct_val):
            gens = tuple(multiplier_ideal(input, c))
            if gens != prev:
                steps.append((c, gens))
                prev = gens
    return MultiplierFiltration(
        lct=lct_val, steps=tuple(steps), valid_up_to=cmax
    )


@within_request()
def membership_test(input: IdealInput, g: WeylElement, c: Fraction) -> bool:
    """g in J(a^c), decided by the roots of b^{(m)}_{a,g}(-s).

    m is chosen so that c < lct + m, the range on which the root
    characterization of membership is valid.
    """
    c = Fraction(c)
    if c < 0:
        raise ValueError("c must be nonnegative")
    if g.is_zero():
        raise ZeroDivisor("membership of the zero polynomial is vacuous")
    m = _level_for(c, lct(input))
    b = bfunction_level(input.with_g(g).with_m(m))
    return all(-root > c for root in b.roots)
