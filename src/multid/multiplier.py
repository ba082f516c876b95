"""Multiplier ideals, log-canonical thresholds and jumping coefficients.

For c below the recursion threshold B = min(n, r), the ideal J(a^c) is read
off J_f(m) by saturating away the b-function roots <= c and eliminating s;
for c >= B the recursion J(a^c) = a J(a^{c-1}) applies (B bounds the
analytic spread).  All comparisons are exact rational; "just below a
candidate" always means the previous filtration step, never a numeric
epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

from .errors import UnitIdeal, ZeroDivisor
from .groebner import LeftIdeal, TermOrder, eliminate, saturate
from .pipeline import (
    IdealInput,
    S_NAME,
    bfunction,
    bfunction_level,
    build_Jf_m,
    polynomial_ring,
    polynomial_ring_s,
)
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


def _saturation_element(roots, c: Fraction, sig) -> WeylElement:
    """prod over distinct roots c_i > c of (s + c_i) as an element of C[x,s]."""
    s = WeylElement.generator(sig, S_NAME)
    p = WeylElement.one(sig)
    for root in roots:
        ci = -root
        if ci > c:
            p = p * (s + WeylElement.constant(sig, ci))
    return p


def _reduced_generators(I: LeftIdeal) -> tuple[WeylElement, ...]:
    """Canonical form of an ideal of C[x]: its reduced grevlex GB."""
    return tuple(I.groebner(TermOrder.grevlex(I.sig)))


def _multiplier_ideal_direct(input: IdealInput, c: Fraction) -> LeftIdeal:
    """J(a^c) for c < lct + m via saturation of J_f(m)."""
    J = build_Jf_m(input)
    b = bfunction_level(input.with_g(WeylElement.one(input.poly_sig())))
    big = polynomial_ring_s(input.variables)
    p = _saturation_element(b.roots, c, big)
    sat = J if p.is_constant() else saturate(J, p)
    return eliminate(sat, polynomial_ring(input.variables))


def multiplier_ideal_ideal(input: IdealInput, c: Fraction) -> LeftIdeal:
    c = Fraction(c)
    if c < 0:
        raise ValueError("c must be nonnegative")
    psig = polynomial_ring(input.variables)
    if c == 0:
        return LeftIdeal(psig, [WeylElement.one(psig)])
    B = _recursion_bound(input)
    if c >= B:
        prev = multiplier_ideal_ideal(input, c - 1)
        prods = [fi * g for fi in input.f for g in prev.generators]
        return LeftIdeal(psig, prods)
    lct_val = lct(input)
    if c < lct_val:
        return LeftIdeal(psig, [WeylElement.one(psig)])
    m = _level_for(c, lct_val)
    return _multiplier_ideal_direct(input.with_m(m), c)


def multiplier_ideal(input: IdealInput, c: Fraction) -> list[WeylElement]:
    """Reduced grevlex generators of J(a^c)."""
    return list(_reduced_generators(multiplier_ideal_ideal(input, c)))


def _jump_candidates(input: IdealInput, cmax: Fraction, lct_val: Fraction):
    """Exact candidate set: b^{(m)} roots below B, then +1 translations.

    Jumps below B = min(n, r) lie among the roots of b^{(m)}_a(-s) for the
    m covering that range; for c > B a jump at c forces a jump at c - 1,
    and c = B itself is always tested, so closing the candidate set under
    +1 translation (and adding B) covers everything up to cmax.
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
        nxt = {c + 1 for c in frontier if c + 1 <= cmax}
        nxt -= cands
        cands |= nxt
        frontier = nxt
    return sorted(cands)


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
            gens = _reduced_generators(multiplier_ideal_ideal(input, c))
            if gens != prev:
                steps.append((c, gens))
                prev = gens
    return MultiplierFiltration(
        lct=lct_val, steps=tuple(steps), valid_up_to=cmax
    )


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
