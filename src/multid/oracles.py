"""Independent verification: the Newton-polyhedron oracle and b-function checks.

For a monomial ideal, membership in J(a^c) has a combinatorial criterion:
x^u lies in J(a^c) iff u + (1,...,1) is in the topological interior of
c times the Newton polyhedron of a.  Facets are found by exact enumeration
(instances here have at most three variables), giving an oracle that shares
no code path with the Groebner pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from .errors import UnsupportedM
from .groebner import member
from .multiplier import MultiplierFiltration
from .pipeline import (
    IdealInput,
    bfunction,
    bfunction_alg2,
    defining_ideal,
    expand_in_s,
    polynomial_ring,
)
from .rationals import FactoredBPoly
from .request import within_request
from .weyl import WeylElement


def _solve_nullspace(rows: list[list[Fraction]], n: int) -> list[Fraction] | None:
    """A nonzero solution of rows . a = 0 when the nullspace is a line."""
    mat = [list(r) for r in rows]
    pivots = []
    col = 0
    rix = 0
    for col in range(n):
        piv = None
        for i in range(rix, len(mat)):
            if mat[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[rix], mat[piv] = mat[piv], mat[rix]
        pv = mat[rix][col]
        mat[rix] = [v / pv for v in mat[rix]]
        for i in range(len(mat)):
            if i != rix and mat[i][col] != 0:
                fac = mat[i][col]
                mat[i] = [a - fac * b for a, b in zip(mat[i], mat[rix])]
        pivots.append(col)
        rix += 1
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return None
    sol = [Fraction(0)] * n
    sol[free[0]] = Fraction(1)
    for row, pc in zip(mat, pivots):
        sol[pc] = -row[free[0]]
    return sol


@dataclass(frozen=True)
class NewtonPolyhedron:
    """conv(generator exponents) + the positive orthant, by its facets.

    Facets are stored as (normal, rhs) meaning normal . v >= rhs on the
    polyhedron, with integer entries of gcd 1; only facets with rhs > 0 are
    kept (coordinate facets are trivially strict at u + 1).
    """

    points: tuple[tuple[int, ...], ...]
    facets: tuple[tuple[tuple[int, ...], int], ...]

    @staticmethod
    def of(monomials) -> "NewtonPolyhedron":
        points = tuple(tuple(int(e) for e in u) for u in monomials)
        if not points:
            raise ValueError("at least one monomial is required")
        n = len(points[0])
        facets = set()
        # candidate hyperplanes: spanned by k generator points and n-k
        # recession directions e_i (on which the normal must vanish)
        for k in range(1, min(n, len(points)) + 1):
            for pts in combinations(points, k):
                for axes in combinations(range(n), n - k):
                    rows = [
                        [Fraction(a - b) for a, b in zip(p, pts[0])]
                        for p in pts[1:]
                    ]
                    for i in axes:
                        row = [Fraction(0)] * n
                        row[i] = Fraction(1)
                        rows.append(row)
                    normal = _solve_nullspace(rows, n)
                    if normal is None:
                        continue
                    if all(v == 0 for v in normal):
                        continue
                    if any(v < 0 for v in normal) and any(v > 0 for v in normal):
                        continue
                    if normal[0] < 0 or (normal[0] == 0 and max(normal) <= 0):
                        normal = [-v for v in normal]
                    if any(v < 0 for v in normal):
                        continue
                    den = 1
                    for v in normal:
                        den = den * v.denominator // gcd(den, v.denominator)
                    ints = [int(v * den) for v in normal]
                    g = 0
                    for v in ints:
                        g = gcd(g, v)
                    ints = [v // g for v in ints]
                    rhs = sum(a * b for a, b in zip(ints, pts[0]))
                    if rhs <= 0:
                        continue
                    if any(
                        sum(a * b for a, b in zip(ints, p)) < rhs
                        for p in points
                    ):
                        continue
                    facets.add((tuple(ints), rhs))
        return NewtonPolyhedron(points, tuple(sorted(facets)))

    def threshold(self, u) -> Fraction:
        """sup of the c with x^u in J(a^c): min over facets of a.(u+1)/rhs."""
        shifted = [e + 1 for e in u]
        vals = [
            Fraction(sum(a * b for a, b in zip(normal, shifted)), 1) / rhs
            for normal, rhs in self.facets
        ]
        return min(vals)


def howald_membership(monomials, u, c) -> bool:
    """x^u in J(a^c) for the monomial ideal a, by strict facet inequalities."""
    c = Fraction(c)
    if c < 0:
        raise ValueError("c must be nonnegative")
    if c == 0:
        return True
    return NewtonPolyhedron.of(monomials).threshold(u) > c


def _minimal_exponents(exps: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    out = []
    for u in sorted(exps, key=sum):
        if not any(all(a >= b for a, b in zip(u, v)) for v in out):
            out.append(u)
    return out


def howald_filtration(monomials, cmax, variables) -> MultiplierFiltration:
    """The full multiplier-ideal filtration of a monomial ideal up to cmax.

    Enumerates exponents in a box bounded by the componentwise maximum of
    the generators plus n (beyond which membership follows from monomial
    multiples) and reads jumps off the facet thresholds.
    """
    cmax = Fraction(cmax)
    if cmax <= 0:
        raise ValueError("cmax must be positive")
    np_ = NewtonPolyhedron.of(monomials)
    n = len(np_.points[0])
    bound = [max(p[i] for p in np_.points) + n for i in range(n)]

    def box(prefix):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(bound[len(prefix)] + 1):
            yield from box(prefix + [v])

    thresholds: dict[tuple[int, ...], Fraction] = {
        u: np_.threshold(u) for u in box([])
    }
    jumps = sorted({t for t in thresholds.values() if t <= cmax})
    psig = polynomial_ring(variables)

    def mono(u):
        exp = [0] * psig.nslots
        for i, e in enumerate(u):
            exp[psig.slot_of(variables[i])] = e
        return WeylElement.monomial(psig, tuple(exp))

    one = WeylElement.one(psig)
    steps = [(Fraction(0), (one,))]
    for c in jumps:
        gens = _minimal_exponents([u for u, t in thresholds.items() if t > c])
        steps.append((c, tuple(mono(u) for u in gens)))
    lct_val = min(thresholds.values())
    return MultiplierFiltration(
        lct=lct_val, steps=tuple(steps), valid_up_to=cmax
    )


@within_request()
def verify_minimality(b: FactoredBPoly, input: IdealInput) -> bool:
    """True iff no single factor of b can be dropped.

    For each distinct root, the polynomial with one copy of that factor
    removed, multiplied by g, must fail membership in the defining ideal
    of C[x,s] that b was extracted from.
    """
    J = defining_ideal(input)
    sig = J.sig
    g = input.g.over(sig)
    for root in b.roots:
        dropped = expand_in_s(b.drop_one(root).factors, sig)
        if member(dropped * g, J):
            return False
    return True


@within_request()
def cross_check(input: IdealInput) -> bool:
    """Algorithm 1 and Algorithm 2 agree (m = 1 only)."""
    if input.m != 1:
        raise UnsupportedM("the cross check requires m = 1")
    return bfunction(input) == bfunction_alg2(input)
