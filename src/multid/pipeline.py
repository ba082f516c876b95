"""Bernstein-Sato pipeline: I_f, I_{f,1}, J_f(m) and b-function extraction.

Two routes to b_{a,g}(s), both reading b as a monic minimal polynomial
(`groebner.minimal_polynomial`):

* `bfunction`: form J_f(m) = D_Y[s](I_{f,1} + a^m + <s - sigma>) cap C[x,s]
  and K = J_f(m) : g; the generator of K cap C[s] is the minimal
  polynomial of s acting on 1 modulo K.
* `bfunction_alg2` (m = 1 only): intersect Ann(prod f_i^{s_i}) with D_Y g,
  take the initial ideal in(I0) under the V-filtration weight (-w, w),
  then find b as the monic minimal polynomial of sigma acting on g modulo
  in(I0).  in(I0) is (-w, w)-homogeneous, so in(I0) sigma lies in in(I0),
  and then b(s) g lies in D_Y[s](in(I0) + <s - sigma>) exactly when
  b(sigma) g lies in in(I0): no elimination in D_Y[s] is needed.

Either loop over normal forms ends because b_{a,g} is nonzero (Budur,
Mustata and Saito, 2006).  Both return the monic generator fully
factored over Q.

Stage results (I_{f,1}, J_f(m), I_{(f;g),2} and the `bfunction` /
`bfunction_level` outputs) are memoised on the caller's `IdealInput`,
shared with the inputs derived from it by `with_g` / `with_m` and freed
with it.  `bfunction_alg2` is never memoised, so the cross-check stays
independent of the first route.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import UnsupportedM, ZeroDivisor
from .groebner import (
    LeftIdeal,
    TermOrder,
    _elimination_order,
    basis_ipolys,
    colon,
    eliminate,
    initial_ideal,
    intersect,
    minimal_polynomial,
    weight_homogenization,
)
from .rationals import FactoredBPoly, UPoly, rational_roots
from .request import within_request
from .weyl import Signature, WeightVector, WeylElement, build_sigma

S_NAME = "s"

# names the pipeline introduces internally; user variables must avoid them
_RESERVED_PREFIXES = ("D",)


def _t_names(r: int) -> tuple[str, ...]:
    return tuple(f"t{i + 1}" for i in range(r))


def polynomial_ring(variables) -> Signature:
    """The commutative ring C[x...] as a purely-central signature."""
    return Signature(central=tuple(variables))


def polynomial_ring_s(variables) -> Signature:
    """C[x, s]."""
    return Signature(central=tuple(variables) + (S_NAME,))


@dataclass(frozen=True)
class IdealInput:
    """An ideal a = <f_1..f_r> in C[x] with a multiplier g and level m."""

    variables: tuple[str, ...]
    f: tuple[WeylElement, ...]
    g: WeylElement = None
    m: int = 1
    # stage results, shared by every input derived with with_g / with_m
    memo: dict = field(init=False, compare=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if not self.variables:
            raise ValueError("at least one variable is required")
        if not all(self.variables):
            raise ValueError("variable names must be nonempty")
        psig = polynomial_ring(self.variables)
        bad = [
            v
            for v in self.variables
            if v == S_NAME
            or v.startswith(_RESERVED_PREFIXES)
            or (v[0] in "tu" and v[1:].isdigit())
        ]
        if bad:
            raise ValueError(f"reserved variable names: {bad}")
        if not self.f:
            raise ValueError("the ideal needs at least one generator")
        for fi in self.f:
            if fi.sig != psig:
                raise ValueError("generators must live in C[variables]")
            if fi.is_zero():
                raise ValueError("ideal generators must be nonzero")
        if self.g is None:
            object.__setattr__(self, "g", WeylElement.one(psig))
        if self.g.sig != psig or self.g.is_zero():
            raise ZeroDivisor("g must be a nonzero polynomial in C[variables]")
        if self.m < 1:
            raise ValueError("m must be a positive integer")

    @property
    def r(self) -> int:
        return len(self.f)

    @property
    def n(self) -> int:
        return len(self.variables)

    def poly_sig(self) -> Signature:
        return polynomial_ring(self.variables)

    def weyl_sig(self) -> Signature:
        return Signature(xvars=self.variables, tvars=_t_names(self.r))

    def with_g(self, g: WeylElement) -> "IdealInput":
        return self._derive(g=g)

    def with_m(self, m: int) -> "IdealInput":
        return self._derive(m=m)

    def _derive(self, **changes) -> "IdealInput":
        out = replace(self, **changes)
        object.__setattr__(out, "memo", self.memo)
        return out

    def memoized(self, key: tuple, build):
        """build(), computed once per key for this input and its derivations.

        Inputs sharing a memo differ only in g and m, so a key names the
        stage and whichever of g and m the stage reads.
        """
        if key not in self.memo:
            self.memo[key] = build()
        return self.memo[key]


def _diff(p: WeylElement, var: str) -> WeylElement:
    """d/d(var) of a polynomial lifted into a Weyl signature."""
    return WeylElement.generator(p.sig, "D" + var).act_on_polynomial(p)


def ann_fs_generators(input: IdealInput) -> list[WeylElement]:
    """The n+r generators of Ann_{D_Y} prod f_i^{s_i}.

    t_i - f_i for each i, and Dx_j + sum_i (df_i/dx_j) Dt_i for each j.
    """
    sig = input.weyl_sig()
    fs = [fi.over(sig) for fi in input.f]
    gens = []
    for i, fi in enumerate(fs):
        gens.append(WeylElement.generator(sig, _t_names(input.r)[i]) - fi)
    for xj in input.variables:
        g = WeylElement.generator(sig, "D" + xj)
        for i, fi in enumerate(fs):
            g = g + _diff(fi, xj) * WeylElement.generator(
                sig, "D" + _t_names(input.r)[i]
            )
        gens.append(g)
    return gens


def build_If(input: IdealInput) -> LeftIdeal:
    """<t_i u1 - f_i> + <u1 Dx_j + sum (df_i/dx_j) Dt_i> + <u1 u2 - 1>.

    Ann prod f_i^{s_i}, homogenized under the V-filtration weight.
    """
    sig = input.weyl_sig()
    return weight_homogenization(
        LeftIdeal(sig, ann_fs_generators(input)), WeightVector.v_filtration(sig)
    )


@within_request()
def compute_If1(input: IdealInput) -> LeftIdeal:
    """I_{f,1} = I_f cap D_Y = (Ann prod f_i^{s_i})^*, memoised per f.

    Its generators are the reduced basis under the order that
    `_adjoin_s_and_restrict` eliminates t, Dx and Dt with, so the J_f(m)
    and I_2 runs start from a Groebner basis of I_{f,1}.
    """
    return input.memoized(
        ("If1",),
        lambda: eliminate(build_If(input), input.weyl_sig(), input.poly_sig()),
    )


def ideal_power_products(input: IdealInput, m: int) -> list[WeylElement]:
    """All m-fold products of the f_i: a generating set of a^m.

    In the order of combinations_with_replacement(input.f, m).  Each
    product is its prefix's product times a power of its last factor, and
    each prefix and power is formed once.  Each multiplication checks the
    request's time budget.
    """
    f = input.f
    one = WeylElement.one(input.poly_sig())
    powers = []  # powers[i][k] = f_i^k
    for fi in f:
        row = [one]
        for _ in range(m):
            row.append(row[-1] * fi)
        powers.append(row)
    out = []

    def extend(prefix: WeylElement, i: int, left: int):
        # prefix: the product of the factors before f_i; left more to go
        if i == len(f) - 1:
            out.append(prefix * powers[i][left])
            return
        for k in range(left, -1, -1):
            extend(prefix * powers[i][k], i + 1, left - k)

    extend(one, 0, m)
    return out


def expand_in_s(factors, sig: Signature) -> WeylElement:
    """prod (s - root)^mult over the (root, multiplicity) pairs, as an
    element of sig, which has s as a central variable."""
    k = sig.slot_of(S_NAME)
    zero = (0,) * sig.nslots
    coeffs = FactoredBPoly(tuple(factors)).expand().coeffs
    return WeylElement(
        sig, {zero[:k] + (j,) + zero[k + 1 :]: c for j, c in enumerate(coeffs)}
    )


def _adjoin_s_and_restrict(input: IdealInput, gens) -> LeftIdeal:
    """D_Y[s](gens + <s - sigma>) cap C[x,s], for gens in D_Y or C[x]."""
    big = input.weyl_sig().with_central(S_NAME)
    lifted = [h.over(big) for h in gens]
    lifted.append(WeylElement.generator(big, S_NAME) - build_sigma(big))
    return eliminate(LeftIdeal(big, lifted), polynomial_ring_s(input.variables))


@within_request()
def build_Jf_m(input: IdealInput) -> LeftIdeal:
    """J_f(m) = D_Y[s](I_{f,1} + a^m + <s - sigma>) cap C[x,s]."""

    def build():
        gens = list(compute_If1(input).generators)
        return _adjoin_s_and_restrict(
            input, gens + ideal_power_products(input, input.m)
        )

    return input.memoized(("Jfm", input.m), build)


def _build_I2(input: IdealInput) -> LeftIdeal:
    """I_{(f;g),2} = D_Y[s](I_{f,1} + g a + <s - sigma>) cap C[x,s]."""

    def build():
        gens = list(compute_If1(input).generators)
        return _adjoin_s_and_restrict(input, gens + [input.g * fi for fi in input.f])

    return input.memoized(("I2", input.g), build)


def _reads_I2(input: IdealInput) -> bool:
    """True when `bfunction(input)` is read off I_{(f;g),2}, not J_f(m).

    That is m = 1 with nonconstant g, giving the classical b_{a,g};
    otherwise J_f(m) gives b^{(m)}_{a,g} (for g = 1 the two agree).
    """
    return input.m == 1 and not input.g.is_constant()


def defining_ideal(input: IdealInput) -> LeftIdeal:
    """The ideal of C[x,s] that `bfunction(input)` is read off."""
    return _build_I2(input) if _reads_I2(input) else build_Jf_m(input)


def _b_of_colon(J: LeftIdeal, input: IdealInput) -> FactoredBPoly:
    """Monic generator of (J : g) cap C[s], factored.

    For K = J : g, a polynomial b lies in K cap C[s] exactly when b(s) 1
    lies in K, so the generator is the minimal polynomial of s acting on 1
    modulo K, read off K's reduced grevlex basis.  For g = 1 that basis is
    J's own, handed over by its elimination; otherwise it takes one run.
    """
    K = colon(J, input.g.over(J.sig))
    s, one = WeylElement.generator(K.sig, S_NAME), WeylElement.one(K.sig)
    b = minimal_polynomial(K.groebner_ipolys(), TermOrder.grevlex(K.sig), s, one)
    return rational_roots(UPoly(b))


@within_request()
def bfunction(input: IdealInput) -> FactoredBPoly:
    """The generalized Bernstein-Sato polynomial b_{a,g}(s).

    For m = 1 and nonconstant g this follows the colon construction on
    I_2 = D_Y[s](I_{f,1} + g a + <s - sigma>) cap C[x,s], giving the
    classical b_{a,g}, the generator of (I_2 : g) cap C[s].  Otherwise it
    is b^{(m)}_{a,g}, the generator of (J_f(m) : g) cap C[s], which
    `bfunction_level` computes and memoises; the two notions agree when
    g = 1.  Either generator is read as a minimal polynomial of s
    (`_b_of_colon`).
    """
    if _reads_I2(input):
        return input.memoized(
            ("bfunction", input.g), lambda: _b_of_colon(_build_I2(input), input)
        )
    return bfunction_level(input)


@within_request()
def bfunction_level(input: IdealInput) -> FactoredBPoly:
    """b^{(m)}_{a,g}(s): monic generator of (J_f(m) : g) cap C[s], the
    minimal polynomial of s acting on 1 modulo J_f(m) : g.

    Unlike `bfunction` with m = 1, this variant reuses one memoised J_f(m)
    for every g, which is what the membership and filtration queries need;
    its root set within [lct, lct + m) carries the multiplier-ideal data.
    """
    return input.memoized(
        ("bfunction_level", input.g, input.m),
        lambda: _b_of_colon(build_Jf_m(input), input),
    )


@within_request()
def bfunction_alg2(input: IdealInput) -> FactoredBPoly:
    """b_{a,g}(s) by the initial-ideal route (m = 1 only).

    I0 = Ann prod f_i^{s_i} cap D_Y g, then in(I0), its initial ideal under
    the V-filtration weight (-w, w), then b as the monic minimal polynomial
    of sigma acting on g modulo in(I0) (`minimal_polynomial`; Noro, ICMS
    2002; Levandovskyy and Martin Morales, ISSAC 2008).

    b(s) is meant as the monic generator of the b in C[s] with b(s) g in
    D_Y[s](in(I0) + <s - sigma>), which eliminating down to C[x,s], dividing
    out g and eliminating down to C[s] would give.  in(I0) is
    (-w, w)-homogeneous, so in(I0) sigma lies in in(I0), and b(s) g lies in
    that ideal exactly when b(sigma) g lies in in(I0).
    The normal forms are taken against the basis of in(I0) under the order
    that weighs t, Dx and Dt, the order that restriction would use.  The
    loop ends because b_{a,g} is nonzero (Budur, Mustata and Saito, 2006),
    and a unit in(I0) gives b = 1.

    in(I0) is computed with that order as the second row of its u2
    elimination (`initial_ideal` with then = C[x]), which shortens that run
    and the basis run after it.  This is measured, not proved: after u1 = 0
    the generators need not be a Groebner basis.  The basis, and so b, is
    unique either way.
    """
    if input.m != 1:
        raise UnsupportedM("the initial-ideal route is defined for m = 1")
    sig = input.weyl_sig()
    ann = LeftIdeal(sig, ann_fs_generators(input))
    g = input.g.over(sig)
    if g.is_constant():
        I0 = ann
    else:
        I0 = intersect(ann, LeftIdeal(sig, [g]))
    poly = input.poly_sig()
    I1 = initial_ideal(I0, WeightVector.v_filtration(sig), poly)
    order = _elimination_order(sig, poly)
    basis = basis_ipolys(I1, order)
    return rational_roots(UPoly(minimal_polynomial(basis, order, build_sigma(sig), g)))
