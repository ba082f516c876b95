"""Normally ordered arithmetic in the Weyl algebra with central variables.

Elements live over a Signature declaring n x-variables, r t-variables (each
paired with a differential) and a list of named central commutative
variables.  A term is stored as a flat exponent tuple laid out as

    [x_1..x_n | t_1..t_r | Dx_1..Dx_n | Dt_1..Dt_r | central...]

with all variables to the left of all differentials (normal order).
Multiplication uses the closed-form reordering identity

    D^a x^b = sum_k k! C(a,k) C(b,k) x^(b-k) D^(a-k)

applied independently per variable/differential pair.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import add

from .errors import (
    NonGradedWeight,
    NotAPolynomial,
    NoTVariables,
    SignatureMismatch,
    ZeroElement,
)


class Signature:
    """Variable layout of a Weyl algebra D = C<x, t, Dx, Dt>[central]."""

    __slots__ = ("xvars", "tvars", "central", "n", "r", "k", "nslots", "_names")

    def __init__(self, xvars=(), tvars=(), central=()):
        self.xvars = tuple(xvars)
        self.tvars = tuple(tvars)
        self.central = tuple(central)
        self.n = len(self.xvars)
        self.r = len(self.tvars)
        self.k = len(self.central)
        self.nslots = 2 * (self.n + self.r) + self.k
        names = list(self.xvars) + list(self.tvars)
        names += [_dname(v) for v in self.xvars] + [_dname(v) for v in self.tvars]
        names += list(self.central)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be pairwise distinct")
        self._names = tuple(names)

    # -- slot bookkeeping ---------------------------------------------------

    @property
    def slot_names(self) -> tuple[str, ...]:
        return self._names

    def slot_of(self, name: str) -> int:
        try:
            return self._names.index(name)
        except ValueError:
            raise KeyError(f"no variable named {name!r}") from None

    def t_slot(self, i: int) -> int:
        return self.n + i

    def dt_slot(self, i: int) -> int:
        return 2 * self.n + self.r + i

    def var_slots(self) -> range:
        return range(self.n + self.r)

    def diff_slots(self) -> range:
        return range(self.n + self.r, 2 * (self.n + self.r))

    def central_slots(self) -> range:
        return range(2 * (self.n + self.r), self.nslots)

    def partner(self, slot: int) -> int | None:
        """The dual slot of a variable/differential pair, None for centrals."""
        nr = self.n + self.r
        if slot < nr:
            return slot + nr
        if slot < 2 * nr:
            return slot - nr
        return None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Signature)
            and self.xvars == other.xvars
            and self.tvars == other.tvars
            and self.central == other.central
        )

    def __hash__(self) -> int:
        return hash((self.xvars, self.tvars, self.central))

    def __repr__(self) -> str:
        return f"Signature(x={self.xvars}, t={self.tvars}, central={self.central})"

    def with_central(self, *names: str) -> "Signature":
        return Signature(self.xvars, self.tvars, self.central + tuple(names))


def _dname(var: str) -> str:
    return "D" + var


class WeightVector:
    """Integer weights on the slots of a signature, with v+w >= 0 per pair."""

    __slots__ = ("sig", "slot_weights")

    def __init__(self, sig: Signature, slot_weights):
        slot_weights = tuple(int(w) for w in slot_weights)
        if len(slot_weights) != sig.nslots:
            raise ValueError("weight length does not match signature")
        for i in sig.var_slots():
            j = sig.partner(i)
            if slot_weights[i] + slot_weights[j] < 0:
                raise ValueError(
                    f"v+w < 0 for pair {sig.slot_names[i]}/{sig.slot_names[j]}"
                )
        self.sig = sig
        self.slot_weights = slot_weights

    @staticmethod
    def v_filtration(sig: Signature) -> "WeightVector":
        """The distinguished (w,-w): weight -1 on t_j, +1 on Dt_j, 0 elsewhere."""
        slots = [0] * sig.nslots
        for i in range(sig.r):
            slots[sig.t_slot(i)] = -1
            slots[sig.dt_slot(i)] = 1
        return WeightVector(sig, slots)

    @staticmethod
    def by_name(sig: Signature, weights: dict[str, int]) -> "WeightVector":
        slots = [0] * sig.nslots
        for name, w in weights.items():
            slots[sig.slot_of(name)] = int(w)
        return WeightVector(sig, slots)

    def is_graded(self) -> bool:
        """True when v+w = 0 on every variable/differential pair."""
        sig = self.sig
        return all(
            self.slot_weights[i] + self.slot_weights[sig.partner(i)] == 0
            for i in sig.var_slots()
        )

    def weight_of(self, exp: tuple[int, ...]) -> int:
        return sum(w * e for w, e in zip(self.slot_weights, exp) if e)

    def __repr__(self) -> str:
        parts = [
            f"{n}:{w}" for n, w in zip(self.sig.slot_names, self.slot_weights) if w
        ]
        return f"WeightVector({', '.join(parts) or '0'})"


@lru_cache(maxsize=None)
def _reorder_coeffs(a: int, b: int) -> tuple[tuple[int, int], ...]:
    """The (k, c_k), k >= 1, of D^a x^b = x^b D^a + sum_k c_k x^(b-k) D^(a-k)."""
    return tuple(
        (k, factorial(k) * comb(a, k) * comb(b, k)) for k in range(1, min(a, b) + 1)
    )


def mono_mul(sig: Signature, mexp: tuple, terms) -> dict:
    """Normal-order product (monomial mexp) * (sum of (exp, coeff) terms).

    Returns an exp -> coeff dict without zero entries.  Only the pairs where
    a differential of mexp meets the same variable in a term are expanded;
    every other slot just adds exponents.
    """
    nr = sig.n + sig.r
    diffs = [(i, a) for i, a in enumerate(mexp[nr : 2 * nr]) if a]
    if not diffs:
        # distinct exponents stay distinct, so nothing collides or cancels
        return {tuple(map(add, mexp, e)): c for e, c in terms}
    out: dict = {}
    for e, c in terms:
        exp = tuple(map(add, mexp, e))
        partial = [(c, exp)]
        for i, a in diffs:
            b = e[i]
            if not b:
                continue
            nxt = []
            for coeff, exp in partial:
                nxt.append((coeff, exp))
                for k, ck in _reorder_coeffs(a, b):
                    le = list(exp)
                    le[i] -= k
                    le[nr + i] -= k
                    nxt.append((coeff * ck, tuple(le)))
            partial = nxt
        for coeff, exp in partial:
            nc = out.get(exp, 0) + coeff
            if nc:
                out[exp] = nc
            else:
                del out[exp]
    return out


class WeylElement:
    """A finite sum of normally ordered terms with Fraction coefficients."""

    __slots__ = ("sig", "terms")

    def __init__(self, sig: Signature, terms: dict):
        self.sig = sig
        self.terms = {e: c for e, c in terms.items() if c != 0}

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(sig: Signature) -> "WeylElement":
        return WeylElement(sig, {})

    @staticmethod
    def constant(sig: Signature, c) -> "WeylElement":
        c = Fraction(c)
        return WeylElement(sig, {(0,) * sig.nslots: c} if c else {})

    @staticmethod
    def one(sig: Signature) -> "WeylElement":
        return WeylElement.constant(sig, 1)

    @staticmethod
    def monomial(sig: Signature, exp, coeff=1) -> "WeylElement":
        exp = tuple(int(e) for e in exp)
        if len(exp) != sig.nslots or any(e < 0 for e in exp):
            raise ValueError("bad exponent tuple")
        return WeylElement(sig, {exp: Fraction(coeff)})

    @staticmethod
    def generator(sig: Signature, name: str) -> "WeylElement":
        exp = [0] * sig.nslots
        exp[sig.slot_of(name)] = 1
        return WeylElement.monomial(sig, tuple(exp))

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {(0,) * self.sig.nslots}

    def constant_value(self) -> Fraction:
        return self.terms.get((0,) * self.sig.nslots, Fraction(0))

    def is_polynomial(self) -> bool:
        """True when no term carries a differential exponent."""
        diff = self.sig.diff_slots()
        return all(all(e[i] == 0 for i in diff) for e in self.terms)

    def support_slots(self) -> set[int]:
        out: set[int] = set()
        for e in self.terms:
            out.update(i for i, v in enumerate(e) if v)
        return out

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeylElement)
            and self.sig == other.sig
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.sig, frozenset(self.terms.items())))

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other: "WeylElement"):
        if self.sig != other.sig:
            raise SignatureMismatch(f"{self.sig} vs {other.sig}")

    def __add__(self, other: "WeylElement") -> "WeylElement":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            nc = out.get(e, 0) + c
            if nc:
                out[e] = nc
            else:
                out.pop(e, None)
        return WeylElement(self.sig, out)

    def __neg__(self) -> "WeylElement":
        return WeylElement(self.sig, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        return self + (-other)

    def scale(self, c) -> "WeylElement":
        c = Fraction(c)
        if c == 0:
            return WeylElement.zero(self.sig)
        return WeylElement(self.sig, {e: v * c for e, v in self.terms.items()})

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        self._check(other)
        out: dict = {}
        rhs = other.terms.items()
        for e1, c1 in self.terms.items():
            for exp, c in mono_mul(self.sig, e1, rhs).items():
                nc = out.get(exp, 0) + c1 * c
                if nc:
                    out[exp] = nc
                else:
                    del out[exp]
        return WeylElement(self.sig, out)

    # -- weights --------------------------------------------------------------

    def ord_weight(self, vw: WeightVector) -> int:
        """Maximum term weight (the (v,w)-order)."""
        if not self.terms:
            raise ZeroElement("ord_weight of zero")
        return max(vw.weight_of(e) for e in self.terms)

    def initial_form(self, vw: WeightVector) -> "WeylElement":
        """Sum of the terms of maximal (v,w)-weight; vw must be graded."""
        if not vw.is_graded():
            raise NonGradedWeight("initial form needs v+w = 0 on all pairs")
        m = self.ord_weight(vw)
        return WeylElement(
            self.sig,
            {e: c for e, c in self.terms.items() if vw.weight_of(e) == m},
        )

    def homogenize(self, vw: WeightVector, u1: str) -> "WeylElement":
        """Weight-homogenize with the central variable u1 (weight 1)."""
        if not vw.is_graded():
            raise NonGradedWeight("homogenization needs v+w = 0 on all pairs")
        slot = self.sig.slot_of(u1)
        if slot not in self.sig.central_slots():
            raise ValueError(f"{u1!r} is not a central variable")
        m0 = self.ord_weight(vw)
        out = {}
        for e, c in self.terms.items():
            d = m0 - vw.weight_of(e)
            if d:
                le = list(e)
                le[slot] += d
                e = tuple(le)
            out[e] = c
        return WeylElement(self.sig, out)

    def is_homogeneous(self, vw: WeightVector) -> bool:
        if not self.terms:
            return True
        weights = {vw.weight_of(e) for e in self.terms}
        return len(weights) == 1

    # -- substitution and signature changes ------------------------------------

    def substitute_central(self, name: str, value) -> "WeylElement":
        """Substitute a rational constant for a central variable.

        Only central variables may be substituted: for anything noncentral
        the result would not be well defined in the quotient.
        """
        slot = self.sig.slot_of(name)
        if slot not in self.sig.central_slots():
            raise ValueError(f"{name!r} is not central; substitution is invalid")
        value = Fraction(value)
        out: dict = {}
        for e, c in self.terms.items():
            k = e[slot]
            if k:
                c = c * value**k
                if c == 0:
                    continue
                le = list(e)
                le[slot] = 0
                e = tuple(le)
            nc = out.get(e, 0) + c
            if nc:
                out[e] = nc
            else:
                del out[e]
        return WeylElement(self.sig, out)

    def lift(self, big: Signature) -> "WeylElement":
        """Re-express over a larger signature containing all our names."""
        mapping = [big.slot_of(nm) for nm in self.sig.slot_names]
        out = {}
        for e, c in self.terms.items():
            ne = [0] * big.nslots
            for i, v in enumerate(e):
                if v:
                    ne[mapping[i]] = v
            out[tuple(ne)] = c
        return WeylElement(big, out)

    def project(self, small: Signature) -> "WeylElement":
        """Re-express over a smaller signature; unused slots must be zero."""
        mapping = {}
        for i, nm in enumerate(self.sig.slot_names):
            try:
                mapping[i] = small.slot_of(nm)
            except KeyError:
                mapping[i] = None
        out = {}
        for e, c in self.terms.items():
            ne = [0] * small.nslots
            for i, v in enumerate(e):
                if not v:
                    continue
                j = mapping[i]
                if j is None:
                    raise ValueError(
                        f"term uses {self.sig.slot_names[i]}, absent from target"
                    )
                ne[j] = v
            out[tuple(ne)] = c
        return WeylElement(small, out)

    # -- actions ----------------------------------------------------------------

    def act_on_polynomial(self, h: "WeylElement") -> "WeylElement":
        """Apply this operator to a polynomial (differentials differentiate)."""
        self._check(h)
        if not h.is_polynomial():
            raise NotAPolynomial("action target must be differential-free")
        sig = self.sig
        nr = sig.n + sig.r
        out: dict = {}
        for pe, pc in self.terms.items():
            for he, hc in h.terms.items():
                coeff = pc * hc
                ne = list(he)
                ok = True
                for i in range(nr):
                    a = pe[nr + i]
                    if not a:
                        continue
                    b = ne[i]
                    if b < a:
                        ok = False
                        break
                    # d^a x^b = b(b-1)...(b-a+1) x^(b-a)
                    for j in range(a):
                        coeff *= b - j
                    ne[i] = b - a
                if not ok or coeff == 0:
                    continue
                for i in list(range(nr)) + list(sig.central_slots()):
                    ne[i] += pe[i] if i < nr else pe[i]
                key = tuple(ne)
                nc = out.get(key, 0) + coeff
                if nc:
                    out[key] = nc
                else:
                    del out[key]
        return WeylElement(sig, out)

    # -- rendering ----------------------------------------------------------------

    def __repr__(self) -> str:
        return f"WeylElement({format_element(self)})"

    def __str__(self) -> str:
        return format_element(self)


def build_sigma(sig: Signature) -> WeylElement:
    """sigma = -(sum_i Dt_i t_i) = -sum_i t_i Dt_i - r, in normal order."""
    if sig.r < 1:
        raise NoTVariables("sigma needs at least one t-variable")
    terms: dict = {(0,) * sig.nslots: Fraction(-sig.r)}
    for i in range(sig.r):
        e = [0] * sig.nslots
        e[sig.t_slot(i)] = 1
        e[sig.dt_slot(i)] = 1
        terms[tuple(e)] = Fraction(-1)
    return WeylElement(sig, terms)


def format_element(p: WeylElement) -> str:
    """Canonical text form, terms sorted descending by degree, then exponent."""
    if p.is_zero():
        return "0"
    names = p.sig.slot_names
    parts = []
    for e in sorted(p.terms, key=lambda e: (sum(e), e), reverse=True):
        c = p.terms[e]
        factors = []
        for i, v in enumerate(e):
            if v == 0:
                continue
            factors.append(names[i] + (f"^{v}" if v > 1 else ""))
        mono = "*".join(factors)
        if not mono:
            body = _coeff_str(abs(c), bare=True)
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{_coeff_str(abs(c))}*{mono}"
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(f"{sign + ' ' if sign and parts else sign}{body}")
    return " ".join(parts)


def _coeff_str(c: Fraction, bare: bool = False) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    s = f"{c.numerator}/{c.denominator}"
    return s if bare else f"({s})"
