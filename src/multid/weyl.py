"""Normally ordered arithmetic in the Weyl algebra with central variables.

Elements live over a Signature declaring n x-variables, r t-variables (each
paired with a differential) and a list of named central commutative
variables.  A term is stored as a flat exponent tuple laid out as

    [x_1..x_n | t_1..t_r | Dx_1..Dx_n | Dt_1..Dt_r | central...]

with all variables to the left of all differentials (normal order).
Multiplication uses the closed-form reordering identity

    D^a x^b = sum_k k! C(a,k) C(b,k) x^(b-k) D^(a-k)

applied independently per variable/differential pair.  Its one kernel,
`mono_mul`, works on monomials packed into integers (`Packing`), as the
Groebner core stores them; `WeylElement.__mul__` packs its operands and
unpacks the product, checking the request's time budget once per term of
its left operand.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .errors import (
    NonGradedWeight,
    NotAPolynomial,
    NoTVariables,
    PackingOverflow,
    SignatureMismatch,
    ZeroElement,
)
from .rationals import format_rational
from .request import check_deadline


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


class Packing:
    """The monomials of one signature as two ints each, for one term order.

    With N slots and fields of S = W + 1 bits, a monomial e is stored as

    - its *exponent int*: slot i in bits [i*S, i*S + W), with a guard bit
      at i*S + W that is zero in every stored monomial, so that a divides
      b iff (b - a) & guards == 0 (a slot where a exceeds b borrows from
      its guard bit);
    - its *order int*: one field per weight row, sum(w_i e_i), the top
      row most significant, above N fields, where field k holds e_0 + ...
      + e_k.  From the top these are the total degree, the degree less
      e_{N-1}, less e_{N-1} + e_{N-2}, and so on, so `<` on order ints is
      the order of `TermOrder.key` (row weights, degree, reversed negated
      exponent).  Every field is linear in the exponent, so the order int
      of a product is the sum of the factors' order ints, and the packing
      is injective, so order ints also key dicts.

    Every packed monomial has total degree at most `limit` = 2^(W-1) - 1,
    so each field of a monomial, and of the sum or lcm of two, fits in W
    bits without a carry.  `pack` and `mono_mul` check that bound before a
    monomial could break it and raise `PackingOverflow`; the caller then
    repacks with wider fields.  The top row's field is the most
    significant and needs no bound; a lower row's is sized for max(row)
    times the largest degree a W-bit field holds, so the same check keeps
    it from carrying.
    """

    __slots__ = (
        "nr", "width", "limit", "vmask", "shifts", "ones", "guards", "low",
        "dshift", "row_fields", "diff_bits", "var_guards", "pair_steps",
    )

    def __init__(self, sig: Signature, rows=(), bound: int = 0):
        """Fields for monomials of total degree up to at least bound, under
        the weight rows of a `TermOrder`, top row first."""
        n = sig.nslots
        width = max(bound, 1).bit_length() + 1
        step = width + 1
        self.nr = nr = sig.n + sig.r
        self.width = width
        self.limit = (1 << (width - 1)) - 1
        self.vmask = vmask = (1 << width) - 1
        self.shifts = shifts = tuple(i * step for i in range(n))
        self.ones = ones = sum(1 << sh for sh in shifts)
        self.guards = ones << width
        self.low = (1 << (n * step)) - 1
        self.dshift = max(n - 1, 0) * step
        # (((weight, slot mask), ...), shift) per nonzero row, lowest first
        fields = []
        shift = n * step
        for row in reversed(rows):
            by_weight: dict = {}
            for sh, w in zip(shifts, row):
                if w:
                    by_weight[w] = by_weight.get(w, 0) | vmask << sh
            if by_weight:
                fields.append((tuple(by_weight.items()), shift))
                shift += (max(row) * vmask).bit_length()
        self.row_fields = tuple(fields)
        self.diff_bits = sum(vmask << sh for sh in shifts[nr : 2 * nr])
        self.var_guards = sum(1 << (sh + width) for sh in shifts[:nr])
        self.pair_steps = tuple(
            self.order((1 << shifts[i]) + (1 << shifts[nr + i])) for i in range(nr)
        )

    def order(self, e: int) -> int:
        """The order int of the monomial with exponent int e."""
        ones, dshift, vmask = self.ones, self.dshift, self.vmask
        o = (e * ones) & self.low
        for masks, shift in self.row_fields:
            wt = 0
            for w, mask in masks:
                wt += w * (((e & mask) * ones >> dshift) & vmask)
            o |= wt << shift
        return o

    def exp_of(self, o: int) -> int:
        """The exponent int of the monomial with order int o."""
        low = self.low
        o &= low
        return o - ((o << self.width + 1) & low)

    def degree(self, o: int) -> int:
        """Total degree from an order int."""
        return (o >> self.dshift) & self.vmask

    def lcm(self, a: int, b: int) -> int:
        """The lcm of two exponent ints, slot by slot."""
        ge = ((b | self.guards) - a) & self.guards  # guard set where b >= a
        m = ge - (ge >> self.width)
        return (b & m) | (a & ~m)

    def support(self, e: int) -> int:
        """The guard bits of the nonzero slots of e (an exponent int or an
        OR of several)."""
        return ((e | self.guards) - self.ones) & self.guards

    def pack(self, exp: tuple) -> tuple[int, int]:
        """(order int, exponent int) of an exponent tuple."""
        if sum(exp) > self.limit:
            raise PackingOverflow(f"degree {sum(exp)} exceeds {self.limit}")
        e = 0
        for v, sh in zip(exp, self.shifts):
            e |= v << sh
        return self.order(e), e

    def unpack(self, e: int) -> tuple:
        """The exponent tuple of an exponent int."""
        vmask = self.vmask
        return tuple((e >> sh) & vmask for sh in self.shifts)


@lru_cache(maxsize=64)
def _product_packing(sig: Signature, bound: int) -> Packing:
    """The packing `WeylElement.__mul__` uses for a product of degree bound;
    small products are many, and this spares each the setup."""
    return Packing(sig, (), bound)


@lru_cache(maxsize=None)
def _reorder_coeffs(a: int, b: int) -> tuple[tuple[int, int], ...]:
    """The (k, c_k), k >= 1, of D^a x^b = x^b D^a + sum_k c_k x^(b-k) D^(a-k)."""
    return tuple(
        (k, factorial(k) * comb(a, k) * comb(b, k)) for k in range(1, min(a, b) + 1)
    )


def mono_mul(pk: Packing, mo: int, me: int, terms, deg: int) -> dict:
    """Normal-order product of a monomial and a sum of terms, packed by pk.

    The monomial is given by its order int mo and exponent int me, the
    terms as (order int, coeff) pairs of total degree at most deg.
    Returns an order int -> coeff dict without zero entries.
    Only the pairs where a differential of the monomial meets the same
    variable in a term are expanded: D^a x^b contributes c_k x^(b-k)
    D^(a-k), whose order int is the product's less k times the order int
    of x*D.  Raises PackingOverflow when a product could exceed pk's
    degree limit.
    """
    if pk.degree(mo) + deg > pk.limit:
        raise PackingOverflow(f"product degree exceeds {pk.limit}")
    if not me & pk.diff_bits:
        # distinct exponents stay distinct, so nothing collides or cancels
        return {mo + o: c for o, c in terms}
    vmask, shifts, nr = pk.vmask, pk.shifts, pk.nr
    low, field = pk.low, pk.width + 1
    diffs = []
    met = 0  # the fields of the variables that the differentials meet
    for i in range(nr):
        a = (me >> shifts[nr + i]) & vmask
        if a:
            diffs.append((shifts[i], pk.pair_steps[i], a))
            met |= vmask << shifts[i]
    out: dict = {}
    for o, c in terms:
        lo = o & low
        e = lo - ((lo << field) & low)  # pk.exp_of(o)
        if not e & met:
            po = mo + o
            nc = out.get(po, 0) + c
            if nc:
                out[po] = nc
            else:
                del out[po]
            continue
        partial = [(c, mo + o)]
        for sh, step, a in diffs:
            b = (e >> sh) & vmask
            if not b:
                continue
            nxt = []
            for coeff, po in partial:
                nxt.append((coeff, po))
                for k, ck in _reorder_coeffs(a, b):
                    nxt.append((coeff * ck, po - k * step))
            partial = nxt
        for coeff, po in partial:
            nc = out.get(po, 0) + coeff
            if nc:
                out[po] = nc
            else:
                del out[po]
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
        return max(map(sum, self.terms))

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
        if not self.terms or not other.terms:
            return WeylElement.zero(self.sig)
        deg = other.total_degree()
        pk = _product_packing(self.sig, self.total_degree() + deg)
        rhs = [(pk.pack(e)[0], c) for e, c in other.terms.items()]
        out: dict = {}
        for e1, c1 in self.terms.items():
            check_deadline()
            for o, c in mono_mul(pk, *pk.pack(e1), rhs, deg).items():
                nc = out.get(o, 0) + c1 * c
                if nc:
                    out[o] = nc
                else:
                    del out[o]
        return WeylElement(
            self.sig, {pk.unpack(pk.exp_of(o)): c for o, c in out.items()}
        )

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

    def over(self, sig: Signature) -> "WeylElement":
        """Re-express over sig, larger or smaller, matching slots by name.

        Raises ValueError when a term uses a slot whose name sig lacks.
        """
        slot = {n: i for i, n in enumerate(sig.slot_names)}
        mapping = [slot.get(n) for n in self.sig.slot_names]
        out = {}
        for e, c in self.terms.items():
            ne = [0] * sig.nslots
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
        return WeylElement(sig, out)

    # -- actions ----------------------------------------------------------------

    def act_on_polynomial(self, h: "WeylElement") -> "WeylElement":
        """Apply this operator to a polynomial (differentials differentiate).

        In the normal-ordered product self * h every differential stands to
        the right, where it kills 1, so the action is the differential-free
        part of that product.
        """
        self._check(h)
        if not h.is_polynomial():
            raise NotAPolynomial("action target must be differential-free")
        diff = self.sig.diff_slots()
        return WeylElement(
            self.sig,
            {
                e: c
                for e, c in (self * h).terms.items()
                if not any(e[i] for i in diff)
            },
        )

    # -- rendering ----------------------------------------------------------------

    def __repr__(self) -> str:
        return f"WeylElement({format_element(self)})"

    def __str__(self) -> str:
        return format_element(self)


def build_sigma(sig: Signature) -> WeylElement:
    """sigma = -(sum_i Dt_i t_i); the product's normal order is
    -sum_i t_i Dt_i - r."""
    if sig.r < 1:
        raise NoTVariables("sigma needs at least one t-variable")
    sigma = WeylElement.zero(sig)
    for t in sig.tvars:
        sigma -= WeylElement.generator(sig, _dname(t)) * WeylElement.generator(sig, t)
    return sigma


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
        coeff = format_rational(abs(c))
        if not mono:
            body = coeff
        elif abs(c) == 1:
            body = mono
        else:
            body = f"({coeff})*{mono}" if "/" in coeff else f"{coeff}*{mono}"
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(f"{sign + ' ' if sign and parts else sign}{body}")
    return " ".join(parts)
