"""Left Groebner bases in the Weyl algebra (Buchberger's algorithm).

Orders are weight vectors (all slot weights nonnegative, so every order used
here is a term order) refined by graded reverse lexicographic comparison on
the full exponent tuple.  Orders with negative weights, needed for initial
ideals under the V-filtration weight, are handled in `initial_ideal` via
weight homogenization instead of a direct non-term-order computation.

Internally polynomials are primitive integer-coefficient term lists sorted
descending; all reduction arithmetic is fraction free.

One Buchberger loop computes every basis, and the term order picks its pair
selection.  An order that weighs a slot of the Weyl part (an x, t, Dx or Dt)
eliminates Weyl slots, as the restrictions to C[x,s] behind J_f(m) and I_2
do: those runs use normal selection, since sugar needed more S-pairs and
reductions on them.  Every other order weighs central slots or none: plain
grevlex, and the eliminations of u1 and u2 (I_{f,1}, `initial_ideal`), of
u (`intersect`), of y (`saturate`) and of x or s in C[x,s].  Those runs
select by sugar, which on the weight homogenizations behind I_{f,1} and
`initial_ideal` needed a fifth to two thirds of the S-pairs of normal
selection (ROADMAP item 1 has the numbers).  The reduced basis is the same
under either selection.
"""

from __future__ import annotations

import heapq
import itertools
import operator
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    ComputationTimeout,
    NoncommutativeContext,
    SignatureMismatch,
    ZeroDivisor,
)
from .weyl import Signature, WeightVector, WeylElement, mono_mul

TIME_LIMIT_ENV = "MULTID_TIME_LIMIT_MS"


@dataclass
class GBStats:
    """Diagnostic counters for one Groebner basis run."""

    spairs: int = 0
    zero_spairs: int = 0
    pruned_product: int = 0
    pruned_chain: int = 0
    reductions: int = 0
    max_coeff_bits: int = 0
    millis: int = 0

    def note_coeff(self, c: int):
        b = c.bit_length()
        if b > self.max_coeff_bits:
            self.max_coeff_bits = b

    def merge(self, other: "GBStats"):
        self.spairs += other.spairs
        self.zero_spairs += other.zero_spairs
        self.pruned_product += other.pruned_product
        self.pruned_chain += other.pruned_chain
        self.reductions += other.reductions
        self.max_coeff_bits = max(self.max_coeff_bits, other.max_coeff_bits)
        self.millis += other.millis

    def as_dict(self) -> dict:
        return {
            "spairs": self.spairs,
            "zero_spairs": self.zero_spairs,
            "pruned_chain": self.pruned_chain,
            "pruned_product": self.pruned_product,
            "reductions": self.reductions,
            "max_coeff_bits": self.max_coeff_bits,
            "millis": self.millis,
        }


# (stats total, monotonic deadline or None) of the innermost open block
_REQUEST: ContextVar[tuple[GBStats, float | None] | None] = ContextVar(
    "gb_request", default=None
)


@contextmanager
def collect_stats():
    """Yields a GBStats totalling the Groebner runs finished in the block.

    The block is one request: the MULTID_TIME_LIMIT_MS budget is read when
    it opens and covers every run inside it.  When blocks nest, the
    innermost one counts a run and sets its budget.
    """
    total = GBStats()
    ms = os.environ.get(TIME_LIMIT_ENV)
    deadline = time.monotonic() + int(ms) / 1000.0 if ms else None
    token = _REQUEST.set((total, deadline))
    try:
        yield total
    finally:
        _REQUEST.reset(token)


def _check_deadline():
    request = _REQUEST.get()
    deadline = request[1] if request is not None else None
    if deadline is not None and time.monotonic() > deadline:
        raise ComputationTimeout(
            f"computation exceeded the {TIME_LIMIT_ENV} wall-time cap"
        )


class TermOrder:
    """Weight-first order with graded reverse lex tiebreak.

    All slot weights must be nonnegative (a genuine term order); elimination
    orders are realized by weighting the eliminated block positively.
    """

    __slots__ = ("sig", "weights", "_cache", "_trivial_weights")

    def __init__(self, sig: Signature, weights=None):
        if weights is None:
            weights = (0,) * sig.nslots
        weights = tuple(int(w) for w in weights)
        if len(weights) != sig.nslots:
            raise ValueError("weight length does not match signature")
        if any(w < 0 for w in weights):
            raise ValueError("term orders require nonnegative slot weights")
        self.sig = sig
        self.weights = weights
        self._trivial_weights = not any(weights)
        self._cache: dict = {}

    @staticmethod
    def grevlex(sig: Signature) -> "TermOrder":
        return TermOrder(sig)

    def key(self, exp: tuple) -> tuple:
        k = self._cache.get(exp)
        if k is None:
            wt = (
                0
                if self._trivial_weights
                else sum(w * e for w, e in zip(self.weights, exp) if e)
            )
            k = (wt, sum(exp), tuple(-e for e in reversed(exp)))
            self._cache[exp] = k
        return k


# ---------------------------------------------------------------------------
# integer term-list representation
# ---------------------------------------------------------------------------


def _content_normalize(terms: dict, lead_exp: tuple) -> dict:
    """Divide through by the integer content; make the leading coeff positive."""
    if not terms:
        return {}
    g = 0
    for c in terms.values():
        g = gcd(g, c)
        if g == 1:
            break
    if terms[lead_exp] < 0:
        g = -g
    if g == 1:
        return terms
    return {e: c // g for e, c in terms.items()}


def to_ipoly(p: WeylElement, order: TermOrder) -> list:
    """Primitive integer term list, sorted descending by the order."""
    if p.is_zero():
        return []
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    terms = {e: int(c * den) for e, c in p.terms.items()}
    exps = sorted(terms, key=order.key, reverse=True)
    terms = _content_normalize(terms, exps[0])
    return [(e, terms[e]) for e in exps]


def from_ipoly(sig: Signature, terms: list) -> WeylElement:
    """The monic element of a term list sorted descending."""
    if not terms:
        return WeylElement.zero(sig)
    lc = terms[0][1]
    return WeylElement(sig, {e: Fraction(c, lc) for e, c in terms})


def _divides(a: tuple, b: tuple) -> bool:
    return all(map(operator.le, a, b))


def _support_mask(e: tuple) -> int:
    m = 0
    for i, v in enumerate(e):
        if v:
            m |= 1 << i
    return m


def _reduce_full(
    sig: Signature,
    terms,
    G: list,
    leads: list,
    order: TermOrder,
    stats: GBStats,
    exact: bool = False,
    lead_masks: list | None = None,
    divcache: dict | None = None,
) -> list:
    """Full normal form of an integer term collection against G.

    Fraction free: the working polynomial p and the remainder r are integer
    dicts at one scale; a step that multiplies p by u multiplies r too, and
    the periodic content removal divides both.  By default the result is a
    primitive integer term list; with exact=True it is r divided by the
    scale, as (exp, Fraction) pairs, so that input - result lies in <G>.
    """
    key = order.key
    if lead_masks is None:
        lead_masks = [_support_mask(le) for le in leads]
    if divcache is None:
        divcache = {}

    def heapkey(e: tuple) -> tuple:
        # min-heap on the reversed order: negate weight and degree, and
        # undo the negation built into the grevlex component
        k = key(e)
        return (-k[0], -k[1], tuple(reversed(e)))

    p: dict = {}
    heap: list = []
    for e, c in terms:
        nc = p.get(e, 0) + c
        if nc:
            p[e] = nc
        else:
            p.pop(e, None)
    for e in p:
        heapq.heappush(heap, (heapkey(e), e))
    scale = Fraction(1)
    # a step only adds terms below the one it reduces, so terms reach r in
    # descending order
    r: dict = {}
    steps = 0
    while heap:
        _, e = heapq.heappop(heap)
        c = p.pop(e, 0)
        if not c:
            continue
        # divisor lookup: a positive hit stays valid as the basis grows and
        # is kept as (hit,); a miss only needs the elements added since it
        # was recorded, and is kept as (None, len(leads), support mask), so
        # each exponent builds its mask once; the mask screens out most
        # candidates with one int op
        ent = divcache.get(e)
        if ent is not None and ent[0] is not None:
            hit = ent[0]
        else:
            start, mask = (0, _support_mask(e)) if ent is None else ent[1:]
            em = ~mask
            hit = None
            for i in range(start, len(leads)):
                if lead_masks[i] & em:
                    continue
                if _divides(leads[i], e):
                    hit = i
                    break
            divcache[e] = (hit,) if hit is not None else (None, len(leads), mask)
        if hit is None:
            r[e] = c
            continue
        stats.reductions += 1
        steps += 1
        if steps % 64 == 0:
            _check_deadline()
        g = G[hit]
        le, lc = g[0]
        d = gcd(c, lc)
        u, mult = lc // d, c // d
        if u != 1:
            for k in p:
                p[k] *= u
            for k in r:
                r[k] *= u
            scale *= u
        mexp = tuple(a - b for a, b in zip(e, le))
        prod = mono_mul(sig, mexp, g)
        for pe, pc in prod.items():
            if pe == e:
                continue  # cancelled by construction
            nc = p.get(pe, 0) - mult * pc
            if nc:
                if pe not in p:
                    heapq.heappush(heap, (heapkey(pe), pe))
                p[pe] = nc
            else:
                p.pop(pe, None)
        if steps % 32 == 0 and p:
            g0 = 0
            for v in itertools.chain(p.values(), r.values()):
                g0 = gcd(g0, v)
                if g0 == 1:
                    break
            if g0 > 1:
                for k in p:
                    p[k] //= g0
                for k in r:
                    r[k] //= g0
                scale /= g0
    if not r:
        return []
    if exact:
        return [(e, c / scale) for e, c in r.items()]
    r = _content_normalize(r, next(iter(r)))
    for v in r.values():
        stats.note_coeff(v)
    return list(r.items())


def _product_criterion(sig: Signature, lf: int, sf: int, lg: int, sg: int) -> bool:
    """True when the S-pair of f and g reduces to zero by the product criterion.

    lf, lg are the support masks of the leads of f and g; sf, sg those of
    the whole elements.  The commutative argument, S(f, g) = tail(f) g -
    tail(g) f, needs coprime leads and fg = gf; the latter holds when no
    differential of one element meets its variable in the other.  Coprime
    leads alone do not suffice: Dx and t^2 + x have coprime leads, but
    their S-pair is -(x*Dx + 1), whose normal form is 1.
    """
    nr = sig.n + sig.r
    var_bits = (1 << nr) - 1
    return not (lf & lg or (sf >> nr) & sg & var_bits or (sg >> nr) & sf & var_bits)


def _lcm_exp(a: tuple, b: tuple) -> tuple:
    return tuple(x if x > y else y for x, y in zip(a, b))


def buchberger_ipolys(
    sig: Signature, gens: list, order: TermOrder
) -> tuple[list, GBStats]:
    """Buchberger with the Gebauer-Moeller pair update.

    Input and output are integer term lists; the output is the unique
    reduced basis (primitive integer form, positive leading coefficients,
    sorted ascending by leading exponent).  Pairs are selected by sugar
    unless the order weighs a Weyl slot, as the module docstring sets out.
    The run's GBStats come back with it and are added to the enclosing
    `collect_stats` block; a run outside any block is its own block, with
    its own time budget.
    """
    sugar = not any(order.weights[: 2 * (sig.n + sig.r)])
    if _REQUEST.get() is None:
        with collect_stats():
            return _buchberger(sig, gens, order, sugar)
    return _buchberger(sig, gens, order, sugar)


def _degree(ip: list) -> int:
    return max(sum(e) for e, _ in ip)


def _buchberger(sig: Signature, gens: list, order: TermOrder, sugar: bool) -> tuple:
    """The Buchberger loop behind `buchberger_ipolys`.

    Pairs are pruned once, when an element is added, by the update of
    Gebauer and Moeller (JSC 6, 1988): criterion B on the open pairs, then
    criteria M and F on the new ones, with `_product_criterion` in the role
    of the coprime test.  Only surviving pairs reach the heap.  An element
    whose lead a newer lead divides forms no further pairs but stays a
    reducer.

    Normal selection pops the pair with the smallest lcm.  Sugar selection
    (Giovini, Mora, Niesi, Robbiano, Traverso, "One sugar cube, please",
    ISSAC 1991) pops the smallest sugar first, ties by lcm.  The sugar of
    an element bounds the total degree it would have if the input were
    homogeneous: an input generator's is its total degree, a pair's is
    max(sug_i + deg lcm - deg lead_i, sug_j + deg lcm - deg lead_j), and an
    element added from a pair gets max(pair sugar, deg nf).  The bound
    holds in the Weyl algebra too, since deg(m g) <= deg m + deg g.  sugar
    picks one of the two; `buchberger_ipolys` derives it from the order.
    """
    _check_deadline()
    stats = GBStats()
    t0 = time.monotonic()
    key = order.key
    G: list = []
    leads: list = []
    lead_masks: list = []
    supports: list = []  # support masks of the whole elements
    sugars: list = []  # sugar of each element
    divcache: dict = {}
    active: list = []  # indices of the elements that still form pairs
    heap: list = []  # (prio, i, j, lcm) of the open pairs

    def prio(i: int, h: int, lcm: tuple):
        if not sugar:
            return key(lcm)
        d = sum(lcm)
        s = max(
            sugars[i] + d - sum(leads[i]), sugars[h] + d - sum(leads[h])
        )
        return (s, key(lcm))

    def add_element(ip: list, sug: int):
        h = len(G)
        lh = ip[0][0]
        sug = max(sug, _degree(ip))
        mh = _support_mask(lh)
        # criterion B: lead(h) divides the lcm of an open pair (i, j) that
        # differs from the lcms of (i, h) and (j, h)
        kept = [
            pair
            for pair in heap
            if not (
                _divides(lh, pair[3])
                and _lcm_exp(leads[pair[1]], lh) != pair[3]
                and _lcm_exp(leads[pair[2]], lh) != pair[3]
            )
        ]
        if len(kept) < len(heap):
            stats.pruned_chain += len(heap) - len(kept)
            heap[:] = kept
            heapq.heapify(heap)
        sh = 0
        for e, _ in ip:
            sh |= _support_mask(e)
        new = [
            (
                _lcm_exp(leads[i], lh),
                i,
                _product_criterion(sig, lead_masks[i], supports[i], mh, sh),
            )
            for i in active
        ]
        # criterion M: drop an lcm that another new lcm properly divides;
        # by ascending degree, only a minimal lcm found so far can
        minimal: dict = {}
        for lcm in sorted({lcm for lcm, _, _ in new}, key=sum):
            m = _support_mask(lcm)
            if not any(
                om & ~m == 0 and _divides(o, lcm) for o, om in minimal.items()
            ):
                minimal[lcm] = m
        # criterion F: one pair per lcm, and none for an lcm where one pair
        # meets the product criterion
        by_product = {lcm for lcm, _, prod in new if prod}
        G.append(ip)
        leads.append(lh)
        lead_masks.append(mh)
        supports.append(sh)
        sugars.append(sug)
        for lcm, i, prod in new:
            if prod:
                stats.pruned_product += 1
            elif lcm in minimal and lcm not in by_product:
                del minimal[lcm]
                heapq.heappush(heap, (prio(i, h, lcm), i, h, lcm))
            else:
                stats.pruned_chain += 1
        active[:] = [i for i in active if not _divides(lh, leads[i])]
        active.append(h)

    for ip in sorted((g for g in gens if g), key=lambda g: key(g[0][0])):
        nf = _reduce_full(
            sig, ip, G, leads, order, stats,
            lead_masks=lead_masks, divcache=divcache,
        )
        if nf:
            add_element(nf, _degree(ip))

    while heap:
        p, i, j, lcm = heapq.heappop(heap)
        stats.spairs += 1
        _check_deadline()
        sp = _spair(sig, G[i], G[j], lcm)
        nf = _reduce_full(
            sig, sp, G, leads, order, stats,
            lead_masks=lead_masks, divcache=divcache,
        )
        if nf:
            add_element(nf, p[0] if sugar else 0)
        else:
            stats.zero_spairs += 1

    reduced = interreduce(sig, G, order, stats)
    stats.millis += int((time.monotonic() - t0) * 1000)
    _REQUEST.get()[0].merge(stats)
    return reduced, stats


def _spair(sig: Signature, g1: list, g2: list, lcm: tuple) -> list:
    (e1, c1), (e2, c2) = g1[0], g2[0]
    d = gcd(c1, c2)
    m1 = tuple(a - b for a, b in zip(lcm, e1))
    m2 = tuple(a - b for a, b in zip(lcm, e2))
    p1 = mono_mul(sig, m1, g1)
    p2 = mono_mul(sig, m2, g2)
    u1, u2 = c2 // d, c1 // d
    out = []
    for e, c in p1.items():
        out.append((e, u1 * c))
    for e, c in p2.items():
        out.append((e, -u2 * c))
    return out


def interreduce(
    sig: Signature,
    G: list,
    order: TermOrder,
    stats: GBStats | None = None,
) -> list:
    """Auto-reduce a Groebner basis to its unique primitive reduced form."""
    stats = stats if stats is not None else GBStats()
    # minimalize: drop leads divisible by another lead
    items = sorted(G, key=lambda g: order.key(g[0][0]))
    minimal: list = []
    for g in items:
        le = g[0][0]
        if any(_divides(h[0][0], le) for h in minimal):
            continue
        minimal.append(g)
    # tail-reduce each against the others; no other lead divides its lead,
    # so it keeps that lead and its place in the ascending order
    out: list = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        leads = [h[0][0] for h in others]
        out.append(_reduce_full(sig, g, others, leads, order, stats))
    return out


def spairs_reduce_to_zero(sig: Signature, G: list, order: TermOrder) -> bool:
    """Verify the Groebner property: every S-pair reduces to zero.

    Checks all pairs with no pruning criteria, so it also validates the
    criteria used during the computation.
    """
    leads = [g[0][0] for g in G]
    stats = GBStats()
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            lcm = _lcm_exp(leads[i], leads[j])
            sp = _spair(sig, G[i], G[j], lcm)
            if _reduce_full(sig, sp, G, leads, order, stats):
                return False
    return True


# ---------------------------------------------------------------------------
# public ideal layer
# ---------------------------------------------------------------------------


class LeftIdeal:
    """A left ideal of the Weyl algebra with cached reduced Groebner bases."""

    def __init__(self, sig: Signature, generators):
        self.sig = sig
        gens = []
        for g in generators:
            if g.sig != sig:
                raise SignatureMismatch("generator over a different signature")
            if not g.is_zero():
                gens.append(g)
        self.generators = tuple(gens)
        self._cache: dict = {}

    def is_zero_ideal(self) -> bool:
        return not self.generators

    def groebner_ipolys(self, order: TermOrder) -> list:
        # keyed on the weights alone: they also fix the pair selection
        got = self._cache.get(order.weights)
        if got is not None:
            return got
        gens = [to_ipoly(g, order) for g in self.generators]
        basis, _ = buchberger_ipolys(self.sig, gens, order)
        self._cache[order.weights] = basis
        return basis

    def groebner(self, order: TermOrder | None = None) -> list[WeylElement]:
        """Reduced monic Groebner basis (unique for the ideal and order)."""
        if order is None:
            order = TermOrder.grevlex(self.sig)
        return [from_ipoly(self.sig, g) for g in self.groebner_ipolys(order)]

    def contains(self, h: WeylElement, order: TermOrder | None = None) -> bool:
        return member(h, self, order)

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators)
        return f"LeftIdeal<{gens}>"


def normal_form(
    P: WeylElement, G: list[WeylElement], order: TermOrder
) -> WeylElement:
    """Remainder of P on division by G; P - normal_form(P) lies in <G>.

    The result is zero exactly when P reduces to zero, and no remainder
    term is divisible by a leading exponent of G.
    """
    if any(g.sig != P.sig for g in G):
        raise SignatureMismatch("normal_form needs a common signature")
    if P.is_zero():
        return P
    sig = P.sig
    iG = [to_ipoly(g, order) for g in G if not g.is_zero()]
    leads = [g[0][0] for g in iG]
    stats = GBStats()
    iP = to_ipoly(P, order)
    nf = _reduce_full(sig, iP, iG, leads, order, stats, exact=True)
    # to_ipoly rescaled P to a primitive representative; undo that.
    factor = P.terms[iP[0][0]] / iP[0][1]
    return WeylElement(sig, {e: c * factor for e, c in nf})


def reduced_gb(G: list[WeylElement], order: TermOrder) -> list[WeylElement]:
    """Monic auto-reduced form of a Groebner basis."""
    if not G:
        return []
    sig = G[0].sig
    basis = interreduce(sig, [to_ipoly(g, order) for g in G if not g.is_zero()], order)
    return [from_ipoly(sig, g) for g in basis]


def _fresh_name(sig: Signature, base: str) -> str:
    name = base
    k = 0
    while name in sig.slot_names:
        k += 1
        name = f"{base}{k}"
    return name


def eliminate(I: LeftIdeal, target: Signature) -> LeftIdeal:
    """I cap target: the restriction of I to the subalgebra on target's names.

    Realized by a Groebner basis under the weight vector that is 1 on every
    slot absent from target and 0 on the others; its elements free of the
    eliminated slots are the returned generators, re-expressed in target.
    """
    sig = I.sig
    keep = {sig.slot_of(n) for n in target.slot_names}
    order = TermOrder(sig, [0 if i in keep else 1 for i in range(sig.nslots)])
    basis = [from_ipoly(sig, g) for g in I.groebner_ipolys(order)]
    return LeftIdeal(
        target, [g.project(target) for g in basis if g.support_slots() <= keep]
    )


def intersect(I: LeftIdeal, J: LeftIdeal) -> LeftIdeal:
    """I cap J via the central u-trick: (u I + (1-u) J) cap D."""
    if I.sig != J.sig:
        raise SignatureMismatch("intersect needs a common signature")
    sig = I.sig
    u_name = _fresh_name(sig, "u")
    big = sig.with_central(u_name)
    u = WeylElement.generator(big, u_name)
    one_minus_u = WeylElement.one(big) - u
    gens = [u * g.lift(big) for g in I.generators]
    gens += [one_minus_u * g.lift(big) for g in J.generators]
    return eliminate(LeftIdeal(big, gens), sig)


def weight_homogenization(I: LeftIdeal, vw: WeightVector) -> LeftIdeal:
    """I's generators homogenized under (v,w) with u1, plus u1*u2 - 1.

    The result lives over I's signature extended by the central u1 (weight
    1) and u2, its inverse; u1 and u2 are fresh names.
    """
    u1 = _fresh_name(I.sig, "u1")
    u2 = _fresh_name(I.sig, "u2")
    big = I.sig.with_central(u1, u2)
    big_vw = WeightVector(big, vw.slot_weights + (1, -1))
    gens = [g.lift(big).homogenize(big_vw, u1) for g in I.generators]
    gens.append(
        WeylElement.generator(big, u1) * WeylElement.generator(big, u2)
        - WeylElement.one(big)
    )
    return LeftIdeal(big, gens)


def initial_ideal(I: LeftIdeal, vw: WeightVector) -> LeftIdeal:
    """in_(v,w)(I), the ideal of all initial forms of elements of I.

    A direct Groebner run under (v,w) would need a non-term order when some
    weights are negative, so instead: homogenize the generators with u1,
    saturate by u1 via the inverse variable u2, and set u1 to 0.  The
    resulting ideal of D[u1] is the full weight homogenization of I, and its
    image at u1 = 0 is exactly the initial ideal.
    """
    sig = I.sig
    if I.is_zero_ideal():
        return LeftIdeal(sig, [])
    H = weight_homogenization(I, vw)
    u1 = H.sig.central[-2]  # the fresh u1; u2 comes last
    K = eliminate(H, sig.with_central(u1))
    return LeftIdeal(
        sig, [g.substitute_central(u1, 0).project(sig) for g in K.generators]
    )


def _require_commutative(gens, *extra):
    for g in list(gens) + list(extra):
        if not g.is_polynomial():
            raise NoncommutativeContext(
                "operation requires a differential-free context"
            )


def exact_divide(p: WeylElement, g: WeylElement) -> WeylElement:
    """Exact division of commutative polynomials."""
    if p.sig != g.sig:
        raise SignatureMismatch("exact_divide needs a common signature")
    _require_commutative([p], g)
    if g.is_zero():
        raise ZeroDivisor("division by zero polynomial")
    sig = p.sig
    order = TermOrder.grevlex(sig)
    le = max(g.terms, key=order.key)
    glead = g.terms[le]
    rem = dict(p.terms)
    quot: dict = {}
    while rem:
        e = max(rem, key=order.key)
        if not _divides(le, e):
            raise ZeroDivisor(f"{g} does not divide {p}")
        q = rem[e] / glead
        me = tuple(a - b for a, b in zip(e, le))
        quot[me] = q
        for ge, gc in g.terms.items():
            ne = tuple(a + b for a, b in zip(me, ge))
            nc = rem.get(ne, 0) - q * gc
            if nc:
                rem[ne] = nc
            else:
                rem.pop(ne, None)
    return WeylElement(sig, quot)


def colon(I: LeftIdeal, g: WeylElement) -> LeftIdeal:
    """Ideal quotient I : g = (I cap <g>) * g^-1 in a commutative ring."""
    _require_commutative(I.generators, g)
    if g.is_zero():
        raise ZeroDivisor("colon by zero")
    if g.is_constant():
        return I
    sig = I.sig
    J = intersect(I, LeftIdeal(sig, [g]))
    return LeftIdeal(sig, [exact_divide(h, g) for h in J.generators])


def saturate(I: LeftIdeal, p: WeylElement) -> LeftIdeal:
    """I : p^infinity via the Rabinowitsch trick (adjoin y with y*p = 1)."""
    _require_commutative(I.generators, p)
    if p.is_zero():
        raise ZeroDivisor("saturation by zero")
    if p.is_constant():
        return I
    sig = I.sig
    y_name = _fresh_name(sig, "y")
    big = sig.with_central(y_name)
    y = WeylElement.generator(big, y_name)
    gens = [g.lift(big) for g in I.generators]
    gens.append(y * p.lift(big) - WeylElement.one(big))
    return eliminate(LeftIdeal(big, gens), sig)


def member(h: WeylElement, I: LeftIdeal, order: TermOrder | None = None) -> bool:
    """True iff h reduces to zero against a Groebner basis of I."""
    if h.sig != I.sig:
        raise SignatureMismatch("member needs a common signature")
    if h.is_zero():
        return True
    if I.is_zero_ideal():
        return False
    if order is None:
        order = TermOrder.grevlex(I.sig)
    basis = I.groebner_ipolys(order)
    leads = [g[0][0] for g in basis]
    nf = _reduce_full(
        I.sig, to_ipoly(h, order), basis, leads, order, GBStats()
    )
    return not nf


def ideal_equal(I: LeftIdeal, J: LeftIdeal) -> bool:
    """Equality via reduced Groebner bases under the canonical grevlex order."""
    if I.sig != J.sig:
        raise SignatureMismatch("ideal_equal needs a common signature")
    order = TermOrder.grevlex(I.sig)
    return I.groebner_ipolys(order) == J.groebner_ipolys(order)
