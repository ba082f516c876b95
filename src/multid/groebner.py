"""Left Groebner bases in the Weyl algebra (Buchberger's algorithm).

Orders are lexicographic in weight rows (all slot weights nonnegative, so
every order used here is a term order), refined by graded reverse
lexicographic comparison on the full exponent tuple.  Orders with negative
weights, needed for initial ideals under the V-filtration weight, are
handled in `initial_ideal` via weight homogenization instead of a direct
non-term-order computation.

Most orders have one row.  Two runs use a block order with two
(`eliminate` with a second target) whose second row weighs t, Dx and Dt,
the order of the run that follows (Cox, Little, O'Shea, "Ideals,
Varieties, and Algorithms", 3.1).  For I_{f,1} (top row u1 and u2) the
u-free part of the reduced basis is the reduced basis under the order of
the restriction to C[x,s] behind J_f(m) and I_2, so that run starts from
a Groebner basis.  For `initial_ideal` (top row u2), whose generators are
set to u1 = 0 afterwards, no such basis is claimed: that algorithm 2's
basis run of in(I0) gets shorter is measured, not proved.  Either way the
reduced bases after these runs are unique, so they stay the same.

Callers hand in integer term lists: (exponent tuple, int) pairs in any
order and at any scale, as `to_ipoly` makes them.  A basis comes back as
the unique reduced basis: elements ascending by lead under the order, each
one's terms descending, primitive, with a positive lead.
The Buchberger loop, the reducer, the S-pairs and the interreduction run
on packed monomials instead (`weyl.Packing`, after Monagan and Pearce,
"Sparse polynomial division using a heap", JSC 46, 2011): a polynomial is
a flat list o1, c1, o2, c2, ... of order ints and coefficients, sorted
descending by order int.  Order ints compare like `TermOrder.key`, key the
dicts and, negated, the reducer's heap; the exponent int of a monomial,
which `Packing.exp_of` derives from its order int, tests divisibility and
forms lcms with a few integer operations.  Every packed computation, a
basis, a membership test, a minimal polynomial or the S-pair audit, enters
the core through `_packed`, which also counts its work and times it.  It
packs the input once on the way in, sorting each list by order int, with
fields sized from its degrees, and the result is unpacked once on the way
out; so the core alone orders and normalizes term lists.  A run whose
monomials would outgrow the fields raises PackingOverflow before any field
carries and starts again with wider fields, so it never returns a wrong
basis.  All reduction arithmetic is fraction free, and the reducer has one
mode: it returns the remainder as a primitive polynomial, which is all a
basis or a membership test needs, with the rational factor that makes it
the exact normal form, which `minimal_polynomial` needs.  Every reduction,
S-pair and interreduction goes through one `_Basis` per packing: the
elements with a divisor index on their leads and, kept for the run, their
products with the differential parts of multipliers.

The ideal layer has one canonical basis, the reduced monic grevlex basis
of `LeftIdeal.groebner`, and one membership test, `member`, which reduces
against it.  A `LeftIdeal` holds at most that basis, computed on first use
or handed over by `eliminate`; a basis under another order comes from
`basis_ipolys`, afresh for each caller.

One Buchberger loop computes every basis, and the top row of the term
order picks its pair selection, `TermOrder.by_sugar`.  A top row that
weighs a slot of the Weyl part (an x, t, Dx or Dt) eliminates Weyl slots,
as the restrictions to C[x,s] behind J_f(m) and I_2 do, or orders by them,
as algorithm 2's basis of its initial ideal does: those runs use normal
selection, since sugar needed more S-pairs and reductions on the
restrictions.  Every other top row weighs central slots or none: plain
grevlex, and the eliminations of u1 and u2 (I_{f,1}) and of u2
(`initial_ideal`), whose lower rows may weigh Weyl slots, of u
(`intersect`), of y (`saturate`) and of x or s in C[x,s].  Those runs
select by sugar, which on the weight homogenizations behind I_{f,1} and
`initial_ideal` needed a fifth to two thirds of the S-pairs of normal
selection (CHANGES.md has the numbers, in its entry on sugar pair
selection); on I_{f,1}'s block order normal selection is far worse still.
The reduced basis is the same under either selection.
"""

from __future__ import annotations

import heapq
import itertools
import operator
import time
from fractions import Fraction
from math import gcd

from .errors import (
    NoncommutativeContext,
    PackingOverflow,
    SignatureMismatch,
    ZeroDivisor,
)
from .request import _REQUEST, GBStats, check_deadline, collect_stats
from .weyl import Packing, Signature, WeightVector, WeylElement, mono_mul


class TermOrder:
    """Lexicographic in weight rows, with graded reverse lex tiebreak.

    rows are weight vectors, top row first; without one, the order is
    plain grevlex.  All slot weights must be nonnegative (a genuine term
    order); elimination orders are realized by weighting the eliminated
    block positively, and a block order by one row per block.  `by_sugar`
    is the pair selection its top row picks.  `key` is the reference
    definition, which the tests hold the order ints of `weyl.Packing` to;
    the Groebner core sorts and compares by those ints and never calls
    `key`.
    """

    __slots__ = ("sig", "rows")

    def __init__(self, sig: Signature, *rows):
        rows = tuple(tuple(int(w) for w in row) for row in rows)
        if any(len(row) != sig.nslots for row in rows):
            raise ValueError("weight length does not match signature")
        if any(w < 0 for row in rows for w in row):
            raise ValueError("term orders require nonnegative slot weights")
        self.sig = sig
        self.rows = rows or ((0,) * sig.nslots,)

    @property
    def by_sugar(self) -> bool:
        """Whether a Buchberger run under this order selects pairs by
        sugar: unless the top row weighs a slot of the Weyl part, as the
        module docstring sets out."""
        return not any(self.rows[0][: 2 * (self.sig.n + self.sig.r)])

    @staticmethod
    def grevlex(sig: Signature) -> "TermOrder":
        return TermOrder(sig)

    def key(self, exp: tuple) -> tuple:
        wts = tuple(sum(w * e for w, e in zip(row, exp) if e) for row in self.rows)
        return (wts, sum(exp), tuple(-e for e in reversed(exp)))


# ---------------------------------------------------------------------------
# integer term lists and their packed form
# ---------------------------------------------------------------------------


def to_ipoly(p: WeylElement) -> list:
    """p times the lcm of its denominators, as an integer term list in the
    order of p's terms."""
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    return [(e, int(c * den)) for e, c in p.terms.items()]


def from_ipoly(sig: Signature, terms: list) -> WeylElement:
    """The monic element of a term list sorted descending."""
    if not terms:
        return WeylElement.zero(sig)
    lc = terms[0][1]
    return WeylElement(sig, {e: Fraction(c, lc) for e, c in terms})


# fields start with room for this many times the input's largest degree
_HEADROOM = 4


def _packed(sig: Signature, order: TermOrder, polys: list, run) -> tuple:
    """(run(pk, packed polys, stats), stats) under a `Packing` of sig and
    order: the one entry into the packed core.

    polys are integer term lists with exponent tuples, in any order; each
    is handed to run as a flat list of order ints and coefficients, sorted
    descending by order int.  The fields start at _HEADROOM times the
    largest input degree; if run raises PackingOverflow, it runs again from
    the start with one more bit per field and fresh GBStats, so a result
    never comes from a carried field.  The stats of the last attempt, with
    the wall time of all of them, are added to the enclosing
    `collect_stats` block, also when the time cap cuts the run off; a run
    outside any block is its own block, with its own time budget.
    """
    if _REQUEST.get() is None:
        with collect_stats():
            return _packed(sig, order, polys, run)
    check_deadline()
    t0 = time.monotonic()
    deg = max((sum(e) for ip in polys for e, _ in ip), default=0)
    bound = _HEADROOM * max(deg, 1)
    stats = GBStats()
    try:
        while True:
            pk = Packing(sig, order.rows, bound)
            packed = [
                _flat(sorted(((pk.pack(e)[0], c) for e, c in ip), reverse=True))
                for ip in polys
            ]
            try:
                return run(pk, packed, stats), stats
            except PackingOverflow:
                bound = 2 * pk.limit + 1
                stats = GBStats()
    finally:
        stats.millis += int((time.monotonic() - t0) * 1000)
        _REQUEST.get()[0].merge(stats)


def _flat(pairs) -> list:
    """The flat list o1, c1, o2, c2, ... of (order int, coeff) pairs.

    A list, not a tuple: the interpreter keeps up to 2000 freed tuples of
    each length below 20 for reuse, and the many short-lived polynomials
    and products of a run would hold that memory after it ends.
    """
    return list(itertools.chain.from_iterable(pairs))


def _pairs(flat):
    """The (order int, coeff) pairs of a flat list."""
    it = iter(flat)
    return zip(it, it)


def _unpack(pk: Packing, ip: list) -> list:
    return [(pk.unpack(pk.exp_of(o)), c) for o, c in _pairs(ip)]


def _degree(pk: Packing, ip: list) -> int:
    return max(pk.degree(o) for o in ip[::2])


def _working(ip: list) -> tuple[dict, list]:
    """The working polynomial of a packed polynomial, as `_Basis.reduce`
    takes it: an order int -> coeff dict without zero entries and a heap
    of its negated order ints."""
    p: dict = {}
    for o, c in _pairs(ip):
        nc = p.get(o, 0) + c
        if nc:
            p[o] = nc
        else:
            p.pop(o, None)
    # a min-heap of negated order ints pops the largest term first
    heap = [-o for o in p]
    heapq.heapify(heap)
    return p, heap


class _Basis:
    """The reducers of one Groebner run under one packing.

    Holds the packed elements in the order they were added, with the
    exponent ints of their leads, their largest total degrees and their
    supports, and two structures that make a reduction step cheap:

    - a divisor index on the leads.  For each slot that some lead uses,
      rows maps the slot's shift to a list whose entry v is the bitmask of
      the elements whose lead has at most v in that slot, for v up to the
      largest such exponent; a larger v admits every element.  The AND of
      a monomial's entries over those rows is the set of elements whose
      lead divides it, and its lowest bit is the first of them, the
      divisor a scan of the leads in order finds.
    - the multiples.  In normal order a multiplier m = x^a D^b gives
      m g = x^a (D^b g), and x^a acts on order ints as a shift, since the
      packing is linear.  So m g is g's terms shifted by m's order int,
      plus the terms that normal ordering adds to D^b g below its shift of
      g, shifted by x^a.  Those are computed by `mono_mul` once per element
      and D^b and kept as a flat list of (order int less D^b's, coeff)
      pairs, for the life of the basis: one `_packed` attempt.
    """

    __slots__ = (
        "pk", "elems", "leads", "degrees", "supports", "lower", "rows",
        "index", "all",
    )

    def __init__(self, pk: Packing, elems=()):
        self.pk = pk
        self.elems: list = []  # packed polynomials
        self.leads: list = []  # lead exponent ints
        self.degrees: list = []  # largest total degree of each element
        self.supports: list = []  # supports of the whole elements
        self.lower: list = []  # per element: D^b's exponent int -> flat list
        self.rows: dict = {}
        self.index: list = []  # (shift, len(row), row) of each row
        self.all = 0  # one bit per element
        for ip in elems:
            self.add(ip)

    def add(self, ip: list) -> int:
        """Append the packed polynomial ip as an element; returns its index."""
        pk = self.pk
        i = len(self.elems)
        bit, old = 1 << i, self.all
        self.all = old | bit
        lead = pk.exp_of(ip[0])
        for sh in pk.shifts:
            v = (lead >> sh) & pk.vmask
            row = self.rows.get(sh)
            if row is None:
                if not v:
                    continue  # every lead has 0 here: no constraint
                # the elements so far have 0 in this slot
                row = self.rows[sh] = [old] * (v + 1)
            elif v >= len(row):
                row.extend([old] * (v + 1 - len(row)))
            for k in range(v, len(row)):
                row[k] |= bit
        self.index = [(sh, len(row), row) for sh, row in self.rows.items()]
        low, shift = pk.low, pk.width + 1
        sup = 0
        for o in ip[::2]:
            lo = o & low
            sup |= lo - ((lo << shift) & low)  # pk.exp_of(o)
        self.elems.append(ip)
        self.leads.append(lead)
        self.degrees.append(_degree(pk, ip))
        self.supports.append(pk.support(sup))
        self.lower.append({})
        return i

    def divisor(self, e: int, skip: int = -1) -> int:
        """The index of the first element other than skip whose lead
        divides the exponent int e, or -1 for none."""
        m = self.all if skip < 0 else self.all & ~(1 << skip)
        vmask = self.pk.vmask
        for sh, n, row in self.index:
            v = (e >> sh) & vmask
            if v < n:
                m &= row[v]
                if not m:
                    return -1
        return (m & -m).bit_length() - 1

    def addmul(self, p: dict, heap: list, i: int, mo: int, me: int, c: int):
        """p += c * (m G[i] less its lead), m the monomial with order int mo
        and exponent int me; order ints new to p go on the heap.

        Raises PackingOverflow when the product could exceed the packing's
        degree limit, as `mono_mul` would.
        """
        pk = self.pk
        if ((mo >> pk.dshift) & pk.vmask) + self.degrees[i] > pk.limit:
            raise PackingOverflow(f"product degree exceeds {pk.limit}")
        lower = ()
        # D^b only reorders against the variables its differentials meet
        db = ((me | pk.guards) - pk.ones) >> pk.nr * (pk.width + 1)
        if db & self.supports[i] & pk.var_guards:
            eb = me & pk.diff_bits
            lower = self.lower[i].get(eb)
            if lower is None:
                ob = pk.order(eb)
                g = self.elems[i]
                prod = mono_mul(pk, ob, eb, _pairs(g), self.degrees[i])
                for o, gc in _pairs(g):
                    nc = prod.get(ob + o, 0) - gc
                    if nc:
                        prod[ob + o] = nc
                    else:
                        prod.pop(ob + o, None)
                lower = _flat((o - ob, v) for o, v in prod.items())
                self.lower[i][eb] = lower
        tail = iter(self.elems[i])
        next(tail), next(tail)  # the lead
        below = iter(lower)
        for terms in (zip(tail, tail), zip(below, below)):
            for go, gc in terms:
                po = mo + go
                pc = p.get(po)
                if pc is None:
                    p[po] = c * gc
                    heapq.heappush(heap, -po)
                else:
                    pc += c * gc
                    if pc:
                        p[po] = pc
                    else:
                        del p[po]

    def spair(self, i: int, j: int, lo: int, lcm: int) -> tuple[dict, list]:
        """The S-polynomial of elements i and j, whose leads have the lcm
        with order int lo and exponent int lcm, as `reduce` takes it; the
        leads cancel and are left out."""
        (o1, c1), (o2, c2) = self.elems[i][:2], self.elems[j][:2]
        e1, e2 = self.leads[i], self.leads[j]
        d = gcd(c1, c2)
        p: dict = {}
        heap: list = []
        self.addmul(p, heap, i, lo - o1, lcm - e1, c2 // d)
        self.addmul(p, heap, j, lo - o2, lcm - e2, -(c1 // d))
        return p, heap

    def reduce(
        self, p: dict, heap: list, stats: GBStats, skip: int = -1
    ) -> tuple[list, Fraction]:
        """Full normal form of the working polynomial p, with heap, against
        the elements other than skip: (r, q), r a primitive packed
        polynomial, empty exactly when p reduces to zero, and q the rational
        with q r the normal form of p as given.

        Fraction free: p and the remainder r are integer dicts keyed by
        order int, at one scale; a step that multiplies p by u multiplies r
        too, and the periodic content removal divides both.  q tracks the
        scale, which only those steps and the final content change, so a
        caller that needs the exact normal form, not just r, pays nothing
        extra.
        """
        pk = self.pk
        low, shift = pk.low, pk.width + 1
        elems, leads = self.elems, self.leads
        divisor, addmul = self.divisor, self.addmul
        # a step only adds terms below the one it reduces, so terms reach r in
        # descending order
        r: dict = {}
        steps = 0
        num = den = 1  # r is num/den times the normal form of p as given
        while heap:
            o = -heapq.heappop(heap)
            c = p.pop(o, 0)
            if not c:
                continue
            lo = o & low
            e = lo - ((lo << shift) & low)  # pk.exp_of(o)
            i = divisor(e, skip)
            if i < 0:
                r[o] = c
                continue
            stats.reductions += 1
            steps += 1
            if steps % 64 == 0:
                check_deadline()
            g = elems[i]
            go, gc, ge = g[0], g[1], leads[i]
            d = gcd(c, gc)
            u, mult = gc // d, c // d
            if u != 1:
                num *= u
                for k in p:
                    p[k] *= u
                for k in r:
                    r[k] *= u
            addmul(p, heap, i, o - go, e - ge, -mult)
            if steps % 32 == 0 and p:
                g0 = 0
                for v in itertools.chain(p.values(), r.values()):
                    g0 = gcd(g0, v)
                    if g0 == 1:
                        break
                if g0 > 1:
                    den *= g0
                    for k in p:
                        p[k] //= g0
                    for k in r:
                        r[k] //= g0
        if not r:
            return [], Fraction(den, num)
        # divide through by the content, making the leading coeff positive
        g0 = 0
        for v in r.values():
            g0 = gcd(g0, v)
            if g0 == 1:
                break
        if r[next(iter(r))] < 0:
            g0 = -g0
        if g0 != 1:
            den *= g0
            r = {o: v // g0 for o, v in r.items()}
        for v in r.values():
            stats.note_coeff(v)
        return _flat(r.items()), Fraction(den, num)


def buchberger_ipolys(
    sig: Signature, gens: list, order: TermOrder
) -> tuple[list, GBStats]:
    """The unique reduced basis of gens under order, with the run's GBStats.

    Input and output are integer term lists, in the format the module
    docstring states.  Pairs are selected as `order.by_sugar` says, and
    the stats are counted as `_packed` sets out.
    """
    sugar = order.by_sugar
    return _packed(
        sig, order, gens, lambda pk, p, st: _buchberger_packed(pk, p, sugar, st)
    )


def _buchberger_packed(pk: Packing, gens: list, sugar: bool, stats: GBStats) -> list:
    """Buchberger with the Gebauer-Moeller pair update, on packed gens.

    Returns the reduced basis as integer term lists with exponent tuples.

    Pairs are pruned once, when an element is added, by the update of
    Gebauer and Moeller (JSC 6, 1988): criterion B on the open pairs, then
    criteria M and F on the new ones, with a product criterion for
    commuting elements in the role of the coprime test.  Only surviving
    pairs reach the heap, and only they get an order int.  An element whose
    lead a newer lead divides forms no further pairs but stays a reducer.

    Normal selection pops the pair with the smallest lcm.  Sugar selection
    (Giovini, Mora, Niesi, Robbiano, Traverso, "One sugar cube, please",
    ISSAC 1991) pops the smallest sugar first, ties by lcm.  The sugar of
    an element bounds the total degree it would have if the input were
    homogeneous: an input generator's is its total degree, a pair's is
    max(sug_i + deg lcm - deg lead_i, sug_j + deg lcm - deg lead_j), and an
    element added from a pair gets max(pair sugar, deg nf).  The bound
    holds in the Weyl algebra too, since deg(m g) <= deg m + deg g.  sugar
    picks one of the two; `buchberger_ipolys` takes it from the order.
    """
    guards, ones, vmask, width = pk.guards, pk.ones, pk.vmask, pk.width
    dshift, var_guards = pk.dshift, pk.var_guards
    diff_to_var = pk.nr * (width + 1)  # a differential's slot to its variable's
    basis = _Basis(pk)
    leads, supports = basis.leads, basis.supports
    lead_supports: list = []
    sugars: list = []  # sugar of each element
    active: list = []  # indices of the elements that still form pairs
    heap: list = []  # (prio, i, j, lcm order int, lcm exponent int)

    def add_element(ip: list, sug: int):
        h = basis.add(ip)
        lh, dh = leads[h], pk.degree(ip[0])
        sug = max(sug, basis.degrees[h])
        # criterion B: lead(h) divides the lcm of an open pair (i, j) that
        # differs from the lcms of (i, h) and (j, h)
        kept = [
            pair
            for pair in heap
            if (pair[4] - lh) & guards
            or pk.lcm(leads[pair[1]], lh) == pair[4]
            or pk.lcm(leads[pair[2]], lh) == pair[4]
        ]
        if len(kept) < len(heap):
            stats.pruned_chain += len(heap) - len(kept)
            heap[:] = kept
            heapq.heapify(heap)
        mh = pk.support(lh)
        sh = supports[h]
        # the product criterion: S(i, h) = tail(i) h - tail(h) i reduces to
        # zero when the leads are coprime and ih = hi, which holds when no
        # differential of one element meets its variable in the other.
        # Coprime leads alone do not suffice: Dx and t^2 + x have coprime
        # leads, but their S-pair is -(x*Dx + 1), whose normal form is 1.
        h_vars, h_diffs = sh & var_guards, (sh >> diff_to_var) & var_guards
        new = []  # (lcm exponent int, i, product criterion holds)
        for i in active:
            li, si = leads[i], supports[i]
            ge = ((lh | guards) - li) & guards  # pk.lcm(li, lh), inline
            m = ge - (ge >> width)
            prod = not (
                lead_supports[i] & mh or (si >> diff_to_var) & h_vars or si & h_diffs
            )
            new.append(((lh & m) | (li & ~m), i, prod))
        # criterion M: drop an lcm that another new lcm properly divides; a
        # proper divisor has a lower total degree, so only a minimal lcm
        # found so far can
        lcm_degrees = {lcm: (lcm * ones >> dshift) & vmask for lcm, _, _ in new}
        minimal: set = set()
        for lcm in sorted(lcm_degrees, key=lcm_degrees.get):
            for m in minimal:
                if not (lcm - m) & guards:
                    break
            else:
                minimal.add(lcm)
        # criterion F: one pair per lcm, and none for an lcm where one pair
        # meets the product criterion
        by_product = {lcm for lcm, _, prod in new if prod}
        lead_supports.append(mh)
        sugars.append(sug)
        for lcm, i, prod in new:
            if prod:
                stats.pruned_product += 1
            elif lcm in minimal and lcm not in by_product:
                minimal.discard(lcm)
                lo = pk.order(lcm)
                if sugar:
                    d = lcm_degrees[lcm]
                    li = pk.degree(basis.elems[i][0])
                    prio = (max(sugars[i] + d - li, sug + d - dh), lo)
                else:
                    prio = lo
                heapq.heappush(heap, (prio, i, h, lo, lcm))
            else:
                stats.pruned_chain += 1
        active[:] = [i for i in active if (leads[i] - lh) & guards]
        active.append(h)

    for ip in sorted((g for g in gens if g), key=lambda g: g[0]):
        check_deadline()
        nf, _ = basis.reduce(*_working(ip), stats)
        if nf:
            add_element(nf, _degree(pk, ip))

    while heap:
        prio, i, j, lo, lcm = heapq.heappop(heap)
        stats.spairs += 1
        check_deadline()
        before = stats.reductions
        nf, _ = basis.reduce(*basis.spair(i, j, lo, lcm), stats)
        if nf:
            add_element(nf, prio[0] if sugar else 0)
        else:
            stats.zero_spairs += 1
            stats.zero_steps += stats.reductions - before

    return [_unpack(pk, g) for g in _interreduce(pk, basis.elems, stats)]


def _interreduce(pk: Packing, G: list, stats: GBStats) -> list:
    """Auto-reduce a packed Groebner basis to its unique primitive reduced
    form, sorted ascending by lead."""
    # minimalize: drop leads divisible by another lead
    minimal = _Basis(pk)
    for g in sorted(G, key=lambda g: g[0]):
        if minimal.divisor(pk.exp_of(g[0])) < 0:
            minimal.add(g)
    # tail-reduce each against the others; no other lead divides its lead,
    # so it keeps that lead and its place in the ascending order
    return [
        minimal.reduce(*_working(g), stats, skip=i)[0]
        for i, g in enumerate(minimal.elems)
    ]


def spairs_reduce_to_zero(sig: Signature, G: list, order: TermOrder) -> bool:
    """Verify the Groebner property: every S-pair reduces to zero.

    Checks all pairs with no pruning criteria, so it also validates the
    criteria used during the computation.
    """

    def run(pk: Packing, G: list, stats: GBStats) -> bool:
        basis = _Basis(pk, G)
        for i in range(len(G)):
            for j in range(i + 1, len(G)):
                lcm = pk.lcm(basis.leads[i], basis.leads[j])
                if basis.reduce(*basis.spair(i, j, pk.order(lcm), lcm), stats)[0]:
                    return False
        return True

    return _packed(sig, order, G, run)[0]


# ---------------------------------------------------------------------------
# public ideal layer
# ---------------------------------------------------------------------------


class LeftIdeal:
    """A left ideal of the Weyl algebra: its generators and, once computed
    or handed over by `eliminate`, its reduced grevlex basis."""

    def __init__(self, sig: Signature, generators):
        self.sig = sig
        gens = []
        for g in generators:
            if g.sig != sig:
                raise SignatureMismatch("generator over a different signature")
            if not g.is_zero():
                gens.append(g)
        self.generators = tuple(gens)
        self._basis: list | None = None

    def is_zero_ideal(self) -> bool:
        return not self.generators

    def groebner_ipolys(self) -> list:
        """The reduced grevlex basis as integer term lists."""
        if self._basis is None:
            self._basis = basis_ipolys(self, TermOrder.grevlex(self.sig))
        return self._basis

    def groebner(self) -> list[WeylElement]:
        """The reduced monic grevlex Groebner basis, unique for the ideal."""
        return [from_ipoly(self.sig, g) for g in self.groebner_ipolys()]

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators)
        return f"LeftIdeal<{gens}>"


def basis_ipolys(I: LeftIdeal, order: TermOrder) -> list:
    """I's reduced basis under order, from a fresh run on its generators."""
    gens = [to_ipoly(g) for g in I.generators]
    return buchberger_ipolys(I.sig, gens, order)[0]


def _fresh_name(sig: Signature, base: str) -> str:
    name = base
    k = 0
    while name in sig.slot_names:
        k += 1
        name = f"{base}{k}"
    return name


def _elimination_order(
    sig: Signature, target: Signature, then: Signature | None = None
) -> TermOrder:
    """The order `eliminate(I, target, then)` computes its basis under."""
    keep = {sig.slot_of(n) for n in target.slot_names}
    rows = [[0 if i in keep else 1 for i in range(sig.nslots)]]
    if then is not None:
        last = {sig.slot_of(n) for n in then.slot_names}
        if not last <= keep:
            outside = sorted(set(then.slot_names) - set(target.slot_names))
            raise ValueError(f"then names slots outside target: {outside}")
        rows.append([int(i in keep and i not in last) for i in range(sig.nslots)])
    return TermOrder(sig, *rows)


def eliminate(
    I: LeftIdeal, target: Signature, then: Signature | None = None
) -> LeftIdeal:
    """I cap target: the restriction of I to the subalgebra on target's names.

    Realized by a reduced Groebner basis under the weight vector that is 1
    on every slot absent from target and 0 on the others.  Its elements
    free of the eliminated slots, re-indexed to target, are the returned
    generators: the reduced basis of I cap target under the restricted
    order (Cox, Little, O'Shea, 3.1).  With then None, and target's names
    in I.sig in the same relative order, that order is target's grevlex,
    and the result takes these term lists as its basis.  In another slot
    order it need not be: from <x - y, y^2 + y z + 2 z^2>, C[z, y] gets
    y^2 + y z + 2 z^2, led by y^2, where its grevlex leads by z^2.

    then, a signature whose names lie in target, adds a second weight row,
    1 on the slots of target absent from then.  The returned generators
    are then the reduced basis of I cap target under that row and grevlex:
    the order of a later elimination down to then, which starts from a
    Groebner basis.  A then naming a slot outside target raises
    ValueError.
    """
    sig = I.sig
    slots = [sig.slot_of(n) for n in target.slot_names]
    gone = [i for i in range(sig.nslots) if i not in slots]
    kept = [
        [(tuple([e[i] for i in slots]), c) for e, c in g]
        for g in basis_ipolys(I, _elimination_order(sig, target, then))
        if not any(e[i] for e, _ in g for i in gone)
    ]
    K = LeftIdeal(target, [from_ipoly(target, g) for g in kept])
    if then is None and slots == sorted(slots):
        K._basis = kept
    return K


def intersect(I: LeftIdeal, J: LeftIdeal) -> LeftIdeal:
    """I cap J via the central u-trick: (u I + (1-u) J) cap D."""
    if I.sig != J.sig:
        raise SignatureMismatch("intersect needs a common signature")
    sig = I.sig
    u_name = _fresh_name(sig, "u")
    big = sig.with_central(u_name)
    u = WeylElement.generator(big, u_name)
    one_minus_u = WeylElement.one(big) - u
    gens = [u * g.over(big) for g in I.generators]
    gens += [one_minus_u * g.over(big) for g in J.generators]
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
    gens = [g.over(big).homogenize(big_vw, u1) for g in I.generators]
    gens.append(
        WeylElement.generator(big, u1) * WeylElement.generator(big, u2)
        - WeylElement.one(big)
    )
    return LeftIdeal(big, gens)


def initial_ideal(
    I: LeftIdeal, vw: WeightVector, then: Signature | None = None
) -> LeftIdeal:
    """in_(v,w)(I), the ideal of all initial forms of elements of I.

    A direct Groebner run under (v,w) would need a non-term order when some
    weights are negative, so instead: homogenize the generators with u1,
    saturate by u1 via the inverse variable u2, and set u1 to 0.  The
    resulting ideal of D[u1] is the full weight homogenization of I, and its
    image at u1 = 0 is exactly the initial ideal.

    then, a signature within I.sig, goes on to `eliminate` with u1 added:
    the run weighs u2, then the slots of I.sig absent from then, then
    grevlex, and still selects by sugar.  The ideal is the same.  That a
    later run under the elimination order down to then gets shorter is
    measured, not proved: unlike for I_{f,1}, setting u1 to 0 need not
    keep a Groebner basis, and the generators are not claimed to be one.
    """
    sig = I.sig
    if I.is_zero_ideal():
        return LeftIdeal(sig, [])
    H = weight_homogenization(I, vw)
    u1 = H.sig.central[-2]  # the fresh u1; u2 comes last
    last = None if then is None else then.with_central(u1)
    K = eliminate(H, sig.with_central(u1), last)
    return LeftIdeal(
        sig, [g.substitute_central(u1, 0).over(sig) for g in K.generators]
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
    # the leading terms under lex, the order of tuple comparison: any
    # monomial order divides exactly
    le = max(g.terms)
    glead = g.terms[le]
    rem = dict(p.terms)
    quot: dict = {}
    while rem:
        e = max(rem)
        if not all(map(operator.le, le, e)):
            raise ZeroDivisor(f"{g} does not divide {p}")
        q = Fraction(rem[e]) / glead
        me = tuple(a - b for a, b in zip(e, le))
        quot[me] = q
        for ge, gc in g.terms.items():
            ne = tuple(a + b for a, b in zip(me, ge))
            nc = rem.get(ne, 0) - q * gc
            if nc:
                rem[ne] = nc
            else:
                rem.pop(ne, None)
    return WeylElement(p.sig, quot)


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
    gens = [g.over(big) for g in I.generators]
    gens.append(y * p.over(big) - WeylElement.one(big))
    return eliminate(LeftIdeal(big, gens), sig)


def member(h: WeylElement, I: LeftIdeal) -> bool:
    """True iff h reduces to zero against the grevlex Groebner basis of I
    (membership does not depend on the order)."""
    if h.sig != I.sig:
        raise SignatureMismatch("member needs a common signature")
    if h.is_zero():
        return True
    if I.is_zero_ideal():
        return False
    order = TermOrder.grevlex(I.sig)

    def run(pk: Packing, polys: list, stats: GBStats) -> bool:
        ip, *G = polys
        return not _Basis(pk, G).reduce(*_working(ip), stats)[0]

    return _packed(I.sig, order, [to_ipoly(h)] + I.groebner_ipolys(), run)[0]


def minimal_polynomial(
    I: LeftIdeal, order: TermOrder, a: WeylElement, g: WeylElement
) -> list[Fraction]:
    """The monic minimal polynomial of left multiplication by a on the class
    of g in D/I: coefficients c_0, ..., c_k = 1, lowest first, of the least
    k with sum_j c_j a^j g in I.

    With NF the normal form against I's reduced basis under order, v_0 =
    NF(g) and v_j = NF(a v_{j-1}); since I is a left ideal, a(h - NF(h))
    lies in I, so v_j = NF(a^j g), and sum_j c_j a^j g lies in I exactly
    when sum_j c_j v_j = 0.  The first Q-linear dependency among the v_j is
    the answer: an element of I gives [1].  Each v_j is an exact normal
    form, the primitive remainder of `_Basis.reduce` times its factor, and
    a v_{j-1} comes from the product kernel.  The loop ends only when such
    a polynomial exists; it checks the request's time budget at every j.
    """
    if a.sig != I.sig or g.sig != I.sig:
        raise SignatureMismatch("minimal_polynomial needs a common signature")
    ia, ig = to_ipoly(a), to_ipoly(g)
    # to_ipoly scales a by alpha; NF(a v) is NF((alpha a) v) / alpha
    alpha = Fraction(ia[0][1]) / a.terms[ia[0][0]]

    def run(pk: Packing, polys: list, stats: GBStats) -> list:
        pa, pg, *G = polys
        basis = _Basis(pk, G)
        a_terms = [(o, pk.exp_of(o), c) for o, c in _pairs(pa)]
        r, q = basis.reduce(*_working(pg), stats)
        scales = [q]  # v_j = scales[j] * r_j, r_j primitive
        # echelon rows: pivot (its lead) -> (int dict, {j: int}), the row
        # being the combination of the r_j that the second dict gives
        rows: dict = {}
        for j in itertools.count():
            check_deadline()
            vec, comb = dict(_pairs(r)), {j: 1}
            for piv in sorted(rows, reverse=True):
                c = vec.get(piv)
                if c is None:
                    continue
                row, rcomb = rows[piv]
                d = gcd(c, row[piv])
                u, mult = row[piv] // d, c // d
                if u != 1:
                    vec = {o: u * v for o, v in vec.items()}
                    comb = {i: u * v for i, v in comb.items()}
                for o, v in row.items():
                    nv = vec.get(o, 0) - mult * v
                    if nv:
                        vec[o] = nv
                    else:
                        del vec[o]
                for i, v in rcomb.items():
                    comb[i] = comb.get(i, 0) - mult * v
            if not vec:
                # sum_i comb[i] r_i = 0, so sum_i comb[i] / scales[i] v_i = 0
                lead = Fraction(comb[j]) / scales[j]
                return [
                    Fraction(comb.get(i, 0)) / scales[i] / lead for i in range(j + 1)
                ]
            rows[max(vec)] = (vec, comb)
            deg = _degree(pk, r)
            prod: list = []
            for ao, ae, ac in a_terms:
                prod += _flat(
                    (o, ac * c)
                    for o, c in mono_mul(pk, ao, ae, _pairs(r), deg).items()
                )
            r, q = basis.reduce(*_working(prod), stats)
            scales.append(scales[-1] * q / alpha)

    return _packed(I.sig, order, [ia, ig] + basis_ipolys(I, order), run)[0]


def ideal_equal(I: LeftIdeal, J: LeftIdeal) -> bool:
    """Equality via reduced Groebner bases under the canonical grevlex order."""
    if I.sig != J.sig:
        raise SignatureMismatch("ideal_equal needs a common signature")
    return I.groebner_ipolys() == J.groebner_ipolys()
