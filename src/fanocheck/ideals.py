"""Ideal arithmetic over F_p: Buchberger bases, membership, normal forms,
Rabinowitsch-style localization tests and dehomogenized chart tests.

Buchberger is two halves fed by one intake loop.  The pair half,
``_PairQueue``, sees packed leading monomials only, and forms each lcm on
them field by field, its grading rows by one multiply (see
:func:`~fanocheck.poly._grevlex`).  It runs the normal selection
strategy (smallest lcm first) and installs pairs as Gebauer and Moeller do
("On an installation of Buchberger's algorithm", JSC 6, 1988; Becker and
Weispfenning, *Groebner Bases*, 5.5): the pruning criteria run once per
element, never when a pair pops.  The newcomer's pairs with the active
elements whose leading monomials are coprime to its own (one test on
support bitmasks) reduce to zero and are never queued; of the rest,
criteria M and F queue one pair per minimal lcm, against the lcms queued
so far alone (the active leading monomials are an antichain, so no coprime
product divides a shared lcm), criterion B_k drops the queued pairs whose
lcm the newcomer's leading monomial divides strictly on both sides, and
the active elements that monomial divides leave the active set, which
ends as a minimal basis.  Each update waits for the next pop, so a run
that ends among the generators makes none.  The reduction half is
``_normal_form_raw`` against every element as a monic reducer.  The intake
takes the generators, then each popped pair's S-polynomial remainder: it
skips zero, short-circuits a nonzero constant to the unit ideal, and makes
anything else monic, a reducer, and an entry in the queue, first showing
its packed leading monomial to the caller's stop predicate (a run it ends
returns no basis).  Only the callers that keep a basis reduce it; reduced
bases are unique for a fixed order, which keeps every downstream verdict
deterministic.  A unit question ends at the constant short-circuit, which
every basis of (1) reaches.  No basis is cached: each call computes its
own.

Internally polynomials travel as {packed monomial: coefficient} dicts in
the packing of :mod:`fanocheck.poly` (Monagan & Pearce, CASC 2007), whose
integer order is the term order: ``_grevlex`` throughout, on the ring's n
variables, or on n + 1 for the variable :func:`localized_is_unit` adjoins.
So the leading term is a plain ``max``, a product is ``a + b``, a quotient
``b - a``, and ``a | b`` exactly when ``(b - a) & guard == 0``.  Every
product checks its guard bits, so an exponent past the cap raises
:class:`~fanocheck.poly.ExponentOverflowError` instead of spilling into a
neighbouring field.  Monomials are packed at entry, and every result
leaves through the packing's ``polynomial`` method; the public API speaks
:class:`~fanocheck.poly.Polynomial`.

Smoothness never builds an ideal.  :func:`_packed_jacobian` packs f once
and forms each partial on the packed monomials, reading the exponent e of
x_i from its field and mapping a term c*x^m to (c*e mod p)*x^(m - e_i).
:func:`_jacobian_certificate`, the one entry :mod:`fanocheck.geometry`
calls for a verdict, packs those generators and runs the support
certificate on them, leaving f out where some component of its
multidegree is prime to p (Euler's relation puts f in the ideal of its
partials).  Its stop, :func:`_chart_stop`, holds each chart tuple of the
ambient as a mask of guard bits, built from the per-factor variable
indices geometry passes, and tests each entering leading monomial's
support against them.  When it fails it hands back f and its partials, and
the witness charts (:func:`_chart_is_unit`) run on them.  So the
Jacobian never passes through :class:`PolyIdeal` or a tuple-keyed
polynomial, and geometry imports no packing.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from itertools import chain

from .poly import (
    Polynomial,
    VariableSet,
    _grevlex,
    _PackedOrder,
    as_prime,
)


# ---------------------------------------------------------------------------
# raw packed division and Buchberger
# ---------------------------------------------------------------------------

def _sub_scaled(f: dict, g: dict, mono: int, coeff: int, p: int,
                order: _PackedOrder) -> None:
    """In place f -= coeff * x^mono * g."""
    guard = order.guard
    for m, c in g.items():
        t = m + mono
        if t & guard:
            raise order.overflow(t)
        v = (f.get(t, 0) - coeff * c) % p
        if v:
            f[t] = v
        elif t in f:
            del f[t]


def _normal_form_raw(f: dict, basis: Sequence, p: int, order: _PackedOrder) -> dict:
    """Full normal form against (lm, poly) pairs with monic polys."""
    guard = order.guard
    h = dict(f)
    r = {}
    while h:
        m = max(h)
        c = h[m]
        for lm_g, g in basis:
            if not (m - lm_g) & guard:
                _sub_scaled(h, g, m - lm_g, c, p, order)
                break
        else:
            r[m] = c
            del h[m]
    return r


_UNIT = ((0, {0: 1}),)  # the unit ideal, met at the constant short-circuit


class _PairQueue:
    """Buchberger's pair half on the elements' packed leading monomials."""

    __slots__ = ("order", "lms", "active", "live", "heap", "wide")

    def __init__(self, order: _PackedOrder):
        self.order = order
        self.lms = []
        self.active = []  # indices of the minimal basis, in order of entry
        self.live = {}  # queued pair -> its lcm; a pair B_k drops leaves the heap lazily
        self.heap = []  # (lcm, pair): smallest lcm first, ties by pair
        self.wide = []  # the elements with an exponent of at least half the cap

    def install(self, lm: int) -> None:
        """Enter an element; its update waits for the next pop."""
        self.lms.append(lm)

    def __iter__(self):
        """Each live pair as (lcm, i, j), least lcm first; one whose product
        passes the exponent cap, queued unpruned, raises as it pops.  Each
        pop first runs the Gebauer-Moeller update of every element entered
        since the last one; the locals are bound once per run."""
        order, lms, active, live, heap, wide = (
            self.order, self.lms, self.active, self.live, self.heap, self.wide)
        guard, gbit = order.guard, order.width - 1
        # (m + low) & guard has the guard bit of exactly the nonzero fields of m
        low = guard - (guard >> gbit)
        half = guard >> 1  # m & half: m has an exponent of at least half the cap
        # the exponent fields, below the rows (see poly._grevlex); a vector
        # of exponents times ones has its rows, the prefix sums, there
        top = len(order.shifts) * order.spacing
        fields, ones = (1 << top) - 1, sum(1 << s for s in order.shifts)

        def lcm(lm_k, over_t):
            # lm_k times t's excess x over k, field by field: over_t holds
            # 2**gbit plus t's exponent in each field, and a field of d
            # keeps its guard bit exactly where t's exponent is at least k's
            d = over_t - (lm_k & fields)
            g = d & guard
            x = d & (g - (g >> gbit))
            return lm_k + x + (((x * ones) & fields) << top)

        supports = []  # each updated element's (lm + low) & guard
        t = 0  # the next element to update
        while True:
            while t < len(lms):
                lm_t = lms[t]
                over_t = (lm_t & fields) | guard
                support = (lm_t + low) & guard
                supports.append(support)
                shared = []  # (lcm, k) for the active k sharing a variable with t
                doomed = False  # whether lm_t divides an active leading monomial
                for k in active:
                    if supports[k] & support:
                        shared.append((lcm(lms[k], over_t), k))
                        doomed = doomed or not (lms[k] - lm_t) & guard
                # B_k: lm_t divides a queued lcm that neither side's lcm with t
                # reaches, that is, lcm / lm_t shares a variable with the lcm over
                # each side; a pair whose product passes the cap stays, to raise
                if live:
                    dead = []
                    for (i, j), lij in live.items():
                        q = lij - lm_t
                        if q & guard:
                            continue
                        q = (q + low) & guard
                        if (lij - lms[i] + low) & q and (lij - lms[j] + low) & q \
                                and not (lms[i] + lms[j]) & guard:
                            dead.append((i, j))
                    for pair in dead:
                        del live[pair]
                # M and F: a new pair is queued only if none of t's pairs queued
                # before it has a dividing (or equal) lcm (lm_k' * lm_t divides
                # lcm(lm_k, lm_t) only if lm_k' divides lm_k, so no coprime
                # product can: active is an antichain), and one whose product
                # passes the cap is queued anyway, to raise
                shared.sort()
                lcms = []  # the lcms of t's pairs queued so far
                for lij, k in shared:
                    for m in lcms if not (lms[k] + lm_t) & guard else ():
                        if not (lij - m) & guard:
                            break
                    else:
                        lcms.append(lij)
                        live[k, t] = lij
                        heapq.heappush(heap, (lij, (k, t)))
                # every pair whose product passes the cap raises when it pops, so
                # those with elements no longer active are queued too; only a pair
                # with a wide element can pass it
                for k in range(t) if lm_t & half else wide:
                    if (lms[k] + lm_t) & guard and k not in active:
                        lij = lcm(lms[k], over_t)
                        live[k, t] = lij
                        heapq.heappush(heap, (lij, (k, t)))
                if lm_t & half:
                    wide.append(t)
                # the least possible lcm is lm_t itself, met when an active leading
                # monomial divides lm_t (only a generator's can): t stays out, and
                # its queued pair with that element covers it
                if not shared or shared[0][0] != lm_t:
                    if doomed:
                        active[:] = [k for k in active if (lms[k] - lm_t) & guard]
                    active.append(t)
                t += 1
            if not heap:
                return
            lij, pair = heapq.heappop(heap)
            if live.pop(pair, None) is None:
                continue
            prod = lms[pair[0]] + lms[pair[1]]
            if prod & guard:
                raise order.overflow(prod)
            yield lij, *pair


def _buchberger_raw(gens: Sequence, order: _PackedOrder, p: int,
                    stop=None) -> Sequence | None:
    """Minimal, unreduced Groebner basis of the given packed coefficient dicts.

    Returns its (leading monomial, monic dict) pairs, no leading monomial
    dividing another, for :func:`_reduced_raw`; ``_UNIT`` for the unit
    ideal; None once ``stop``, shown every packed leading monomial
    entering the basis, generators included, returns true.  Nothing is
    unpacked on entry.
    """
    queue = _PairQueue(order)
    # Every element, active or not, stays a reducer, in order of entry: an
    # older sparse one (x^36888 + 2, say) can clear a term in one step that
    # its active replacement (x^318 + ...) takes a hundred steps for.
    reducers = []
    for f in chain(gens, queue):
        if type(f) is tuple:  # a live pair (lcm, i, j): reduce its S-polynomial
            lij, i, j = f
            (lm_i, f_i), (lm_j, f_j) = reducers[i], reducers[j]
            f = {}
            _sub_scaled(f, f_i, lij - lm_i, p - 1, p, order)
            _sub_scaled(f, f_j, lij - lm_j, 1, p, order)
            f = _normal_form_raw(f, reducers, p, order)
        if not f:
            continue
        if len(f) == 1 and 0 in f:
            return _UNIT
        lm = max(f)
        inv = pow(f[lm], -1, p)
        f = {m: (c * inv) % p for m, c in f.items()}
        reducers.append((lm, f))
        if stop is not None and stop(lm):
            return None
        queue.install(lm)
    return [reducers[k] for k in queue.active]


def _reduced_raw(pairs: Sequence, order: _PackedOrder, p: int) -> list:
    """The reduced basis from ``_buchberger_raw``'s minimal basis: monic
    dicts sorted by increasing leading monomial.

    No leading monomial divides another, so each element keeps its monic
    leading term and only its tail is reduced.
    """
    reduced = [_normal_form_raw(g, pairs[:i] + pairs[i + 1:], p, order)
               for i, (_, g) in enumerate(pairs)]
    reduced.sort(key=max)
    return reduced


# ---------------------------------------------------------------------------
# public ideal API
# ---------------------------------------------------------------------------

class PolyIdeal:
    """Ideal given by finitely many generators in a fixed ring.

    Nothing is cached: each ``groebner_basis`` call runs Buchberger and
    reduces the result again.
    """

    def __init__(self, field, variables: VariableSet, generators: Sequence):
        self.field = as_prime(field)
        self.vars = variables
        self.generators = tuple(generators)
        for g in self.generators:
            g._check_ring(self.field, variables)

    def groebner_basis(self) -> tuple:
        """The reduced grevlex basis: monic polynomials sorted by increasing
        leading monomial, ``(1,)`` for the unit ideal and ``()`` for zero."""
        order = _grevlex(self.vars.n)
        raw = _buchberger_raw([order.pack_terms(g.terms) for g in self.generators],
                              order, self.field.p)
        raw = _reduced_raw(raw, order, self.field.p)
        return tuple(order.polynomial(self.field, self.vars, g) for g in raw)


def _packed_jacobian(f: Polynomial, order: _PackedOrder) -> list:
    """f, then its partial in each variable in order, as packed dicts.

    f is packed once.  Its term c*x^m gives the term (c*e mod p)*x^(m - e_i)
    of the i-th partial, e the exponent of x_i in m; a term whose e is 0
    mod p, so also one without x_i, gives none.  Distinct terms stay
    distinct, so each partial keeps f's term order and nothing is summed.
    """
    p, units = f.p, order.units
    packed, partials = {}, [{} for _ in units]
    for mono, c in f.terms.items():
        m = order.pack(mono)
        packed[m] = c
        for e, unit, partial in zip(mono, units, partials):
            if e % p:
                partial[m - unit] = c * e % p
    return [packed, *partials]


def _chart_stop(order: _PackedOrder, factors: Sequence[Sequence[int]]):
    """The support certificate's stop predicate, on packed leading monomials
    in ``order``, for the ambient whose factors hold the variables of the
    given indices.

    A chart tuple, one variable per factor, is the mask of its variables'
    guard bits.  A leading monomial lm has the support ``(lm + low) &
    guard`` and closes every open chart whose mask contains it; a support
    with two variables of one factor lies in none.  The predicate is true
    once no chart is open.  With no factors the one chart is empty, and
    only the constant, which ends a run before any stop, would close it.
    """
    guard = order.guard
    gbit = order.width - 1
    low = guard - (guard >> gbit)
    open_charts = [0]
    for factor in factors:
        bits = [1 << (order.shifts[i] + gbit) for i in factor]
        open_charts = [c | b for c in open_charts for b in bits]

    def no_chart_open(lm: int) -> bool:
        support = (lm + low) & guard
        open_charts[:] = [c for c in open_charts if support | c != c]
        return not open_charts

    return no_chart_open


def _jacobian_certificate(f: Polynomial, factors: Sequence[Sequence[int]]) -> tuple | None:
    """None when Buchberger on the Jacobian ideal J of a multihomogeneous f
    closes every chart tuple of the ambient whose factors hold the
    variables of the given indices (:func:`_chart_stop`), or ends at the
    unit ideal; else (order, gens), the grevlex packing and J's generators
    from :func:`_packed_jacobian` that the run left as they were, f first,
    for :func:`_chart_is_unit`.

    Where some component d_j of f's multidegree is prime to p, the run
    takes the partials alone: Euler's relation
    d_j*f = sum_i w_ij*x_i*df/dx_i puts f in their ideal, so J and its
    initial ideal are the same, and f's pairs only cost reductions: the 60
    ``smooth`` members, best of 15 each, took 5.71 -> 5.20 ms, every
    class 4-15% faster (2-vCPU VM, Python 3.11).  Where p divides every
    d_j, f stays.  The witness charts keep f: without it, the chart loops
    of two dense Singular sextics were no faster (0.28 and 0.76 s).

    The stop sees each packed leading monomial entering the basis, and the
    basis is not kept.
    """
    order = _grevlex(f.vars.n)
    jac = _packed_jacobian(f, order)
    degree = f.vars.multidegree(next(iter(f.terms)))
    gens = jac[1:] if any(d % f.p for d in degree) else jac
    basis = _buchberger_raw(gens, order, f.p, _chart_stop(order, factors))
    return None if basis is None or basis is _UNIT else (order, jac)


def _chart_is_unit(gens: Sequence, chart: Sequence[int], order: _PackedOrder,
                   p: int) -> bool:
    """Whether I + (x_i - 1 : i in ``chart``) is the unit ideal, I given by
    packed generators in ``order``.

    Each generator is dehomogenized on the spot: a chart variable's
    exponent is read from its field and that many of its units (row bits
    included) are taken off, and the coefficients that meet on one
    monomial are summed mod p.  Buchberger then runs in the same packing,
    with no adjoined variable.
    """
    fields = [(order.shifts[i], order.units[i]) for i in chart]
    mask = order.mask
    dehomogenized = []
    for g in gens:
        packed = {}
        for m, c in g.items():
            k = m - sum([((m >> s) & mask) * u for s, u in fields])
            packed[k] = (packed.get(k, 0) + c) % p
        dehomogenized.append({k: c for k, c in packed.items() if c})
    return _buchberger_raw(dehomogenized, order, p) is _UNIT


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Unique remainder of f against a reduced grevlex basis."""
    order = _grevlex(f.vars.n)
    pairs = []
    for g in basis:
        f._check_ring(g.field, g.vars)
        packed = order.pack_terms(g.terms)
        pairs.append((max(packed), packed))
    r = _normal_form_raw(order.pack_terms(f.terms), pairs, f.p, order)
    return order.polynomial(f.field, f.vars, r)


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------

def _extend(f: Polynomial, order: _PackedOrder, t_exp: int) -> dict:
    """f's terms times t^t_exp, packed with t in slot 0."""
    return {order.pack((t_exp,) + m): c for m, c in f.terms.items()}


def localized_is_unit(ideal: PolyIdeal, g: Polynomial) -> bool:
    """Whether I becomes the unit ideal after inverting g (Rabinowitsch trick).

    Adjoins t and asks whether 1 lies in I + (t*g - 1).  Over the algebraic
    closure this says exactly that V(I) avoids the locus g != 0.  This is
    the test for a general g.  Smoothness does not call it: its charts
    invert a product of variables on a multihomogeneous J, which
    :func:`_chart_is_unit` answers on J's packed generators with those
    variables set to 1 and no t.
    """
    if g.is_zero:
        raise ValueError("cannot invert zero")
    g._check_ring(ideal.field, ideal.vars)
    p = ideal.field.p
    order = _grevlex(ideal.vars.n + 1)
    ext_gens = [_extend(f, order, 0) for f in ideal.generators]
    rab = _extend(g, order, 1)
    rab[0] = p - 1  # t*g - 1: every term of t*g has t, so none is the constant
    ext_gens.append(rab)
    return _buchberger_raw(ext_gens, order, p) is _UNIT
