"""Ideal arithmetic over F_p: Buchberger bases, membership, normal forms,
Rabinowitsch-style localization tests and dehomogenized chart tests.

The Buchberger loop runs the normal selection strategy (smallest lcm first)
and installs its pairs as Gebauer and Moeller do ("On an installation of
Buchberger's algorithm", JSC 6, 1988; Becker and Weispfenning, *Groebner
Bases*, 5.5): the pruning criteria run once, when an element enters, never
when a pair pops.  The newcomer's pairs with the active elements whose
leading monomials are coprime to its own (one test on support bitmasks)
reduce to zero and are never queued; of the rest, criteria M and F queue
one pair per minimal lcm, criterion B_k drops the queued pairs whose lcm
the newcomer's leading monomial divides strictly on both sides, and the
active elements that monomial divides leave the active set.  The active
elements end as a minimal basis; every element stays a reducer.  Queued
pairs sit in a heap keyed by their lcm, with the pair indices breaking
ties, and a dict of the pairs still live, which the heap pops lazily.  The
loop short-circuits to the unit ideal the moment any reduction produces a
nonzero constant.  Only the callers that keep a basis reduce it; reduced
bases are unique for a fixed order, which keeps every downstream verdict
deterministic.  A unit question ends at the constant short-circuit, which
every basis of (1) reaches.  A caller may pass a stop predicate on the
leading monomials entering the basis (as exponent tuples); a run it ends
returns no basis at all.  No basis is cached: each call computes its own.

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
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from operator import mul

from .poly import (
    Polynomial,
    Prime,
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


def _monic_raw(f: dict, p: int) -> dict:
    inv = pow(f[max(f)], -1, p)
    return {m: (c * inv) % p for m, c in f.items()}


def _is_constant_raw(f: dict) -> bool:
    return len(f) == 1 and 0 in f


_UNIT = ((0, {0: 1}),)  # the unit ideal, met at the constant short-circuit


def _buchberger_raw(gens: Sequence, order: _PackedOrder, p: int,
                    stop=None) -> Sequence | None:
    """Minimal, unreduced Groebner basis of the given packed coefficient dicts.

    Returns its (leading monomial, monic dict) pairs, no leading monomial
    dividing another, for :func:`_reduced_raw`.  Generators enter in the
    given order, each S-pair's normal form as it is found, and each entry
    runs the Gebauer-Moeller update described in the module docstring.  A
    pair whose leading monomials' product passes the exponent cap, active
    or not, is queued unpruned and raises when it pops, as when every pair
    was queued.  The unit ideal comes back as ``_UNIT`` via the constant
    short-circuit.
    ``stop``, if given, sees the exponent tuple of the leading monomial of
    every element that enters the basis, generators included; once it
    returns true the run ends and None comes back in place of a basis.
    """
    guard = order.guard
    basis = []
    lms = []
    exps = []  # leading monomials unpacked, for the lcm and the stop predicate
    for g in gens:
        if not g:
            continue
        if _is_constant_raw(g):
            return _UNIT
        basis.append(_monic_raw(g, p))
        lms.append(max(g))
        exps.append(order.unpack(lms[-1]))
        if stop is not None and stop(exps[-1]):
            return None

    # (m + low) & guard has the guard bit of exactly the nonzero fields of m
    low = guard - (guard >> (order.width - 1))
    half = guard >> 1  # m & half: m has an exponent of at least half the cap
    wide = []  # the elements with such a leading monomial
    active = []  # indices of the minimal basis, in order of entry
    live = {}  # queued pair -> its lcm; a pair B_k drops leaves the heap lazily
    queue = []  # (lcm, pair): smallest lcm first, ties by pair

    def install(t):
        """The Gebauer-Moeller update for element t entering the basis."""
        lm_t, exp_t = lms[t], exps[t]
        support = (lm_t + low) & guard
        shared = []  # (lcm, k) for the active k sharing a variable with t
        lcms = []  # lcms that rule out new pairs: the coprime ones' products first
        for k in active:
            if (lms[k] + low) & support:
                shared.append((order.lcm(exps[k], exp_t), k))
            else:
                lcms.append(lms[k] + lm_t)
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
        # M and F: a new pair is queued only if no coprime or queued new
        # pair has a dividing (or equal) lcm; coprime pairs reduce to zero,
        # and one whose product passes the cap is queued anyway, to raise
        shared.sort()
        for lij, k in shared:
            if lcms and not (lms[k] + lm_t) & guard and \
                    any(not (lij - m) & guard for m in lcms):
                continue
            lcms.append(lij)
            live[k, t] = lij
            heapq.heappush(queue, (lij, (k, t)))
        # every pair whose product passes the cap raises when it pops, so
        # those with elements no longer active are queued too; only a pair
        # with a wide element can pass it
        for k in range(t) if lm_t & half else wide:
            if (lms[k] + lm_t) & guard and k not in active:
                lij = order.lcm(exps[k], exp_t)
                live[k, t] = lij
                heapq.heappush(queue, (lij, (k, t)))
        if lm_t & half:
            wide.append(t)
        # the least possible lcm is lm_t itself, met when an active leading
        # monomial divides lm_t (only a generator's can): t stays out, and
        # its queued pair with that element covers it
        if not shared or shared[0][0] != lm_t:
            active[:] = [k for k in active if (lms[k] - lm_t) & guard]
            active.append(t)

    for t in range(len(basis)):
        install(t)

    # Every element, active or not, stays a reducer, in order of entry: an
    # older sparse one (x^36888 + 2, say) can clear a term in one step that
    # its active replacement (x^318 + ...) takes a hundred steps for.
    reducers = list(zip(lms, basis))
    while queue:
        lij, pair = heapq.heappop(queue)
        if live.pop(pair, None) is None:
            continue
        i, j = pair
        prod = lms[i] + lms[j]
        if prod & guard:
            raise order.overflow(prod)
        s = {}
        _sub_scaled(s, basis[i], lij - lms[i], p - 1, p, order)
        _sub_scaled(s, basis[j], lij - lms[j], 1, p, order)
        s = _normal_form_raw(s, reducers, p, order)
        if not s:
            continue
        if _is_constant_raw(s):
            return _UNIT
        s = _monic_raw(s, p)
        basis.append(s)
        lms.append(max(s))
        exps.append(order.unpack(lms[-1]))
        if stop is not None and stop(exps[-1]):
            return None
        reducers.append((lms[-1], s))
        install(len(basis) - 1)

    return [(lms[k], basis[k]) for k in active]


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
        gens = []
        for g in generators:
            if g.field != self.field or g.vars != variables:
                raise ValueError("generator lives in a different ring")
            gens.append(g)
        self.generators = tuple(gens)

    def groebner_basis(self) -> tuple:
        """The reduced grevlex basis: monic polynomials sorted by increasing
        leading monomial, ``(1,)`` for the unit ideal and ``()`` for zero."""
        order = _grevlex(self.vars.n)
        raw = _buchberger_raw([order.pack_terms(g.terms) for g in self.generators],
                              order, self.field.p)
        raw = _reduced_raw(raw, order, self.field.p)
        return tuple(order.polynomial(self.field, self.vars, g) for g in raw)


def _stops_or_is_unit(ideal: PolyIdeal, stop) -> bool:
    """Whether Buchberger on the generators ends at ``stop`` or at the unit ideal.

    ``stop`` sees each leading monomial entering the basis as an exponent
    tuple; the grevlex basis is not kept.
    """
    order = _grevlex(ideal.vars.n)
    basis = _buchberger_raw([order.pack_terms(g.terms) for g in ideal.generators],
                            order, ideal.field.p, stop)
    return basis is None or basis is _UNIT


def _chart_is_unit(ideal: PolyIdeal, chart: Sequence[int]) -> bool:
    """Whether I + (x_i - 1 : i in ``chart``) is the unit ideal.

    Each generator is dehomogenized on the spot: the chart's exponents are
    packed as zero and the coefficients that meet on one monomial are
    summed mod p.  Buchberger then runs in the same n-variable grevlex
    packing, with no adjoined variable.
    """
    p = ideal.field.p
    order = _grevlex(ideal.vars.n)
    units = tuple(0 if i in chart else u for i, u in enumerate(order.units))
    gens = []
    for g in ideal.generators:
        packed = {}
        for m, c in g.terms.items():
            k = sum(map(mul, m, units))
            packed[k] = (packed.get(k, 0) + c) % p
        gens.append({k: c for k, c in packed.items() if c})
    return _buchberger_raw(gens, order, p) is _UNIT


def _check_ring(f: Polynomial, field: Prime, variables: VariableSet) -> None:
    if f.field != field or f.vars != variables:
        raise ValueError("polynomial lives in a different ring")


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Unique remainder of f against a reduced grevlex basis."""
    order = _grevlex(f.vars.n)
    pairs = []
    for g in basis:
        _check_ring(f, g.field, g.vars)
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
    :func:`_chart_is_unit` answers with those variables set to 1 and no t.
    """
    if g.is_zero:
        raise ValueError("cannot invert zero")
    _check_ring(g, ideal.field, ideal.vars)
    p = ideal.field.p
    order = _grevlex(ideal.vars.n + 1)
    ext_gens = [_extend(f, order, 0) for f in ideal.generators if not f.is_zero]
    rab = _extend(g, order, 1)
    rab[0] = (rab.get(0, 0) - 1) % p
    rab = {m: c for m, c in rab.items() if c}
    ext_gens.append(rab)
    return _buchberger_raw(ext_gens, order, p) is _UNIT
