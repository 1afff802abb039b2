"""Ideal arithmetic over F_p: Buchberger bases, membership, quotients and
Rabinowitsch-style localization tests.

The Buchberger loop runs the normal selection strategy (smallest lcm first)
with both classical pruning criteria, and short-circuits to the unit ideal
the moment any reduction produces a nonzero constant.  Pending pairs sit in
a heap keyed by the order key of their lcm, computed once per pair, with
the pair indices breaking ties; the selection order is the one a full scan
for the smallest lcm would give.  Reduced bases are unique for a fixed
order, which keeps every downstream verdict deterministic.  A caller may
pass a stop predicate on the leading monomials entering the basis; a run it
ends returns no basis at all, so a partial basis is never cached.

Internally polynomials travel as plain {monomial: coefficient} dicts so the
hot reduction loops stay allocation-light; the public API speaks
:class:`~fanocheck.poly.Polynomial`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Sequence

from .poly import (
    AlgebraError,
    Monomial,
    Polynomial,
    Prime,
    VariableSet,
    grevlex_key,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


# ---------------------------------------------------------------------------
# raw dict-level division and Buchberger
# ---------------------------------------------------------------------------

def _lm(f: dict, key) -> Monomial:
    return max(f, key=key)


def _sub_scaled(f: dict, g: dict, mono: Monomial, coeff: int, p: int) -> None:
    """In place f -= coeff * x^mono * g."""
    for m, c in g.items():
        t = mono_mul(m, mono)
        v = (f.get(t, 0) - coeff * c) % p
        if v:
            f[t] = v
        elif t in f:
            del f[t]


def _normal_form_raw(f: dict, basis: Sequence, p: int, key) -> dict:
    """Full normal form against (lm, poly) pairs with monic polys."""
    h = dict(f)
    r = {}
    while h:
        m = _lm(h, key)
        c = h[m]
        for lm_g, g in basis:
            if mono_divides(lm_g, m):
                _sub_scaled(h, g, mono_div(m, lm_g), c, p)
                break
        else:
            r[m] = c
            del h[m]
    return r


def _monic_raw(f: dict, p: int, key) -> dict:
    inv = pow(f[_lm(f, key)], -1, p)
    return {m: (c * inv) % p for m, c in f.items()}


def _is_constant_raw(f: dict) -> bool:
    return len(f) == 1 and not any(next(iter(f)))


def _buchberger_raw(gens: Sequence, nvars: int, p: int, key,
                    stop=None) -> Optional[list]:
    """Reduced Groebner basis of the given coefficient dicts.

    Returns a list of monic dicts sorted by increasing leading monomial.
    The unit ideal comes back as [{1}] via the constant short-circuit.
    ``stop``, if given, sees the leading monomial of every element that
    enters the basis, generators included; once it returns true the run
    ends and None comes back in place of a basis.
    """
    one = [{(0,) * nvars: 1}]
    basis = []
    lms = []
    for g in gens:
        if not g:
            continue
        if _is_constant_raw(g):
            return one
        basis.append(_monic_raw(g, p, key))
        lms.append(_lm(g, key))
        if stop is not None and stop(lms[-1]):
            return None
    if not basis:
        return []

    # Heap entries (key(lcm), pair, lcm) pop smallest lcm first, ties by
    # pair; the set mirrors the heap for the chain criterion's lookups.
    pending = set()
    queue = []

    def add_pair(i, j):
        lij = mono_lcm(lms[i], lms[j])
        pending.add((i, j))
        heapq.heappush(queue, (key(lij), (i, j), lij))

    for j in range(1, len(basis)):
        for i in range(j):
            add_pair(i, j)

    while queue:
        _, pair, lij = heapq.heappop(queue)
        pending.discard(pair)
        i, j = pair
        # product criterion: coprime leading monomials reduce to zero
        if lij == mono_mul(lms[i], lms[j]):
            continue
        # chain criterion: a third element divides the lcm and both side
        # pairs were already handled
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not mono_divides(lms[k], lij):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pending and b not in pending:
                skip = True
                break
        if skip:
            continue
        s = {}
        _sub_scaled(s, basis[i], mono_div(lij, lms[i]), p - 1, p)
        _sub_scaled(s, basis[j], mono_div(lij, lms[j]), 1, p)
        s = _normal_form_raw(s, list(zip(lms, basis)), p, key)
        if not s:
            continue
        if _is_constant_raw(s):
            return one
        s = _monic_raw(s, p, key)
        basis.append(s)
        lms.append(_lm(s, key))
        if stop is not None and stop(lms[-1]):
            return None
        t = len(basis) - 1
        for i2 in range(t):
            add_pair(i2, t)

    # minimalize: drop elements whose leading monomial another one divides
    keep = []
    for i, lm_i in enumerate(lms):
        drop = False
        for j, lm_j in enumerate(lms):
            if i == j:
                continue
            if mono_divides(lm_j, lm_i) and (lm_j != lm_i or j < i):
                drop = True
                break
        if not drop:
            keep.append(basis[i])
    # interreduce tails
    reduced = []
    for i, g in enumerate(keep):
        others = [(_lm(h, key), h) for j, h in enumerate(keep) if j != i]
        r = _normal_form_raw(g, others, p, key)
        if r:
            reduced.append(_monic_raw(r, p, key))
    reduced.sort(key=lambda g: key(_lm(g, key)))
    return reduced


# ---------------------------------------------------------------------------
# public ideal API
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced basis, monic elements sorted by increasing leading monomial."""

    order: str
    elements: tuple

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


class PolyIdeal:
    """Ideal given by finitely many generators in a fixed ring.

    The Groebner basis is computed on first use and cached; the cached value
    is deterministic (reduced bases are unique), so a racing double
    computation can only store the same answer.
    """

    def __init__(self, field, variables: VariableSet, generators: Sequence):
        self.field = field if isinstance(field, Prime) else Prime(field)
        self.vars = variables
        gens = []
        for g in generators:
            if g.field != self.field or g.vars != variables:
                raise ValueError("generator lives in a different ring")
            gens.append(g)
        self.generators = tuple(gens)
        self._gb: Optional[GroebnerBasis] = None

    def groebner_basis(self) -> GroebnerBasis:
        if self._gb is None:
            raw = _buchberger_raw([g.terms for g in self.generators],
                                  self.vars.n, self.field.p, grevlex_key)
            elems = tuple(Polynomial(self.field, self.vars, g) for g in raw)
            self._gb = GroebnerBasis("grevlex", elems)
        return self._gb

    def contains(self, f: Polynomial) -> bool:
        return normal_form(f, self.groebner_basis()).is_zero


def buchberger(ideal: PolyIdeal) -> GroebnerBasis:
    return ideal.groebner_basis()


def normal_form(f: Polynomial, basis: GroebnerBasis) -> Polynomial:
    """Unique remainder of f against a reduced basis (grevlex)."""
    pairs = [(g.leading_monomial(), g.terms) for g in basis]
    r = _normal_form_raw(f.terms, pairs, f.p, grevlex_key)
    return Polynomial(f.field, f.vars, r)


# ---------------------------------------------------------------------------
# quotients and localization
# ---------------------------------------------------------------------------

def _elim_key(mono: Monomial):
    """Block order with the adjoined variable (slot 0) in front, grevlex behind."""
    rest = mono[1:]
    return (mono[0], sum(rest), tuple(-e for e in reversed(rest)))


def _extend(f: dict, t_exp: int) -> dict:
    return {(t_exp,) + m: c for m, c in f.items()}


def _exact_divide_raw(h: dict, g: dict, p: int, key) -> dict:
    """Quotient h / g for exact division; raises if g does not divide h."""
    lg = _lm(g, key)
    cg_inv = pow(g[lg], -1, p)
    q = {}
    r = dict(h)
    while r:
        m = _lm(r, key)
        if not mono_divides(lg, m):
            raise AlgebraError("exact division failed; divisor does not divide")
        qm = mono_div(m, lg)
        qc = (r[m] * cg_inv) % p
        q[qm] = qc
        _sub_scaled(r, g, qm, qc, p)
    return q


def ideal_quotient(ideal: PolyIdeal, g: Polynomial) -> PolyIdeal:
    """The colon ideal (I : g) via elimination of an auxiliary variable t.

    Groebner basis of t*I + (1-t)*g with t dominating, intersect with the
    t-free part, then divide every survivor by g (division is exact because
    the survivors generate I meet (g)).
    """
    if g.is_zero:
        raise ValueError("cannot take a quotient by zero")
    if g.field != ideal.field or g.vars != ideal.vars:
        raise ValueError("polynomial lives in a different ring")
    p = ideal.field.p
    nontrivial = [f.terms for f in ideal.generators if not f.is_zero]
    if not nontrivial:
        return PolyIdeal(ideal.field, ideal.vars,
                         [Polynomial.zero(ideal.field, ideal.vars)])
    if g.is_constant():
        return PolyIdeal(ideal.field, ideal.vars, list(ideal.generators))
    ext_gens = [_extend(f, 1) for f in nontrivial]
    # (1 - t) * g
    mixed = _extend(g.terms, 0)
    for m, c in _extend(g.terms, 1).items():
        mixed[m] = (mixed.get(m, 0) - c) % p
    mixed = {m: c for m, c in mixed.items() if c}
    ext_gens.append(mixed)
    basis = _buchberger_raw(ext_gens, ideal.vars.n + 1, p, _elim_key)
    out = []
    for h in basis:
        if any(m[0] for m in h):
            continue
        shrunk = {m[1:]: c for m, c in h.items()}
        out.append(_exact_divide_raw(shrunk, g.terms, p, grevlex_key))
    if not out:
        return PolyIdeal(ideal.field, ideal.vars,
                         [Polynomial.zero(ideal.field, ideal.vars)])
    return PolyIdeal(ideal.field, ideal.vars,
                     [Polynomial(ideal.field, ideal.vars, h) for h in out])


def localized_is_unit(ideal: PolyIdeal, g: Polynomial) -> bool:
    """Whether I becomes the unit ideal after inverting g (Rabinowitsch trick).

    Adjoins t and asks whether 1 lies in I + (t*g - 1).  Over the algebraic
    closure this says exactly that V(I) avoids the locus g != 0.
    """
    if g.is_zero:
        raise ValueError("cannot invert zero")
    if g.field != ideal.field or g.vars != ideal.vars:
        raise ValueError("polynomial lives in a different ring")
    p = ideal.field.p
    n = ideal.vars.n
    ext_gens = [_extend(f.terms, 0) for f in ideal.generators if not f.is_zero]
    rab = _extend(g.terms, 1)
    one_mono = (0,) * (n + 1)
    rab[one_mono] = (rab.get(one_mono, 0) - 1) % p
    rab = {m: c for m, c in rab.items() if c}
    ext_gens.append(rab)
    basis = _buchberger_raw(ext_gens, n + 1, p, grevlex_key)
    return len(basis) == 1 and _is_constant_raw(basis[0])
