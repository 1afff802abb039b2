"""Shared oracle utilities for the test suite.

Everything here is deliberately independent of the library's fast paths:
full expansions, exhaustive point searches and naive reductions that are
slow but obviously correct.
"""

from __future__ import annotations

import itertools
import math
import random

from fanocheck.poly import Polynomial, VariableSet, parse_poly
from fanocheck.smallfields import GF, poly_eval


def random_poly(rng: random.Random, vset: VariableSet, p: int,
                max_terms: int = 5, max_exp: int = 3) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(vset.n))
        terms[mono] = rng.randint(0, p - 1)
    return Polynomial(p, vset, terms)


def random_nonzero_poly(rng: random.Random, vset: VariableSet, p: int,
                        max_terms: int = 5, max_exp: int = 3) -> Polynomial:
    while True:
        f = random_poly(rng, vset, p, max_terms, max_exp)
        if not f.is_zero:
            return f


def monomials_of_degree(vset: VariableSet, degree) -> list:
    """All monomials of the given weighted multidegree (an int for one component)."""
    target = (degree,) if isinstance(degree, int) else tuple(degree)
    assert len(target) == vset.ncomponents
    out = []

    def rec(i: int, remaining: tuple, acc: list):
        if i == vset.n:
            if not any(remaining):
                out.append(tuple(acc))
            return
        w = vset.weights[i]
        for e in range(min(r // c for r, c in zip(remaining, w) if c) + 1):
            acc.append(e)
            rec(i + 1, tuple(r - e * c for r, c in zip(remaining, w)), acc)
            acc.pop()

    rec(0, target, [])
    return out


def random_homogeneous(rng: random.Random, vset: VariableSet, p: int,
                       degree, max_terms: int = 4) -> Polynomial:
    """Random nonzero weighted-homogeneous polynomial of the given (multi)degree."""
    pool = monomials_of_degree(vset, degree)
    assert pool, f"no monomials of degree {degree}"
    while True:
        picks = rng.sample(pool, min(len(pool), rng.randint(1, max_terms)))
        terms = {m: rng.randint(1, p - 1) for m in picks}
        f = Polynomial(p, vset, terms)
        if not f.is_zero:
            return f


def int_power(terms: dict, e: int, nvars: int) -> dict:
    """(sum of c*m)^e over the integers, one factor at a time, on exponent tuples."""
    out = {(0,) * nvars: 1}
    for _ in range(e):
        nxt = {}
        for ma, ca in out.items():
            for mb, cb in terms.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                nxt[m] = nxt.get(m, 0) + ca * cb
        out = {m: c for m, c in nxt.items() if c}
    return out


def pow_then_filter(f: Polynomial, e: int, q: int) -> Polynomial:
    """Oracle for pow_mod_frobenius: full power first, drop high exponents after."""
    full = int_power(f.terms, e, f.vars.n)
    kept = {m: c for m, c in full.items() if all(x < q for x in m)}
    return Polynomial(f.field, f.vars, kept)


def naive_delta1(f: Polynomial) -> Polynomial:
    """Oracle for delta1 by the multinomial theorem over the integers.

    Sums multinomial(p; k) * prod c_i^k_i * m_i^k_i over the compositions k
    of p into one part per term, leaving out the pure p-th powers (some
    k_i = p), and divides by p exactly.
    """
    p, n = f.p, f.vars.n
    items = list(f.terms.items())
    t = len(items)
    total = {}
    if t:
        for bars in itertools.combinations(range(p + t - 1), t - 1):
            ks = [b - a - 1 for a, b in zip((-1,) + bars, bars + (p + t - 1,))]
            if max(ks) == p:
                continue
            coeff, used = 1, 0
            for (_, c), k in zip(items, ks):
                used += k
                coeff *= math.comb(used, k) * c ** k
            mono = tuple(sum(k * m[j] for (m, _), k in zip(items, ks)) for j in range(n))
            total[mono] = total.get(mono, 0) + coeff
    assert all(c % p == 0 for c in total.values())
    return Polynomial(f.field, f.vars, {m: c // p for m, c in total.items()})


def common_zero_with_g_nonzero(gens, g, qs) -> bool:
    """Exhaustively search F_q points (q in qs) where all gens vanish and g doesn't."""
    for q in qs:
        gf = GF(q)
        n = g.vars.n
        for point in itertools.product(gf.elements, repeat=n):
            if poly_eval(g, point, gf) == 0:
                continue
            if all(poly_eval(f, point, gf) == 0 for f in gens):
                return True
    return False


def naive_product_degree(dims, classes) -> int:
    """Independent intersection-number oracle on a plain product of P^n.

    Expands the product of linear classes term by term and counts the
    coefficient of the unique top monomial; no ring reduction involved.
    """
    k = len(dims)
    acc = {(0,) * k: 1}
    for cls in classes:
        nxt = {}
        for mono, coeff in acc.items():
            for i in range(k):
                if cls[i] == 0:
                    continue
                m = list(mono)
                m[i] += 1
                if m[i] > dims[i]:
                    continue
                m = tuple(m)
                nxt[m] = nxt.get(m, 0) + coeff * cls[i]
        acc = nxt
    top = tuple(dims)
    return acc.get(top, 0)


def naive_bundle_degree(dims, twists, classes) -> int:
    """Independent oracle with a bundle: naive expansion plus stepwise
    substitution of the single relation, written without the library's
    reduction loop."""
    k = len(dims)
    r = len(twists)
    # expand prod_j (xi - a_j . h): pick xi or one twist component per factor
    option_lists = []
    for j in range(r):
        opts = [(None, 1)]  # the xi pick
        for comp in range(k):
            a = twists[j][comp]
            if a:
                opts.append((comp, -a))
        option_lists.append(opts)
    rel = {}
    for combo in itertools.product(*option_lists):
        mono = [0] * k
        e = 0
        coeff = 1
        for comp, c in combo:
            coeff *= c
            if comp is None:
                e += 1
            else:
                mono[comp] += 1
        key = (tuple(mono), e)
        rel[key] = rel.get(key, 0) + coeff
    # rel says: sum rel[(m, e)] * h^m xi^e == 0 with the top term (0,r) coeff 1
    top_coeff = rel.pop(((0,) * k, r))
    assert top_coeff == 1
    subst = {key: -c for key, c in rel.items()}  # xi^r = sum subst * h^m xi^e

    def mul_linear(acc, cls):
        nxt = {}
        for (mono, e), coeff in acc.items():
            for i in range(k):
                if cls[i]:
                    m = list(mono)
                    m[i] += 1
                    if m[i] <= dims[i]:
                        key = (tuple(m), e)
                        nxt[key] = nxt.get(key, 0) + coeff * cls[i]
            xi_c = cls[k]
            if xi_c:
                key = (mono, e + 1)
                nxt[key] = nxt.get(key, 0) + coeff * xi_c
        return nxt

    acc = {((0,) * k, 0): 1}
    for cls in classes:
        acc = mul_linear(acc, cls)
        # substitute down any xi power >= r, one step at a time
        changed = True
        while changed:
            changed = False
            for (mono, e), coeff in list(acc.items()):
                if e >= r and coeff:
                    del acc[(mono, e)]
                    for (sm, se), sc in subst.items():
                        m = tuple(x + y for x, y in zip(mono, sm))
                        if any(x > d for x, d in zip(m, dims)):
                            continue
                        key = (m, e - r + se)
                        acc[key] = acc.get(key, 0) + coeff * sc
                    changed = True
    top = (tuple(dims), r - 1)
    return acc.get(top, 0)
