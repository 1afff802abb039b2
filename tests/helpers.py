"""Shared oracle utilities for the test suite.

Everything here is deliberately independent of the library's fast paths:
full expansions, exhaustive point searches and naive reductions that are
slow but obviously correct.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from collections import namedtuple
from functools import lru_cache

from fanocheck.chow import MAX_NESTING, canonical_class
from fanocheck.delpezzo import LatticeClass, PointConfig, pgl3_order
from fanocheck.poly import (
    EXPONENT_LIMIT,
    ExponentOverflowError,
    ParseError,
    Polynomial,
    VariableSet,
    tokenize,
)
from fanocheck.smallfields import _IRREDUCIBLE, GF, _factor_prime_power


def variable(p, vset: VariableSet, name: str) -> Polynomial:
    """The coordinate ``name`` as a polynomial."""
    i = vset.index(name)
    return Polynomial(p, vset, {tuple(int(j == i) for j in range(vset.n)): 1})


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


def dense_form(rng: random.Random, vset: VariableSet, p: int, degree: int,
               low: int, high: int) -> Polynomial:
    """The Fermat form of the degree (the sum of its pure powers) plus
    ``low`` to ``high`` other monomials of that degree, with seeded
    coefficients in 1..p-1."""
    pool = monomials_of_degree(vset, degree)
    terms = {m: 1 for m in pool if m.count(0) == vset.n - 1}
    others = [m for m in pool if m.count(0) < vset.n - 1]
    for m in rng.sample(others, rng.randint(low, high)):
        terms[m] = rng.randint(1, p - 1)
    return Polynomial(p, vset, terms)


def substitute(f: Polynomial, images) -> Polynomial:
    """f with variable i replaced by the polynomial ``images[i]``, built from
    Polynomial sums and products alone: each term is its coefficient times
    the images' powers, one product at a time."""
    powers = [[Polynomial.constant(f.field, f.vars, 1)] for _ in images]
    total = Polynomial.zero(f.field, f.vars)
    for mono, c in f.terms.items():
        term = Polynomial.constant(f.field, f.vars, c)
        for image, known, e in zip(images, powers, mono):
            while len(known) <= e:
                known.append(known[-1] * image)
            if e:
                term = term * known[e]
        total = total + term
    return total


def _is_invertible(rows, p: int) -> bool:
    """Whether the square matrix is invertible mod p (Gaussian elimination)."""
    rows = [list(r) for r in rows]
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col] % p), None)
        if pivot is None:
            return False
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = pow(rows[col][col], -1, p)
        for r in range(col + 1, len(rows)):
            k = rows[r][col] * inv
            rows[r] = [(a - k * b) % p for a, b in zip(rows[r], rows[col])]
    return True


def random_graded_automorphism(rng: random.Random, space, p: int) -> list:
    """The images of the ambient's variables under a seeded random graded
    automorphism, one Polynomial per variable.

    On each factor, every block of equal-weight variables gets a random
    invertible matrix over F_p, and each variable y that has lighter
    variables in its factor also gets y -> y + g, with g a random form of
    y's weight in those lighter variables (a triangular, so invertible,
    change).  Then each pair of factors with equal weights is swapped with
    probability one half.
    """
    vset = space.variable_set
    starts = list(itertools.accumulate([0] + [len(fac.names) for fac in space.factors]))
    images = [None] * vset.n
    for fac, start in zip(space.factors, starts):
        index = range(start, start + len(fac.names))
        for w in sorted(set(fac.weights)):
            block = [i for i in index if fac.weights[i - start] == w]
            matrix = [[rng.randrange(p) for _ in block] for _ in block]
            while not _is_invertible(matrix, p):
                matrix = [[rng.randrange(p) for _ in block] for _ in block]
            lighter = {i for i in index if fac.weights[i - start] < w}
            pool = [m for m in monomials_of_degree(vset, vset.weights[block[0]])
                    if all(i in lighter for i, e in enumerate(m) if e)]
            for row, i in zip(matrix, block):
                terms = {}
                for c, k in zip(row, block):
                    terms[tuple(int(j == k) for j in range(vset.n))] = c
                for m in rng.sample(pool, min(len(pool), rng.randint(1, 4))):
                    terms[m] = rng.randrange(1, p)
                images[i] = Polynomial(p, vset, terms)
    for a, b in itertools.combinations(range(len(space.factors)), 2):
        if space.factors[a].weights == space.factors[b].weights and rng.random() < 0.5:
            for i in range(len(space.factors[a].names)):
                ia, ib = starts[a] + i, starts[b] + i
                images[ia], images[ib] = images[ib], images[ia]
    return images


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


def ref_pow_mod_frobenius(f: Polynomial, e: int, q: int) -> Polynomial:
    """Oracle for pow_mod_frobenius, one multiplication by f per step.

    In the q-box f^q is the constant term c of f, so this forms
    c^(e // q) * f^(e mod q): it multiplies by the terms of f inside the box
    e mod q times, drops every product with an exponent >= q as it is formed
    and stops at the first zero product.
    """
    p, n = f.p, f.vars.n
    hi, lo = divmod(e, q)
    c = pow(f.terms.get((0,) * n, 0), hi, p)
    factor = [(m, a) for m, a in f.terms.items() if max(m) < q]
    acc = {(0,) * n: c} if c else {}
    for _ in range(lo):
        if not acc:
            break
        out = {}
        for mb, cb in factor:
            for ma, ca in acc.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                if max(m) < q:
                    out[m] = (out.get(m, 0) + ca * cb) % p
        acc = {m: c for m, c in out.items() if c}
    return Polynomial(f.field, f.vars, acc)


def ref_layers(items, nvars: int, p: int, top: int, q: int | None = None) -> list:
    """Oracle for the layer kernel, by Polynomial arithmetic.

    ``items`` are (exponent tuple m, a, J) with J < p.  Entry k of the list
    is the count-k part of prod_t sum_{j <= J_t} (a_t m_t)^j / j! mod p, for
    k = 0..top, as a dict of its nonzero terms; with ``q``, a term with an
    exponent >= q is left out.  The count is the exponent of one more
    variable; after each factor the product drops its terms of count past
    top, which generate an ideal and so change no term that is kept.
    """
    vs = VariableSet.unit(",".join([f"x{i}" for i in range(nvars)] + ["count"]))
    product = Polynomial.constant(p, vs, 1)
    for m, a, jmax in items:
        factor = {tuple(j * e for e in m) + (j,): a ** j * pow(math.factorial(j), -1, p)
                  for j in range(jmax + 1)}
        product = product * Polynomial(p, vs, factor)
        product = Polynomial(p, vs, {mono: c for mono, c in product.terms.items()
                                     if mono[-1] <= top})
    layers = [{} for _ in range(top + 1)]
    for mono, c in product.terms.items():
        if q is None or max(mono[:-1], default=0) < q:
            layers[mono[-1]][mono[:-1]] = c
    return layers


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


def count_zeros(f: Polynomial) -> int:
    """#{x in F_p^N : f(x) = 0}, by evaluating f at every point of F_p^N."""
    p = f.p
    terms = [(c, [[pow(x, e, p) for x in range(p)] for e in mono])
             for mono, c in f.terms.items()]
    zeros = 0
    for point in itertools.product(range(p), repeat=f.vars.n):
        value = 0
        for c, tables in terms:
            for table, x in zip(tables, point):
                c *= table[x]
            value += c
        zeros += value % p == 0
    return zeros


def gf_sub(gf: GF, a: int, b: int) -> int:
    """a - b from GF's tables: -1 is p - 1 in the prime subfield."""
    return gf._add[a][gf.mul(gf.p - 1, b)]


def gf_pow(gf: GF, a: int, e: int) -> int:
    """a^e for e >= 0, by repeated multiplication."""
    r = 1
    for _ in range(e):
        r = gf.mul(r, a)
    return r


def poly_eval(f: Polynomial, point, gf: GF) -> int:
    """Evaluate a mod-p polynomial at a point with GF(p^k) coordinates."""
    if gf.p != f.p:
        raise ValueError("field characteristic mismatch")
    if len(point) != f.vars.n:
        raise ValueError("point arity mismatch")
    total = 0
    for mono, coeff in f.terms.items():
        v = coeff % gf.p  # prime subfield embeds as 0..p-1
        for x, e in zip(point, mono):
            if e:
                v = gf.mul(v, gf_pow(gf, x, e))
        total = gf._add[total][v]
    return total


def partial(f: Polynomial, name: str) -> Polynomial:
    """Formal partial derivative of f in the variable ``name``, on exponent
    tuples."""
    i = f.vars.index(name)
    out = {}
    for m, c in f.terms.items():
        if m[i]:
            lowered = m[:i] + (m[i] - 1,) + m[i + 1:]
            out[lowered] = out.get(lowered, 0) + c * m[i]
    return Polynomial(f.field, f.vars, out)


def jacobian_generators(f: Polynomial) -> list:
    """f, then its partial in each variable in order: the generators of the
    Jacobian ideal, as tuple-keyed polynomials."""
    return [f] + [partial(f, name) for name in f.vars.names]


def cone_singular_point_search(variety, qs):
    """Exhaustive search for a cone point (each factor block nonzero) where
    f and every partial derivative vanish simultaneously; None if absent."""
    polys = jacobian_generators(variety.f)
    sizes = [len(fac.names) for fac in variety.space.factors]
    for q in qs:
        gf = GF(q)
        blocks = []
        for size in sizes:
            blocks.append([v for v in itertools.product(gf.elements, repeat=size)
                           if any(v)])
        for combo in itertools.product(*blocks):
            point = tuple(x for block in combo for x in block)
            if all(poly_eval(g, point, gf) == 0 for g in polys):
                return point
    return None


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


# ---------------------------------------------------------------------------
# names and tokens
# ---------------------------------------------------------------------------

def ref_tokenize(text: str) -> list:
    """The lexer one character at a time, as (kind, text, pos) triples:
    decimal runs are ints, a letter or '_' starts an identifier that runs
    over letters, digits, numerics and '_', whitespace is skipped, and any
    other character but an operator is a ParseError at its position."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            out.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("ident", text[i:j], i))
            i = j
            continue
        if ch in "+-*^(),":
            out.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(("end", "", n))
    return out


def ref_parse_poly(text: str, variables: VariableSet, p: int) -> Polynomial:
    """The recursive-descent polynomial parser over :func:`ref_tokenize`,
    one helper per grammar rule and a cursor that never passes "end"."""
    tokens = ref_tokenize(text)
    at = [0]

    def cur():
        return tokens[at[0]]

    def advance():
        tok = cur()
        if tok[0] != "end":
            at[0] += 1
        return tok

    def accept_op(ch):
        if cur()[:2] == ("op", ch):
            advance()
            return True
        return False

    def factor():
        kind, word, pos = cur()
        if kind != "ident":
            raise ParseError("expected a variable name", pos)
        advance()
        if word not in variables.names:
            raise ParseError(f"unknown variable {word!r}", pos)
        e = 1
        if accept_op("^"):
            ekind, digits, epos = cur()
            if ekind != "int":
                raise ParseError("expected an exponent", epos)
            advance()
            e = int(digits)
            if e >= EXPONENT_LIMIT:
                raise ParseError(f"exponent {e} exceeds the cap {EXPONENT_LIMIT}", pos)
        return variables.names.index(word), e

    def term():
        kind, word, pos = cur()
        coeff = 1
        exps = [0] * variables.n
        if kind == "int":
            advance()
            coeff = int(word) % p
        elif kind != "ident":
            raise ParseError("expected a term", pos)
        while accept_op("*") or cur()[0] == "ident":
            idx, e = factor()
            exps[idx] += e
        if any(e >= EXPONENT_LIMIT for e in exps):
            raise ParseError(f"exponent cap {EXPONENT_LIMIT} exceeded", pos)
        return coeff, tuple(exps)

    terms = {}
    sign = -1 if accept_op("-") else 1
    while True:
        coeff, mono = term()
        terms[mono] = terms.get(mono, 0) + sign * coeff
        kind, word, pos = cur()
        if kind == "op" and word in "+-":
            sign = 1 if word == "+" else -1
            advance()
            continue
        if kind == "end":
            break
        raise ParseError(f"unexpected {word!r}", pos)
    return Polynomial(p, variables, terms)


def ref_is_variable_name(name) -> bool:
    """Whether the whole of ``name`` lexes as one identifier token."""
    if not isinstance(name, str):
        return False
    try:
        tokens = ref_tokenize(name)
    except ParseError:
        return False
    return len(tokens) == 2 and tokens[0] == ("ident", name, 0)


# ---------------------------------------------------------------------------
# reference Buchberger on exponent tuples
# ---------------------------------------------------------------------------
#
# The tuple-keyed Buchberger loop the packed kernel in fanocheck.ideals
# replaced, kept as a differential oracle: same selection strategy, same
# criteria, same stop predicate, so the bases must agree term for term.

def ref_grevlex_key(mono):
    return (sum(mono), tuple(-e for e in reversed(mono)))


def _ref_mono_mul(a, b):
    out = tuple(x + y for x, y in zip(a, b))
    if any(e >= EXPONENT_LIMIT for e in out):
        raise ExponentOverflowError(f"exponent cap {EXPONENT_LIMIT} exceeded in {out}")
    return out


def _ref_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _ref_div(b, a):
    return tuple(y - x for x, y in zip(a, b))


def _ref_sub_scaled(f, g, mono, coeff, p):
    for m, c in g.items():
        t = _ref_mono_mul(m, mono)
        v = (f.get(t, 0) - coeff * c) % p
        if v:
            f[t] = v
        elif t in f:
            del f[t]


def ref_normal_form_raw(f, basis, p, key):
    h = dict(f)
    r = {}
    while h:
        m = max(h, key=key)
        c = h[m]
        for lm_g, g in basis:
            if _ref_divides(lm_g, m):
                _ref_sub_scaled(h, g, _ref_div(m, lm_g), c, p)
                break
        else:
            r[m] = c
            del h[m]
    return r


def _ref_monic(f, p, key):
    inv = pow(f[max(f, key=key)], -1, p)
    return {m: (c * inv) % p for m, c in f.items()}


def _ref_is_constant(f):
    return len(f) == 1 and not any(next(iter(f)))


def ref_buchberger_raw(gens, nvars, p, key, stop=None):
    """Reduced basis of tuple-keyed dicts: monic, by increasing leading monomial."""
    one = [{(0,) * nvars: 1}]
    basis = []
    lms = []
    for g in gens:
        if not g:
            continue
        if _ref_is_constant(g):
            return one
        basis.append(_ref_monic(g, p, key))
        lms.append(max(g, key=key))
        if stop is not None and stop(lms[-1]):
            return None
    if not basis:
        return []
    pending = set()
    queue = []

    def add_pair(i, j):
        lij = tuple(map(max, lms[i], lms[j]))
        pending.add((i, j))
        heapq.heappush(queue, (key(lij), (i, j), lij))

    for j in range(1, len(basis)):
        for i in range(j):
            add_pair(i, j)
    while queue:
        _, pair, lij = heapq.heappop(queue)
        pending.discard(pair)
        i, j = pair
        if lij == _ref_mono_mul(lms[i], lms[j]):
            continue
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not _ref_divides(lms[k], lij):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pending and b not in pending:
                skip = True
                break
        if skip:
            continue
        s = {}
        _ref_sub_scaled(s, basis[i], _ref_div(lij, lms[i]), p - 1, p)
        _ref_sub_scaled(s, basis[j], _ref_div(lij, lms[j]), 1, p)
        s = ref_normal_form_raw(s, list(zip(lms, basis)), p, key)
        if not s:
            continue
        if _ref_is_constant(s):
            return one
        s = _ref_monic(s, p, key)
        basis.append(s)
        lms.append(max(s, key=key))
        if stop is not None and stop(lms[-1]):
            return None
        t = len(basis) - 1
        for i2 in range(t):
            add_pair(i2, t)
    keep = []
    for i, lm_i in enumerate(lms):
        if not any(j != i and _ref_divides(lm_j, lm_i) and (lm_j != lm_i or j < i)
                   for j, lm_j in enumerate(lms)):
            keep.append(basis[i])
    reduced = []
    for i, g in enumerate(keep):
        others = [(max(h, key=key), h) for j, h in enumerate(keep) if j != i]
        r = ref_normal_form_raw(g, others, p, key)
        if r:
            reduced.append(_ref_monic(r, p, key))
    reduced.sort(key=lambda g: key(max(g, key=key)))
    return reduced


def ref_localized_is_unit(gens, g) -> bool:
    """1 in (gens) + (t*g - 1), t in slot 0, on the reference loop."""
    p, n = g.p, g.vars.n
    ext = [{(0,) + m: c for m, c in f.terms.items()} for f in gens if not f.is_zero]
    rab = {(1,) + m: c for m, c in g.terms.items()}
    one = (0,) * (n + 1)
    rab[one] = (rab.get(one, 0) - 1) % p
    ext.append({m: c for m, c in rab.items() if c})
    basis = ref_buchberger_raw(ext, n + 1, p, ref_grevlex_key)
    return len(basis) == 1 and _ref_is_constant(basis[0])


def ref_chart_is_unit(gens, chart) -> bool:
    """1 in (gens) + (x_i - 1 : i in ``chart``), on the reference loop: each
    generator with the chart's exponents set to 0 and the coefficients that
    meet on one monomial summed mod p."""
    p, n = gens[0].p, gens[0].vars.n
    dehomogenized = []
    for g in gens:
        d = {}
        for m, c in g.terms.items():
            k = tuple(0 if i in chart else e for i, e in enumerate(m))
            d[k] = (d.get(k, 0) + c) % p
        dehomogenized.append({k: c for k, c in d.items() if c})
    basis = ref_buchberger_raw(dehomogenized, n, p, ref_grevlex_key)
    return len(basis) == 1 and _ref_is_constant(basis[0])


# ---------------------------------------------------------------------------
# reference ambient singular strata
# ---------------------------------------------------------------------------

def _ref_primes(n: int) -> set:
    """The primes dividing n, by trial division."""
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def ref_ambient_singular_strata(space) -> list:
    """The maximal strata {i : ell | w_i} of each factor over the primes ell
    of its weights, each weight factored by trial division; sorted."""
    strata = set()
    for fac in space.factors:
        for ell in set().union(*map(_ref_primes, fac.weights)):
            strata.add(tuple(name for name, w in zip(fac.names, fac.weights)
                             if w % ell == 0))
    return sorted(s for s in strata if not any(set(s) < set(o) for o in strata))


# ---------------------------------------------------------------------------
# reference Picard-class search
# ---------------------------------------------------------------------------
#
# The plain positional walk over m_i in [-1, hi]^r that the pruned search in
# fanocheck.delpezzo replaced, pruned only by the sum bound, with every
# degree 0..d_max visited: a differential oracle for the exact list.

def exceptional_basis(r: int) -> list:
    """The blow-up classes E_1, ..., E_r of Pic of the plane blown up in r
    points: degree 0, multiplicity -1 at one point."""
    return [LatticeClass(0, tuple(-1 if j == i else 0 for j in range(r)))
            for i in range(r)]


def ref_dot(a, b) -> int:
    """The intersection pairing d d' - sum m_i m'_i, as a generator sum."""
    return a.d * b.d - sum(x * y for x, y in zip(a.m, b.m))


def ref_langer_summary() -> str:
    """corpus.langer_summary's text from ref_enumerate_classes, ref_dot and
    the seven lines of P^2(F_2): the points are the nonzero vectors of
    F_2^3 as 3-bit ints, and {a, b, a xor b} is the line through a and b."""
    exceptional = ref_enumerate_classes(7, -1, -1, 3)
    points = range(1, 8)
    lines = {frozenset((a, b, a ^ b)) for a in points for b in points if a < b}
    neg2 = [LatticeClass(1, tuple(int(pt in line) for pt in points)) for line in lines]
    compatible = sum(1 for c in exceptional if all(ref_dot(c, n) >= 0 for n in neg2))
    disjoint = all(ref_dot(a, b) == 0 for a, b in itertools.combinations(neg2, 2))
    return (f"(-1)-classes: {len(exceptional)}; compatible: {compatible}; "
            f"(-2)-classes: {len(neg2)}; disjoint: {'yes' if disjoint else 'no'}")


def ref_enumerate_classes(r, self_int, k_deg, d_max):
    out = []
    for d in range(0, d_max + 1):
        target_sum = k_deg + 3 * d
        target_sq = d * d - self_int
        if target_sq < 0:
            continue
        hi = math.isqrt(target_sq)

        def rec(i, remaining_sum, remaining_sq, acc):
            if i == r:
                if remaining_sum == 0 and remaining_sq == 0:
                    out.append(LatticeClass(d, tuple(acc)))
                return
            slots = r - i
            for v in range(-1, hi + 1):
                sq = remaining_sq - v * v
                if sq < 0:
                    continue
                s = remaining_sum - v
                # each later slot contributes at least -1 and at most hi
                if s < -slots + 1 or s > (slots - 1) * hi:
                    continue
                acc.append(v)
                rec(i + 1, s, sq, acc)
                acc.pop()

        rec(0, target_sum, target_sq, [])
    out.sort(key=lambda c: (c.d, c.m))
    return out


# ---------------------------------------------------------------------------
# reference Chow ring on exponent tuples
# ---------------------------------------------------------------------------
#
# The tuple-keyed multiply and reduction loops that the packed ring in
# fanocheck.chow replaced, kept as a differential oracle.  The xi rule keeps
# its terms outside the h-box; reduction skips them as they arise.

class RefIntersectionRing:
    """Chow ring of prod P^(dims), or of P(sum O(a_j)) over it, on tuple dicts."""

    def __init__(self, dims, twists=None):
        self.dims = tuple(dims)
        self.k = len(self.dims)
        self.rank = len(twists) if twists else 0
        self.ngens = self.k + (1 if twists else 0)
        self.top = self.dims + ((self.rank - 1,) if twists else ())
        self.xi_rule = self._build_xi_rule(twists) if twists else None

    def one(self) -> dict:
        return {(0,) * self.ngens: 1}

    def generator(self, i: int) -> dict:
        return {tuple(int(j == i) for j in range(self.ngens)): 1}

    def class_element(self, h, xi=0) -> dict:
        out = {}
        for i, c in enumerate(tuple(h) + ((xi,) if self.rank else ())):
            if c:
                out.update(self.scale(self.generator(i), c))
        return out

    def _build_xi_rule(self, twists) -> dict:
        rel = self.one()
        for twist in twists:
            lin = self.generator(self.k)
            for c, a in enumerate(twist):
                if a:
                    lin.update(self.scale(self.generator(c), -a))
            rel = self.raw_mul(rel, lin)
        assert rel.pop((0,) * self.k + (self.rank,)) == 1
        return {m: -c for m, c in rel.items()}

    @staticmethod
    def raw_mul(a: dict, b: dict) -> dict:
        out = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                v = out.get(m, 0) + ca * cb
                if v:
                    out[m] = v
                elif m in out:
                    del out[m]
        return out

    def reduce(self, el: dict) -> dict:
        cur = {m: c for m, c in el.items()
               if all(e <= n for e, n in zip(m, self.dims))}
        if self.xi_rule is None:
            return {m: c for m, c in cur.items() if c}
        r = self.rank
        while True:
            high = [m for m in cur if m[-1] >= r]
            if not high:
                return {m: c for m, c in cur.items() if c}
            for m in high:
                # an earlier rewrite in this pass may have cancelled m
                c = cur.pop(m, 0)
                lowered = m[:-1] + (m[-1] - r,)
                for rm, rc in self.xi_rule.items():
                    t = tuple(x + y for x, y in zip(lowered, rm))
                    if any(e > n for e, n in zip(t, self.dims)):
                        continue
                    v = cur.get(t, 0) + c * rc
                    if v:
                        cur[t] = v
                    elif t in cur:
                        del cur[t]

    def mul(self, a: dict, b: dict) -> dict:
        return self.reduce(self.raw_mul(a, b))

    @staticmethod
    def add(a: dict, b: dict) -> dict:
        out = dict(a)
        for m, c in b.items():
            out[m] = out.get(m, 0) + c
        return {m: c for m, c in out.items() if c}

    @staticmethod
    def scale(a: dict, c: int) -> dict:
        return {m: c * v for m, v in a.items()} if c else {}

    def power(self, a: dict, e: int) -> dict:
        out = self.one()
        for _ in range(e):
            out = self.mul(out, a)
        return out

    def degree(self, el: dict) -> int:
        return self.reduce(el).get(self.top, 0)


# ---------------------------------------------------------------------------
# reference class-expression parser
# ---------------------------------------------------------------------------
#
# The recursive-descent class-expression parser that fanocheck.chow replaced
# by an index walk, on a token cursor that never passes "end": same grammar,
# same nesting cap, same ParseError messages and positions.

_RefToken = namedtuple("_RefToken", "kind text pos")


class _RefExprParser:
    def __init__(self, ring, tokens):
        self.tokens = [_RefToken(*tok) for tok in tokens]
        self.i = 0
        self.ring = ring
        self.depth = 0

    @property
    def cur(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def accept_op(self, ch):
        if self.cur.kind == "op" and self.cur.text == ch:
            self.advance()
            return True
        return False

    def expect(self, ch):
        if not self.accept_op(ch):
            raise ParseError(f"expected {ch!r}", self.cur.pos)

    def parse(self):
        el = self.expr()
        if self.cur.kind != "end":
            raise ParseError(f"unexpected {self.cur.text!r}", self.cur.pos)
        return el

    def expr(self):
        el = self.term()
        while True:
            if self.accept_op("+"):
                el = self.ring.add(el, self.term())
            elif self.accept_op("-"):
                el = self.ring.add(el, self.ring.scale(self.term(), -1))
            else:
                return el

    def _starts_factor(self):
        tok = self.cur
        return tok.kind in ("int", "ident") or (tok.kind == "op" and tok.text == "(")

    def term(self):
        el = self.factor()
        while True:
            if self.accept_op("*") or self._starts_factor():
                el = self.ring._mul(el, self.factor())
            else:
                return el

    def factor(self):
        if self.depth == MAX_NESTING:
            raise ParseError("expression nested too deeply", self.cur.pos)
        self.depth += 1
        el = self._factor()
        self.depth -= 1
        return el

    def _factor(self):
        tok = self.cur
        if self.accept_op("-"):
            return self.ring.scale(self.factor(), -1)
        if tok.kind == "int":
            self.advance()
            return self.ring.scale({0: 1}, int(tok.text))
        if self.accept_op("("):
            el = self.expr()
            self.expect(")")
            return self._maybe_power(el)
        if tok.kind == "ident":
            self.advance()
            if tok.text == "deg":
                self.expect("(")
                el = self.expr()
                self.expect(")")
                return self.ring.scale({0: 1}, el.get(self.ring._top, 0))
            if tok.text == "K":
                return self._maybe_power(self.ring._class(canonical_class(self.ring)))
            if tok.text == "xi":
                if not self.ring.bundle:
                    raise ParseError("xi needs a bundle ring", tok.pos)
                return self._maybe_power({self.ring._order.units[-1]: 1})
            names = [f"h{i + 1}" for i in range(self.ring.k)]
            if tok.text in names:
                i = names.index(tok.text)
                return self._maybe_power({self.ring._order.units[i]: 1})
            raise ParseError(f"unknown symbol {tok.text!r}", tok.pos)
        raise ParseError("expected a class expression", tok.pos)

    def _maybe_power(self, el):
        if self.accept_op("^"):
            tok = self.cur
            if tok.kind != "int":
                raise ParseError("expected an exponent", tok.pos)
            self.advance()
            e = int(tok.text)
            ring = self.ring
            c = el.get(0, 0)
            n = {m: v for m, v in el.items() if m}
            out, n_k = {}, {0: 1}
            for k in range(e + 1):
                if k:
                    n_k = ring._mul(n_k, n)
                    if not n_k:
                        break
                out = ring.add(out, ring.scale(n_k, math.comb(e, k) * c ** (e - k)))
            return out
        return el


def ref_evaluate_expression(ring, text: str) -> dict:
    """A class expression as the reduced element of an IntersectionRing,
    by the cursor parser above over fanocheck.poly.tokenize."""
    return ring._unpack(_RefExprParser(ring, tokenize(text)).parse())


# ---------------------------------------------------------------------------
# reference field tables
# ---------------------------------------------------------------------------
#
# GF(p^k) tables by polynomial arithmetic on base-p digit vectors, one entry
# at a time: the construction smallfields.GF replaced by row composition.

def ref_gf_tables(q: int):
    """(add, mul, neg, inv) for GF(q), each entry from coefficient lists."""
    p, k = _factor_prime_power(q)
    modulus = _IRREDUCIBLE.get((p, k))

    def coeffs(a):
        return [a // p ** i % p for i in range(k)]

    def encode(cs):
        return sum((c % p) * p ** i for i, c in enumerate(cs[:k]))

    def reduce(cs):
        cs = [c % p for c in cs]
        for i in range(len(cs) - 1, k - 1, -1):
            c = cs[i]
            if c:
                for j in range(k):
                    cs[i - k + j] = (cs[i - k + j] - c * modulus[j]) % p
                cs[i] = 0
        return cs[:k]

    cs = [coeffs(a) for a in range(q)]
    add = [[encode([x + y for x, y in zip(ca, cb)]) for cb in cs] for ca in cs]
    mul = []
    for ca in cs:
        row = []
        for cb in cs:
            prod = [0] * (2 * k)
            for i, x in enumerate(ca):
                for j, y in enumerate(cb):
                    prod[i + j] += x * y
            row.append(encode(reduce(prod)))
        mul.append(row)
    neg = [encode([-c for c in ca]) for ca in cs]
    inv = [0] + [next(b for b in range(1, q) if mul[a][b] == 1) for a in range(1, q)]
    return add, mul, neg, inv


# ---------------------------------------------------------------------------
# reference PGL_3 orbit search
# ---------------------------------------------------------------------------
#
# The search over every ordered pair of points that the richest-line search
# in fanocheck.delpezzo replaced, with the pair matrix applied point by
# point through GF's methods: a differential oracle for (S*, orbit size) at
# q beyond the reach of the whole-group brute force, which sits here too.

def _ref_normalize(point, gf):
    c = next(c for c in point if c)
    inv = gf.inv(c)
    return tuple(gf.mul(inv, x) for x in point)


def _ref_apply(matrix, point, gf):
    return _ref_normalize(tuple(
        gf._add[gf._add[gf.mul(row[0], point[0])][gf.mul(row[1], point[1])]][
            gf.mul(row[2], point[2])]
        for row in matrix), gf)


def _ref_cross(u, v, gf):
    return tuple(gf_sub(gf, gf.mul(u[i], v[j]), gf.mul(u[j], v[i]))
                 for i, j in ((1, 2), (2, 0), (0, 1)))


def _ref_pair_to_axes(c1, c2, gf):
    """A matrix sending c1 to (0,0,1) and c2 to (0,1,0): the adjugate of the
    matrix with columns (c3, c2, c1), c3 the first basis vector off c1c2."""
    line = _ref_cross(c2, c1, gf)
    i = next(k for k, x in enumerate(line) if x)
    c3 = tuple(int(k == i) for k in range(3))
    return line, _ref_cross(c1, c3, gf), _ref_cross(c3, c2, gf)


@lru_cache(maxsize=None)
def pgl3_elements(q: int) -> tuple:
    """One matrix per element of PGL_3(F_q), first nonzero entry scaled to 1.

    The whole-group brute force behind ``pgl_orbit_canonical``'s checks:
    60,480 matrices at q = 4.  Rows are built left to right avoiding the
    span of earlier rows, and the first row is taken projectively, which
    hits each coset exactly once.
    """
    pgl3_order(q)  # rejects q > 8
    gf = GF(q)
    zero = (0, 0, 0)
    vectors = [(a, b, c) for a in gf.elements for b in gf.elements
               for c in gf.elements if (a, b, c) != zero]
    first_rows = sorted({_ref_normalize(v, gf) for v in vectors})
    out = []
    for r1 in first_rows:
        span1 = {tuple(gf.mul(a, x) for x in r1) for a in gf.elements}
        for r2 in vectors:
            if r2 in span1:
                continue
            span2 = {tuple(gf._add[gf.mul(a, x)][gf.mul(b, y)] for x, y in zip(r1, r2))
                     for a in gf.elements for b in gf.elements}
            for r3 in vectors:
                if r3 not in span2:
                    out.append((r1, r2, r3))
    return tuple(out)


def ref_pgl_orbit_canonical(config):
    """Least image and orbit size from the cosets of every ordered pair.

    Each ordered pair (c1, c2) gives the coset of matrices sending it to
    (0,0,1), (0,1,0); the two-point stabilizer [[1,0,0],[b,mu,0],[c,0,lam]]
    runs over it.  Only translations moving an affine point to (1,0,0) are
    tried.  Needs 2 <= |C| < q^2 + q + 1.
    """
    q = config.q
    gf = GF(q)
    units = range(1, q)
    best, hits = None, 0
    for c1, c2 in itertools.permutations(config.points, 2):
        h = _ref_pair_to_axes(c1, c2, gf)
        moved = [_ref_apply(h, pt, gf) for pt in config.points]
        line = [z for x, y, z in moved if not x and y]
        affine = [(y, z) for x, y, z in moved if x]
        for mu in units:
            for lam in units:
                ratio = gf.mul(lam, gf.inv(mu))
                head = ((0, 0, 1),) + tuple(sorted((0, 1, gf.mul(ratio, z)) for z in line))
                scaled = [(gf.mul(mu, y), gf.mul(lam, z)) for y, z in affine]
                if scaled:
                    images = [head + tuple(sorted((1, gf_sub(gf, y, y0), gf_sub(gf, z, z0))
                                                  for y, z in scaled))
                              for y0, z0 in scaled]
                else:
                    images = [head] * (q * q)
                for image in images:
                    if best is None or image < best:
                        best, hits = image, 1
                    elif image == best:
                        hits += 1
    return PointConfig(q, best), pgl3_order(q) // hits


# ---------------------------------------------------------------------------
# closed form for diagonal forms
# ---------------------------------------------------------------------------

def diagonal_fedder(exponents, p: int, names) -> tuple:
    """(status, residue_terms, delta1_terms, witness) for f = sum x_i^(e_i)
    over F_p, x_i named names[i].

    f^(p-1) is the sum over a with sum a_i = p-1 of the multinomial
    (p-1)! / prod a_i!, a unit mod p, times prod x_i^(e_i a_i); a term
    survives the box (x_i^p) iff e_i a_i <= p-1 for every i.  So
    residue_terms counts those a, and f is F-split iff some a exists, that
    is iff sum floor((p-1)/e_i) >= p-1.  The witness is the grevlex-leading
    surviving x^(e a), printed as x^e factors joined by '*', or None.  The
    carry (f^p - sum x_i^(p e_i))/p has the unit coefficient
    p!/(p prod a_i!) on every a with sum a_i = p other than the t pure
    powers: C(p+t-1, t-1) - t terms.
    """
    t = len(exponents)
    survivors = [
        tuple(e * k for e, k in zip(exponents, a))
        for a in itertools.product(*(range((p - 1) // e + 1) for e in exponents))
        if sum(a) == p - 1]
    split = sum((p - 1) // e for e in exponents) >= p - 1
    assert split == bool(survivors)
    status = "FSplit" if split else "NotFSplit"
    witness = None
    if survivors:
        lead = max(survivors, key=ref_grevlex_key)
        witness = "*".join(name if e == 1 else f"{name}^{e}"
                           for name, e in zip(names, lead) if e)
    return status, len(survivors), math.comb(p + t - 1, t - 1) - t, witness


# ---------------------------------------------------------------------------
# Hilbert counts of the Jacobian ideal by rank (Macaulay), no Groebner basis
# ---------------------------------------------------------------------------

def rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of sparse rows, each a dict column -> value, by plain
    elimination on the lowest column."""
    pivots = {}  # column -> row with a leading 1 there
    for row in rows:
        row = {k: v % p for k, v in row.items() if v % p}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {k: v * inv % p for k, v in row.items()}
                break
            scale = row[lead]
            for k, v in pivot.items():
                value = (row.get(k, 0) - scale * v) % p
                if value:
                    row[k] = value
                else:
                    row.pop(k, None)
    return len(pivots)


def jacobian_hilbert_counts(f: Polynomial, top: int) -> list:
    """dim (R/J)_t for t = 0..top, J the ideal of f's partials, for f
    weighted-homogeneous on one grading: dim R_t less the rank over F_p of
    the matrix whose rows are the products x^s * df/dx_i of degree t."""
    vs = f.vars
    degree = sum(e * w for e, (w,) in zip(next(iter(f.terms)), vs.weights))
    partials = [(partial(f, name), degree - w) for name, (w,) in zip(vs.names, vs.weights)]
    counts = []
    for t in range(top + 1):
        columns = {m: k for k, m in enumerate(monomials_of_degree(vs, t))}
        rows = [{columns[tuple(map(sum, zip(m, s)))]: c for m, c in g.terms.items()}
                for g, d in partials if not g.is_zero and t >= d
                for s in monomials_of_degree(vs, t - d)]
        counts.append(len(columns) - rank_mod_p(rows, f.p))
    return counts


def complete_intersection_counts(degree: int, weights, top: int) -> list:
    """c_t for t = 0..top, the coefficients of
    prod_i (1 - s^(degree - w_i)) / prod_i (1 - s^(w_i)): the Hilbert
    function of R/J when the partials form a regular sequence."""
    series = [1] + [0] * top
    for w in weights:
        e = degree - w
        series = [c - (series[t - e] if t >= e else 0) for t, c in enumerate(series)]
    for w in weights:
        for t in range(w, top + 1):
            series[t] += series[t - w]
    return series
