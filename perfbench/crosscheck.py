"""Independent checks of the stored references, by methods that are not fanocheck.

Used once, when ``make_refs.py`` builds the references; never in a timed
run.  sympy supplies the algebra (Groebner bases mod p, polynomial powers);
the point search, PGL_3 orbit enumeration, lattice enumeration and finite
field tables are written here from scratch.
"""

from __future__ import annotations

import itertools
import math

import sympy
from sympy import GF as SGF, Poly, groebner, symbols


# --------------------------------------------------------------------------
# splitting: residues and Witt carries with sympy polynomials
# --------------------------------------------------------------------------

def _grevlex_key(mono):
    return (sum(mono), tuple(-e for e in reversed(mono)))


def _mono_str(names, mono):
    parts = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, mono) if e]
    return "*".join(parts) if parts else "1"


def _poly(spec, domain):
    gens = symbols(" ".join(spec["vars"]))
    expr = sympy.sympify(spec["poly"].replace("^", "**"),
                         locals={str(g): g for g in gens})
    return Poly(expr, *gens, domain=domain), gens


def _boxed(poly_dict, q):
    return {m: c for m, c in poly_dict.items() if all(e < q for e in m)}


def _mod_terms(d, p):
    return {m: int(c) % p for m, c in d.items() if int(c) % p}


def _box_pow(f, e, q, p):
    """f**e modulo (x_i^q) and p, multiplying step by step with truncation."""
    result = {(0,) * len(f.gens): 1}
    base = _mod_terms(_boxed(f.as_dict(), q), p)
    for _ in range(e):
        out = {}
        for ma, ca in result.items():
            for mb, cb in base.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                if all(x < q for x in m):
                    out[m] = (out.get(m, 0) + ca * cb) % p
        result = {m: c for m, c in out.items() if c}
    return result


def witt_carry(spec) -> dict:
    """((sum of lifted terms)^p - sum of their p-th powers) / p, mod p."""
    p = spec["p"]
    f, gens = _poly(spec, sympy.ZZ)
    lifted = Poly({m: int(c) % p for m, c in f.as_dict().items()}, *gens, domain=sympy.ZZ)
    total = lifted ** p
    for m, c in lifted.as_dict().items():
        total -= Poly({tuple(e * p for e in m): int(c) ** p}, *gens, domain=sympy.ZZ)
    out = {}
    for m, c in total.as_dict().items():
        c = int(c)
        if c % p:
            raise AssertionError("Witt carry division not exact")
        if (c // p) % p:
            out[m] = (c // p) % p
    return out


def check_split_row(spec, ref) -> str:
    p = spec["p"]
    f, _ = _poly(spec, SGF(p))
    residue = _box_pow(f, p - 1, p, p)
    carry = witt_carry(spec)
    weights = spec["weights"]
    got = {
        "status": "FSplit" if residue else "NotFSplit",
        "witness": _mono_str(spec["vars"], max(residue, key=_grevlex_key)) if residue else None,
        "residue_terms": len(residue),
        "delta1_terms": len(carry),
        "delta1_degree": ([sum(e * w for e, w in zip(next(iter(carry)), weights))]
                          if carry else None),
    }
    return "ok" if got == ref else f"MISMATCH {got} != {ref}"


def check_probe(spec, terms: dict) -> str:
    """Compare fanocheck's probe polynomial (as a term dict) with sympy's."""
    p = spec["p"]
    a, b, s = spec["probe"]
    q = p ** s
    f, gens = _poly(spec, SGF(p))
    fa = _box_pow(f, a, q, p)
    carry = Poly(witt_carry(spec) or {(0,) * len(gens): 0}, *gens, domain=SGF(p))
    db = _box_pow(carry, b, q, p)
    prod = {}
    for ma, ca in fa.items():
        for mb, cb in db.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            if all(x < q for x in m):
                prod[m] = (prod.get(m, 0) + ca * cb) % p
    prod = {m: c for m, c in prod.items() if c}
    return "ok" if prod == terms else f"MISMATCH {len(prod)} terms != {len(terms)}"


# --------------------------------------------------------------------------
# smoothness: sympy Groebner bases of the chart ideals, and point search
# --------------------------------------------------------------------------

def _factors(spec):
    """Variable-name groups and weights per factor of the ambient string."""
    groups = []
    pos = 0
    for part in spec["ambient"].split("x"):
        ws = [int(v) for v in part.strip()[2:-1].split(",")]
        groups.append((tuple(spec["vars"][pos:pos + len(ws)]), tuple(ws)))
        pos += len(ws)
    return groups


def _stratum_points(groups):
    """Single-variable ambient quotient singular points, per factor."""
    points = []
    for names, ws in groups:
        primes = {d for w in ws for d in sympy.primefactors(w)}
        subsets = {tuple(n for n, w in zip(names, ws) if w % ell == 0) for ell in primes}
        for members in subsets:
            if any(members != other and set(members) < set(other) for other in subsets):
                continue
            if len(members) != 1:
                raise AssertionError("positive-dimensional stratum")
            points.append(members[0])
    return points


def smoothness(spec) -> str:
    """Verdict from sympy Groebner bases of (f, df, t*g - 1) for every chart."""
    p = spec["p"]
    gens = symbols(" ".join(spec["vars"]))
    t = symbols("t_rab")
    f = sympy.sympify(spec["poly"].replace("^", "**"), locals={str(g): g for g in gens})
    jac = [f] + [sympy.diff(f, g) for g in gens]
    groups = _factors(spec)
    by_name = dict(zip(spec["vars"], gens))
    for chart in itertools.product(*(names for names, _ in groups)):
        g = sympy.Mul(*(by_name[n] for n in chart))
        basis = groebner([*jac, t * g - 1], *gens, t, modulus=p, order="grevlex")
        if list(basis.exprs) != [1]:
            return "Singular"
    poly = Poly(f, *gens)
    for name in _stratum_points(groups):
        i = spec["vars"].index(name)
        pure = any(m[i] and not any(e for j, e in enumerate(m) if j != i)
                   for m in poly.monoms())
        if not pure:
            return "QuasiSmoothOnly"
    return "Smooth"


class Fq:
    """F_p or F_(p^2) = F_p[u]/(u^2 - r) for a non-residue r, as pairs."""

    def __init__(self, p, k):
        self.p, self.k = p, k
        if k == 2:
            self.r = next(r for r in range(2, p)
                          if pow(r, (p - 1) // 2, p) == p - 1)

    def elements(self):
        if self.k == 1:
            return [(a, 0) for a in range(self.p)]
        return [(a, b) for a in range(self.p) for b in range(self.p)]

    def mul(self, x, y):
        p = self.p
        if self.k == 1:
            return (x[0] * y[0] % p, 0)
        return ((x[0] * y[0] + self.r * x[1] * y[1]) % p,
                (x[0] * y[1] + x[1] * y[0]) % p)

    def add(self, x, y):
        return ((x[0] + y[0]) % self.p, (x[1] + y[1]) % self.p)


def singular_point(spec, k: int, limit: int = 400_000):
    """A point of the punctured cone where f and every partial vanish, or None.

    Searches F_(p^k)-points, one representative per line through the origin
    (first nonzero coordinate 1 in each factor); returns "skipped" when the
    search space is over ``limit`` points.
    """
    p = spec["p"]
    field = Fq(p, k)
    gens = symbols(" ".join(spec["vars"]))
    f = sympy.sympify(spec["poly"].replace("^", "**"), locals={str(g): g for g in gens})
    polys = [Poly(f, *gens)] + [Poly(sympy.diff(f, g), *gens) for g in gens]
    terms = [[(m, (int(c) % p, 0)) for m, c in P.as_dict().items()] for P in polys]
    elems = field.elements()
    one = (1, 0)
    zero = (0, 0)
    groups = [names for names, _ in _factors(spec)]
    size = len(elems)
    if math.prod((size ** len(names) - 1) // (size - 1) for names in groups) > limit:
        return "skipped"
    blocks = []
    for names in groups:
        reps = []
        for vec in itertools.product(elems, repeat=len(names)):
            first = next((v for v in vec if v != zero), None)
            if first == one:
                reps.append(vec)
        blocks.append(reps)
    for parts in itertools.product(*blocks):
        point = sum(parts, ())
        powers = [[one] for _ in point]
        if all(_eval(ts, point, powers, field) == zero for ts in terms):
            return point
    return None


def _eval(terms, point, powers, field):
    total = (0, 0)
    for mono, c in terms:
        v = c
        for i, e in enumerate(mono):
            if e:
                pw = powers[i]
                while len(pw) <= e:
                    pw.append(field.mul(pw[-1], point[i]))
                v = field.mul(v, pw[e])
        total = field.add(total, v)
    return total


# --------------------------------------------------------------------------
# lattices, PGL_3 orbits, Chow degrees
# --------------------------------------------------------------------------

def lattice_classes(r, self_int, k_deg, d_max):
    """(d, m) with d^2 - sum m^2 = self_int, -3d + sum m = k_deg, m_i >= -1."""
    out = []
    for d in range(d_max + 1):
        want_sum, want_sq = k_deg + 3 * d, d * d - self_int
        if want_sq < 0:
            continue
        top = math.isqrt(want_sq)

        def extend(prefix, s, sq):
            if len(prefix) == r:
                if s == want_sum and sq == want_sq:
                    out.append((d, tuple(prefix)))
                return
            for v in range(-1, top + 1):
                if sq + v * v <= want_sq:
                    extend(prefix + [v], s + v, sq + v * v)

        extend([], 0, 0)
    return sorted(out)


def pgl3_order(q):
    return q ** 3 * (q ** 3 - 1) * (q ** 2 - 1)


def _gf_tables(q):
    """Multiplication and addition tables of F_q, q in {2, 3, 4, 5, 7}."""
    if q == 4:
        # elements c0 + 2*c1 stand for c0 + c1*u with u^2 = u + 1
        def mul(a, b):
            a0, a1, b0, b1 = a & 1, a >> 1, b & 1, b >> 1
            c0 = (a0 & b0) ^ (a1 & b1)
            c1 = (a0 & b1) ^ (a1 & b0) ^ (a1 & b1)
            return c0 | (c1 << 1)
        return ([[mul(a, b) for b in range(4)] for a in range(4)],
                [[a ^ b for b in range(4)] for a in range(4)])
    return ([[a * b % q for b in range(q)] for a in range(q)],
            [[(a + b) % q for b in range(q)] for a in range(q)])


def orbit(q, points):
    """(lexicographically least image, orbit size) over all of PGL_3(F_q)."""
    mul, add = _gf_tables(q)
    inv = {a: next(b for b in range(1, q) if mul[a][b] == 1) for a in range(1, q)}

    def normalize(v):
        c = next(x for x in v if x)
        i = inv[c]
        return tuple(mul[i][x] for x in v)

    def det(m):
        (a, b, c), (d, e, f), (g, h, i) = m
        # characteristic-free: compare the positive and negative diagonals
        pos = add[add[mul[mul[a][e]][i]][mul[mul[b][f]][g]]][mul[mul[c][d]][h]]
        neg = add[add[mul[mul[c][e]][g]][mul[mul[a][f]][h]]][mul[mul[b][d]][i]]
        return pos != neg

    rows = [v for v in itertools.product(range(q), repeat=3) if any(v)]
    images = set()
    for r1 in (v for v in rows if next(x for x in v if x) == 1):
        for r2 in rows:
            for r3 in rows:
                m = (r1, r2, r3)
                if not det(m):
                    continue
                img = []
                for pt in points:
                    v = tuple(add[add[mul[row[0]][pt[0]]][mul[row[1]][pt[1]]]][mul[row[2]][pt[2]]]
                              for row in m)
                    img.append(normalize(v))
                images.add(tuple(sorted(img)))
    return [list(pt) for pt in min(images)], len(images)


def chow_degree(spec) -> int:
    """deg(K^dim) on P(sum of O(a_j)) over prod P^(n_c), by plain expansion."""
    dims = spec["base"]
    twists = spec["bundle"]
    k, rank = len(dims), len(twists)
    dim = sum(dims) + rank - 1
    hs = symbols(" ".join(f"h{i}" for i in range(k)) + ",")
    xi = symbols("xi")
    # K = pi^*(K_B + c_1(E)) - rank * xi
    K = sum((-(n + 1) + sum(t[c] for t in twists)) * hs[c] for c, n in enumerate(dims))
    K -= rank * xi
    relation = sympy.Mul(*(xi - sum(t[c] * hs[c] for c in range(k)) for t in twists))
    expr = Poly(sympy.expand(K ** dim), *hs, xi)
    rel = Poly(relation, xi)
    total = 0
    for mono, coeff in expr.as_dict().items():
        if any(e > n for e, n in zip(mono, dims)):
            continue
        h_part = sympy.Mul(*(h ** e for h, e in zip(hs, mono[:k])))
        reduced = sympy.rem(Poly(xi ** mono[k], xi), rel)
        # the xi^(rank-1) coefficient, times the base monomial, then truncate
        for (e,), c in Poly(reduced.as_expr(), xi).as_dict().items():
            term = Poly(sympy.expand(coeff * c * h_part * xi ** e), *hs, xi)
            for m2, c2 in term.as_dict().items():
                if list(m2[:k]) == list(dims) and m2[k] == rank - 1:
                    total += int(c2)
    return total
