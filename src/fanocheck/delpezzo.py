"""Picard-lattice bookkeeping for blow-ups of the plane, plus small
projective-plane point configurations up to PGL_3.

Classes live in Pic = Z H + Z E_1 + ... + Z E_r with H^2 = 1, E_i^2 = -1,
everything else orthogonal, and K = -3H + E_1 + ... + E_r.  The blow-up of
the seven F_2-points of the plane is the motivating configuration: its seven
coordinate-triple lines give seven pairwise disjoint (-2)-classes, and the
only exceptional classes meeting all of them nonnegatively are the E_i
themselves.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from itertools import combinations, permutations, product
from operator import mul

from .poly import _set, _Value
from .smallfields import GF, UnsupportedFieldSizeError, _factor_prime_power


class LatticeClass(_Value):
    """d*H - sum m_i E_i, stored as (d, (m_1, ..., m_r))."""

    __slots__ = ("d", "m")

    def __init__(self, d: int, m: tuple):
        m = tuple(m)
        _set(self, "d", d)
        _set(self, "m", m)
        _set(self, "_key", (d, m))

    def dot(self, other: "LatticeClass") -> int:
        if len(self.m) != len(other.m):
            raise ValueError("classes live in different lattices")
        return self.d * other.d - sum(map(mul, self.m, other.m))

    @property
    def self_intersection(self) -> int:
        return self.d * self.d - sum(a * a for a in self.m)


class PicLattice(_Value):
    """Pic of the plane blown up in r points, 1 <= r <= 8."""

    __slots__ = ("r",)

    def __init__(self, r: int):
        if not (1 <= r <= 8):
            raise ValueError("rank parameter r must be in 1..8")
        self._init(r)


def enumerate_classes(lattice: PicLattice, self_int: int, k_deg: int,
                      d_max: int) -> list:
    """All classes with the given self-intersection and K-degree, 0 <= d <= d_max.

    Entries m_i >= -1, which covers exceptional and (-2)-class searches;
    any number of them may be -1 (``enumerate_classes(PicLattice(3), -3,
    -3, 0)`` is the one class m = (-1, -1, -1)).  Sorted by (d, m).

    For each d the m_i are placed left to right, values ascending, so the
    output comes out sorted.  With k slots left, each an integer in
    [-1, hi] (hi = isqrt(d^2 - self_int)), and s, q the sum and sum of
    squares still to place, a completion exists only if

    - q >= |s| and q = s (mod 2), since v^2 >= +-v and v^2 = v (mod 2);
    - k q >= s^2 (Cauchy-Schwarz);
    - -k <= s <= k hi;

    and the last slot is placed directly, as v = s with v^2 = q.  A partial
    vector failing any of these is dropped at once.  The last two slots are
    solved too: v + w = s and v^2 + w^2 = q give (w - v)^2 = 2q - s^2, which
    is >= 0 by Cauchy-Schwarz, so with t = isqrt(2q - s^2) a completion
    exists only if t^2 = 2q - s^2 (then t = s mod 2) and v = (s - t) / 2 >=
    -1; w = v + t <= hi as w^2 <= q.  They are (v, w) and, for t > 0,
    (w, v), in the order the ascending loop would place them.

    Degree cut-off: the Cauchy-Schwarz bound over all r slots reads
    (k_deg + 3d)^2 <= r (d^2 - self_int), and as r <= 8 < 9 the difference
    of the two sides is a concave quadratic in d.  Past its vertex
    d = -3 k_deg / (9 - r) the first degree that fails is followed by
    failures only, so the search stops there, however large d_max is.

    Parity: at the root q - s = d(d - 3) - self_int - k_deg with d(d - 3)
    even, so an odd self_int + k_deg fails at every degree: no search.
    """
    if (self_int + k_deg) & 1:
        return []
    r = lattice.r
    out = []
    for d in range(0, d_max + 1):
        target_sum = k_deg + 3 * d          # sum m_i
        target_sq = d * d - self_int        # sum m_i^2
        if r * target_sq < target_sum * target_sum:
            if (9 - r) * d >= -3 * k_deg:
                break
            continue
        hi = math.isqrt(target_sq)
        acc = []

        def rec(k: int, s: int, q: int):
            if (q < s or q < -s or (q - s) & 1 or k * q < s * s
                    or s < -k or s > k * hi):
                return
            if k == 1:
                if q == s * s:
                    out.append(LatticeClass(d, (*acc, s)))
                return
            if k == 2:  # v + w = s, v^2 + w^2 = q: (w - v)^2 = 2q - s^2
                t = math.isqrt(2 * q - s * s)
                v = (s - t) >> 1
                if t * t == 2 * q - s * s and v >= -1:
                    out.append(LatticeClass(d, (*acc, v, v + t)))
                    if t:
                        out.append(LatticeClass(d, (*acc, v + t, v)))
                return
            for v in range(-1, math.isqrt(q) + 1):
                acc.append(v)
                rec(k - 1, s - v, q - v * v)
                acc.pop()

        rec(r, target_sum, target_sq)
    return out


# ---------------------------------------------------------------------------
# the seven F_2-points of the plane
# ---------------------------------------------------------------------------

# fixed ordering of the F_2-rational points used everywhere downstream
FANO_POINTS = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, 0, 1), (0, 1, 1),
    (1, 1, 1),
)


def fano_lines() -> list:
    """Index triples of collinear F_2-points, sorted."""
    lines = []
    pts = FANO_POINTS
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            for k in range(j + 1, len(pts)):
                a, b, c = pts[i], pts[j], pts[k]
                det = (a[0] * (b[1] * c[2] - b[2] * c[1])
                       - a[1] * (b[0] * c[2] - b[2] * c[0])
                       + a[2] * (b[0] * c[1] - b[1] * c[0]))
                if det % 2 == 0:
                    lines.append((i, j, k))
    return sorted(lines)


def langer_neg2_classes() -> list:
    """(-2)-classes H - E_i - E_j - E_k, one per line of the 7-point plane."""
    out = []
    for line in fano_lines():
        m = tuple(1 if i in line else 0 for i in range(7))
        out.append(LatticeClass(1, m))
    return out


# ---------------------------------------------------------------------------
# point configurations modulo PGL_3
# ---------------------------------------------------------------------------

_PGL_MAX_Q = 8
# tori of at most this many scalings are searched scaling by scaling
# (see pgl_orbit_canonical)
_TORUS_LOOP_MAX = 7


def _normalize(point, gf: GF):
    """Scale so the first nonzero coordinate becomes 1."""
    for c in point:
        if c:
            inv = gf.inv(c)
            return tuple(gf.mul(inv, x) for x in point)
    raise ValueError("zero vector is not a projective point")


def plane_points(q: int) -> list:
    """All q^2 + q + 1 points of P^2(F_q), normalized, sorted."""
    gf = GF(q)
    return sorted({_normalize(v, gf) for v in product(gf.elements, repeat=3) if any(v)})


class PointConfig(_Value):
    """A set of plane points over F_q, held in normalized sorted form."""

    __slots__ = ("q", "points")

    def __init__(self, q: int, points: tuple):
        self._init(q, points)

    @classmethod
    def from_points(cls, q: int, points: Iterable) -> "PointConfig":
        """Normalize and sort; each point is 3 integers in 0..q-1, not all 0."""
        gf = GF(q)
        points = [tuple(p) for p in points]
        for p in points:
            if len(p) != 3 or not all(type(c) is int and 0 <= c < q for c in p):
                raise ValueError(
                    f"point {p!r} is not 3 integer coordinates in 0..{q - 1}")
        normalized = {_normalize(p, gf) for p in points}
        return cls(q, tuple(sorted(normalized)))


def pgl3_order(q: int) -> int:
    """|PGL_3(F_q)| = q^3 (q^3 - 1) (q^2 - 1), for prime powers q <= 8."""
    if q > _PGL_MAX_Q:
        raise UnsupportedFieldSizeError(
            f"PGL enumeration supports q <= {_PGL_MAX_Q}, got {q}")
    _factor_prime_power(q)
    return q ** 3 * (q ** 3 - 1) * (q ** 2 - 1)


def pgl_orbit_canonical(config: PointConfig):
    """Lexicographically least PGL_3 image of the configuration and orbit size.

    PGL_3 is 2-transitive, so with two or more points the least image S*
    starts with (0,0,1), (0,1,0), and every g with gC = S* sends some
    ordered pair (c1, c2) of C there: g is a fixed matrix h for the pair
    followed by one of the (q-1)^2 q^2 elements [[1,0,0],[b,mu,0],[c,0,lam]]
    of the two-point stabilizer.  The cosets are disjoint, and the elements
    reaching S* form one coset of Stab(C), so |orbit| = |PGL_3| / hits.

    Only pairs on a richest line are searched.  An image's points on x = 0,
    (0,0,1) then (0,1,z) by z, precede its (1,y,z) points, so the image
    whose x = 0 reads lex-smaller, a missing point reading larger than any
    (0,1,z), is smaller.  For q <= 8 more points on a line always read
    smaller than fewer (checked on every subset of P^1(F_q) in the tests),
    so g sends c1c2 to x = 0 only from a line meeting C most: every coset
    reaching S* is searched and hits is unchanged.  No point, one point and
    the whole plane are answered directly.

    For each pair the scalings (mu, lam) whose head, the sorted z of the
    (0,1,z) points, is least form a torus S = {(mu, r mu) : r in R}.  On a
    torus of more than 7 scalings the affine points are translated first:
    every image then starts with 0, the moved point's code, so a least
    image has the least second code any s in S gives a moved point, and
    only the scalings sending some moved point there are sorted.  A table
    per R, built once per call, holds each code's least image under S and
    the scalings reaching it; one affine point is fixed by every scaling.
    Smaller tori (those of one ratio, q - 1 <= 7 scalings, and q = 3's of
    two) are searched scaling by scaling, each with every translation: on
    sets of few affine points they measured faster so.  Each (pair, s, t)
    reaching the least image is one hit either way.
    """
    q = config.q
    order = pgl3_order(q)
    pts = config.points
    n = len(pts)
    if n < 2:  # PGL_3 is transitive on points
        return PointConfig(q, ((0, 0, 1),) * n), (q * q + q + 1) ** n
    if n == q * q + q + 1:
        return config, 1
    gf = GF(q)
    add, mul, neg, inv = gf._add, gf._mul, gf._neg, gf._inv

    def forms(d, vs):
        """d_z v_y - d_y v_z for each v: the form vanishing on direction d."""
        dz, ndy = mul[d[1]], mul[neg[d[0]]]
        return [add[dz[y]][ndy[z]] for y, z in vs]

    lines = {}
    for u, v in combinations(pts, 2):
        line = [add[mul[u[i]][v[j]]][neg[mul[u[j]][v[i]]]] for i, j in ((1, 2), (2, 0), (0, 1))]
        line = tuple(map(mul[inv[next(filter(None, line))]].__getitem__, line))
        lines.setdefault(line, set()).update((u, v))
    richest = max(map(len, lines.values()))
    # affine points (1,y,z) coded y*q + z, which keeps their lex order; the
    # code of a - t and the (mu, lam) scalings are table rows
    units = range(1, q)
    diff = [[y + z for y in [v * q for v in add[neg[t // q]]] for z in add[neg[t % q]]]
            for t in range(q * q)]
    scale = {(mu, lam): [y + z for y in [v * q for v in mul[mu]] for z in mul[lam]]
             for mu in units for lam in units}
    tables = {}

    def torus(ratios):
        """Per code, the least code a scaling (mu, r mu), r in ratios, sends
        it to and the rows of the scalings that do; code 0, fixed by all of
        them, reads past every other code."""
        rows = [scale[mu, mul[r][mu]] for r in ratios for mu in units]
        val, reach = [q * q], [rows]
        for c in range(1, q * q):
            least = min(row[c] for row in rows)
            val.append(least)
            reach.append([row for row in rows if row[c] == least])
        return val, reach

    best_head, best, hits = None, None, 0
    for line, on in lines.items():
        if len(on) < richest:
            continue
        # in coordinates (line . p, p_j, p_k), j and k the places other than
        # the line's leading 1, the line is at infinity: its points are the
        # directions (p_j, p_k), the others affine points
        j, k = (c for c in range(3) if c != line.index(1))
        l0, l1, l2 = (mul[c] for c in line)
        off = []
        for p in pts:
            x = add[add[l0[p[0]]][l1[p[1]]]][l2[p[2]]]
            if x:
                off.append((mul[inv[x]][p[j]], mul[inv[x]][p[k]]))
        dirs = [(p[j], p[k]) for p in on]
        at_off = [forms(d, off) for d in dirs]
        at_on = [forms(d, dirs) for d in dirs]
        # g sends direction c1 to (0,0,1) and c2 to (0,1,0) by the forms of
        # c1 and c2, then by the two-point stabilizer; every head has
        # richest - 1 entries, so list order is the order of the images
        for a, b in permutations(range(len(dirs)), 2):
            line_z = [mul[inv[y]][z] for y, z in zip(at_on[a], at_on[b]) if y]
            heads = [sorted(map(mul[r].__getitem__, line_z)) for r in units]
            head = min(heads)
            if best_head is None or head < best_head:
                best_head, best, hits = head, None, 0
            elif head > best_head:
                continue
            codes = [y * q + z for y, z in zip(at_off[a], at_off[b])]
            size = heads.count(head) * (q - 1)
            if codes and size > _TORUS_LOOP_MAX:
                # translate first: an image starts at 0, so its second
                # code is at least the least code the torus sends a moved
                # point to, and only the scalings reaching it can tie
                if len(codes) == 1:  # every scaling fixes the image [0]
                    best, hits = [0], hits + size
                    continue
                ratios = tuple(r for r, h in zip(units, heads) if h == head)
                if ratios not in tables:
                    tables[ratios] = torus(ratios)
                val, reach = tables[ratios]
                for t in codes:
                    moved = list(map(diff[t].__getitem__, codes))
                    first = min(map(val.__getitem__, moved))
                    for c in moved:
                        if val[c] != first:
                            continue
                        for row in reach[c]:
                            image = sorted(map(row.__getitem__, moved))
                            if best is None or image < best:
                                best, hits = image, 1
                            elif image == best:
                                hits += 1
                continue
            for r, ratio_head in zip(units, heads):
                if ratio_head != head:
                    continue
                for mu in units:
                    if not codes:  # every translation fixes the image
                        best, hits = [], hits + q * q
                        continue
                    moved = list(map(scale[mu, mul[r][mu]].__getitem__, codes))
                    # a least image starts at (1,0,0), so only the
                    # translations moving an affine point there can reach it
                    for t in moved:
                        image = sorted(map(diff[t].__getitem__, moved))
                        if best is None or image < best:
                            best, hits = image, 1
                        elif image == best:
                            hits += 1
    points = ((0, 0, 1),) + tuple((0, 1, z) for z in best_head) + tuple(
        (1, a // q, a % q) for a in best)
    return PointConfig(q, points), order // hits
