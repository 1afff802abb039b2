"""Seeded input generation for the benchmark workloads.

Each workload is a list of op classes.  A class names one fanocheck call
on one family of inputs; its pool holds ``POOL`` members, and member ``i``
is generated from the string ``"<workload>/<class>/<i>"`` alone, so a
member's text never depends on the run seed, and every input a run can
make has a reference computed once (``make_refs.py``).  The run seed sets
the schedule: which member each op of a block uses and the order of the
classes, so two seeds give different input sequences.

Everything here is plain data (strings, ints, tuples); fanocheck objects
are built from it in ``workloads.py``.
"""

from __future__ import annotations

import itertools
import random

POOL = 6

# weighted families: (variable names, weights)
FAMILIES = {
    "P3": (("x0", "x1", "x2", "x3"), (1, 1, 1, 1)),
    "P4": (("x0", "x1", "x2", "x3", "x4"), (1, 1, 1, 1, 1)),
    "P11112": (("x0", "x1", "x2", "x3", "y"), (1, 1, 1, 1, 2)),
    "P11113": (("x0", "x1", "x2", "x3", "y"), (1, 1, 1, 1, 3)),
    "P11123": (("x0", "x1", "x2", "y", "z"), (1, 1, 1, 2, 3)),
}


def monomials(weights, degree):
    """Exponent tuples of the given weighted degree, in lexicographic order."""
    out = []

    def rec(i, left, acc):
        if i == len(weights) - 1:
            if left % weights[i] == 0:
                out.append(tuple(acc) + (left // weights[i],))
            return
        for e in range(left // weights[i] + 1):
            rec(i + 1, left - e * weights[i], acc + [e])

    rec(0, degree, [])
    return sorted(out)


def fermat(weights, degree):
    """Pure powers x_i^(d/w_i) for every variable whose weight divides d."""
    out = []
    for i, w in enumerate(weights):
        if degree % w == 0:
            out.append(tuple(degree // w if j == i else 0 for j in range(len(weights))))
    return out


def mono_text(names, mono):
    parts = []
    for name, e in zip(names, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def poly_text(names, terms):
    """Text for a dict {monomial: coefficient}, terms in the dict's order."""
    out = []
    for mono, c in terms.items():
        body = mono_text(names, mono)
        out.append(body if c == 1 else f"{c}*{body}")
    return " + ".join(out)


def perturbed(rng, names, weights, degree, p, k, base=None, allowed=None):
    """Base form (Fermat by default) plus k distinct random monomials.

    Extra monomials come from ``allowed`` (default: every monomial of the
    degree not already in the base) with coefficients in 1..p-1.
    """
    base = fermat(weights, degree) if base is None else list(base)
    terms = {m: 1 for m in base}
    pool = [m for m in (allowed or monomials(weights, degree)) if m not in terms]
    for m in rng.sample(pool, k):
        terms[m] = rng.randrange(1, p)
    return poly_text(names, terms)


def _singular_at_last_point(weights, degree):
    """Monomials vanishing to order 2 at the last coordinate point."""
    n = len(weights) - 1
    return [m for m in monomials(weights, degree) if sum(m[:n]) >= 2]


# --------------------------------------------------------------------------
# op classes: name -> member generator(rng) -> plain-data op spec
# --------------------------------------------------------------------------

def _split_row(family, degree, p, k):
    def make(rng):
        names, weights = FAMILIES[family]
        return {"call": "fedder_report", "p": p, "vars": names, "weights": weights,
                "poly": perturbed(rng, names, weights, degree, p, k)}
    return make


def _split_probe(family, degree, p, k, a, b):
    def make(rng):
        names, weights = FAMILIES[family]
        return {"call": "delta1_probe", "p": p, "vars": names, "weights": weights,
                "poly": perturbed(rng, names, weights, degree, p, k),
                "probe": [a, b, 2]}
    return make


def _smooth(ambient, names, weights, degree, p, k, base=None, allowed=None):
    def make(rng):
        return {"call": "smoothness_verdict", "p": p, "ambient": ambient,
                "vars": names,
                "poly": perturbed(rng, names, weights, degree, p, k,
                                  base=base, allowed=allowed)}
    return make


def _smooth_product(ambient, dims, bidegree, p, k):
    """Divisor of the given multidegree in a product of projective spaces."""
    letters = "xyz"
    names = tuple(f"{letters[j]}{i}" for j, n in enumerate(dims) for i in range(n + 1))

    def make(rng):
        # one monomial per factor choice: products of per-factor monomials
        per_factor = [monomials((1,) * (n + 1), d) for n, d in zip(dims, bidegree)]
        all_monos = [sum(parts, ()) for parts in itertools.product(*per_factor)]
        # diagonal Fermat-like base: sum over i of x_i^a * y_i^b (indices wrap)
        width = max(n + 1 for n in dims)
        base = []
        for i in range(width):
            parts = []
            for n, d in zip(dims, bidegree):
                parts.append(tuple(d if j == i % (n + 1) else 0 for j in range(n + 1)))
            base.append(sum(parts, ()))
        terms = {m: 1 for m in base}
        extra = [m for m in all_monos if m not in terms]
        for m in rng.sample(extra, k):
            terms[m] = rng.randrange(1, p)
        return {"call": "smoothness_verdict", "p": p, "ambient": ambient,
                "vars": names, "poly": poly_text(names, terms)}
    return make


def _classes_op():
    """(-1)-classes (K-degree -1) or (-2)-classes (K-degree 0), d <= 6."""
    def make(rng):
        self_int = rng.choice((-1, -2))
        return {"call": "enumerate_classes", "r": rng.choice((6, 7, 8)),
                "self_int": self_int, "k_deg": -1 if self_int == -1 else 0,
                "d_max": rng.randrange(3, 7)}
    return make


def _plane_points(q):
    # independent of fanocheck: projective points over F_q as index triples,
    # scaled so the first nonzero coordinate is 1 (element 1 is encoded as 1)
    pts = []
    for a, b, c in itertools.product(range(q), repeat=3):
        first = next((v for v in (a, b, c) if v), None)
        if first == 1:
            pts.append((a, b, c))
    return pts


def _orbit_op(q, fewest, most):
    def make(rng):
        pts = rng.sample(_plane_points(q), rng.randrange(fewest, most + 1))
        return {"call": "pgl_orbit_canonical", "q": q, "points": sorted(pts)}
    return make


def _chow_op(n, ks):
    """deg(K^dim) on P(O + O(a) [+ O(b)]) over (P^n)^k, dim <= 10."""
    def make(rng):
        k = rng.choice(ks)
        rank = rng.choice([r for r in (2, 3) if n * k + r - 1 <= 10])
        dim = n * k + rank - 1
        twists = [[0] * k] + [[rng.randrange(-2, 3) for _ in range(k)]
                              for _ in range(rank - 1)]
        return {"call": "evaluate_expression", "base": [n] * k, "bundle": twists,
                "expr": f"deg(K^{dim})"}
    return make


# Two heavy classes (7 terms at p = 11) give 12 of the 66 samples of a
# split run, so op_cal.tail (p84, the 11th largest) falls among them
# rather than on the edge between two classes.
SPLIT = {
    "row.P4.d4.p5.k3": _split_row("P4", 4, 5, 3),
    "row.P4.d4.p7.k2": _split_row("P4", 4, 7, 2),
    "row.P4.d4.p11.k2": _split_row("P4", 4, 11, 2),
    "row.P11112.d4.p5.k2": _split_row("P11112", 4, 5, 2),
    "row.P11112.d4.p7.k3": _split_row("P11112", 4, 7, 3),
    "row.P11113.d6.p5.k2": _split_row("P11113", 6, 5, 2),
    "row.P11113.d6.p7.k3": _split_row("P11113", 6, 7, 3),
    "row.P11113.d6.p11.k2": _split_row("P11113", 6, 11, 2),
    "row.P11123.d6.p7.k3": _split_row("P11123", 6, 7, 3),
    "probe.P4.d4.p3.k3.a1b2": _split_probe("P4", 4, 3, 3, 1, 2),
    "probe.P4.d4.p5.k2.a2b1": _split_probe("P4", 4, 5, 2, 2, 1),
}

_P3 = ("x0", "x1", "x2", "x3")
_P4 = ("x0", "x1", "x2", "x3", "x4")
_W3 = FAMILIES["P11113"]
_W2 = FAMILIES["P11112"]

SMOOTH = {
    "cubic.P3.p5.k3": _smooth("P(1,1,1,1)", _P3, (1,) * 4, 3, 5, 3),
    "cubic.P3.p7.k2": _smooth("P(1,1,1,1)", _P3, (1,) * 4, 3, 7, 2),
    "cubic.P3.p7.sing": _smooth("P(1,1,1,1)", _P3, (1,) * 4, 3, 7, 4, base=[],
                                allowed=_singular_at_last_point((1,) * 4, 3)),
    "cubic.P4.p5.k2": _smooth("P(1,1,1,1,1)", _P4, (1,) * 5, 3, 5, 2),
    "cubic.P4.p7.k2": _smooth("P(1,1,1,1,1)", _P4, (1,) * 5, 3, 7, 2),
    "sextic.P11113.p11.k1": _smooth("P(1,1,1,1,3)", _W3[0], _W3[1], 6, 11, 1),
    "quartic.P11112.p3.k2": _smooth("P(1,1,1,1,2)", _W2[0], _W2[1], 4, 3, 2),
    # x0*y^2 and no pure power of y: the weight-2 point lies on X
    "qso.P1112.d5.p11.k1": _smooth(
        "P(1,1,1,2)", ("x0", "x1", "x2", "y"), (1, 1, 1, 2), 5, 11, 1,
        base=[(5, 0, 0, 0), (0, 5, 0, 0), (0, 0, 5, 0), (1, 0, 0, 2)],
        allowed=[m for m in monomials((1, 1, 1, 2), 5) if m[3] == 0]),
    "div.P1xP2.b12.p5.k2": _smooth_product("P(1,1) x P(1,1,1)", (1, 2), (1, 2), 5, 2),
    "div.P2xP2.b12.p5.k2": _smooth_product("P(1,1,1) x P(1,1,1)", (2, 2), (1, 2), 5, 2),
}

# members the package is known to be far too slow on; run under a deadline.
# HARD_MEMBERS lists the pool members picked because they took 10-24 s on a
# 2-CPU Xeon at 2.0 GHz, far past HARD_DEADLINE in workloads.py.
SMOOTH_HARD = {
    "hard.sextic.P11113.p11.k2": _smooth("P(1,1,1,1,3)", _W3[0], _W3[1], 6, 11, 2),
    "hard.quartic.P3.p7.k6": _smooth("P(1,1,1,1)", _P3, (1,) * 4, 4, 7, 6),
}

HARD_MEMBERS = {
    "hard.sextic.P11113.p11.k2": (0, 3),
    "hard.quartic.P3.p7.k6": (0, 2),
}

LATTICE = {
    "classes": _classes_op(),
    "orbit.q3": _orbit_op(3, 4, 7),
    "orbit.q4": _orbit_op(4, 4, 5),
    "chow.P1": _chow_op(1, (3, 4, 5, 6)),
    "chow.P2": _chow_op(2, (2, 3, 4)),
}

CLASSES = {"split": SPLIT, "smooth": SMOOTH, "lattice": LATTICE}


def member(workload: str, cls: str, index: int) -> dict:
    """Plain-data spec of pool member ``index`` of one op class."""
    table = SMOOTH_HARD if cls.startswith("hard.") else CLASSES[workload]
    return table[cls](random.Random(f"{workload}/{cls}/{index}"))


def cycle_blocks(workload: str) -> int:
    """Blocks in one cycle: every pool member of every class runs once."""
    return 1 if workload == "corpus" else POOL


def ops_per_cycle(workload: str) -> int:
    return 1 if workload == "corpus" else POOL * len(CLASSES[workload])


def blocks(workload: str, seed: int):
    """Endless seeded blocks of (class, member index) pairs.

    A block holds each class of the workload once, in a seeded order.  A
    cycle of ``cycle_blocks`` blocks runs every pool member once, each class
    walking its own seeded permutation of the pool, so a run of whole cycles
    makes the same op mix whatever the seed.  The corpus workload has one
    fixed input and ignores the seed.
    """
    if workload == "corpus":
        while True:
            yield [("verify", 0)]
    rng = random.Random(f"{workload}:{seed}")
    names = sorted(CLASSES[workload])
    while True:
        perms = {}
        for cls in names:
            perms[cls] = list(range(POOL))
            rng.shuffle(perms[cls])
        for j in range(POOL):
            order = names[:]
            rng.shuffle(order)
            yield [(cls, perms[cls][j]) for cls in order]


def schedule(workload: str, seed: int, nblocks: int) -> list:
    """The first ``nblocks`` blocks of a run, flattened."""
    it = blocks(workload, seed)
    return [op for _ in range(nblocks) for op in next(it)]
