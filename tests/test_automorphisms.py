"""Verdicts are invariant under graded automorphisms of the ambient.

A graded automorphism maps a hypersurface to an isomorphic one, so its
smoothness verdict (Smooth, QuasiSmoothOnly or Singular) and its F-split
verdict stay the same; only the verdicts are compared, since witness
monomials and charts may move.  The images come from
``helpers.random_graded_automorphism`` and the substitution from
``helpers.substitute``, which uses Polynomial sums and products alone.  The
substituted forms are dense, so their Jacobians run Buchberger on
non-Fermat input.

The members are shipped corpus rows, compared with the row's expected
verdicts, and seeded members of cheap families: cubic surfaces at p = 5
and 7 (some singular at a coordinate point), quartic surfaces at p = 7, a
quartic threefold at p = 7, quartic double covers of P^3 at p = 3,
quintics in P(1,1,1,2) at p = 11 through the weight-2 point, and divisors
in products of equal factors, whose automorphisms swap the factors.
"""

import json
import random
from pathlib import Path

import pytest

from fanocheck.geometry import (
    AmbientFactor,
    AmbientSpace,
    HypersurfaceVariety,
    parse_ambient,
    smoothness_verdict,
)
from fanocheck.poly import Polynomial, parse_poly
from fanocheck.splitting import HypersurfaceRing, fedder_fsplit
from helpers import (
    dense_form,
    monomials_of_degree,
    random_graded_automorphism,
    substitute,
)

_CORPUS = Path(__file__).resolve().parents[1] / "corpus" / "paper_examples.json"
# rows whose transforms are cheap.  Left out: the sextic double solid at
# p = 11 (about a second per automorphism once dense, 77-82 terms) and the
# degree-7 QuasiSmoothOnly row (5-6 s, 123-124 terms); at p = 5 the sextic
# stays sparse, since a linear form's sixth power is its fifth power times it
_CORPUS_ROWS = ["fermat-quartic-p7", "weighted-sextic-p5", "quartic-double-cover-p3",
                "sextic-double-cover-p5", "hyperplane-p2", "wild-conic-p2",
                "double-plane-line-p5"]


def _verdicts(p, space, f, kinds):
    out = {}
    if "smooth" in kinds:
        out["smooth"] = smoothness_verdict(HypersurfaceVariety(p, space, f)).value
    if "fsplit" in kinds:
        ring = HypersurfaceRing(p, space.variable_set, f)
        out["fsplit"] = fedder_fsplit(ring).status.value
    return out


def _corpus_members():
    entries = {e["name"]: e for e in json.loads(_CORPUS.read_text())["entries"]}
    for name in _CORPUS_ROWS:
        entry = entries[name]
        space = AmbientSpace([AmbientFactor(tuple(fac["vars"]), tuple(fac["weights"]))
                              for fac in entry["ambient"]["factors"]])
        f = parse_poly(entry["polynomial"], space.variable_set, entry["prime"])
        expect = {c["kind"]: c["expect"] for c in entry["checks"]
                  if c["kind"] in ("smooth", "fsplit")}
        yield pytest.param(entry["prime"], space, f, expect, id=name)


def _seeded(name, p, ambient, make, expect):
    space = parse_ambient(ambient)
    f = make(random.Random(name), space.variable_set, p)
    return pytest.param(p, space, f, expect, id=name)


def _dense(degree, low, high):
    return lambda rng, vs, p: dense_form(rng, vs, p, degree, low, high)


def _from_pool(degree, keep, base, k):
    """``base`` plus k seeded monomials of the degree that ``keep`` accepts."""
    def make(rng, vs, p):
        terms = {m: 1 for m in base}
        pool = [m for m in monomials_of_degree(vs, degree) if keep(m) and m not in terms]
        for m in rng.sample(pool, k):
            terms[m] = rng.randint(1, p - 1)
        return Polynomial(p, vs, terms)
    return make


_P3 = "P(1,1,1,1)"
# monomials vanishing to order 2 at [0:0:0:1]: singular there
_SINGULAR_AT_X3 = _from_pool(3, lambda m: sum(m[:3]) >= 2, [], 4)
# x0*y^2 and no pure power of y: the weight-2 point lies on X
_THROUGH_Y = _from_pool(5, lambda m: m[3] == 0,
                        [(5, 0, 0, 0), (0, 5, 0, 0), (0, 0, 5, 0), (1, 0, 0, 2)], 1)
_ELLIPTIC = _from_pool((2, 2), lambda m: True, [(2, 0, 2, 0), (0, 2, 0, 2)], 2)
_CONIC_BUNDLE = _from_pool((1, 2), lambda m: True,
                           [(1, 0, 0, 2, 0, 0), (0, 1, 0, 0, 2, 0), (0, 0, 1, 0, 0, 2)], 2)
# y0 * (x0*y0 + x1*y1 + x2*y2): two components, singular where they meet
_REDUCIBLE = _from_pool((1, 2), lambda m: False,
                        [(1, 0, 0, 2, 0, 0), (0, 1, 0, 1, 1, 0), (0, 0, 1, 1, 0, 1)], 0)

_SEEDED = [
    _seeded("cubic.P3.p5.a", 5, _P3, _dense(3, 1, 3), {"smooth": "Smooth", "fsplit": "FSplit"}),
    _seeded("cubic.P3.p5.b", 5, _P3, _dense(3, 1, 3), {"smooth": "Singular", "fsplit": "FSplit"}),
    _seeded("cubic.P3.p7.a", 7, _P3, _dense(3, 1, 3), {"smooth": "Singular", "fsplit": "FSplit"}),
    _seeded("cubic.P3.p7.b", 7, _P3, _dense(3, 1, 3), {"smooth": "Smooth", "fsplit": "FSplit"}),
    _seeded("cubic.P3.p7.sing.a", 7, _P3, _SINGULAR_AT_X3,
            {"smooth": "Singular", "fsplit": "FSplit"}),
    _seeded("cubic.P3.p7.sing.b", 7, _P3, _SINGULAR_AT_X3,
            {"smooth": "Singular", "fsplit": "FSplit"}),
    _seeded("quartic.P3.p7.a", 7, _P3, _dense(4, 1, 3),
            {"smooth": "Smooth", "fsplit": "NotFSplit"}),
    _seeded("quartic.P3.p7.b", 7, _P3, _dense(4, 1, 3),
            {"smooth": "Smooth", "fsplit": "NotFSplit"}),
    _seeded("quartic.P4.p7", 7, "P(1,1,1,1,1)", _dense(4, 1, 2),
            {"smooth": "Smooth", "fsplit": "FSplit"}),
    _seeded("quartic.P11112.p3", 3, "P(1,1,1,1,2)", _dense(4, 1, 2),
            {"smooth": "Singular", "fsplit": "FSplit"}),
    _seeded("qso.P1112.d5.p11", 11, "P(1,1,1,2)", _THROUGH_Y,
            {"smooth": "QuasiSmoothOnly", "fsplit": "FSplit"}),
    _seeded("elliptic.P1xP1.p5", 5, "P(1,1) x P(1,1)", _ELLIPTIC,
            {"smooth": "Singular", "fsplit": "NotFSplit"}),
    _seeded("conic_bundle.P2xP2.p5", 5, "P(1,1,1) x P(1,1,1)", _CONIC_BUNDLE,
            {"smooth": "Singular", "fsplit": "FSplit"}),
    _seeded("reducible.P2xP2.p5", 5, "P(1,1,1) x P(1,1,1)", _REDUCIBLE,
            {"smooth": "Singular", "fsplit": "FSplit"}),
]


@pytest.mark.parametrize("p,space,f,expect", [*_corpus_members(), *_SEEDED])
def test_verdicts_survive_graded_automorphisms(p, space, f, expect):
    assert _verdicts(p, space, f, expect) == expect
    for seed in range(2):
        images = random_graded_automorphism(random.Random(f"{f}/{seed}"), space, p)
        g = substitute(f, images)
        assert _verdicts(p, space, g, expect) == expect, str(g)


def test_members_cover_every_verdict():
    seen = {(kind, value) for param in [*_corpus_members(), *_SEEDED]
            for kind, value in param.values[3].items()}
    assert seen == {("smooth", "Smooth"), ("smooth", "QuasiSmoothOnly"),
                    ("smooth", "Singular"), ("fsplit", "FSplit"), ("fsplit", "NotFSplit")}


def test_automorphisms_move_the_form():
    # the substitution is not the identity: every variable's image is a
    # combination of its block, and the forms come out denser
    space = parse_ambient("P(1,1,1) x P(1,1,1)")
    f = parse_poly("x0*y0^2 + x1*y1^2 + x2*y2^2", space.variable_set, 5)
    swapped = False
    for seed in range(8):
        images = random_graded_automorphism(random.Random(seed), space, 5)
        g = substitute(f, images)
        assert g.num_terms > f.num_terms
        swapped |= g.vars.multidegree(next(iter(g.terms))) == (2, 1)
    assert swapped
