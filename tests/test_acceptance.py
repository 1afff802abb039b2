"""End-to-end acceptance suite.

Every test here states one externally checkable claim about the package,
prints one PASS/FAIL line through the ``criterion`` fixture, and compares
exact integers and verdict strings only.  Wall-clock budgets are part of
the claims.
"""

import random
from pathlib import Path

from fanocheck.chow import (
    DivClass,
    IntersectionRing,
    ProductBase,
    SplitBundleSpec,
    canonical_class,
    div_class_str,
    evaluate_expression,
    intersect,
    omega_twist_factors,
    section_class,
)
from fanocheck.corpus import run_corpus
from fanocheck.delpezzo import (
    FANO_POINTS,
    PicLattice,
    PointConfig,
    enumerate_classes,
    fano_lines,
    langer_neg2_classes,
    pgl_orbit_canonical,
)
from fanocheck.geometry import (
    HypersurfaceVariety,
    cone_smoothness,
    parse_ambient,
    smoothness_verdict,
)
from fanocheck.ideals import PolyIdeal, localized_is_unit, normal_form
from fanocheck.poly import (
    Polynomial,
    VariableSet,
    delta1,
    parse_poly,
    pow_mod_frobenius,
    weighted_degree,
)
from fanocheck.splitting import HypersurfaceRing, SplitStatus, fedder_fsplit
from helpers import (
    common_zero_with_g_nonzero,
    cone_singular_point_search,
    naive_bundle_degree,
    naive_product_degree,
    pgl3_elements,
    pow_then_filter,
    random_homogeneous,
    random_nonzero_poly,
    random_poly,
)

SHIPPED_CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "paper_examples.json"


def _ring(text, p, names, weights=None):
    vs = VariableSet.unit(names) if weights is None \
        else VariableSet.weighted(names, weights)
    return HypersurfaceRing(p, vs, parse_poly(text, vs, p))


def _variety(ambient, text, p, names=None):
    space = parse_ambient(ambient, names=names)
    return HypersurfaceVariety(p, space, parse_poly(text, space.variable_set, p))


def test_splitting_verdicts(criterion):
    with criterion("splitting verdicts on the worked examples", budget_s=5.0):
        cases = [
            (_ring("x0^4 + x1^4 + x2^4 + x3^4 + x4^4", 7, "x0,x1,x2,x3,x4"),
             SplitStatus.NOT_FSPLIT),
            (_ring("x0^6 + x1^6 + x2^6 + x3^6 + y^2", 11,
                   "x0,x1,x2,x3,y", [1, 1, 1, 1, 3]), SplitStatus.NOT_FSPLIT),
            (_ring("x0^6 + x1^6 + x2^6 + x3^6 + y^2", 5,
                   "x0,x1,x2,x3,y", [1, 1, 1, 1, 3]), SplitStatus.NOT_FSPLIT),
            (_ring("x0^4 + x1^4 + x2^4 + x3^4 + y^2", 3,
                   "x0,x1,x2,x3,y", [1, 1, 1, 1, 2]), SplitStatus.NOT_FSPLIT),
            (_ring("x0^6 + x1^6 + x2^6 + y^3 + z^2", 5,
                   "x0,x1,x2,y,z", [1, 1, 1, 2, 3]), SplitStatus.NOT_FSPLIT),
        ]
        for ring, expected in cases:
            assert fedder_fsplit(ring).status is expected
        hyperplane = fedder_fsplit(_ring("x0", 2, "x0,x1"))
        assert hyperplane.status is SplitStatus.FSPLIT
        assert hyperplane.witness == (1, 0)


def test_smoothness_verdicts(criterion):
    with criterion("smoothness verdicts on the worked examples", budget_s=10.0):
        sextic = _variety("P(1,1,1,1,3)", "x0^6 + x1^6 + x2^6 + x3^6 + y^2", 11,
                          names=["x0", "x1", "x2", "x3", "y"])
        assert smoothness_verdict(sextic).value == "Smooth"

        quartic_cover = _variety("P(1,1,1,1,2)", "x0^4 + x1^4 + x2^4 + x3^4 + y^2",
                                 3, names=["x0", "x1", "x2", "x3", "y"])
        assert smoothness_verdict(quartic_cover).value == "Smooth"

        conic = _variety("P(1,1,1) x P(1,1,1)", "x0*y0^2 + x1*y1^2 + x2*y2^2", 2)
        assert cone_smoothness(conic).smooth_away_from_irrelevant
        assert smoothness_verdict(conic).value == "Smooth"
        # independent oracle: no F_2 or F_4 cone point witnesses a failure
        assert cone_singular_point_search(conic, [2, 4]) is None

        double_plane = _variety("P(1,1,1)", "x0^2", 5)
        assert smoothness_verdict(double_plane).value == "Singular"
        # the oracle agrees that the library is right to complain
        assert cone_singular_point_search(double_plane, [5]) is not None


def test_witt_carry_identities(criterion):
    with criterion("first Witt carry identities"):
        vs2 = VariableSet.unit("x,y")
        vs3 = VariableSet.unit("x,y,z")
        assert str(delta1(parse_poly("x + y", vs2, 2))) == "x*y"
        assert str(delta1(parse_poly("x + y + z", vs3, 2))) == "x*y + x*z + y*z"

        rng = random.Random(90210)
        for _ in range(40):
            p = rng.choice([2, 3, 5])
            mono = tuple(rng.randint(0, 3) for _ in range(3))
            coeff = rng.randint(1, p - 1)
            single = Polynomial(p, vs3, {mono: coeff})
            assert delta1(single).is_zero

        checked = 0
        while checked < 100:
            p = rng.choice([2, 3, 5])
            d = rng.randint(1, 4)
            f = random_homogeneous(rng, vs3, p, d, max_terms=4)
            if f.num_terms < 2:
                continue
            carry = delta1(f)
            if carry.is_zero:
                continue
            assert weighted_degree(carry) == (p * d,)
            checked += 1


def test_intersection_numbers(criterion):
    with criterion("intersection numbers and canonical classes", budget_s=1.0):
        # twisted cotangent bundle on (P^1)^3, against the naive expansion
        base3 = ProductBase((1, 1, 1))
        factors = omega_twist_factors(base3, DivClass((2, 2, 2)))
        got = intersect(IntersectionRing(base3), factors)
        assert got == 16
        assert naive_product_degree((1, 1, 1), [f.h for f in factors]) == 16

        # four hyperplane factors on (P^1)^4 meet in one point
        r4 = IntersectionRing(ProductBase((1, 1, 1, 1)))
        lines = [DivClass(tuple(1 if j == i else 0 for j in range(4)))
                 for i in range(4)]
        assert intersect(r4, lines) == 1

        # degrees 2e(3-e)^2 for e = 1, 2, evaluated as plain h-products on P^4
        p4 = IntersectionRing(ProductBase((4,)))
        assert intersect(p4, [DivClass((-2,)), DivClass((-2,)),
                              DivClass((1,)), DivClass((2,))]) == 8
        assert intersect(p4, [DivClass((-1,)), DivClass((-1,)),
                              DivClass((2,)), DivClass((2,))]) == 4

        # canonical classes of the two bundle families
        rank3_p2 = IntersectionRing(
            ProductBase((2,)),
            SplitBundleSpec(ProductBase((2,)), ((0,), (1,), (2,))))
        assert div_class_str(rank3_p2, canonical_class(rank3_p2)) == "-3*xi"
        rank3_p1p1 = IntersectionRing(
            ProductBase((1, 1)),
            SplitBundleSpec(ProductBase((1, 1)), ((0, 0), (1, 0), (0, 1))))
        assert div_class_str(rank3_p1p1, canonical_class(rank3_p1p1)) == \
            "-3*xi - h1 - h2"

        # adjunction for a double cover inside P(O + O(-L)), L = (1, 2)
        cover = IntersectionRing(
            ProductBase((1, 1)),
            SplitBundleSpec(ProductBase((1, 1)), ((0, 0), (-1, -2))))
        lhs = evaluate_expression(cover, "K + 2*xi + 2*h1 + 4*h2")
        rhs = evaluate_expression(cover, "-h1")
        assert lhs == rhs

        # the two disjoint sections of P(O + O(1,1)) absorb K entirely
        two_sec = IntersectionRing(
            ProductBase((1, 1)),
            SplitBundleSpec(ProductBase((1, 1)), ((0, 0), (1, 1))))
        s0 = section_class(two_sec, 0)
        s1 = section_class(two_sec, 1)
        K = canonical_class(two_sec)
        total = DivClass(
            tuple(K.h[c] + s0.h[c] + s1.h[c] for c in range(2)),
            K.xi + s0.xi + s1.xi)
        base_canonical = canonical_class(IntersectionRing(ProductBase((1, 1))))
        assert total == DivClass(base_canonical.h, 0) == DivClass((-2, -2), 0)


def test_lattice_counts(criterion):
    with criterion("lattice and plane-configuration counts", budget_s=2.0):
        classes = enumerate_classes(PicLattice(7), -1, -1, 3)
        assert len(classes) == 56

        neg2 = langer_neg2_classes()
        assert len(neg2) == 7
        for i, a in enumerate(neg2):
            assert a.self_intersection == -2
            for b in neg2[i + 1:]:
                assert a.dot(b) == 0

        assert sum(1 for cls in classes
                   if all(cls.dot(n) >= 0 for n in neg2)) == 7

        lines = fano_lines()
        assert len(FANO_POINTS) == 7 and len(lines) == 7
        assert all(len(ln) == 3 for ln in lines)
        assert all(sum(1 for ln in lines if i in ln) == 3 for i in range(7))

        assert len(pgl3_elements(2)) == 168
        full = PointConfig.from_points(2, FANO_POINTS)
        canonical, orbit = pgl_orbit_canonical(full)
        assert orbit == 1 and canonical == full


def test_corpus_file(criterion):
    with criterion("shipped corpus verifies end to end"):
        report = run_corpus(SHIPPED_CORPUS)
        assert report.total == 32
        assert report.all_passed, report.to_text()


# ---------------------------------------------------------------------------
# randomized property suites, >= 100 fixed-seed instances each
# ---------------------------------------------------------------------------

VS3 = VariableSet.unit("x,y,z")


def test_property_frobenius_additivity(criterion):
    with criterion("property: Frobenius additivity, 120 instances"):
        rng = random.Random(1001)
        for _ in range(120):
            p = rng.choice([2, 3, 5])
            f = random_poly(rng, VS3, p, max_terms=4, max_exp=3)
            g = random_poly(rng, VS3, p, max_terms=4, max_exp=3)
            assert (f + g) ** p == f ** p + g ** p


def test_property_frobenius_power_reduction(criterion):
    with criterion("property: boxed power equals expand-then-filter, 120 instances"):
        rng = random.Random(1002)
        for _ in range(120):
            p = rng.choice([2, 3, 5])
            q = p ** rng.randint(1, 2)
            e = rng.randint(1, 3)
            f = random_poly(rng, VS3, p, max_terms=3, max_exp=2)
            assert pow_mod_frobenius(f, e, q) == pow_then_filter(f, e, q)


def test_property_spair_certificate(criterion):
    with criterion("property: every S-pair of a returned basis reduces to zero, "
                   "120 instances"):
        rng = random.Random(1003)
        pairs_checked = 0
        for _ in range(120):
            p = rng.choice([2, 3, 5])
            nv = rng.randint(2, 3)
            vs = VariableSet.unit(["x", "y", "z"][:nv])
            gens = [random_nonzero_poly(rng, vs, p, max_terms=3, max_exp=2)
                    for _ in range(rng.randint(1, 3))]
            gb = PolyIdeal(p, vs, gens).groebner_basis()
            elems = list(gb)
            for i in range(len(elems)):
                for j in range(i + 1, len(elems)):
                    gi, gj = elems[i], elems[j]
                    li, lj = gi.leading_monomial(), gj.leading_monomial()
                    lcm = tuple(max(a, b) for a, b in zip(li, lj))
                    mi = Polynomial(p, vs, {tuple(l - a for l, a in zip(lcm, li)): 1})
                    mj = Polynomial(p, vs, {tuple(l - a for l, a in zip(lcm, lj)): 1})
                    assert normal_form(mi * gi - mj * gj, gb).is_zero
                    pairs_checked += 1
        assert pairs_checked >= 100


def test_property_normal_form_idempotent(criterion):
    with criterion("property: normal form is idempotent, 120 instances"):
        rng = random.Random(1004)
        for _ in range(120):
            p = rng.choice([2, 3, 5])
            gens = [random_nonzero_poly(rng, VS3, p, max_terms=3, max_exp=2)
                    for _ in range(rng.randint(1, 2))]
            gb = PolyIdeal(p, VS3, gens).groebner_basis()
            f = random_poly(rng, VS3, p, max_terms=4, max_exp=3)
            nf = normal_form(f, gb)
            assert normal_form(nf, gb) == nf
            assert normal_form(f - nf, gb).is_zero


def test_property_localization_vs_point_search(criterion):
    with criterion("property: localized unit verdicts against exhaustive "
                   "point search, 120 instances"):
        rng = random.Random(1005)
        units = 0
        witnessed = 0
        for _ in range(120):
            p = rng.choice([2, 3])
            nv = rng.randint(1, 3)
            vs = VariableSet.unit(["x", "y", "z"][:nv])
            gens = [random_nonzero_poly(rng, vs, p, max_terms=2, max_exp=2)
                    for _ in range(rng.randint(1, 2))]
            g = random_nonzero_poly(rng, vs, p, max_terms=2, max_exp=1)
            unit = localized_is_unit(PolyIdeal(p, vs, gens), g)
            found = common_zero_with_g_nonzero(gens, g, [p, p ** 2, p ** 3])
            # a visible common zero with g != 0 refutes the unit verdict
            assert not (unit and found)
            units += unit
            witnessed += found
        assert units >= 10 and witnessed >= 10


def test_property_intersection_oracles(criterion):
    with criterion("property: intersection numbers against naive expansion, "
                   "120 instances"):
        rng = random.Random(1006)
        done = 0
        while done < 60:
            k = rng.randint(1, 3)
            dims = tuple(rng.randint(1, 2) for _ in range(k))
            ring = IntersectionRing(ProductBase(dims))
            if ring.dimension > 4:
                continue
            raw = [tuple(rng.randint(-3, 3) for _ in range(k))
                   for _ in range(ring.dimension)]
            assert intersect(ring, [DivClass(t) for t in raw]) == \
                naive_product_degree(dims, raw)
            done += 1
        done = 0
        while done < 60:
            k = rng.randint(1, 2)
            dims = tuple(rng.randint(1, 2) for _ in range(k))
            rank = rng.randint(2, 3)
            twists = tuple(tuple(rng.randint(-2, 2) for _ in range(k))
                           for _ in range(rank))
            base = ProductBase(dims)
            ring = IntersectionRing(base, SplitBundleSpec(base, twists))
            if ring.dimension > 4:
                continue
            raw = [tuple(rng.randint(-2, 2) for _ in range(k + 1))
                   for _ in range(ring.dimension)]
            classes = [DivClass(t[:k], t[k]) for t in raw]
            assert intersect(ring, classes) == \
                naive_bundle_degree(dims, twists, raw)
            done += 1
