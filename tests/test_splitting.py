import hashlib
import random
import re
from math import comb
from operator import countOf

import pytest

import fanocheck.poly as poly_module
from fanocheck.poly import (
    ExponentOverflowError,
    NonHomogeneousError,
    Polynomial,
    VariableSet,
    _carry_layers,
    delta1,
    mono_str,
    parse_poly,
    pow_mod_frobenius,
    weighted_degree,
)
from fanocheck.splitting import (
    FedderReport,
    HypersurfaceRing,
    SplitStatus,
    delta1_probe,
    fedder_fsplit,
    fedder_report,
    fedder_residue,
)
from helpers import (
    count_zeros,
    dense_form,
    diagonal_fedder,
    naive_delta1,
    pow_then_filter,
    random_homogeneous,
    random_nonzero_poly,
    ref_grevlex_key,
)

# hash of str(delta1_probe(ring, 4, 4, 2)) for the p=5 weighted sextic below,
# frozen after computing the same polynomial along two association orders
PROBE_P5_SEXTIC_SHA256 = (
    "d6d96c82a3dfd41879c96e7fe483641bfaa58f84628eb69537a216a8fd7cff0a"
)


def ring_of(text, p, names="x0,x1,x2,x3,x4", weights=None):
    if weights is None:
        vs = VariableSet.unit(names)
    else:
        vs = VariableSet.weighted(names, weights)
    return HypersurfaceRing(p, vs, parse_poly(text, vs, p))


def sextic_ring(p):
    return ring_of("x0^6 + x1^6 + x2^6 + x3^6 + y^2", p,
                   names="x0,x1,x2,x3,y", weights=[1, 1, 1, 1, 3])


class TestVerdicts:
    def test_fermat_quartic_p7(self):
        v = fedder_fsplit(ring_of("x0^4 + x1^4 + x2^4 + x3^4 + x4^4", 7))
        assert v.status is SplitStatus.NOT_FSPLIT and v.witness is None

    def test_weighted_sextic_p11(self):
        assert fedder_fsplit(sextic_ring(11)).status is SplitStatus.NOT_FSPLIT

    def test_weighted_sextic_p5(self):
        assert fedder_fsplit(sextic_ring(5)).status is SplitStatus.NOT_FSPLIT

    def test_quartic_double_cover_p3(self):
        r = ring_of("x0^4 + x1^4 + x2^4 + x3^4 + y^2", 3,
                    names="x0,x1,x2,x3,y", weights=[1, 1, 1, 1, 2])
        assert fedder_fsplit(r).status is SplitStatus.NOT_FSPLIT

    def test_sextic_double_cover_p5(self):
        r = ring_of("x0^6 + x1^6 + x2^6 + y^3 + z^2", 5,
                    names="x0,x1,x2,y,z", weights=[1, 1, 1, 2, 3])
        assert fedder_fsplit(r).status is SplitStatus.NOT_FSPLIT

    def test_hyperplane_p2_split_with_witness(self):
        v = fedder_fsplit(ring_of("x0", 2, names="x0,x1"))
        assert v.status is SplitStatus.FSPLIT
        assert v.witness == (1, 0)

    def test_wild_conic_p2(self):
        vs = VariableSet.unit("x0,x1,x2,y0,y1,y2")
        f = parse_poly("x0*y0^2 + x1*y1^2 + x2*y2^2", vs, 2)
        v = fedder_fsplit(HypersurfaceRing(2, vs, f))
        assert v.status is SplitStatus.NOT_FSPLIT

    def test_fermat_cubic_p7_splits(self):
        v = fedder_fsplit(ring_of("x0^3 + x1^3 + x2^3", 7, names="x0,x1,x2"))
        assert v.status is SplitStatus.FSPLIT
        assert v.witness == (6, 6, 6)

    def test_ring_validation(self):
        vs = VariableSet.unit("x,y")
        with pytest.raises(ValueError):
            HypersurfaceRing(3, vs, Polynomial.zero(3, vs))
        with pytest.raises(ValueError, match="^polynomial lives in a different ring$"):
            HypersurfaceRing(5, vs, parse_poly("x", vs, 3))


class TestWitnessSoundness:
    def test_witness_is_surviving_residue_term(self):
        rng = random.Random(606)
        split_seen = 0
        for _ in range(120):
            p = rng.choice([2, 3, 5])
            vs = VariableSet.unit("x,y,z")
            f = random_nonzero_poly(rng, vs, p, max_terms=4, max_exp=3)
            ring = HypersurfaceRing(p, vs, f)
            v = fedder_fsplit(ring)
            residue = fedder_residue(ring)
            if v.status is SplitStatus.FSPLIT:
                split_seen += 1
                assert v.witness in residue.terms
                assert all(e <= p - 1 for e in v.witness)
                assert v.witness == max(residue.terms, key=ref_grevlex_key)
            else:
                assert residue.is_zero and v.witness is None
        assert split_seen > 10

    def test_report_witness_is_grevlex_largest(self):
        rng = random.Random(607)
        vs = VariableSet.unit("x,y,z")
        split_seen = 0
        for _ in range(60):
            p = rng.choice([2, 3, 5])
            f = random_homogeneous(rng, vs, p, rng.randint(1, 4))
            ring = HypersurfaceRing(p, vs, f)
            residue = fedder_residue(ring)
            witness = fedder_report(ring).witness
            if residue.is_zero:
                assert witness is None
            else:
                split_seen += 1
                assert witness == mono_str(vs.names, max(residue.terms, key=ref_grevlex_key))
        assert split_seen > 10

    def test_agrees_with_full_expansion(self):
        rng = random.Random(6006)
        vs = VariableSet.unit("x,y")
        for _ in range(80):
            p = rng.choice([2, 3])
            f = random_nonzero_poly(rng, vs, p, max_terms=3, max_exp=2)
            ring = HypersurfaceRing(p, vs, f)
            assert fedder_residue(ring) == pow_then_filter(f, p - 1, p)


class TestDelta1Probe:
    def test_probe_recovers_fedder_residue(self):
        for p in (3, 5, 7):
            ring = ring_of("x0^2 + x1*x2 + x2^2", p, names="x0,x1,x2")
            assert delta1_probe(ring, p - 1, 0, 1) == fedder_residue(ring)

    def test_probe_p2_line(self):
        vs = VariableSet.unit("x,y")
        ring = HypersurfaceRing(2, vs, parse_poly("x + y", vs, 2))
        assert str(delta1_probe(ring, 0, 1, 2)) == "x*y"

    def test_probe_argument_validation(self):
        ring = sextic_ring(5)
        with pytest.raises(ValueError):
            delta1_probe(ring, -1, 0, 1)
        with pytest.raises(ValueError):
            delta1_probe(ring, 0, 0, 0)

    def test_probe_golden_lock(self):
        probe = delta1_probe(sextic_ring(5), 4, 4, 2)
        assert probe.num_terms == 56
        digest = hashlib.sha256(str(probe).encode()).hexdigest()
        assert digest == PROBE_P5_SEXTIC_SHA256

    def test_probe_association_order(self):
        # reducing after every single multiplication must give the same
        # answer as the two-power product, since the cut terms generate
        # an ideal
        ring = sextic_ring(5)
        q = 25
        acc = Polynomial.constant(ring.prime, ring.vars, 1)
        d1 = delta1(ring.f)
        for _ in range(4):
            acc = pow_mod_frobenius(acc * ring.f, 1, q)
        for _ in range(4):
            acc = pow_mod_frobenius(acc * d1, 1, q)
        assert acc == delta1_probe(ring, 4, 4, 2)

    def test_probe_is_the_boxed_full_product(self):
        rng = random.Random(6007)
        vs = VariableSet.unit("x0,x1,x2")
        cases = []
        for p, s in ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1)):
            f = random_homogeneous(rng, vs, p, 2, max_terms=4)
            cases += [(f, a, b, s) for a, b in ((0, 1), (1, 1), (2, 1), (1, 2))]
        # b >= p puts a digit of the carry's power at scale p^i > 1; s = 3 at p = 2
        for p, s, bs in ((2, 2, (2, 3)), (3, 2, (3, 4, 6)), (2, 3, (2, 3, 5))):
            f = random_homogeneous(rng, vs, p, 2, max_terms=4)
            cases += [(f, a, b, s) for a in (0, 1) for b in bs]
        # a >= q uses the constant term's power c^(a // q); terms outside the box
        for p, s, a_s in ((2, 1, (2, 3, 5)), (3, 1, (3, 4, 7)), (2, 2, (4, 5))):
            q = p ** s
            c = rng.randint(1, p - 1)
            f = random_nonzero_poly(rng, vs, p, max_terms=3, max_exp=2) + \
                Polynomial.constant(p, vs, c)
            outside = random_homogeneous(rng, vs, p, 2, max_terms=3) + \
                Polynomial(p, vs, {(q, 0, 0): 1, (1, q + 1, 0): c})
            assert f.terms.get((0, 0, 0)) and any(max(m) >= q for m in outside.terms)
            cases += [(f, a, b, s) for a in a_s for b in (0, 1)]
            cases += [(outside, a, b, s) for a, b in ((1, 0), (0, 1), (1, 1), (2, 1), (0, 2))]
        # exponents up to q - 1: a step past the box, up to (p - 1)*(q - 1), would
        # not fit a field
        binary = VariableSet.unit("x,y")
        for p, s in ((5, 1), (7, 1), (2, 3)):
            f = random_homogeneous(rng, binary, p, p ** s - 1, max_terms=3)
            cases += [(f, a, b, s) for a, b in ((0, 1), (1, 1), (1, 2))]
        weighted = VariableSet.weighted("x,y,z", [1, 1, 2])
        for p, s in ((2, 2), (3, 1), (5, 1)):
            f = random_homogeneous(rng, weighted, p, 4, max_terms=4)
            cases += [(f, a, b, s) for a, b in ((1, 1), (0, 2), (p - 1, 0))]
        # single-term f has carry zero; b = 0 is f^a alone
        for p, s in ((2, 2), (3, 1), (5, 1)):
            f = random_homogeneous(rng, vs, p, 2, max_terms=1)
            assert f.num_terms == 1
            cases += [(f, a, b, s) for a, b in ((1, 0), (p - 1, 0), (0, 1), (1, 1))]
        # b = 1, a < p reads layer p + a of the carry's product: every a
        for p, s in ((2, 2), (3, 2), (5, 2), (7, 2), (2, 3), (3, 3), (5, 1), (7, 1)):
            f = random_homogeneous(rng, vs, p, 2, max_terms=4)
            cases += [(f, a, 1, s) for a in range(p)]
        # x^3 * x^(p + j) at p = 2, q = 4 is x^6 or x^9: x^9 would carry past
        # the 3-bit field into y if it were packed before its box test
        f = parse_poly("x^3 + x^2*y + x*y^2 + y^3", binary, 2)
        cases += [(f, a, 1, 2) for a in (0, 1)]
        # the box truncates the steps of terms with a top exponent past q / (p - 1)
        for p, degree in ((3, 5), (5, 9), (7, 20)):
            f = random_homogeneous(rng, binary, p, degree, max_terms=3)
            cases += [(f, a, 1, 2) for a in range(p)]
        # a constant term, a non-homogeneous f and terms outside the box; weighted
        for p, s in ((3, 2), (5, 2)):
            q = p ** s
            f = random_nonzero_poly(rng, vs, p, max_terms=3, max_exp=3) + \
                Polynomial(p, vs, {(0, 0, 0): rng.randint(1, p - 1), (q, 1, 0): 1})
            g = random_homogeneous(rng, weighted, p, 4, max_terms=4)
            assert f.terms.get((0, 0, 0))
            cases += [(h, a, 1, s) for h in (f, g) for a in range(p)]
        # boundary inputs: a = p and b = 2 keep the boxed product, s = 1 does not
        f = random_homogeneous(rng, vs, 3, 2, max_terms=4)
        cases += [(f, 3, 1, 2), (f, 1, 1, 1), (f, 1, 2, 2)]
        # a digit 2 of the carry's power, its square formed by pairs: b = 2 at
        # scale 1, b = 2p at scale p
        for p, s, vset in ((3, 2, vs), (3, 3, vs), (5, 2, binary), (5, 3, binary),
                           (7, 3, binary)):
            f = random_homogeneous(rng, vset, p, 2, max_terms=4)
            cases += [(f, a, b, s) for a in (0, 1) for b in (2, 2 * p)]
        for f, a, b, s in cases:
            ring = HypersurfaceRing(f.p, f.vars, f)
            # for b = 1 the multinomial theorem over the integers gives the carry
            carry = naive_delta1(f) if b == 1 else delta1(f)
            full = f ** a * carry ** b
            kept = {m: c for m, c in full.terms.items() if max(m) < f.p ** s}
            assert delta1_probe(ring, a, b, s) == Polynomial(f.p, f.vars, kept), \
                (str(f), a, b, s)

    def test_b1_probe_reads_the_carry_layers(self, monkeypatch):
        # b = 1, a < p: one _layers call at count p + a, no boxed power, at
        # any s; every other input keeps both powers and their final product
        calls = []
        for name in ("_layers", "_pow_boxed", "_mul_packed"):
            def spy(*args, name=name, kernel=getattr(poly_module, name)):
                calls.append((name, args))
                return kernel(*args)
            monkeypatch.setattr(poly_module, name, spy)
        ring = sextic_ring(5)
        for a, s in ((0, 2), (2, 2), (4, 2), (1, 1)):
            calls.clear()
            delta1_probe(ring, a, 1, s)
            assert [args[2] for name, args in calls if name == "_layers"] == [5 + a]
            assert not [name for name, _ in calls if name == "_pow_boxed"]
        for a, b, s in ((5, 1, 2), (1, 2, 2)):
            calls.clear()
            delta1_probe(ring, a, b, s)
            assert [name for name, _ in calls] == \
                ["_pow_boxed", "_layers", "_pow_boxed", "_mul_packed"]
            assert calls[1][1][2] == 5

    def test_b0_probe_is_the_boxed_power_alone(self, monkeypatch):
        # b = 0: f^a in the box of p^s, and no carry at count p is built;
        # the boxed power's digits d >= 3 call _layers at count d < p
        tops = []
        layers = poly_module._layers

        def spy(items, p, top, *args, **kwargs):
            tops.append((p, top))
            return layers(items, p, top, *args, **kwargs)
        monkeypatch.setattr(poly_module, "_layers", spy)
        rng = random.Random(4021)
        vs = VariableSet.weighted("x0,x1,x2,y", [1, 1, 1, 2])
        for p in (2, 3, 5, 7):
            for s in (1, 2):
                f = random_homogeneous(rng, vs, p, rng.randint(2, 4), max_terms=5)
                ring = HypersurfaceRing(p, vs, f)
                for a in sorted({0, 1, p - 1, p + 1, 2 * p + 3, rng.randint(0, p ** s)}):
                    assert delta1_probe(ring, a, 0, s) == pow_mod_frobenius(f, a, p ** s), \
                        (str(f), a, s)
        assert tops and all(top < p for p, top in tops)

    def test_large_s_boxes_at_the_product_degree(self, monkeypatch):
        # no exponent of f^a * delta1(f)^b passes E = (a + p*b) * (f's top
        # exponent), so s = 10^6 gives the unboxed product, formed in the
        # box of the least power of p above E
        boxes = []
        real = poly_module._frobenius_box
        monkeypatch.setattr(poly_module, "_frobenius_box",
                            lambda f, q: boxes.append(q) or real(f, q))
        rng = random.Random(6211)
        vs = VariableSet.unit("x0,x1,x2")
        for p in (2, 3, 5, 7):
            for a, b in ((0, 0), (2, 0), (0, 1), (1, 1), (p - 1, 1), (p, 1), (1, 2)):
                f = random_homogeneous(rng, vs, p, 2, max_terms=4)
                q = p
                while q <= (a + p * b) * max(map(max, f.terms)):
                    q *= p
                boxes.clear()
                probe = delta1_probe(HypersurfaceRing(p, vs, f), a, b, 10 ** 6)
                assert probe == f ** a * delta1(f) ** b, (str(f), a, b)
                assert boxes == [q], (str(f), a, b)

    def test_terms_outside_the_box_are_left_out(self):
        # x^5 does not fit the 2-bit fields of the 2-box; packed, it would
        # read as x*y.  It lies in the ideal, and so does every carry term
        # it enters: x^6 and x^5*y
        vs = VariableSet.unit("x,y")
        ring = HypersurfaceRing(2, vs, parse_poly("x^5 + x + y", vs, 2))
        assert str(delta1_probe(ring, 1, 0, 1)) == "x + y"
        assert str(delta1_probe(ring, 0, 1, 1)) == "x*y"

    def test_carry_is_cut_before_a_field_overflows(self):
        # the 5-box packs 4-bit fields; each carry term is a product of
        # five x^4 terms, x^20, which carries into y: x^20*y^2*z^2*w, taking
        # each term once, would read as x^4*y^3*z^2*w inside the box
        vs = VariableSet.unit("x,y,z,w")
        f = parse_poly("x^4 + x^4*y + x^4*z + x^4*w + x^4*y*z", vs, 5)
        assert {m[0] for m in delta1(f).terms} == {20}
        assert delta1_probe(HypersurfaceRing(5, vs, f), 0, 1, 1).is_zero

    def test_products_outside_the_box_do_not_raise(self):
        # x^40000 * x^40000*y = x^80000*y is past the 2**16 cap, but it is
        # outside the 2**16-box too, so it is cut before it is formed
        vs = VariableSet.unit("x,y")
        ring = HypersurfaceRing(2, vs, parse_poly("x^40000 + y", vs, 2))
        assert str(delta1_probe(ring, 1, 1, 16)) == "x^40000*y^2"

    def test_exponent_cap_raises_inside_the_box(self):
        # 97^3 > 2**16, so a field can hold x^80000 and the exit checks the cap
        vs = VariableSet.unit("x,y")
        ring = HypersurfaceRing(97, vs, parse_poly("x^40000 + y", vs, 97))
        message = "^" + re.escape("bad exponent tuple (80000, 0)") + "$"
        with pytest.raises(ExponentOverflowError, match=message):
            delta1_probe(ring, 2, 0, 3)

    def test_carry_outside_the_box_is_never_formed(self):
        # every carry term of x^20000 + y has an x-exponent >= 20000 >= 5,
        # so the probe is exactly zero; the unboxed carry passes the cap
        vs = VariableSet.unit("x,y")
        f = parse_poly("x^20000 + y", vs, 5)
        with pytest.raises(ExponentOverflowError, match=re.escape("(80000, 1)")):
            delta1(f)
        probe = delta1_probe(HypersurfaceRing(5, vs, f), 1, 1, 1)
        assert probe.is_zero

    def test_delta1_of_sextic_shape(self):
        d1 = delta1(sextic_ring(5).f)
        assert d1.num_terms == 121
        assert weighted_degree(d1) == (30,)


# f's monomials by block shape (terms sharing a variable share a block); the
# carry count multiplies the blocks' layer counts
BIGRADED = VariableSet(("x0", "x1", "x2", "x3", "y0", "y1", "y2", "y3"),
                       ((1, 0),) * 4 + ((0, 1),) * 4)
BLOCK_SHAPES = {
    "singletons": (VariableSet.unit("x0,x1,x2,x3"),
                   ["x0^3", "x1^3", "x2^3", "x3^3"]),
    "one block and singletons": (VariableSet.unit("x0,x1,x2,x3,x4"),
                                 ["x0^4", "x1^4", "x2^4", "x3^4", "x4^4",
                                  "x0*x1^3", "x1^2*x2^2"]),
    "two blocks": (VariableSet.unit("x0,x1,x2,x3"),
                   ["x0^4", "x1^4", "x0^3*x1", "x2^4", "x3^4", "x2*x3^3",
                    "x2^2*x3^2"]),
    "weighted y singleton": (VariableSet.weighted("x0,x1,x2,x3,y", [1, 1, 1, 1, 3]),
                             ["x0^6", "x1^6", "x2^6", "x3^6", "y^2",
                              "x0^3*x1^3", "x1*x2^5", "x0^2*x1*x2^3"]),
    "bigraded": (BIGRADED, ["x0*y0^2", "x1*y0*y1", "x1*y1^2",
                            "x2*y2^2", "x3*y2*y3", "x2*y3^2"]),
    # x1^2*x3^2 joins the blocks {x0, x1} and {x2, x3} after both formed
    "bridged": (VariableSet.unit("x0,x1,x2,x3"),
                ["x0^4", "x1^4", "x2^4", "x3^4", "x0^2*x1^2", "x2^2*x3^2",
                 "x1^2*x3^2"]),
    # the count's mixed-radix keys run up to 129^5 > 2**30 at p = 2: two
    # CPython digits
    "multi-digit keys": (VariableSet.unit("x0,x1,x2,x3,x4"),
                         ["x0^64", "x1^64", "x2^64", "x3^64", "x4^64",
                          "x0^32*x1^32", "x2^63*x3"]),
    # x2 is in no term: its radix base is 1
    "absent variable": (VariableSet.unit("x0,x1,x2,x3"),
                        ["x0^3", "x1^3", "x3^3", "x0*x1^2", "x1*x3^2"]),
}
MULTI_BLOCK = ["singletons", "one block and singletons", "two blocks",
               "weighted y singleton", "bigraded", "multi-digit keys"]


def blocked_form(shape, p, rng):
    """The shape's monomials with seeded coefficients in 1..p-1."""
    vs, monos = BLOCK_SHAPES[shape]
    text = " + ".join(f"{rng.randint(1, p - 1)}*{m}" for m in monos)
    return HypersurfaceRing(p, vs, parse_poly(text, vs, p))


class TestReport:
    def test_wild_conic_report(self):
        vs = VariableSet.unit("x0,x1,x2,y0,y1,y2")
        f = parse_poly("x0*y0^2 + x1*y1^2 + x2*y2^2", vs, 2)
        rep = fedder_report(HypersurfaceRing(2, vs, f))
        assert rep.status == "NotFSplit"
        assert rep.witness is None
        assert rep.residue_terms == 0
        assert rep.delta1_terms == 3
        assert rep.delta1_degree == (6,)
        assert rep.elapsed_ms >= 0.0

    def test_split_report_witness_string(self):
        rep = fedder_report(ring_of("x0", 2, names="x0,x1"))
        assert rep.status == "FSplit"
        assert rep.witness == "x0"
        assert rep.residue_terms == 1
        assert rep.delta1_terms == 0
        assert rep.delta1_degree is None

    def test_as_dict_shape(self):
        rep = fedder_report(ring_of("x0^3 + x1^3 + x2^3", 7, names="x0,x1,x2"))
        d = rep.as_dict()
        assert d["status"] == "FSplit"
        assert d["witness"] == "x0^6*x1^6*x2^6"
        assert d["delta1_degree"] == [21]
        assert set(d) == {"status", "witness", "residue_terms",
                          "delta1_terms", "delta1_degree", "elapsed_ms"}

    def test_reports_of_one_ring_are_equal(self):
        # the two runs usually take different times; elapsed_ms is not compared
        ring = ring_of("x0^3 + x1^3 + x2^3 + x0*x1*x2", 7, names="x0,x1,x2")
        a, b = fedder_report(ring), fedder_report(ring)
        assert a == b and hash(a) == hash(b)
        assert a.as_dict()["elapsed_ms"] == a.elapsed_ms

    @pytest.mark.parametrize("vs,degree", [
        (VariableSet.unit("x0,x1,x2"), (3,)),
        (VariableSet.weighted("x0,x1,x2,y", [1, 1, 2, 3]), (6,)),
        (VariableSet(("x0", "x1", "y0", "y1"), ((1, 0), (1, 0), (0, 1), (0, 2))),
         (2, 4)),
    ], ids=["unit", "weighted", "bigraded"])
    def test_delta1_degree_is_the_carry_degree_seeded(self, vs, degree):
        rng = random.Random(5150)
        for p in (2, 3, 5, 7):
            for _ in range(6):
                f = random_homogeneous(rng, vs, p, degree, max_terms=4)
                rep = fedder_report(HypersurfaceRing(p, vs, f))
                carry = delta1(f)
                assert rep.delta1_terms == carry.num_terms
                assert rep.delta1_degree == (None if carry.is_zero
                                             else weighted_degree(carry))

    @pytest.mark.parametrize("vs,degree", [
        (VariableSet.unit("x0,x1,x2,x3"), (3,)),
        (VariableSet.weighted("x0,x1,x2,y", [1, 1, 1, 2]), (4,)),
    ], ids=["unit", "weighted"])
    def test_report_verdict_is_fedder_fsplit_seeded(self, vs, degree):
        rng = random.Random(1818)
        seen = set()
        for p in (2, 3, 5, 7, 11):
            for _ in range(6):
                ring = HypersurfaceRing(p, vs, random_homogeneous(rng, vs, p, degree))
                verdict, rep = fedder_fsplit(ring), fedder_report(ring)
                witness = None if verdict.witness is None \
                    else mono_str(vs.names, verdict.witness)
                assert (rep.status, rep.witness) == (verdict.status.value, witness)
                seen.add(verdict.status)
        assert seen == set(SplitStatus)

    def test_carry_count_skips_packed_zeros(self):
        # the layers keep the entries whose coefficients cancelled mod p, so
        # the count is of nonzero coefficients, not of entries; here f is two
        # blocks, the x's and y^2 alone, and y^2 adds one term at every count
        # below p, so the carry's terms are the x block's at counts 1..p
        ring = ring_of("x0^6 + x1^6 + x2^6 + x3^6 + y^2 + 2*x1^2*x2*x3^3"
                       " + 9*x0^3*x1^2*x2", 11,
                       names="x0,x1,x2,x3,y", weights=[1, 1, 1, 1, 3])
        assert len(_carry_layers(ring.f, ring.f.terms.items())[1]) == 8346
        x_block = [(m, c) for m, c in ring.f.terms.items() if not m[4]]
        layers = _carry_layers(ring.f, x_block, every=True)[1][1:]
        assert sum(countOf(layer.values(), 0) for layer in layers) > 0
        assert sum(map(len, layers)) > 8111
        assert sum(len(layer) - countOf(layer.values(), 0) for layer in layers) == 8111
        rep = fedder_report(ring)
        assert rep.delta1_terms == delta1(ring.f).num_terms == 8111
        assert rep.delta1_degree == (66,)

    def test_single_term_ring_has_no_carry(self):
        ring = ring_of("x0^3*x1", 5, names="x0,x1")
        rep = fedder_report(ring)
        assert delta1(ring.f).is_zero
        assert rep.delta1_terms == 0
        assert rep.delta1_degree is None

    def test_carry_count_raises_past_the_cap_like_delta1(self):
        # the same carry term x^(96*700)*y that delta1 raises on
        vs = VariableSet.weighted("x,y", [1, 700])
        f = parse_poly("x^700 + y", vs, 97)
        message = "^" + re.escape("bad exponent tuple (67200, 1)") + "$"
        with pytest.raises(ExponentOverflowError, match=message):
            delta1(f)
        with pytest.raises(ExponentOverflowError, match=message):
            fedder_report(HypersurfaceRing(97, vs, f))

    def test_carry_count_below_the_cap(self):
        # f^p holds x^(97*676), past the cap, but no carry term does
        vs = VariableSet.weighted("x,y", [1, 676])
        f = parse_poly("x^676 + y", vs, 97)
        rep = fedder_report(HypersurfaceRing(97, vs, f))
        assert rep.delta1_terms == delta1(f).num_terms == 96

    def test_multi_block_past_the_cap_builds_the_whole_carry(self):
        # blocks {x, w} and {y}; the carry term x^(2*32768)*y is past the cap
        vs = VariableSet.weighted("x,w,y", [1, 1, 32768])
        f = parse_poly("x^32768 + x^32767*w + y", vs, 3)
        message = "^" + re.escape("bad exponent tuple (65536, 0, 1)") + "$"
        with pytest.raises(ExponentOverflowError, match=message):
            delta1(f)
        with pytest.raises(ExponentOverflowError, match=message):
            fedder_report(HypersurfaceRing(3, vs, f))

    def test_multi_block_wider_than_the_cap_counts_below_it(self):
        # blocks {x} and {u, v}: the packing holds 3 * 21846 > 2**16, but no
        # carry term reaches the cap
        vs = VariableSet.weighted("x,u,v", [1, 10923, 10923])
        f = parse_poly("x^21846 + u^2 + 2*u*v + v^2", vs, 3)
        rep = fedder_report(HypersurfaceRing(3, vs, f))
        assert rep.delta1_terms == delta1(f).num_terms > 0

    def test_inhomogeneous_polynomial_rejected(self):
        with pytest.raises(NonHomogeneousError):
            fedder_report(ring_of("x + y^2", 2, names="x,y"))

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    @pytest.mark.parametrize("shape", sorted(BLOCK_SHAPES))
    def test_count_is_the_carry_count_seeded(self, shape, p):
        rng = random.Random(f"{shape}:{p}")
        for _ in range(3):
            ring = blocked_form(shape, p, rng)
            assert fedder_report(ring).delta1_terms == delta1(ring.f).num_terms

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    @pytest.mark.parametrize("names,weights,text", [
        ("x,y,z", [1, 1, 1], "x^2*y + x^2*z"),
        # x0^(2p)*x1^e*x3^(p-e) and x2^(2p)*x1^(e+1)*x3^(p-e-1) would share a
        # key if every radix base were one too small
        ("x0,x1,x2,x3", [1, 1, 1, 1], "x0^2*x1 + x0^2*x3 + x2^2*x1 + x2^2*x3"),
        # x0^2*x2^2*x3^2 and x1*x2^2*x3^2 at p = 2 would, if x0's base alone were
        ("x0,x1,x2,x3", [1, 2, 1, 1], "x0*x2^2 + x0*x3^2 + x1*x2 + x2*x3^2"),
    ], ids=["x2y+x2z", "two squares", "weighted"])
    def test_count_reaches_p_times_the_top_exponent(self, names, weights, text, p):
        # the carry holds a term with an exponent at its radix digit's top
        vs = VariableSet.weighted(names, weights)
        f = parse_poly(text, vs, p)
        carry = delta1(f)
        assert any(m[0] == p * max(e[0] for e in f.terms) for m in carry.terms)
        assert fedder_report(HypersurfaceRing(p, vs, f)).delta1_terms == carry.num_terms

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    @pytest.mark.parametrize("names,weights,exponents", [
        ("x0,x1", [1, 1], (3, 3)),
        ("x0,x1,x2,x3,x4", [1, 1, 1, 1, 1], (4, 4, 4, 4, 4)),
        ("x0,x1,x2,x3,y", [1, 1, 1, 1, 3], (6, 6, 6, 6, 2)),
        ("x0,x1,x2,y,z", [1, 1, 1, 2, 3], (6, 6, 6, 3, 2)),
    ], ids=["P1", "P4", "P(1,1,1,1,3)", "P(1,1,1,2,3)"])
    def test_single_term_blocks_match_the_closed_form(self, names, weights,
                                                      exponents, p):
        vs = VariableSet.weighted(names, weights)
        f = parse_poly(" + ".join(f"{name}^{e}" for name, e in zip(vs.names, exponents)),
                       vs, p)
        rep = fedder_report(HypersurfaceRing(p, vs, f))
        t = len(exponents)
        assert rep.delta1_terms == comb(p + t - 1, t - 1) - t
        assert rep.delta1_terms == diagonal_fedder(exponents, p, vs.names)[2]
        assert rep.delta1_terms == delta1(f).num_terms

    @pytest.mark.parametrize("shape", MULTI_BLOCK)
    def test_multi_block_never_builds_the_whole_carry(self, shape, monkeypatch):
        rng = random.Random(shape)
        rings = [blocked_form(shape, p, rng) for p in (2, 5, 11)]
        counts = [delta1(ring.f).num_terms for ring in rings]

        def refuse(f):
            raise AssertionError("the whole carry was built")
        carry_layers = poly_module._carry_layers

        def every_layer_only(f, terms, every=False):
            # the count-p layer alone is delta1's carry, or a one-block count
            if not every:
                raise AssertionError("the whole carry was built")
            return carry_layers(f, terms, every)
        monkeypatch.setattr(poly_module, "_carry_layers", every_layer_only)
        monkeypatch.setattr(poly_module, "delta1", refuse)
        assert [fedder_report(ring).delta1_terms for ring in rings] == counts

    def test_one_block_is_one_whole_carry_pass(self, monkeypatch):
        ring = ring_of("x0^4 + x1^4 + x2^4 + 3*x0*x1^3 + 2*x1*x2^3 + x2*x0^3", 7,
                       names="x0,x1,x2")
        count = delta1(ring.f).num_terms
        assert fedder_report(ring).delta1_terms == count
        calls = []
        layers = poly_module._layers

        def recording(items, p, top, *args, **kwargs):
            calls.append((top, kwargs.get("every", False)))
            return layers(items, p, top, *args, **kwargs)
        monkeypatch.setattr(poly_module, "_layers", recording)
        assert poly_module._delta1_count(ring.f) == count
        assert calls == [(7, False)]


# Calabi-Yau shapes: the weighted degree is the sum of the weights
CALABI_YAU = [
    ("x0,x1,x2,x3", [1, 1, 1, 1]),
    ("x0,x1,x2,y", [1, 1, 1, 3]),
    ("x0,x1,x2,x3,y", [1, 1, 1, 1, 2]),
]


class TestHasseInvariant:
    """For a Calabi-Yau form f in N variables over F_p, the one monomial of
    f^(p-1) that can survive the box (x_i^p) is prod x_i^(p-1), and its
    coefficient, the Hasse invariant, is -(-1)^N #{f = 0} mod p: each x in
    F_p^N adds 1 - f(x)^(p-1) to the count, and a sum of x^a over F_p^N is
    (-1)^N when every a_i is a positive multiple of p - 1, else 0 mod p."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("names,weights", CALABI_YAU,
                             ids=["P3", "P(1,1,1,3)", "P(1,1,1,1,2)"])
    def test_split_iff_p_does_not_divide_the_zero_count_seeded(self, names, weights, p):
        vs = VariableSet.weighted(names, weights)
        rng = random.Random(f"{names}:{p}")
        top = "*".join(f"{name}^{p - 1}" for name in vs.names)
        for _ in range(7):
            ring = HypersurfaceRing(p, vs, dense_form(rng, vs, p, sum(weights), 1, 6))
            report = fedder_report(ring)
            split = count_zeros(ring.f) % p != 0
            assert report.status == ("FSplit" if split else "NotFSplit"), ring.f
            assert report.residue_terms == int(split)
            assert report.witness == (top if split else None)


class TestMonoStr:
    def test_formats(self):
        vs = VariableSet.unit("x,y,z")
        assert mono_str(vs.names, (0, 0, 0)) == "1"
        assert mono_str(vs.names, (1, 0, 2)) == "x*z^2"
        # the same helper prints the terms of str(Polynomial)
        assert mono_str(vs.names, (0, 0, 0), 3) == "3"
        assert mono_str(vs.names, (1, 0, 2), 4) == "4*x*z^2"
        assert str(Polynomial(5, vs, {(0, 0, 0): 1, (1, 0, 2): 4})) == "4*x*z^2 + 1"
