import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from fanocheck.chow import (
    DimensionMismatchError,
    DivClass,
    IntersectionRing,
    NonP1FactorError,
    ProductBase,
    SplitBundleSpec,
    canonical_class,
    div_class_str,
    evaluate_expression,
    intersect,
    omega_twist_factors,
    section_class,
)
from fanocheck.poly import ParseError
from helpers import (
    RefIntersectionRing,
    naive_bundle_degree,
    naive_product_degree,
    ref_evaluate_expression,
)


def base_ring(*dims):
    return IntersectionRing(ProductBase(tuple(dims)))


def bundle_ring(dims, twists):
    base = ProductBase(tuple(dims))
    return IntersectionRing(base, SplitBundleSpec(base, tuple(map(tuple, twists))))


class TestRingBasics:
    def test_shapes(self):
        r = base_ring(1, 2)
        assert (r.k, r.ngens, r.dimension) == (2, 2, 3)
        rb = bundle_ring([1, 1], [[0, 0], [1, 2]])
        assert (rb.k, rb.ngens, rb.rank, rb.dimension) == (2, 3, 2, 3)

    def test_h_truncation(self):
        assert evaluate_expression(base_ring(1), "h1*h1") == {}

    def test_xi_rewrite_rule(self):
        r = bundle_ring([1, 1], [[0, 0], [1, 2]])
        # (xi)(xi - h1 - 2 h2) = 0, so xi^2 = h1 xi + 2 h2 xi
        assert evaluate_expression(r, "xi*xi") == {(1, 0, 1): 1, (0, 1, 1): 2}

    def test_degree_reads_top_coefficient(self):
        r = base_ring(1, 1)
        assert evaluate_expression(r, "deg(5*h1*h2 + h1)") == {(0, 0): 5}

    def test_class_element_validation(self):
        r = base_ring(1, 1)
        with pytest.raises(DimensionMismatchError):
            r.class_element(DivClass((1,)))
        with pytest.raises(DimensionMismatchError):
            r.class_element(DivClass((1, 1), xi=1))

    def test_malformed_monomials_rejected(self):
        with pytest.raises(DimensionMismatchError):
            base_ring(1, 1).reduce({(1,): 5})
        r = bundle_ring([1, 1], [[0, 0], [1, 2]])
        for op in (r.reduce, r.element_str):
            with pytest.raises(ValueError):
                op({(0, -1, 3): 1})
            with pytest.raises(DimensionMismatchError):
                op({(0, 1): 1})

    def test_xi_rule_is_cut_to_the_box(self):
        # over P^1 x P^1 the untruncated rule carries 2*h1^3*xi, which is zero
        twists = [[0, 0], [1, 1], [1, -1], [2, 0]]
        ref = RefIntersectionRing((1, 1), twists)
        assert ref.xi_rule[(3, 0, 1)] == 2
        r = bundle_ring([1, 1], twists)
        rule = r._unpack(dict(r._xi_rule))
        assert rule == {m: c for m, c in ref.xi_rule.items() if m[0] <= 1 and m[1] <= 1}

    def test_bundle_over_wrong_base_rejected(self):
        a, b = ProductBase((1,)), ProductBase((2,))
        with pytest.raises(ValueError):
            IntersectionRing(a, SplitBundleSpec(b, ((0,), (1,))))


class TestIntersectionNumbers:
    def test_four_lines(self):
        r = base_ring(1, 1, 1, 1)
        classes = [DivClass(tuple(1 if j == i else 0 for j in range(4)))
                   for i in range(4)]
        assert intersect(r, classes) == 1

    def test_p1p2_cube(self):
        r = base_ring(1, 2)
        assert intersect(r, [DivClass((2, 3))] * 3) == 54

    def test_twisted_cotangent_triple(self):
        base = ProductBase((1, 1, 1))
        factors = omega_twist_factors(base, DivClass((2, 2, 2)))
        assert [f.h for f in factors] == [(0, 2, 2), (2, 0, 2), (2, 2, 0)]
        got = intersect(IntersectionRing(base), factors)
        assert got == 16
        assert naive_product_degree((1, 1, 1), [f.h for f in factors]) == 16

    def test_p4_products(self):
        r = base_ring(4)
        assert intersect(r, [DivClass((-2,)), DivClass((-2,)),
                             DivClass((1,)), DivClass((2,))]) == 8
        assert intersect(r, [DivClass((-1,)), DivClass((-1,)),
                             DivClass((2,)), DivClass((2,))]) == 4

    def test_hypersurface_degree(self):
        r = base_ring(1, 2)
        x = DivClass((2, 3))
        assert intersect(r, [DivClass((0, 1))] * 2 + [x]) == 2
        assert intersect(r, [DivClass((1, 0)), DivClass((0, 1)), x]) == 3

    def test_dimension_checks(self):
        r = base_ring(1, 1)
        with pytest.raises(DimensionMismatchError):
            intersect(r, [DivClass((1, 1))])
        with pytest.raises(DimensionMismatchError):
            intersect(r, [DivClass((1, 1))] * 2 + [DivClass((1, 1))])

    def test_symmetry_seeded(self):
        rng = random.Random(321)
        for _ in range(40):
            k = rng.randint(1, 3)
            dims = tuple(rng.randint(1, 2) for _ in range(k))
            r = IntersectionRing(ProductBase(dims))
            classes = [DivClass(tuple(rng.randint(-2, 2) for _ in range(k)))
                       for _ in range(r.dimension)]
            shuffled = classes[:]
            rng.shuffle(shuffled)
            assert intersect(r, classes) == intersect(r, shuffled)

    def test_multilinearity_seeded(self):
        rng = random.Random(654)
        for _ in range(40):
            k = rng.randint(1, 3)
            dims = tuple(rng.randint(1, 2) for _ in range(k))
            r = IntersectionRing(ProductBase(dims))
            rest = [DivClass(tuple(rng.randint(-2, 2) for _ in range(k)))
                    for _ in range(r.dimension - 1)]
            a = tuple(rng.randint(-2, 2) for _ in range(k))
            b = tuple(rng.randint(-2, 2) for _ in range(k))
            ab = tuple(x + y for x, y in zip(a, b))
            assert intersect(r, [DivClass(ab)] + rest) == \
                intersect(r, [DivClass(a)] + rest) + intersect(r, [DivClass(b)] + rest)

    def test_against_naive_expansion_seeded(self):
        rng = random.Random(987654)
        for _ in range(80):
            k = rng.randint(1, 3)
            dims = tuple(rng.randint(1, 2) for _ in range(k))
            if sum(dims) > 4:
                continue
            r = IntersectionRing(ProductBase(dims))
            raw = [tuple(rng.randint(-3, 3) for _ in range(k))
                   for _ in range(r.dimension)]
            assert intersect(r, [DivClass(t) for t in raw]) == \
                naive_product_degree(dims, raw)


class TestBundleRing:
    def test_hirzebruch_numbers(self):
        r = bundle_ring([1], [[0], [1]])
        xi, h = DivClass((0,), 1), DivClass((1,), 0)
        assert intersect(r, [xi, xi]) == 1
        assert intersect(r, [xi, h]) == 1
        assert intersect(r, [h, h]) == 0

    def test_canonical_classes(self):
        assert canonical_class(base_ring(3)) == DivClass((-4,), 0)
        assert canonical_class(base_ring(1, 2)) == DivClass((-2, -3), 0)
        assert canonical_class(bundle_ring([2], [[0], [1], [2]])) == \
            DivClass((0,), -3)
        assert canonical_class(bundle_ring([1, 1], [[0, 0], [1, 0], [0, 1]])) == \
            DivClass((-1, -1), -3)

    def test_canonical_strings(self):
        r = bundle_ring([2], [[0], [1], [2]])
        assert div_class_str(r, canonical_class(r)) == "-3*xi"
        r2 = bundle_ring([1, 1], [[0, 0], [1, 0], [0, 1]])
        assert div_class_str(r2, canonical_class(r2)) == "-3*xi - h1 - h2"

    def test_section_classes(self):
        r = bundle_ring([1, 1], [[0, 0], [1, 1]])
        assert section_class(r, 0) == DivClass((-1, -1), 1)
        assert section_class(r, 1) == DivClass((0, 0), 1)

    def test_disjoint_sections_multiply_to_zero(self):
        r = bundle_ring([1, 1], [[0, 0], [1, 1]])
        s0, s1 = (div_class_str(r, section_class(r, j)) for j in (0, 1))
        assert evaluate_expression(r, f"({s0})*({s1})") == {}

    def test_section_validation(self):
        with pytest.raises(ValueError):
            section_class(base_ring(1), 0)
        with pytest.raises(ValueError):
            section_class(bundle_ring([1], [[0], [1], [2]]), 0)
        with pytest.raises(ValueError):
            section_class(bundle_ring([1], [[0], [1]]), 2)

    def test_cover_adjunction_identity(self):
        r = bundle_ring([1, 1], [[0, 0], [-1, -2]])
        K = canonical_class(r)
        lhs = DivClass((K.h[0] + 2, K.h[1] + 4), K.xi + 2)
        assert lhs == DivClass((-1, 0), 0)

    def test_two_section_adjunction_identity(self):
        r = bundle_ring([1, 1], [[0, 0], [1, 1]])
        lhs = evaluate_expression(r, "K + (xi - h1 - h2) + xi")
        rhs = evaluate_expression(r, "-2*h1 - 2*h2")
        assert lhs == rhs

    def test_rewrite_that_cancels_a_pending_xi_power(self):
        # rewriting xi^4 cancels h1*xi^3 before its own rewrite; the tuple
        # loop popped it anyway (KeyError).  Value checked with sympy's
        # Groebner reduction modulo h1^2 and xi (xi - 2 h1) (xi + 3 h1).
        r = bundle_ring([1], [[0], [2], [-3]])
        el = evaluate_expression(
            r, "(-3*xi^2 + h1*xi^2 + 2*h1*xi - 3*xi)*(-xi^2 + h1*xi^2 - 2*h1*xi + 2*xi)")
        assert r.element_str(el) == "13*h1*xi^2 - 6*xi^2"

    def test_omega_twist_validation(self):
        with pytest.raises(NonP1FactorError):
            omega_twist_factors(ProductBase((2,)), DivClass((1,)))
        with pytest.raises(ValueError):
            omega_twist_factors(ProductBase((1,)), DivClass((1,), xi=1))
        with pytest.raises(DimensionMismatchError):
            omega_twist_factors(ProductBase((1, 1)), DivClass((1,)))

    def test_against_naive_bundle_oracle_seeded(self):
        rng = random.Random(192837)
        for _ in range(80):
            k = rng.randint(1, 2)
            dims = tuple(rng.randint(1, 2) for _ in range(k))
            rank = rng.randint(2, 3)
            twists = tuple(tuple(rng.randint(-2, 2) for _ in range(k))
                           for _ in range(rank))
            base = ProductBase(dims)
            r = IntersectionRing(base, SplitBundleSpec(base, twists))
            if r.dimension > 4:
                continue
            raw = [tuple(rng.randint(-2, 2) for _ in range(k + 1))
                   for _ in range(r.dimension)]
            classes = [DivClass(t[:k], t[k]) for t in raw]
            assert intersect(r, classes) == naive_bundle_degree(dims, twists, raw)


class TestExpressions:
    def test_corpus_expressions(self):
        r = base_ring(1, 1, 1)
        el = evaluate_expression(r, "deg((2*h2+2*h3)*(2*h1+2*h3)*(2*h1+2*h2))")
        assert r.element_str(el) == "16"
        r2 = base_ring(1, 2)
        assert r2.element_str(evaluate_expression(r2, "deg((2*h1+3*h2)^3)")) == "54"

    def test_adjacency_multiplies(self):
        r = base_ring(1, 1)
        assert evaluate_expression(r, "2h1") == evaluate_expression(r, "2*h1")
        assert evaluate_expression(r, "3 h1 h2") == evaluate_expression(r, "3*h1*h2")

    def test_canonical_symbol(self):
        r = base_ring(2)
        assert r.element_str(evaluate_expression(r, "deg(K^2)")) == "9"

    def test_huge_power_of_nilpotent_class_is_zero(self):
        r = base_ring(1, 1)
        el = evaluate_expression(r, "h1^1000000000")
        assert r.element_str(el) == "0"

    def test_power_stops_at_first_zero_product(self, monkeypatch):
        r = base_ring(2)
        calls = []
        mul = r._mul
        monkeypatch.setattr(r, "_mul", lambda a, b: calls.append(1) or mul(a, b))
        # element_str reduces by one more product, so it reads after the count
        el = evaluate_expression(r, "deg(K^2)")
        assert len(calls) == 2
        assert r.element_str(el) == "9"
        calls.clear()
        assert evaluate_expression(r, "K^7") == {}
        assert len(calls) == 3

    @pytest.mark.parametrize("expr,expected", [
        ("(1+h1)^5", "5*h1 + 1"),
        ("(1+h1)^0", "1"),
        ("(h1+h2)^2", "2*h1*h2"),
        ("(h1+h2)^3", "0"),
        ("(1+h1+h2)^3", "6*h1*h2 + 3*h1 + 3*h2 + 1"),
        ("(h1-h1)^0", "1"),
        ("(1+h1+h2-h1*h2)^2", "2*h1 + 2*h2 + 1"),  # 2n + n^2 cancels h1*h2
    ])
    def test_small_powers(self, expr, expected):
        r = base_ring(1, 1)
        assert r.element_str(evaluate_expression(r, expr)) == expected

    def test_powers_match_repeated_products(self):
        for r, gens in ((base_ring(1, 2), "h1 h2"),
                        (bundle_ring((1, 1), [(0, 0), (1, 2)]), "h1 h2 xi")):
            rng = random.Random(61)
            for _ in range(20):
                base = "(" + " + ".join(
                    f"{rng.randint(-3, 3)}*{g}" for g in gens.split()) + f" + {rng.randint(-2, 2)})"
                e = rng.randint(1, 9)
                assert (evaluate_expression(r, f"{base}^{e}")
                        == evaluate_expression(r, "*".join([base] * e)))

    def test_huge_power_of_unipotent_class(self):
        r = base_ring(1)
        el = evaluate_expression(r, "(1+h1)^1000000000")
        assert r.element_str(el) == "1000000000*h1 + 1"

    def test_huge_power_takes_at_most_dim_plus_one_products(self, monkeypatch):
        r = base_ring(1, 1)
        calls = []
        mul = r._mul
        monkeypatch.setattr(r, "_mul", lambda a, b: calls.append(1) or mul(a, b))
        el = evaluate_expression(r, "(1+h1+h2)^1000000000")
        assert len(calls) == 3
        # 1 + e n + C(e, 2) n^2 with n = h1 + h2 and n^2 = 2 h1 h2
        assert r.element_str(el) == (
            "999999999000000000*h1*h2 + 1000000000*h1 + 1000000000*h2 + 1")

    def test_unary_minus_and_cancellation(self):
        r = base_ring(1, 1)
        assert evaluate_expression(r, "-h1 + h1") == {}
        assert r.element_str(evaluate_expression(r, "-h1 + h1")) == "0"

    def test_deg_is_just_a_scalar(self):
        r = base_ring(1, 1)
        el = evaluate_expression(r, "deg(h1*h2)*3")
        assert r.element_str(el) == "3"

    def test_parse_errors(self):
        r = base_ring(1, 1)
        with pytest.raises(ParseError):
            evaluate_expression(r, "xi")
        with pytest.raises(ParseError):
            evaluate_expression(r, "h3")
        with pytest.raises(ParseError):
            evaluate_expression(r, "bogus")
        with pytest.raises(ParseError):
            evaluate_expression(r, "h1 +")
        with pytest.raises(ParseError):
            evaluate_expression(r, "(h1")
        with pytest.raises(ParseError):
            evaluate_expression(r, "h1^x")

    # exact messages and positions; the polynomial parser shares the lexer
    # and walks its token list by index in the same way
    @pytest.mark.parametrize("text,bundle,message,pos", [
        ('h1 +', False, 'expected a class expression (at position 4)', 4),
        ('(h1', False, "expected ')' (at position 3)", 3),
        ('h1^x', False, 'expected an exponent (at position 3)', 3),
        ('h1^', False, 'expected an exponent (at position 3)', 3),
        ('xi', False, 'xi needs a bundle ring (at position 0)', 0),
        ('h3', False, "unknown symbol 'h3' (at position 0)", 0),
        ('bogus', False, "unknown symbol 'bogus' (at position 0)", 0),
        (')', False, 'expected a class expression (at position 0)', 0),
        ('2 h1 )', False, "unexpected ')' (at position 5)", 5),
        ('', False, 'expected a class expression (at position 0)', 0),
        ('h0', False, "unknown symbol 'h0' (at position 0)", 0),
        ('deg h1', False, "expected '(' (at position 4)", 4),
        ('deg(h1', False, "expected ')' (at position 6)", 6),
        ('h1^-1', False, 'expected an exponent (at position 3)', 3),
        ('h1 $', False, "unexpected character '$' (at position 3)", 3),
        ('h1 * * h2', False, 'expected a class expression (at position 5)', 5),
        ('K^', False, 'expected an exponent (at position 2)', 2),
        ('- )', False, 'expected a class expression (at position 2)', 2),
        ('xi^x', False, 'xi needs a bundle ring (at position 0)', 0),
        ('xi^x', True, 'expected an exponent (at position 3)', 3),
        ('h1 h2 ,', False, "unexpected ',' (at position 6)", 6),
    ])
    def test_parse_error_messages(self, text, bundle, message, pos):
        r = bundle_ring([1, 1], [[0, 0], [1, 2]]) if bundle else base_ring(1, 1)
        with pytest.raises(ParseError) as exc:
            evaluate_expression(r, text)
        assert (str(exc.value), exc.value.pos) == (message, pos)

    # symbols are read by the exact names element_str prints: no leading
    # zero, no other decimal digits, nothing past hk
    @pytest.mark.parametrize("text,word,pos", [
        ("h01", "h01", 0), ("h\u0661", "h\u0661", 0), ("h0", "h0", 0), ("h3", "h3", 0),
        ("2*h02", "h02", 2), ("h1 h\u0662^2", "h\u0662", 3),
    ], ids=["leading_zero", "arabic_indic_one", "h0", "past_hk", "inner", "arabic_indic_two"])
    def test_symbols_by_exact_name(self, text, word, pos):
        r = base_ring(2, 2)
        with pytest.raises(ParseError) as exc:
            evaluate_expression(r, text)
        assert (str(exc.value), exc.value.pos) == (
            f"unknown symbol {word!r} (at position {pos})", pos)
        with pytest.raises(ParseError) as exc:
            ref_evaluate_expression(r, text)
        assert exc.value.pos == pos

    def test_element_rendering_order(self):
        r = bundle_ring([1, 1], [[0, 0], [1, 1]])
        el = evaluate_expression(r, "h2 + xi + h1")
        assert r.element_str(el) == "xi + h1 + h2"

    def test_coefficient_rendering(self):
        r = base_ring(1, 1)
        el = evaluate_expression(r, "2*h1*h2 - h1 - 3*h2 + 4")
        assert r.element_str(el) == "2*h1*h2 - h1 - 3*h2 + 4"


# dims on both sides of a field-width step: w = n.bit_length() + 1
EDGE_DIMS = (1, 7, 8, 63, 64, 200)

# base, twists and dimension of the lattice benchmark's 12 chow pool members
LATTICE_SHAPES = [
    ((1,) * 6, ((0,) * 6, (-1, -1, 1, -2, 0, 0), (0, 1, -2, 1, -2, 0)), 8),
    ((1,) * 6, ((0,) * 6, (2, 0, 1, 1, -2, 1), (2, -2, -1, 0, -1, -1)), 8),
    ((1,) * 6, ((0,) * 6, (1, 2, -2, -2, -2, -2)), 7),
    ((1,) * 5, ((0,) * 5, (2, -1, 2, 1, 0), (1, 1, 2, -1, -1)), 7),
    ((1,) * 6, ((0,) * 6, (2, 1, -2, 2, 0, -1), (0, 2, 0, 0, 0, 2)), 8),
    ((1,) * 3, ((0,) * 3, (-2, 2, 1), (-2, 0, -2)), 5),
    ((2,) * 3, ((0,) * 3, (0, -2, 1)), 7),
    ((2,) * 3, ((0,) * 3, (1, 1, 0)), 7),
    ((2,) * 4, ((0,) * 4, (-1, 1, -2, -2)), 9),
    ((2,) * 3, ((0,) * 3, (0, -2, 1), (-2, 1, 0)), 8),
    ((2,) * 3, ((0,) * 3, (-2, 0, 0), (0, 2, 0)), 8),
    ((2,) * 3, ((0,) * 3, (1, -2, 0)), 7),
]


def expr_mul(ring, a, b):
    """a * b on the ring, through the expression language."""
    return evaluate_expression(ring, f"({ring.element_str(a)})*({ring.element_str(b)})")


def expr_degree(ring, el):
    """The degree of el on the ring, through the expression language."""
    return evaluate_expression(ring, f"deg({ring.element_str(el)})").get((0,) * ring.ngens, 0)


def ring_pair(dims, twists):
    """The packed ring and the tuple reference ring on one shape."""
    base = ProductBase(tuple(dims))
    bundle = SplitBundleSpec(base, tuple(map(tuple, twists))) if twists else None
    return IntersectionRing(base, bundle), RefIntersectionRing(dims, twists)


def random_shape(rng, dims):
    rank = rng.choice((0, 2, 3, 4))
    return dims, [[rng.randint(-3, 3) for _ in dims] for _ in range(rank)]


def random_element(rng, ring, terms=5):
    """Small exponents mostly, some past the h-box, xi up to 2r: reduction has work."""
    el = {}
    for _ in range(rng.randint(0, terms)):
        mono = tuple(rng.randint(0, min(n + 1, 2)) if rng.random() < 0.8
                     else rng.randint(0, n + 1) for n in ring.base.dims)
        el[mono + ((rng.randint(0, 2 * ring.rank),) if ring.bundle else ())] = \
            rng.randint(-5, 5)
    return el


def random_expression(rng, ring, ref, depth=0):
    """A class expression and its value on the reference ring."""
    names = [f"h{i + 1}" for i in range(ring.k)] + (["xi"] if ring.bundle else [])
    texts, total = [], {}
    for _ in range(rng.randint(1, 3)):
        factors, el = [], ref.one()
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(5 if depth < 2 else 3)
            if kind == 0:
                c = rng.randint(-4, 4)
                text, f = str(c), ref.scale(ref.one(), c)
            elif kind == 1:
                i = rng.randrange(len(names))
                text, f = names[i], ref.generator(i)
            elif kind == 2:
                K = canonical_class(ring)
                text, f = "K", ref.class_element(K.h, K.xi)
            elif kind == 3:
                e = rng.randint(0, 3)
                sub, sub_el = random_expression(rng, ring, ref, depth + 1)
                text, f = f"({sub})^{e}", ref.power(sub_el, e)
            else:
                sub, sub_el = random_expression(rng, ring, ref, depth + 1)
                text, f = f"deg({sub})", ref.scale(ref.one(), ref.degree(sub_el))
            factors.append(text)
            el = ref.mul(el, f)
        sign = rng.choice((1, -1))
        texts.append(("- " if sign < 0 else "+ " if texts else "") + "*".join(factors))
        total = ref.add(total, ref.scale(el, sign))
    return " ".join(texts), total


class TestPackedAgainstTupleRing:
    """The packed ring against the tuple loops it replaced (tests/helpers)."""

    def test_mul_reduce_degree_str_seeded(self):
        rng = random.Random(20261018)
        for trial in range(300):
            k = rng.randint(1, 3)
            dims = tuple(rng.choice(EDGE_DIMS) if rng.random() < 0.4 else rng.randint(1, 3)
                         for _ in range(k))
            ring, ref = ring_pair(*random_shape(rng, dims))
            a, b = random_element(rng, ring), random_element(rng, ring)
            assert ring.reduce(a) == ref.reduce(a)
            assert expr_mul(ring, a, b) == ref.mul(a, b)
            assert expr_degree(ring, a) == ref.degree(a)
            top = dict(a)
            top[ref.top] = trial
            assert expr_degree(ring, top) == ref.degree(top)
            assert ring.element_str(a) == ring.element_str(ref.reduce(a))

    @pytest.mark.parametrize("n", EDGE_DIMS)
    def test_intersections_at_field_width_edges(self, n):
        # ranks 5 and 8 need more xi bits than small dims give an h field;
        # degrees never unpack xi, mul and reduce do
        rng = random.Random(n)
        for dims in ((n,), (n, rng.choice((1, 7, 8)))):
            for rank in (2, 3, 4, 5, 8):
                twists = [[rng.randint(-3, 3) for _ in dims] for _ in range(rank)]
                ring, ref = ring_pair(dims, twists)
                for _ in range(5):
                    a, b = random_element(rng, ring), random_element(rng, ring)
                    assert ring.reduce(a) == ref.reduce(a)
                    assert expr_mul(ring, a, b) == ref.mul(a, b)
                classes = [DivClass(tuple(rng.randint(-3, 3) for _ in dims),
                                    rng.randint(-3, 3)) for _ in range(ring.dimension)]
                el = ref.one()
                for cls in classes:
                    el = ref.mul(el, ref.class_element(cls.h, cls.xi))
                assert intersect(ring, classes) == ref.degree(el)

    def test_expressions_seeded(self):
        rng = random.Random(4321)
        for _ in range(150):
            k = rng.randint(1, 3)
            dims = tuple(rng.choice(EDGE_DIMS) if rng.random() < 0.3 else rng.randint(1, 2)
                         for _ in range(k))
            ring, ref = ring_pair(*random_shape(rng, dims))
            text, expected = random_expression(rng, ring, ref)
            assert evaluate_expression(ring, text) == expected, text

    @pytest.mark.parametrize("dims,twists,dim", LATTICE_SHAPES)
    def test_lattice_pool_shapes(self, dims, twists, dim):
        ring, ref = ring_pair(dims, twists)
        K = canonical_class(ring)
        power = ref.power(ref.class_element(K.h, K.xi), dim)
        assert evaluate_expression(ring, f"K^{dim}") == power
        assert evaluate_expression(ring, f"deg(K^{dim})") == ref.scale(ref.one(), ref.degree(power))

    def test_powers_of_affine_classes_seeded(self):
        # (c + lin)^e for c = 0 (n^e alone) and c != 0 (the stepped
        # binomial), e from 0 to past the dimension, where the powers of lin
        # have run out
        rng = random.Random(20261019)
        for trial in range(24):
            dims = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
            shape = random_shape(rng, dims) if trial % 2 else (dims, None)
            ring, ref = ring_pair(*shape)
            cls = DivClass(tuple(rng.randint(-3, 3) for _ in dims),
                           rng.randint(-3, 3) if ring.bundle else 0)
            lin = ref.class_element(cls.h, cls.xi)
            for c in (0, 1, -1, 2, -3, 7):
                base = ref.add(ref.scale(ref.one(), c), lin)
                for e in range(ring.dimension + 3):
                    text = f"({c} + {div_class_str(ring, cls)})^{e}"
                    assert evaluate_expression(ring, text) == ref.power(base, e), text

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 3000])
    def test_top_power_of_the_hyperplane(self, n):
        ring = base_ring(n)
        assert evaluate_expression(ring, f"h1^{n}") == {(n,): 1}
        assert evaluate_expression(ring, f"h1^{n + 1}") == {}
        assert evaluate_expression(ring, f"deg(h1^{n})") == {(0,): 1}
        assert evaluate_expression(ring, f"deg((1 + h1)^{n})") == {(0,): 1}

    @settings(max_examples=120)
    @given(st.data())
    def test_mul_commutative_and_associative(self, data):
        dims = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
        rank = data.draw(st.sampled_from((0, 2, 3)))
        twists = [data.draw(st.lists(st.integers(-3, 3), min_size=len(dims),
                                     max_size=len(dims))) for _ in range(rank)]
        ring, _ = ring_pair(dims, twists)
        mono = st.tuples(*[st.integers(0, n) for n in dims],
                         *([st.integers(0, rank - 1)] if rank else []))
        element = st.dictionaries(mono, st.integers(-4, 4), max_size=4).map(ring.reduce)
        a, b, c = data.draw(element), data.draw(element), data.draw(element)
        assert expr_mul(ring, a, b) == expr_mul(ring, b, a)
        assert (expr_mul(ring, expr_mul(ring, a, b), c)
                == expr_mul(ring, a, expr_mul(ring, b, c)))


# pieces of class-expression text, valid and not, joined at random; an
# exponent of three or more digits is left out, because (c + n)^e computes
# c^e in full and can run without bound on either parser
_EXPRESSION_ATOMS = ["h1", "h2", "h3", "h0", "h01", "xi", "K", "deg", "2", "0", "10",
                     "(", ")", "+", "-", "*", "^", "^2", "^3", ",", "$", "x", "h1^2",
                     "deg(", " "]
_JOINED_ATOMS = (st.lists(st.sampled_from(_EXPRESSION_ATOMS), max_size=16).map("".join)
                 .filter(lambda text: re.search(r"\^\s*\d{3}", text) is None))
# the same pieces nested by the grammar, so most texts are valid; at most
# three powers keep every constant's power small
_NESTED_ATOMS = st.recursive(
    st.sampled_from(["h1", "h2", "h3", "xi", "K", "2", "0", "10"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", " ", ""]), inner).map("".join),
        inner.map("({})".format),
        inner.map("deg({})".format),
        inner.map("-{}".format),
        st.tuples(inner, st.sampled_from(["^0", "^1", "^2", "^3"])).map("".join)),
    max_leaves=8).filter(lambda text: text.count("^") <= 3)


def _outcome(evaluate, ring, text):
    """The element ``evaluate`` returns, or its ParseError's message and position."""
    try:
        return evaluate(ring, text)
    except ParseError as exc:
        return str(exc), exc.pos


class TestIndexWalkAgainstCursor:
    """evaluate_expression against the cursor parser it replaced (tests/helpers),
    on a base ring and a bundle ring."""

    RINGS = [base_ring(1, 1), bundle_ring([1, 2], [[0, 0], [1, 2]])]

    def assert_same_outcome(self, text):
        for ring in self.RINGS:
            assert (_outcome(evaluate_expression, ring, text)
                    == _outcome(ref_evaluate_expression, ring, text)), text

    @settings(max_examples=1200)
    @given(st.one_of(_JOINED_ATOMS, _NESTED_ATOMS))
    def test_random_texts(self, text):
        self.assert_same_outcome(text)

    @pytest.mark.parametrize("depth", [199, 200, 201, 250])
    @pytest.mark.parametrize("open_,close", [("(", ")"), ("-", ""), ("deg(", ")")])
    def test_deep_nests(self, depth, open_, close):
        self.assert_same_outcome(open_ * depth + "h1" + close * depth)
