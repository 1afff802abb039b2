import random
import re
import sys
from decimal import Decimal
from operator import countOf

import pytest
from hypothesis import given, settings, strategies as st

import fanocheck.poly as poly_module
from fanocheck.poly import (
    EXPONENT_LIMIT,
    ExponentOverflowError,
    NonHomogeneousError,
    ParseError,
    Polynomial,
    Prime,
    VariableSet,
    ZeroPolynomialError,
    delta1,
    parse_poly,
    pow_mod_frobenius,
    tokenize,
    weighted_degree,
)
from helpers import (
    int_power,
    naive_delta1,
    pow_then_filter,
    random_homogeneous,
    random_nonzero_poly,
    random_poly,
    ref_grevlex_key,
    ref_is_variable_name,
    ref_layers,
    ref_parse_poly,
    ref_pow_mod_frobenius,
    ref_tokenize,
)


VS3 = VariableSet.unit("x0,x1,x2")
VS_XY = VariableSet.unit("x,y")
VS_XYZ = VariableSet.unit("x,y,z")
VS_W = VariableSet.weighted("x0,x1,x2,x3,y", [1, 1, 1, 1, 3])
VS_MULTI = VariableSet(("x0", "x1", "y0", "y1", "y2"),
                       ((1, 0), (1, 0), (0, 1), (0, 1), (0, 1)))


class TestPrime:
    def test_accepts_primes(self):
        for p in (2, 3, 5, 7, 11, 97):
            assert Prime(p).p == p

    def test_rejects_composites_and_range(self):
        for bad in (0, 1, 4, 6, 9, 91, 98, 101):
            with pytest.raises(ValueError):
                Prime(bad)


class TestParse:
    def test_basic_term_folding(self):
        f = parse_poly("x0^2*x1 + 3x2^3", VS3, 5)
        assert f.terms == {(2, 1, 0): 1, (0, 0, 3): 3}

    def test_coefficients_reduce_mod_p(self):
        f = parse_poly("7*x0 + 5", VS3, 5)
        assert f.terms == {(1, 0, 0): 2}

    def test_cancellation(self):
        f = parse_poly("2*x0 - x0", VS3, 5)
        assert f.terms == {(1, 0, 0): 1}

    def test_unary_minus_on_leading_term(self):
        f = parse_poly("-x0 + x1", VS3, 5)
        assert f.terms == {(1, 0, 0): 4, (0, 1, 0): 1}

    def test_adjacency_is_multiplication(self):
        assert parse_poly("2 x0 x1", VS3, 7) == parse_poly("2*x0*x1", VS3, 7)
        assert parse_poly("3x2^3", VS3, 7) == parse_poly("3*x2^3", VS3, 7)

    def test_unknown_variable_has_position(self):
        with pytest.raises(ParseError) as exc:
            parse_poly("x0 + w^2", VS3, 5)
        assert exc.value.pos == 5

    def test_bad_character_position(self):
        with pytest.raises(ParseError) as exc:
            parse_poly("x0 + @", VS3, 5)
        assert exc.value.pos == 5

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("x0 x1 +", VS3, 5)
        with pytest.raises(ParseError):
            parse_poly("", VS3, 5)

    def test_exponent_cap(self):
        with pytest.raises(ParseError):
            parse_poly("x0^65536", VS3, 5)

    @pytest.mark.parametrize("text,message,pos", [
        ('x^', 'expected an exponent (at position 2)', 2),
        ('x + + y', 'expected a term (at position 4)', 4),
        ('', 'expected a term (at position 0)', 0),
        ('x^y', 'expected an exponent (at position 2)', 2),
        ('x*', 'expected a variable name (at position 2)', 2),
        ('3 +', 'expected a term (at position 3)', 3),
        ('z', "unknown variable 'z' (at position 0)", 0),
        ('x^70000', 'exponent 70000 exceeds the cap 65536 (at position 0)', 0),
        ('x)', "unexpected ')' (at position 1)", 1),
        ('-', 'expected a term (at position 1)', 1),
        ('x^2^3', "unexpected '^' (at position 3)", 3),
        ('x # y', "unexpected character '#' (at position 2)", 2),
        ('x*3', 'expected a variable name (at position 2)', 2),
        ('2x + y)', "unexpected ')' (at position 6)", 6),
        ('x y^', 'expected an exponent (at position 4)', 4),
        ('(x)', 'expected a term (at position 0)', 0),
        ('y + x^65535*x', 'exponent cap 65536 exceeded (at position 4)', 4),
    ])
    def test_parse_error_messages(self, text, message, pos):
        vs = VariableSet.unit("x,y")
        with pytest.raises(ParseError) as exc:
            parse_poly(text, vs, 5)
        assert (str(exc.value), exc.value.pos) == (message, pos)

    def test_digits_are_what_int_accepts(self):
        # superscripts pass str.isdigit but not int(); other decimal scripts
        # pass both
        with pytest.raises(ParseError) as exc:
            tokenize("x^\u00b2 + y")
        assert (str(exc.value), exc.value.pos) == (
            "unexpected character '\u00b2' (at position 2)", 2)
        assert [(kind, text) for kind, text, _ in tokenize("x^\u0663")] == [
            ("ident", "x"), ("op", "^"), ("int", "\u0663"), ("end", "")]

    # ASCII and Arabic-Indic decimal digits: the lexer reads both as one run
    _DIGITS = "0123456789\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669"

    @classmethod
    def _long_literal(cls, rng, zeros, significant):
        """``zeros`` leading zeros, then ``significant`` digits led by a
        nonzero one, each digit's script drawn at random."""
        digits = [rng.choice(cls._DIGITS[::10]) for _ in range(zeros)]
        if significant:
            digits.append(rng.choice(cls._DIGITS[1:10] + cls._DIGITS[11:]))
            digits += [rng.choice(cls._DIGITS) for _ in range(significant - 1)]
        return "".join(digits)

    def test_long_literals_match_decimal(self):
        # runs past int()'s digit limit against Decimal, which has none
        rng = random.Random(4300)
        for significant in (0, 1, 5, 5, 5000, 9000, 14000, 20000):
            p = rng.choice([2, 3, 5, 7, 97])
            zeros = (rng.randint(5000, 20000) if significant < 5000
                     else rng.choice([0, 1, rng.randint(2, 3000)]))
            s = self._long_literal(rng, zeros, significant)
            value = int(Decimal(s))
            assert parse_poly(f"{s}*x + y", VS_XY, p) == Polynomial(
                p, VS_XY, {(1, 0): value % p, (0, 1): 1})
            if value < EXPONENT_LIMIT:
                assert parse_poly(f"y + x^{s}", VS_XY, p) == Polynomial(
                    p, VS_XY, {(value, 0): 1, (0, 1): 1})
                continue
            with pytest.raises(ParseError) as exc:
                parse_poly(f"y + x^{s}", VS_XY, p)
            assert str(exc.value) == (
                f"exponent {Decimal(s)} exceeds the cap {EXPONENT_LIMIT} (at position 4)")

    def test_long_coefficient_under_the_least_digit_limit(self):
        s = self._long_literal(random.Random(640), 700, 5000)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            f = parse_poly(f"{s}*x", VS_XY, 97)
        finally:
            sys.set_int_max_str_digits(limit)
        assert f.terms == {(1, 0): int(Decimal(s)) % 97}

    def test_read_int_matches_decimal(self):
        # the chow reader of whole literals: halves joined by powers of ten
        rng = random.Random(5000)
        ascii_digits, arabic_digits = self._DIGITS[:10], self._DIGITS[10:]
        for n in (5000, 5001, 9999, 12345, 20000):
            for digits in (ascii_digits, arabic_digits, self._DIGITS):
                s = "".join(rng.choice(digits) for _ in range(n))
                assert poly_module._read_int(s) == int(Decimal(s)), (n, digits[0])
            s = self._long_literal(rng, rng.randint(1, 3000), n - 3000)
            assert poly_module._read_int(s) == int(Decimal(s)), n
        for s in ("0", "7", "٧", "0" * 20000, "0" * 19999 + "1"):
            assert poly_module._read_int(s) == int(Decimal(s))

    def test_read_int_under_the_least_digit_limit(self):
        s = self._long_literal(random.Random(641), 700, 15000)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            value = poly_module._read_int(s)
        finally:
            sys.set_int_max_str_digits(limit)
        assert value == int(Decimal(s))

    def test_roundtrip_examples(self):
        for text in ("x0^2*x1 + 3*x2^3", "1", "0", "x0 + x1 + x2", "4*x0^3"):
            f = parse_poly(text, VS3, 5)
            assert parse_poly(str(f), VS3, 5) == f

    @settings(max_examples=150)
    @given(st.data())
    def test_roundtrip_random(self, data):
        p = data.draw(st.sampled_from([2, 3, 5, 7]))
        seed = data.draw(st.integers(0, 2**32 - 1))
        f = random_poly(random.Random(seed), VS3, p)
        assert parse_poly(str(f), VS3, p) == f


class TestGrading:
    def test_unit_weights(self):
        f = parse_poly("x0^4 + x1^4 + x2^4", VS3, 7)
        assert weighted_degree(f) == (4,)

    def test_weighted(self):
        f = parse_poly("x0^6 + y^2", VS_W, 11)
        assert weighted_degree(f) == (6,)

    def test_multigraded(self):
        names = ("x0", "x1", "x2", "y0", "y1", "y2")
        weights = tuple((1, 0) for _ in range(3)) + tuple((0, 1) for _ in range(3))
        vs = VariableSet(names, weights)
        f = parse_poly("x0*y0^2 + x1*y1^2", vs, 2)
        assert weighted_degree(f) == (1, 2)

    def test_inhomogeneous_raises_with_witnesses(self):
        f = parse_poly("x0^2 + x1", VS3, 5)
        with pytest.raises(NonHomogeneousError) as exc:
            weighted_degree(f)
        seen = {exc.value.mono_a, exc.value.mono_b}
        assert seen == {(2, 0, 0), (0, 1, 0)}

    def test_zero_raises(self):
        with pytest.raises(ZeroPolynomialError):
            weighted_degree(Polynomial.zero(5, VS3))

    @pytest.mark.parametrize("name", ["", " x", "x ", "x y", "2", "x-1", "x$", "x^2"])
    def test_unreferencable_name_rejected(self, name):
        with pytest.raises(ValueError, match="not an identifier"):
            VariableSet(("x0", name), ((1,), (1,)))

    def test_identifier_names_accepted(self):
        vs = VariableSet.unit(["x0", "_t", "y_1", "Z9"])
        f = parse_poly("x0*_t + y_1*Z9", vs, 5)
        assert str(f) == "x0*_t + y_1*Z9"

    # letters, ASCII and other decimal digits, superscripts and other
    # numerics, marks, spaces and the operator characters
    _NAME_CHARS = "xyZ_09\u00e9\u03b1\u0663\u00b2\u00bd\u2167\u0301 \t+^*-$"

    @pytest.mark.parametrize("name", [
        "", "x", "_", "x\u00b2", "\u00b2x", "x\u0663", "\u0663x", "\u03b1",
        "x\u0301", "\u2167", "x\u00bd", " x", "x\n", "x y", "x^2"])
    def test_name_check_examples_match_the_tokenizer(self, name):
        assert poly_module._is_variable_name(name) is ref_is_variable_name(name)

    def test_name_check_rejects_non_strings(self):
        for name in (None, 3, b"x", ("x",)):
            assert not poly_module._is_variable_name(name)
            assert not ref_is_variable_name(name)

    @settings(max_examples=400)
    @given(st.one_of(st.text(max_size=6), st.text(alphabet=_NAME_CHARS, max_size=6)))
    def test_name_check_matches_the_tokenizer(self, name):
        assert poly_module._is_variable_name(name) is ref_is_variable_name(name)

    # the name alphabet, more whitespace (no-break space, a separator
    # control, the line separator), the other operators and a stray symbol
    _LEX_CHARS = _NAME_CHARS + "\u00a0\x1c\u2028(),#"

    @settings(max_examples=600)
    @given(st.one_of(st.text(max_size=12), st.text(alphabet=_LEX_CHARS, max_size=12)))
    def test_lexer_matches_the_character_scan(self, text):
        assert _outcome(tokenize, text) == _outcome(ref_tokenize, text)

    @settings(max_examples=600)
    @given(st.text(alphabet="xyz0123 +-*^()#\u00b2\u0663", max_size=12),
           st.sampled_from([2, 5]))
    def test_parser_matches_the_recursive_descent(self, text, p):
        assert (_outcome(lambda t: parse_poly(t, VS_XY, p), text)
                == _outcome(lambda t: ref_parse_poly(t, VS_XY, p), text))

    def test_tokens_are_plain_tuples(self):
        tok = tokenize("x")[0]
        assert type(tok) is tuple
        assert tok == ("ident", "x", 0)


def _outcome(parse, text):
    """What ``parse(text)`` returns, or its ParseError's message and position."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.pos


def _bad_tuple(exponents: str) -> str:
    return "^" + re.escape(f"bad exponent tuple {exponents}") + "$"


class TestArithmetic:
    def test_pow_zero_is_one(self):
        f = parse_poly("x0 + x1", VS3, 5)
        assert (f ** 0) == Polynomial.constant(5, VS3, 1)

    def test_grevlex_leading_monomial(self):
        # same degree: the smaller exponent on the last variable wins
        f = parse_poly("x0*x2 + x1^2", VS3, 7)
        assert f.leading_monomial() == (0, 2, 0)
        # higher total degree always wins
        assert parse_poly("x0*x1 + x0^3", VS3, 7).leading_monomial() == (3, 0, 0)
        rng = random.Random(4099)
        for vs in (VS_XY, VS3, VS_W, VS_MULTI):
            for _ in range(40):
                g = random_nonzero_poly(rng, vs, 7, max_terms=8, max_exp=4)
                want = sorted(g.terms.items(), key=lambda t: ref_grevlex_key(t[0]),
                              reverse=True)
                assert g.sorted_terms() == want
                assert g.leading_monomial() == want[0][0]

    def test_frobenius_additivity_examples(self):
        for p in (2, 3, 5):
            f = parse_poly("x0 + 2*x1", VS3, p)
            g = parse_poly("x2^2 + x0*x1", VS3, p)
            assert (f + g) ** p == f ** p + g ** p

    def test_mul_overflow_guard(self):
        f = Polynomial(5, VS3, {(40000, 0, 0): 1})
        with pytest.raises(ExponentOverflowError, match=_bad_tuple("(80000, 0, 0)")):
            _ = f * f

    def test_immutability(self):
        f = parse_poly("x0", VS3, 5)
        with pytest.raises(AttributeError):
            f.terms = {}


# Each input rule of the polynomial layer: the call that breaks it, and the
# exception and message it raises.
INPUT_RULES = [
    (lambda: Polynomial(7, VS_XY, {(1,): 1}), ValueError,
     "monomial (1,) does not fit 2 variables"),
    (lambda: Polynomial(7, VS_XY, {(70000, 0): 1}), ExponentOverflowError,
     "bad exponent tuple (70000, 0)"),
    (lambda: Polynomial(7, VS_XY, {(0, -1): 1}), ExponentOverflowError,
     "bad exponent tuple (0, -1)"),
    (lambda: Polynomial.zero(7, VS_XY).leading_monomial(), ZeroPolynomialError,
     "zero polynomial has no leading monomial"),
    (lambda: parse_poly("x + y", VS_XY, 7) ** -1, ValueError, "negative exponent"),
    (lambda: pow_mod_frobenius(parse_poly("x + y", VS_XY, 7), -1, 7), ValueError,
     "negative exponent"),
    (lambda: VS_XY.index("z"), KeyError, "unknown variable 'z'"),
    (lambda: parse_poly("x", VS_XY, 7) + parse_poly("x", VS_XY, 5), ValueError,
     "polynomial lives in a different ring"),
    (lambda: parse_poly("x", VS_XY, 7) * parse_poly("x", VS_XYZ, 7), ValueError,
     "polynomial lives in a different ring"),
]


@pytest.mark.parametrize("call,error,message", INPUT_RULES,
                         ids=["short-monomial", "exponent-past-cap", "negative-exponent",
                              "zero-leading-monomial", "negative-power",
                              "negative-boxed-power", "unknown-variable",
                              "sum-across-primes", "product-across-variables"])
def test_input_rule(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert exc.value.args == (message,)


class TestPowModFrobenius:
    def test_single_variable_survives(self):
        for p in (2, 3, 5, 7):
            vs = VariableSet.unit("x0,x1")
            f = parse_poly("x0", vs, p)
            r = pow_mod_frobenius(f, p - 1, p)
            assert r.terms == {(p - 1, 0): 1}

    def test_rejects_non_power_of_p(self):
        f = parse_poly("x0", VS3, 5)
        with pytest.raises(ValueError):
            pow_mod_frobenius(f, 2, 10)
        with pytest.raises(ValueError):
            pow_mod_frobenius(f, 2, 1)

    def test_exponent_cap_raises(self):
        # 97^3 > 2**16, so a field can hold x^80000 and the exit checks the cap
        f = parse_poly("x^40000 + y", VS_XY, 97)
        with pytest.raises(ExponentOverflowError, match=_bad_tuple("(80000, 0)")):
            pow_mod_frobenius(f, 2, 97 ** 3)

    def test_matches_full_expansion_oracle_examples(self):
        f = parse_poly("x0^2 + x1*x2 + 2*x2", VS3, 3)
        assert pow_mod_frobenius(f, 4, 9) == pow_then_filter(f, 4, 9)

    @staticmethod
    def _count_calls(monkeypatch, name):
        calls = []
        kernel = getattr(poly_module, name)

        def counting(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(poly_module, name, counting)
        return calls

    def test_huge_exponent_uses_the_constant_term(self, monkeypatch):
        # in the q-box f^q is the constant term c, so f^e = c^(e//q) * f^(e mod q):
        # no product when q divides e, else one per nonzero base-p digit of e mod q,
        # less the first while c^(e//q) is 1
        calls = self._count_calls(monkeypatch, "_mul_packed")
        f = parse_poly("1 + x", VS_XY, 5)
        assert pow_mod_frobenius(f, 10**9, 5) == Polynomial.constant(5, VS_XY, 1)
        assert not calls
        g = parse_poly("2 + x", VS_XY, 5)
        e = 10**9 + 8
        assert pow_mod_frobenius(g, e, 5) == pow_then_filter(g, 3, 5) * pow(2, e // 5, 5)
        assert len(calls) == 1
        # 2^(10^9 // 5) = 1 mod 5: the one digit's part is the power itself
        e = 10**9 + 3
        assert pow(2, e // 5, 5) == 1
        assert pow_mod_frobenius(g, e, 5) == pow_then_filter(g, 3, 5)
        assert len(calls) == 1
        g = parse_poly("2 + x + 3*x*y^2", VS_XY, 5)
        for e, products in ((125 * 7 + 4 * 25 + 3 * 5 + 1, 3), (125 + 2 * 25 + 3, 2)):
            calls.clear()
            assert pow_mod_frobenius(g, e, 125) == ref_pow_mod_frobenius(g, e, 125)
            assert len(calls) == products

    def test_power_stops_at_first_zero_product(self, monkeypatch):
        # counted in layer passes: the first digit's part needs no product,
        # as the power before it is 1
        calls = self._count_calls(monkeypatch, "_layers")
        f = parse_poly("x^3", VS_XY, 5)
        # 20 = 4*5: at scale 5 only x^15 fits the 25-box, so the part of
        # digit 4 is empty and the power is zero
        assert pow_mod_frobenius(f, 20, 25).is_zero
        assert len(calls) == 1
        # digits go highest first, and the zero ends the loop before digit 2
        assert pow_mod_frobenius(f, 22, 25).is_zero
        assert len(calls) == 2

    def test_steps_stop_at_the_box(self, monkeypatch):
        # each term's steps stop at the largest j with j * max(m) * p^i < q,
        # and a term with no such j >= 1 is left out; a digit 2 squares the
        # terms with j >= 1 by pairs
        seen = []
        layers, square = poly_module._layers, poly_module._square_packed

        def recording_layers(items, p, top, box):
            seen.append((top, [(order.unpack(m), j) for m, _, j in items]))
            return layers(items, p, top, box)

        def recording_square(items, p, off, guard):
            seen.append((2, [order.unpack(m) for m, _ in items]))
            return square(items, p, off, guard)

        monkeypatch.setattr(poly_module, "_layers", recording_layers)
        monkeypatch.setattr(poly_module, "_square_packed", recording_square)
        f = parse_poly("1 + x*y + x^3 + x^5 + y^9", VS_XY, 5)
        order = poly_module._frobenius_box(f, 125)[0]
        # 53 = 2*25 + 0*5 + 3; at scale 25, x^5 reaches x^125 and y^9 more
        assert pow_mod_frobenius(f, 53, 125) == ref_pow_mod_frobenius(f, 53, 125)
        assert seen == [
            (2, [(0, 0), (25, 25), (75, 0)]),
            (3, [((0, 0), 3), ((0, 9), 3), ((1, 1), 3), ((3, 0), 3), ((5, 0), 3)]),
        ]

    def test_products_are_cut_before_a_field_overflows(self):
        # the 5-box packs 4-bit fields; the four x^4 steps of a digit 4 would
        # sum to x^16, which carries into y and reads as y^2*z*w inside the box
        f = parse_poly("x^4 + x^4*y + x^4*z + x^4*w", VariableSet.unit("x,y,z,w"), 5)
        assert pow_mod_frobenius(f, 4, 5).is_zero
        assert ref_pow_mod_frobenius(f, 4, 5).is_zero

    def test_zero_polynomial(self):
        zero = Polynomial.zero(7, VS_W)
        for q in (7, 49):
            assert pow_mod_frobenius(zero, 0, q) == Polynomial.constant(7, VS_W, 1)
            for e in (1, 6, q, q + 3):
                assert pow_mod_frobenius(zero, e, q).is_zero


class TestMulModFrobenius:
    """The boxed product f*g mod (x_i^q) that ``splitting.delta1_probe``
    forms: both factors packed once in the q-box of :func:`_frobenius_box`,
    multiplied by :func:`_mul_packed`, unpacked once."""

    @staticmethod
    def _boxed_product(f, g, q):
        order, box = poly_module._frobenius_box(f, q)
        fa, gb = ({order.pack(m): c for m, c in h.terms.items() if max(m) < q}
                  for h in (f, g))
        return order.polynomial(f.field, f.vars,
                                poly_module._mul_packed(fa, list(gb.items()), f.p, *box))

    def test_rejects_non_power_of_p(self):
        f = parse_poly("x0", VS3, 5)
        with pytest.raises(ValueError):
            self._boxed_product(f, f, 10)

    def test_products_outside_the_box_are_never_formed(self):
        # x^80000 leaves the 2**16-box before the cap could see it
        f = parse_poly("x^40000 + y", VS_XY, 2)
        assert str(self._boxed_product(f, f, 2 ** 16)) == "y^2"


class TestLayers:
    """The layer kernel, the count-k parts of a product of truncated
    exponentials mod p, against :func:`helpers.ref_layers`: unboxed and in
    the q-box, the top layer alone and every layer, and top = p + a."""

    @staticmethod
    def _support(items, nvars, top, q):
        """The monomials some product of steps reaches at each count, in
        the q-box where there is one: the keys the kernel forms."""
        layers = [{(0,) * nvars}] + [set() for _ in range(top)]
        for m, _, jmax in items:
            for k in range(top, 0, -1):
                for j in range(1, min(jmax, k) + 1):
                    for mono in layers[k - j]:
                        mm = tuple(x + j * e for x, e in zip(mono, m))
                        if q is None or max(mm, default=0) < q:
                            layers[k].add(mm)
        return layers

    def _check(self, items, nvars, p, top, q, every):
        """Compare the kernel's layers with the oracle; return how many
        entries hold a cancelled coefficient."""
        if q is None:
            most = max(max(m, default=0) for m, _, _ in items) or 1
            order, box = poly_module._packing(nvars, (top * most).bit_length() + 1), (0, 0)
        else:
            order = poly_module._packing(nvars, (q - 1).bit_length() + 1)
            box = order.box([q] * nvars)
        packed = [(order.pack(m), a, j) for m, a, j in items]
        got = poly_module._layers(packed, p, top, box, every)
        want = ref_layers(items, nvars, p, top, q)
        support = self._support(items, nvars, top, q)
        ks = range(top + 1) if every else [top]
        layers = got if every else [got]
        assert len(layers) == len(ks)
        zeros = 0
        for k, layer in zip(ks, layers):
            assert all(0 <= c < p for c in layer.values())
            terms = {order.unpack(m): c for m, c in layer.items()}
            assert {m: c for m, c in terms.items() if c} == want[k], (items, p, top, q, k)
            # a cancelled coefficient stays as a zero entry
            assert set(terms) == support[k], (items, p, top, q, k)
            zeros += countOf(terms.values(), 0)
        return zeros

    @staticmethod
    def _items(rng, nvars, p, q):
        """Up to six items with distinct monomials and nonzero coefficients;
        in the q-box, only monomials inside it, each one's steps stopping at
        the box, as the carry probes have them."""
        pool = [0, 0, 1, 1, 2, 3] + ([q - 1, q // p] if q else [])
        monos = {tuple(rng.choice(pool) for _ in range(nvars)) for _ in range(rng.randint(2, 6))}
        items = []
        for m in sorted(monos):
            if q and max(m) >= q:
                continue
            jmax = p - 1 if q is None else min(p - 1, (q - 1) // (max(m) or 1))
            items.append((m, rng.choice([-1, 1]) * rng.randrange(1, p), rng.randint(1, jmax)))
        return items

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_seeded_against_the_product_oracle(self, p):
        rng = random.Random(6151 * p)
        # x*y*z from x times y*z and from x*y times z: a_1 a_2 + a_3 a_4 = 0
        cancelling = [((1, 0, 0), 1, 1), ((0, 1, 1), 1, 1), ((1, 1, 0), 1, 1),
                      ((0, 0, 1), -1, 1)]
        for q in (None, p, p * p):
            assert self._check(cancelling, 3, p, 2, q, True)
            for _ in range(12 if p < 11 else 4):
                nvars = rng.randint(1, 3)
                items = self._items(rng, nvars, p, q)
                for top, every in ((p, False), (p, True), (p + rng.randrange(p), False)):
                    self._check(items, nvars, p, top, q, every)

    @pytest.mark.parametrize("p", [31, 97])
    def test_large_p_against_the_product_oracle(self, p):
        # the multiplication table of _times at the largest fields, one
        # draw of at most three items, unboxed and in the p-box
        rng = random.Random(6151 * p)
        assert poly_module._times(p)[p - 1] == tuple(-c % p for c in range(p))
        for q in (None, p):
            items = self._items(rng, 2, p, q)[:3]
            self._check(items, 2, p, p, q, True)


class TestPackedBox:
    """_PackedOrder.box against the tuple predicate "some e_i >= bounds[i]"."""

    @staticmethod
    def _shape(data):
        """A packing and bounds, uniform or not, on a prefix of its fields;
        the fields past them are open."""
        width = data.draw(st.integers(2, 6), label="width")
        n = data.draw(st.integers(1, 4), label="n")
        bounds = data.draw(st.lists(st.integers(1, 1 << (width - 1)),
                                    max_size=n), label="bounds")
        return poly_module._packing(n, width), bounds

    @settings(max_examples=300)
    @given(st.data())
    def test_flags_exactly_the_exponents_past_their_bounds(self, data):
        order, bounds = self._shape(data)
        off, guard = order.box(bounds)
        n, half = len(order.shifts), 1 << (order.width - 1)
        # a bounded field holds e < 2**(width-1) + bound, an open one any
        # field value, the top one, if open, more
        highs = [b + half - 1 for b in bounds] + [2 * half - 1] * (n - len(bounds))
        if len(bounds) < n:
            highs[-1] *= 4
        mono = tuple(data.draw(st.integers(0, h)) for h in highs)
        flagged = any(e >= b for e, b in zip(mono, bounds))
        assert bool((order.pack(mono) + off) & guard) == flagged

    @settings(max_examples=100)
    @given(st.data())
    def test_boxed_product_keeps_the_in_box_terms(self, data):
        # mod p in any box, or in the q-box of _frobenius_box, q = p^s, as
        # the probe and the boxed power have it; exponents lean to 0 and to
        # the box's edge
        mod = data.draw(st.sampled_from((2, 3, 5, 7, 31, 97)), label="mod")
        if data.draw(st.booleans(), label="any box"):
            order, bounds = self._shape(data)
        else:
            q = mod ** data.draw(st.integers(1, 3), label="s")
            bounds = [q] * data.draw(st.integers(1, 4), label="n")
            order = poly_module._packing(len(bounds), (q - 1).bit_length() + 1)
        n, half = len(order.shifts), 1 << (order.width - 1)
        caps = bounds + [half] * (n - len(bounds))
        mono = st.tuples(*[st.sampled_from((0, c // 2, c - 1)) | st.integers(0, c - 1)
                           for c in caps])
        coeff = st.integers(0, mod - 1)
        a = data.draw(st.dictionaries(mono, coeff, max_size=5))
        b = data.draw(st.dictionaries(mono, coeff, max_size=5))
        expect = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = tuple(map(sum, zip(ma, mb)))
                if all(e < c for e, c in zip(m, bounds)):
                    expect[m] = expect.get(m, 0) + ca * cb
        got = poly_module._mul_packed(order.pack_terms(a), list(order.pack_terms(b).items()),
                                      mod, *order.box(bounds))
        expect = {m: c % mod for m, c in expect.items()}
        assert order.unpack_terms(got) == {m: c for m, c in expect.items() if c}


class TestPackingLayout:
    """The rows-free packings keep their layout; ``_grevlex`` builds its
    units by one suffix sum and must match the definition, the prefix-sum
    rows e_0 + ... + e_k packed above the exponents, fields and rows at
    one stride."""

    @pytest.mark.parametrize("n,width,units,guard", [
        (1, 2, (1,), 0x2),
        (3, 3, (1, 8, 64), 0x124),
        (5, 3, (1, 8, 64, 512, 4096), 0x4924),
        (4, 7, (1, 128, 16384, 2097152), 0x8102040),
        (2, 18, (1, 262144), 0x800020000),
    ])
    def test_rows_free_layout(self, n, width, units, guard):
        order = poly_module._packing(n, width)
        assert order.units == units
        assert order.guard == guard
        assert order.mask == (1 << width) - 1
        assert order.shifts == tuple(i * width for i in range(n))
        assert order.spacing == width

    def test_term_order_units(self):
        # n = 3: stride 18, fields at bits 0, 18, 36, rows at 54, 72, 90
        assert poly_module._grevlex(3).units == (
            0x40001000040000000000001, 0x40001000000000000040000, 0x40000000000001000000000)
        assert poly_module._grevlex(3).guard == 0x10000400010000

    @pytest.mark.parametrize("n", range(1, 9))
    def test_grevlex_layout_from_its_rows(self, n):
        # row k = e_0 + ... + e_k; the 17-bit exponent fields and the rows
        # share one stride rw, wide enough for n capped exponents and never
        # below 17, with row k at n*rw + k*rw, row 0 lowest
        width = 17
        rw = max(width, (n * (EXPONENT_LIMIT - 1)).bit_length())
        rows = [[int(i <= k) for i in range(n)] for k in range(n)]
        units = tuple((1 << i * rw) + sum(row[i] << (n * rw + k * rw)
                                          for k, row in enumerate(rows))
                      for i in range(n))
        order = poly_module._grevlex(n)
        assert order.units == units
        assert order.guard == sum(1 << (i * rw + width - 1) for i in range(n))
        assert order.shifts == tuple(i * rw for i in range(n))
        assert order.mask == (1 << width) - 1
        assert order.width == width
        assert order.spacing == rw

    @pytest.mark.parametrize("n", range(1, 9))
    def test_grevlex_rows_are_prefix_sums(self, n):
        # the rows of a packed exponent vector are one multiply by the
        # exponent units, masked to n fields and shifted up, up to the cap
        rng = random.Random(f"rows {n}")
        order = poly_module._grevlex(n)
        top = n * order.spacing
        fields, ones = (1 << top) - 1, sum(1 << s for s in order.shifts)
        for mono in [(EXPONENT_LIMIT - 1,) * n] + [
                tuple(rng.choice((0, 1, rng.randint(0, EXPONENT_LIMIT - 1)))
                      for _ in range(n)) for _ in range(40)]:
            packed = order.pack(mono)
            e = packed & fields
            assert e == sum(x << s for x, s in zip(mono, order.shifts))
            assert packed == e + (((e * ones) & fields) << top)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_term_orders_sort_like_their_keys(self, n):
        rng = random.Random(n)
        monos = {tuple(rng.randint(0, 9) for _ in range(n)) for _ in range(60)}
        monos |= {tuple(rng.choice((0, EXPONENT_LIMIT - 1)) for _ in range(n))
                  for _ in range(10)}
        order = poly_module._grevlex(n)
        assert sorted(monos, key=order.pack) == sorted(monos, key=ref_grevlex_key)
        assert all(order.unpack(order.pack(m)) == m for m in monos)


class TestKernelOracles:
    """delta1 against sympy's integer powers, an oracle outside fanocheck."""

    def test_delta1_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(4242)
        for p in (2, 3, 5, 7, 11):
            for vs in (VS_W, VS_MULTI):
                f = random_poly(rng, vs, p, max_terms=5, max_exp=2)
                if f.num_terms < 2:
                    continue
                gens = sympy.symbols(vs.names)
                lifted = sympy.Poly.from_dict(f.terms, gens, domain=sympy.ZZ)
                pure = sympy.Poly.from_dict(
                    {tuple(p * e for e in m): c ** p for m, c in f.terms.items()},
                    gens, domain=sympy.ZZ)
                total = lifted ** p - pure
                assert all(c % p == 0 for c in total.coeffs())
                expect = Polynomial(p, vs, {m: int(c) // p for m, c in total.terms()})
                assert delta1(f) == expect


class TestDelta1:
    def test_two_terms_p2(self):
        assert str(delta1(parse_poly("x + y", VS_XY, 2))) == "x*y"

    def test_three_terms_p2(self):
        d = delta1(parse_poly("x + y + z", VS_XYZ, 2))
        assert d == parse_poly("x*y + y*z + z*x", VS_XYZ, 2)

    def test_two_terms_p3(self):
        d = delta1(parse_poly("x + y", VS_XY, 3))
        assert d == parse_poly("x^2*y + x*y^2", VS_XY, 3)

    def test_single_term_is_zero(self):
        assert delta1(parse_poly("2*x^3", VS_XY, 5)).is_zero
        assert delta1(Polynomial.zero(3, VS_XY)).is_zero

    def test_scaling(self):
        rng = random.Random(7)
        for p in (2, 3, 5):
            f = random_poly(rng, VS3, p, max_terms=4, max_exp=2)
            for lam in range(p):
                assert delta1(f * lam) == delta1(f) * lam

    def test_homogeneity_degree_scales_by_p(self):
        rng = random.Random(99)
        for _ in range(30):
            p = rng.choice([2, 3, 5])
            d = rng.randint(1, 4)
            f = random_homogeneous(rng, VS3, p, d)
            df = delta1(f)
            if not df.is_zero:
                assert weighted_degree(df) == (p * d,)

    def test_weighted_homogeneity(self):
        f = parse_poly("x0^6 + x1^6 + x2^6 + x3^6 + y^2", VS_W, 5)
        assert weighted_degree(delta1(f)) == (30,)

    def test_exponent_cap_still_raises(self):
        # the carry term x^(96*700)*y is past the 2**16 cap; the pure power
        # x^(97*700) of f^p is no carry term, so it is not what raises
        with pytest.raises(ExponentOverflowError, match=_bad_tuple("(67200, 1)")):
            delta1(parse_poly("x^700 + y", VS_XY, 97))

    def test_carry_just_below_the_cap_is_exact(self):
        # p = 2: the one carry term of x^a*y + x^a*z is x^(2a)*y*z, p times
        # f's top exponent, the top of x's radix digit; at 2a = 2**16 - 2 it
        # is below the cap, and the term is exact
        f = parse_poly("x^32767*y + x^32767*z", VS_XYZ, 2)
        assert delta1(f) == Polynomial(2, VS_XYZ, {(65534, 1, 1): 1})

    def test_carry_exactly_at_the_cap_raises(self):
        f = parse_poly("x^32768*y + x^32768*z", VS_XYZ, 2)
        with pytest.raises(ExponentOverflowError, match=_bad_tuple("(65536, 1, 1)")):
            delta1(f)

    def test_pure_power_past_the_cap_is_no_carry_term(self):
        # f^p holds x^(97*676) = x^65572, past the cap, but every carry term
        # stays at or below x^(96*676) = x^64896
        f = parse_poly("x^676 + y", VS_XY, 97)
        assert delta1(f) == naive_delta1(f)

    def test_witt_addition_law_disjoint_supports(self):
        # delta1(f+g) - delta1(f) - delta1(g) == ((f~+g~)^p - f~^p - g~^p)/p
        # for term-disjoint f and g, lifting coefficients to 0..p-1
        rng = random.Random(31337)
        for _ in range(40):
            p = rng.choice([2, 3, 5])
            f = random_poly(rng, VS_XY, p, max_terms=3, max_exp=2)
            g_terms = {}
            for _ in range(rng.randint(0, 3)):
                mono = (rng.randint(0, 2), rng.randint(3, 5))  # disjoint by y-exp
                g_terms[mono] = rng.randint(0, p - 1)
            g = Polynomial(p, VS_XY, g_terms)
            assert not (set(f.terms) & set(g.terms))
            lifted_sum = dict(f.terms)
            for m, c in g.terms.items():
                lifted_sum[m] = lifted_sum.get(m, 0) + c
            total = int_power(lifted_sum, p, 2)
            for part in (f.terms, g.terms):
                for m, c in int_power(part, p, 2).items():
                    total[m] = total.get(m, 0) - c
            carry = Polynomial(p, VS_XY, {m: (c // p) % p for m, c in total.items()
                                          if c % p == 0 and c // p})
            assert all(c % p == 0 for c in total.values())
            assert delta1(f + g) - delta1(f) - delta1(g) == carry
