"""Integer intersection rings for products of projective spaces, optionally
carrying a split projective bundle on top.

Generators h1..hk are the hyperplane pullbacks with h_i^(n_i+1) = 0.  For a
bundle P(O(a_1) + ... + O(a_r)) the extra generator xi obeys

    prod_j (xi - sum_c a_{j,c} h_c) = 0,

the normalization in which O(1) restricts to O(a_j) on the j-th coordinate
section.  The degree map reads off the coefficient of
h1^n1 ... hk^nk * xi^(r-1), the unique monomial of top dimension.  All
arithmetic is exact over the integers, on monomials packed, boxed and
multiplied by poly's packing and kernel and printed by its term printer;
reduce, class_element and element_str take and return {exponent tuple: int}
dicts.
"""

from __future__ import annotations

from collections.abc import Sequence

from .poly import (
    ParseError,
    _mul_packed,
    _packing,
    _read_int,
    _Value,
    mono_str,
    tokenize,
)


class DimensionMismatchError(ValueError):
    """Wrong number of classes, coefficients or exponents for the ring."""


class NonP1FactorError(ValueError):
    """Cotangent splitting shortcut only applies to products of P^1."""


class ProductBase(_Value):
    """Product of ordinary projective spaces P^(n_1) x ... x P^(n_k)."""

    __slots__ = ("dims",)

    def __init__(self, dims: tuple):
        if not dims or any(n < 1 for n in dims):
            raise ValueError("factor dimensions must be positive")
        self._init(dims)


class SplitBundleSpec(_Value):
    """Projectivization of a direct sum of line bundles O(a_j) on the base."""

    __slots__ = ("base", "twists")  # twists: one multi-twist tuple per summand

    def __init__(self, base: ProductBase, twists: tuple):
        if len(twists) < 2:
            raise ValueError("need at least two summands to projectivize")
        k = len(base.dims)
        for t in twists:
            if len(t) != k:
                raise ValueError("each twist needs one entry per base factor")
        self._init(base, twists)

    @property
    def rank(self) -> int:
        return len(self.twists)


class DivClass(_Value):
    """Integer divisor class c_1*h1 + ... + c_k*hk + xi_coeff * xi."""

    __slots__ = ("h", "xi")

    def __init__(self, h: tuple, xi: int = 0):
        self._init(tuple(h), xi)


def _chow_mono_key(mono):
    """Display order: xi-power first, then total degree, then earlier h's."""
    return (mono[-1], sum(mono), tuple(-e for e in reversed(mono[:-1])))


class IntersectionRing:
    """Chow ring of the base, or of a split bundle over it."""

    def __init__(self, base: ProductBase, bundle: SplitBundleSpec | None = None):
        if bundle is not None and bundle.base != base:
            raise ValueError("bundle is declared over a different base")
        self.base = base
        self.bundle = bundle
        self.k = len(base.dims)
        self.rank = bundle.rank if bundle else 0
        self.ngens = self.k + (1 if bundle else 0)
        self.dimension = sum(base.dims) + (self.rank - 1 if bundle else 0)
        # each h field holds n_i and a guard bit; unpacking masks every
        # field, so each also holds the largest reduced xi power, rank - 1
        order = _packing(self.ngens, max(max(base.dims).bit_length() + 1,
                                         (self.rank - 1).bit_length()))
        self._order = order
        self._box = order.box([n + 1 for n in base.dims])
        self._top = order.pack(tuple(base.dims) + ((self.rank - 1,) if bundle else ()))
        self._xi_top = self.rank * order.units[-1] if bundle else None
        self._xi_rule = self._build_xi_rule() if bundle else None
        # the generators by the names element_str prints and expressions read
        names = [f"h{i + 1}" for i in range(self.k)] + (["xi"] if bundle else [])
        self._symbols = dict(zip(names, order.units))

    # -- element plumbing: {packed monomial: int} inside, {exponent tuple:
    # int} with the xi slot last at the boundary (reduce, class_element,
    # element_str).  Monomials pack by poly's packing; its box holds h_i
    # below n_i + 1 and leaves the xi field on top open, so xi^r divides m
    # exactly when m >= _xi_top.

    def _pack(self, el: dict) -> dict:
        """The one boundary check; monomials outside the h-box are zero."""
        out = {}
        for mono, c in el.items():
            if len(mono) != self.ngens:
                raise DimensionMismatchError(
                    f"monomial {mono} has {len(mono)} exponents, ring has {self.ngens}")
            if min(mono) < 0:
                raise ValueError(f"negative exponent in monomial {mono}")
            if c and all(e <= n for e, n in zip(mono, self.base.dims)):
                out[self._order.pack(mono)] = c
        return out

    def _unpack(self, el: dict) -> dict:
        return self._order.unpack_terms(el)

    def _times(self, a: dict, factor: list) -> dict:
        return _mul_packed(a, factor, None, *self._box)

    def _build_xi_rule(self) -> list:
        """xi^r rewritten as lower xi-powers, from prod_j (xi - a_j . h) = 0,
        cut to the h-box as it is built."""
        *h_units, xi = self._order.units
        rel = {0: 1}
        for twist in self.bundle.twists:
            rel = self._times(rel, [(xi, 1)] + [(u, -a) for u, a in zip(h_units, twist) if a])
        assert rel.pop(self._xi_top) == 1
        return [(m, -c) for m, c in rel.items()]

    def _reduce(self, el: dict) -> dict:
        """Rewrite xi^r by the rule until no term has it; ``el`` is in the
        h-box and loses its xi^r terms in place."""
        top = self._xi_top
        while top is not None:
            high = {m - top: el.pop(m) for m in [m for m in el if m >= top]}
            if not high:
                break
            el = self.add(el, self._times(high, self._xi_rule))
        return el

    def _mul(self, a: dict, b: dict) -> dict:
        return self._reduce(self._times(a, list(b.items())))

    def _class(self, cls: DivClass) -> dict:
        if len(cls.h) != self.k:
            raise DimensionMismatchError(
                f"class has {len(cls.h)} base coefficients, ring has {self.k}")
        if cls.xi and not self.bundle:
            raise DimensionMismatchError("xi coefficient in a ring without a bundle")
        return {u: c for u, c in zip(self._order.units, cls.h + (cls.xi,)) if c}

    def reduce(self, el: dict) -> dict:
        """Apply h-truncation and the xi rewriting rule until stable."""
        return self._unpack(self._reduce(self._pack(el)))

    def add(self, a: dict, b: dict) -> dict:
        out = dict(a)
        for m, c in b.items():
            out[m] = out.get(m, 0) + c
        return {m: c for m, c in out.items() if c}

    def scale(self, a: dict, c: int) -> dict:
        return {m: c * v for m, v in a.items()} if c else {}

    def class_element(self, cls: DivClass) -> dict:
        return self._unpack(self._class(cls))

    def element_str(self, el: dict) -> str:
        el = self.reduce(el)
        if not el:
            return "0"
        names = list(self._symbols)
        pad = (0,) if not self.bundle else ()
        keyed = sorted(el.items(), key=lambda t: _chow_mono_key(t[0] + pad),
                       reverse=True)
        parts = [("-" if coeff < 0 else "+", mono_str(names, mono, abs(coeff)))
                 for mono, coeff in keyed]
        first_sign, first_body = parts[0]
        text = (first_sign if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


# ---------------------------------------------------------------------------
# intersection numbers and standard classes
# ---------------------------------------------------------------------------

def intersect(ring: IntersectionRing, classes: Sequence[DivClass]) -> int:
    """Intersection number of dim-many divisor classes."""
    if len(classes) != ring.dimension:
        raise DimensionMismatchError(
            f"need {ring.dimension} classes, got {len(classes)}")
    el = {0: 1}
    for cls in classes:
        el = ring._mul(el, ring._class(cls))
    return el.get(ring._top, 0)


def canonical_class(ring: IntersectionRing) -> DivClass:
    """Canonical class: relative Euler sequence on top of the base factors."""
    base_part = [-(n + 1) for n in ring.base.dims]
    if not ring.bundle:
        return DivClass(tuple(base_part), 0)
    for twist in ring.bundle.twists:
        for c, a in enumerate(twist):
            base_part[c] += a
    return DivClass(tuple(base_part), -ring.rank)


def section_class(ring: IntersectionRing, j: int) -> DivClass:
    """Divisor class of the j-th coordinate section of a rank-2 bundle."""
    if not ring.bundle or ring.rank != 2:
        raise ValueError("coordinate sections are divisors only for rank 2")
    if j not in (0, 1):
        raise ValueError("section index must be 0 or 1")
    other = ring.bundle.twists[1 - j]
    return DivClass(tuple(-a for a in other), 1)


def omega_twist_factors(base: ProductBase, twist: DivClass) -> list:
    """Line-bundle factors of the twisted cotangent bundle on a product of P^1.

    On (P^1)^k the cotangent bundle splits as the sum of O(-2 e_i); twisting
    by O(t) gives factors O(t - 2 e_i).
    """
    if any(n != 1 for n in base.dims):
        raise NonP1FactorError("cotangent bundle splits only over products of P^1")
    if twist.xi:
        raise ValueError("twist must be a base class")
    if len(twist.h) != len(base.dims):
        raise DimensionMismatchError("twist does not match the base")
    out = []
    for i in range(len(base.dims)):
        coeffs = list(twist.h)
        coeffs[i] -= 2
        out.append(DivClass(tuple(coeffs), 0))
    return out


def div_class_str(ring: IntersectionRing, cls: DivClass) -> str:
    return ring.element_str(ring.class_element(cls))


# ---------------------------------------------------------------------------
# class expression mini-language (CLI and corpus checks)
# ---------------------------------------------------------------------------

MAX_NESTING = 200


class _ExprParser:
    """expr := term (('+'|'-') term)*; term := factor ('*'? factor)*;
    factor := '-' factor | int | ident ['^' int] | '(' expr ')' | deg(expr).

    Identifiers by exact name: h1..hk, xi (bundle rings), K (canonical class).
    Factors nest at most MAX_NESTING deep (parentheses, deg() and unary
    minus), so deep input is a ParseError, not a RecursionError.  Every
    element is packed and reduced.  The token list is walked by index, as
    parse_poly walks it: every read checks a token's kind or text, so the
    walk stops at the "end" token, and an operator's text is one character
    no other token has.
    """

    def __init__(self, ring: IntersectionRing, tokens: list):
        self.ring = ring
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def expect(self, ch: str):
        _, word, pos = self.tokens[self.i]
        if word != ch:
            raise ParseError(f"expected {ch!r}", pos)
        self.i += 1

    def parse(self) -> dict:
        el = self.expr()
        kind, word, pos = self.tokens[self.i]
        if kind != "end":
            raise ParseError(f"unexpected {word!r}", pos)
        return el

    def expr(self) -> dict:
        el = self.term()
        while True:
            word = self.tokens[self.i][1]
            if word != "+" and word != "-":
                return el
            self.i += 1
            rhs = self.term()
            el = self.ring.add(el, rhs if word == "+" else self.ring.scale(rhs, -1))

    def term(self) -> dict:
        el = self.factor()
        while True:
            kind, word, pos = self.tokens[self.i]
            if word == "*":
                self.i += 1
            elif kind != "int" and kind != "ident" and word != "(":
                return el
            el = self.ring._mul(el, self.factor())

    def factor(self) -> dict:
        if self.depth == MAX_NESTING:
            raise ParseError("expression nested too deeply", self.tokens[self.i][2])
        self.depth += 1
        el = self._factor()
        self.depth -= 1
        return el

    def _factor(self) -> dict:
        ring = self.ring
        kind, word, pos = self.tokens[self.i]
        self.i += 1
        if word == "-":
            return ring.scale(self.factor(), -1)
        if kind == "int":
            return ring.scale({0: 1}, _read_int(word))
        if word == "(":
            el = self.expr()
            self.expect(")")
            return self._maybe_power(el)
        if kind != "ident":
            raise ParseError("expected a class expression", pos)
        if word == "deg":
            self.expect("(")
            el = self.expr()
            self.expect(")")
            return ring.scale({0: 1}, el.get(ring._top, 0))
        if word == "K":
            return self._maybe_power(ring._class(canonical_class(ring)))
        if word in ring._symbols:
            return self._maybe_power({ring._symbols[word]: 1})
        if word == "xi":
            raise ParseError("xi needs a bundle ring", pos)
        raise ParseError(f"unknown symbol {word!r}", pos)

    def _maybe_power(self, el: dict) -> dict:
        if self.tokens[self.i][1] == "^":
            kind, digits, pos = self.tokens[self.i + 1]
            if kind != "int":
                raise ParseError("expected an exponent", pos)
            self.i += 2
            e = _read_int(digits)
            # el = c + n with n of positive degree; classes above the
            # dimension vanish, so (c + n)^e = sum_k C(e, k) c^(e-k) n^k
            # ends at the first zero power of n, however large e is
            ring = self.ring
            c = el.get(0, 0)
            n = {m: v for m, v in el.items() if m}
            n_k = {0: 1}
            if not c:
                for _ in range(e):
                    n_k = ring._mul(n_k, n)
                    if not n_k:
                        break
                return n_k
            # b = C(e, k) c^(e-k), stepped down from c^e by exact division
            b = c ** e
            out = {0: b}
            for k in range(1, e + 1):
                n_k = ring._mul(n_k, n)
                if not n_k:
                    break
                b = b * (e - k + 1) // (k * c)
                for m, v in n_k.items():
                    out[m] = out.get(m, 0) + b * v
            return {m: v for m, v in out.items() if v}
        return el


def evaluate_expression(ring: IntersectionRing, text: str) -> dict:
    """Evaluate a class expression to a reduced ring element."""
    return ring._unpack(_ExprParser(ring, tokenize(text)).parse())

