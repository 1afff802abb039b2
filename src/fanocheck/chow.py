"""Integer intersection rings for products of projective spaces, optionally
carrying a split projective bundle on top.

Generators h1..hk are the hyperplane pullbacks with h_i^(n_i+1) = 0.  For a
bundle P(O(a_1) + ... + O(a_r)) the extra generator xi obeys

    prod_j (xi - sum_c a_{j,c} h_c) = 0,

the normalization in which O(1) restricts to O(a_j) on the j-th coordinate
section.  The degree map reads off the coefficient of
h1^n1 ... hk^nk * xi^(r-1), the unique monomial of top dimension.  All
arithmetic is exact over the integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .poly import ParseError, _parse_uint, _TokenStream, tokenize


class DimensionMismatchError(ValueError):
    """Wrong number of divisor classes for the ring dimension."""


class NonP1FactorError(ValueError):
    """Cotangent splitting shortcut only applies to products of P^1."""


@dataclass(frozen=True)
class ProductBase:
    """Product of ordinary projective spaces P^(n_1) x ... x P^(n_k)."""

    dims: tuple

    def __post_init__(self):
        if not self.dims or any(n < 1 for n in self.dims):
            raise ValueError("factor dimensions must be positive")


@dataclass(frozen=True)
class SplitBundleSpec:
    """Projectivization of a direct sum of line bundles O(a_j) on the base."""

    base: ProductBase
    twists: tuple  # one multi-twist tuple per summand

    def __post_init__(self):
        if len(self.twists) < 2:
            raise ValueError("need at least two summands to projectivize")
        k = len(self.base.dims)
        for t in self.twists:
            if len(t) != k:
                raise ValueError("each twist needs one entry per base factor")

    @property
    def rank(self) -> int:
        return len(self.twists)


@dataclass(frozen=True)
class DivClass:
    """Integer divisor class c_1*h1 + ... + c_k*hk + xi_coeff * xi."""

    h: tuple
    xi: int = 0

    def __post_init__(self):
        object.__setattr__(self, "h", tuple(self.h))


def _chow_mono_key(mono):
    """Display order: xi-power first, then total degree, then earlier h's."""
    return (mono[-1], sum(mono), tuple(-e for e in reversed(mono[:-1])))


class IntersectionRing:
    """Chow ring of the base, or of a split bundle over it."""

    def __init__(self, base: ProductBase, bundle: Optional[SplitBundleSpec] = None):
        if bundle is not None and bundle.base != base:
            raise ValueError("bundle is declared over a different base")
        self.base = base
        self.bundle = bundle
        self.k = len(base.dims)
        self.rank = bundle.rank if bundle else 0
        self.ngens = self.k + (1 if bundle else 0)
        self.dimension = sum(base.dims) + (self.rank - 1 if bundle else 0)
        self._top = tuple(base.dims) + ((self.rank - 1,) if bundle else ())
        self._xi_rule = self._build_xi_rule() if bundle else None

    # -- element plumbing: dict {exponent tuple: int}, xi slot last ---------

    def zero(self) -> dict:
        return {}

    def one(self) -> dict:
        return {(0,) * self.ngens: 1}

    def generator(self, i: int) -> dict:
        mono = tuple(1 if j == i else 0 for j in range(self.ngens))
        return {mono: 1}

    def _build_xi_rule(self) -> dict:
        """xi^r rewritten as lower xi-powers, from prod_j (xi - a_j . h) = 0."""
        rel = self.one()
        xi_mono = tuple(0 if j < self.k else 1 for j in range(self.ngens))
        for twist in self.bundle.twists:
            lin = {xi_mono: 1}
            for c, a in enumerate(twist):
                if a:
                    mono = tuple(1 if j == c else 0 for j in range(self.ngens))
                    lin[mono] = -a
            rel = self._raw_mul(rel, lin)
        top = (0,) * self.k + (self.rank,)
        assert rel.pop(top) == 1
        return {m: -c for m, c in rel.items()}

    def _raw_mul(self, a: dict, b: dict) -> dict:
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
        """Apply h-truncation and the xi rewriting rule until stable."""
        cur = {m: c for m, c in el.items()
               if all(e <= n for e, n in zip(m, self.base.dims))}
        if self._xi_rule is None:
            return {m: c for m, c in cur.items() if c}
        r = self.rank
        while True:
            high = [m for m in cur if m[-1] >= r]
            if not high:
                return {m: c for m, c in cur.items() if c}
            for m in high:
                c = cur.pop(m)
                lowered = m[:-1] + (m[-1] - r,)
                for rm, rc in self._xi_rule.items():
                    t = tuple(x + y for x, y in zip(lowered, rm))
                    if any(e > n for e, n in zip(t, self.base.dims)):
                        continue
                    v = cur.get(t, 0) + c * rc
                    if v:
                        cur[t] = v
                    elif t in cur:
                        del cur[t]

    def mul(self, a: dict, b: dict) -> dict:
        return self.reduce(self._raw_mul(a, b))

    def add(self, a: dict, b: dict) -> dict:
        out = dict(a)
        for m, c in b.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        return out

    def scale(self, a: dict, c: int) -> dict:
        return {m: c * v for m, v in a.items()} if c else {}

    def class_element(self, cls: DivClass) -> dict:
        if len(cls.h) != self.k:
            raise DimensionMismatchError(
                f"class has {len(cls.h)} base coefficients, ring has {self.k}")
        if cls.xi and not self.bundle:
            raise DimensionMismatchError("xi coefficient in a ring without a bundle")
        out = {}
        for c in range(self.k):
            if cls.h[c]:
                mono = tuple(1 if j == c else 0 for j in range(self.ngens))
                out[mono] = cls.h[c]
        if self.bundle and cls.xi:
            out[(0,) * self.k + (1,)] = cls.xi
        return out

    def degree(self, el: dict) -> int:
        """Coefficient of the top monomial after reduction."""
        return self.reduce(el).get(self._top, 0)

    def element_str(self, el: dict) -> str:
        el = self.reduce(el)
        if not el:
            return "0"
        names = [f"h{i + 1}" for i in range(self.k)] + (["xi"] if self.bundle else [])
        pad = (0,) if not self.bundle else ()
        keyed = sorted(el.items(), key=lambda t: _chow_mono_key(t[0] + pad),
                       reverse=True)
        parts = []
        for mono, coeff in keyed:
            syms = []
            for name, e in zip(names, mono):
                if e == 1:
                    syms.append(name)
                elif e > 1:
                    syms.append(f"{name}^{e}")
            mag = abs(coeff)
            body = "*".join(([str(mag)] if (mag != 1 or not syms) else []) + syms)
            parts.append(("-" if coeff < 0 else "+", body))
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
    el = ring.one()
    for cls in classes:
        el = ring.mul(el, ring.class_element(cls))
    return ring.degree(el)


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


def chern_top_degree(ring: IntersectionRing, line_factors: Sequence[DivClass]) -> int:
    """Top Chern degree of a direct sum of line bundles: product of classes."""
    return intersect(ring, line_factors)


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


class _ExprParser(_TokenStream):
    """expr := term (('+'|'-') term)*; term := factor ('*'? factor)*;
    factor := '-' factor | int | ident ['^' int] | '(' expr ')' | deg(expr).

    Identifiers: h1..hk, xi (bundle rings), K (the canonical class).
    Factors nest at most MAX_NESTING deep (parentheses, deg() and unary
    minus), so deep input is a ParseError, not a RecursionError.
    """

    def __init__(self, ring: IntersectionRing, tokens):
        super().__init__(tokens)
        self.ring = ring
        self.depth = 0

    def expect(self, ch: str):
        if not self.accept_op(ch):
            raise ParseError(f"expected {ch!r}", self.cur.pos)

    def parse(self) -> dict:
        el = self.expr()
        if self.cur.kind != "end":
            raise ParseError(f"unexpected {self.cur.text!r}", self.cur.pos)
        return el

    def expr(self) -> dict:
        el = self.term()
        while True:
            if self.accept_op("+"):
                el = self.ring.add(el, self.term())
            elif self.accept_op("-"):
                el = self.ring.add(el, self.ring.scale(self.term(), -1))
            else:
                return el

    def _starts_factor(self) -> bool:
        tok = self.cur
        return tok.kind in ("int", "ident") or (tok.kind == "op" and tok.text == "(")

    def term(self) -> dict:
        el = self.factor()
        while True:
            if self.accept_op("*"):
                el = self.ring.mul(el, self.factor())
            elif self._starts_factor():
                el = self.ring.mul(el, self.factor())
            else:
                return el

    def factor(self) -> dict:
        if self.depth == MAX_NESTING:
            raise ParseError("expression nested too deeply", self.cur.pos)
        self.depth += 1
        el = self._factor()
        self.depth -= 1
        return el

    def _factor(self) -> dict:
        tok = self.cur
        if self.accept_op("-"):
            return self.ring.scale(self.factor(), -1)
        if tok.kind == "int":
            self.advance()
            return self.ring.scale(self.ring.one(), int(tok.text))
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
                return self.ring.scale(self.ring.one(), self.ring.degree(el))
            if tok.text == "K":
                return self._maybe_power(
                    self.ring.class_element(canonical_class(self.ring)))
            if tok.text == "xi":
                if not self.ring.bundle:
                    raise ParseError("xi needs a bundle ring", tok.pos)
                return self._maybe_power(self.ring.generator(self.ring.k))
            if tok.text.startswith("h") and tok.text[1:].isdecimal():
                i = int(tok.text[1:]) - 1
                if 0 <= i < self.ring.k:
                    return self._maybe_power(self.ring.generator(i))
            raise ParseError(f"unknown symbol {tok.text!r}", tok.pos)
        raise ParseError("expected a class expression", tok.pos)

    def _maybe_power(self, el: dict) -> dict:
        if self.accept_op("^"):
            e = _parse_uint(self, "an exponent")
            # el = c + n with n of positive degree; classes above the
            # dimension vanish, so (c + n)^e = sum_k C(e, k) c^(e-k) n^k
            # ends at the first zero power of n, however large e is
            ring = self.ring
            const = (0,) * ring.ngens
            c = el.get(const, 0)
            n = {m: v for m, v in el.items() if m != const}
            out, n_k = ring.zero(), ring.one()
            for k in range(e + 1):
                if k:
                    n_k = ring.mul(n_k, n)
                    if not n_k:
                        break
                out = ring.add(out, ring.scale(n_k, math.comb(e, k) * c ** (e - k)))
            return out
        return el


def evaluate_expression(ring: IntersectionRing, text: str) -> dict:
    """Evaluate a class expression to a reduced ring element."""
    return _ExprParser(ring, tokenize(text)).parse()


def expression_result_str(ring: IntersectionRing, el: dict) -> str:
    """Integer string for constants, class string otherwise."""
    el = ring.reduce(el)
    if not el:
        return "0"
    if len(el) == 1 and not any(next(iter(el))):
        return str(next(iter(el.values())))
    return ring.element_str(el)
