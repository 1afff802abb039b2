"""Table-driven arithmetic in small finite fields GF(p^k).

Elements are encoded as integers 0..q-1 whose base-p digits are the
coefficients of the residue polynomial, constant term first.  The prime
subfield therefore embeds as the plain integers 0..p-1, which lets
coefficients of mod-p polynomials be used directly as field elements.
"""

from __future__ import annotations

from .poly import Polynomial, _prime_factors


class UnsupportedFieldSizeError(ValueError):
    """Requested field size outside the supported table."""


# monic irreducible polynomials, coefficients low degree first
_IRREDUCIBLE = {
    (2, 2): (1, 1, 1),       # u^2 + u + 1
    (2, 3): (1, 1, 0, 1),    # u^3 + u + 1
    (3, 2): (1, 0, 1),       # u^2 + 1
    (3, 3): (2, 2, 0, 1),    # u^3 + 2u + 2
    (5, 2): (2, 0, 1),       # u^2 + 2
    (5, 3): (1, 1, 0, 1),    # u^3 + u + 1
    (7, 2): (1, 0, 1),       # u^2 + 1
    (7, 3): (2, 0, 0, 1),    # u^3 + 2
}


def _factor_prime_power(q: int):
    factors = _prime_factors(q)
    if not factors:
        raise UnsupportedFieldSizeError(f"bad field size {q}")
    if factors[-1] != factors[0]:
        raise UnsupportedFieldSizeError(f"{q} is not a prime power")
    return factors[0], len(factors)


class GF:
    """GF(q) with add/mul lookup tables; q = p^k with k <= 3 for p <= 7."""

    def __init__(self, q: int):
        p, k = _factor_prime_power(q)
        if k > 1 and (p, k) not in _IRREDUCIBLE:
            raise UnsupportedFieldSizeError(f"no residue polynomial stored for {q}")
        self.q = q
        self.p = p
        self.k = k
        self._build_tables()

    def _coeffs(self, a: int):
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def _encode(self, coeffs) -> int:
        a = 0
        for c in reversed(coeffs[: self.k]):
            a = a * self.p + (c % self.p)
        return a

    def _poly_mod(self, coeffs):
        """Reduce a coefficient list modulo the residue polynomial."""
        p, k = self.p, self.k
        modulus = _IRREDUCIBLE.get((p, k))
        coeffs = [c % p for c in coeffs]
        if k == 1:
            return coeffs[:1]
        for i in range(len(coeffs) - 1, k - 1, -1):
            c = coeffs[i]
            if c:
                for j in range(k):
                    coeffs[i - k + j] = (coeffs[i - k + j] - c * modulus[j]) % p
                coeffs[i] = 0
        return coeffs[:k]

    def _build_tables(self):
        q = self.q
        self._add = [[0] * q for _ in range(q)]
        self._mul = [[0] * q for _ in range(q)]
        for a in range(q):
            ca = self._coeffs(a)
            for b in range(q):
                cb = self._coeffs(b)
                self._add[a][b] = self._encode([x + y for x, y in zip(ca, cb)])
                prod = [0] * (2 * self.k)
                for i, x in enumerate(ca):
                    if x:
                        for j, y in enumerate(cb):
                            prod[i + j] += x * y
                self._mul[a][b] = self._encode(self._poly_mod(prod))
        self._neg = [self._encode([-c for c in self._coeffs(a)]) for a in range(q)]
        self._inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self._mul[a][b] == 1:
                    self._inv[a] = b
                    break

    @property
    def elements(self):
        return range(self.q)

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverting 0 in GF")
        return self._inv[a]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        r = 1
        while e:
            if e & 1:
                r = self._mul[r][a]
            e >>= 1
            if e:
                a = self._mul[a][a]
        return r


def poly_eval(f: Polynomial, point, gf: GF) -> int:
    """Evaluate a mod-p polynomial at a point with GF(p^k) coordinates."""
    if gf.p != f.p:
        raise ValueError("field characteristic mismatch")
    if len(point) != f.vars.n:
        raise ValueError("point arity mismatch")
    total = 0
    for mono, coeff in f.terms.items():
        v = coeff % gf.p  # prime subfield embeds as 0..p-1
        for x, e in zip(point, mono):
            if e:
                v = gf.mul(v, gf.pow(x, e))
        total = gf.add(total, v)
    return total
