"""Table-driven arithmetic in small finite fields GF(p^k).

Elements are encoded as integers 0..q-1 whose base-p digits are the
coefficients of the residue polynomial, constant term first.  The prime
subfield therefore embeds as the plain integers 0..p-1, which lets
coefficients of mod-p polynomials be used directly as field elements.
"""

from __future__ import annotations

from .poly import _prime_factors


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

    def _build_tables(self):
        """Each table row from rows built before it, no polynomial product per entry.

        Adding s = p^j bumps digit j of b.  Any other nonzero a is
        s + (a - s), with j the lowest nonzero digit of a, so its addition
        row is two rows composed.  For multiplication, a with a nonzero
        constant digit is (a - 1) + 1, so its row is the row of a - 1 plus
        b; otherwise a = u * (a // p), so its row is the row of a // p read
        at u * b.  Multiplying by u shifts the digits up and folds the
        leading one back in by the residue polynomial.
        """
        p, k, q = self.p, self.k, self.q
        elems = range(q)
        add = [list(elems)]
        for a in range(1, q):
            s = 1
            while a // s % p == 0:
                s *= p
            if a == s:
                add.append([b + s if b // s % p < p - 1 else b - (p - 1) * s
                            for b in elems])
            else:
                add.append(list(map(add[s].__getitem__, add[a - s])))
        lead = q // p  # place of the leading digit
        fold = [sum((-c * m) % p * p ** j
                    for j, m in enumerate(_IRREDUCIBLE.get((p, k), ())[:k]))
                for c in range(p)]
        times_u = [add[b % lead * p][fold[b // lead]] for b in elems]
        mul = [[0] * q]
        for a in range(1, q):
            if a % p:
                mul.append(list(map(list.__getitem__, map(add.__getitem__, mul[a - 1]),
                                    elems)))
            else:
                mul.append(list(map(mul[a // p].__getitem__, times_u)))
        self._add, self._mul = add, mul
        self._neg = mul[p - 1]
        self._inv = [0] + [row.index(1) for row in mul[1:]]

    @property
    def elements(self):
        return range(self.q)

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverting 0 in GF")
        return self._inv[a]

