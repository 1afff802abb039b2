"""Frobenius-splitting verdicts for hypersurface rings.

The divisibility test behind the verdict: R/f is F-split exactly when
f^(p-1) survives outside the Frobenius power (x_0^p, ..., x_n^p) of the
homogeneous maximal ideal.  Everything here is exact mod-p arithmetic; a
verdict is a theorem about the specific input, not a numerical judgement.
"""

from __future__ import annotations

import enum
import time
from functools import cached_property
from math import comb, factorial

from .poly import (
    Monomial,
    Polynomial,
    VariableSet,
    _delta1_count,
    _frobenius_box,
    _layers,
    _mul_packed,
    _pow_boxed,
    _Value,
    as_prime,
    mono_str,
    pow_mod_frobenius,
    weighted_degree,
)


class SplitStatus(enum.Enum):
    FSPLIT = "FSplit"
    NOT_FSPLIT = "NotFSplit"


class SplitVerdict(_Value):
    # witness: the surviving monomial, grevlex-largest
    __slots__ = ("status", "witness")

    def __init__(self, status: SplitStatus, witness: Monomial | None = None):
        self._init(status, witness)


class HypersurfaceRing:
    """A weighted-homogeneous hypersurface R = k[x]/f over F_p."""

    def __init__(self, prime, variables: VariableSet, f: Polynomial):
        prime = as_prime(prime)
        if f.field != prime or f.vars != variables:
            raise ValueError("polynomial does not live in the declared ring")
        if f.is_zero:
            raise ValueError("hypersurface polynomial must be nonzero")
        self.prime = prime
        self.vars = variables
        self.f = f

    @cached_property
    def degree(self) -> tuple:
        """Weighted multidegree of f; validates homogeneity on first use."""
        return weighted_degree(self.f)

    @property
    def p(self) -> int:
        return self.prime.p


def fedder_residue(ring: HypersurfaceRing) -> Polynomial:
    """f^(p-1) reduced modulo (x_0^p, ..., x_n^p)."""
    return pow_mod_frobenius(ring.f, ring.p - 1, ring.p)


def _verdict(residue: Polynomial) -> SplitVerdict:
    """FSplit with the grevlex-leading surviving monomial, or NotFSplit."""
    if residue.is_zero:
        return SplitVerdict(SplitStatus.NOT_FSPLIT)
    return SplitVerdict(SplitStatus.FSPLIT, residue.leading_monomial())


def fedder_fsplit(ring: HypersurfaceRing) -> SplitVerdict:
    """F-splitting verdict with a surviving-monomial witness when split."""
    return _verdict(fedder_residue(ring))


def delta1_probe(ring: HypersurfaceRing, a: int, b: int, s: int) -> Polynomial:
    """f^a * delta1(f)^b reduced modulo (x_i^q), q = p^s.

    These products are the terms whose survival higher splitting criteria
    inspect.  They are formed on the q-box packing: f's terms in the box,
    packed once (a term outside enters no carry term inside it), and the
    carry's items x_t = -c_t m_t, each one's steps stopping at the box, so
    that :func:`poly._layers` gives T_k, the count-k part of
    T = prod_t sum_{j <= J_t} x_t^j / j!, and delta1(f) = T_p in the box.
    Only the result is unpacked, so only its terms are checked against the
    exponent cap.

    For b = 1 and a < p the probe is read off layer p + a of T
    (:func:`_probe_from_layers`); there is no power of f and no product.
    The identity behind it needs b = 1 and a < p, so every other (a, b)
    forms f^a and the carry's b-th power by :func:`poly._pow_boxed` and
    multiplies them.
    """
    if a < 0 or b < 0 or s < 1:
        raise ValueError("need a >= 0, b >= 0, s >= 1")
    p, f, q = ring.p, ring.f, ring.p ** s
    order, box = _frobenius_box(f, q)
    inside = [(order.pack(m), c, max(m)) for m, c in sorted(f.terms.items()) if max(m) < q]
    items = [(m, -c, min(p - 1, (q - 1) // (top or 1))) for m, c, top in inside]
    if b == 1 and a < p:
        return order.polynomial(f.field, f.vars, _probe_from_layers(inside, items, a, p, q, box))
    fa = _pow_boxed(order, box, {m: c for m, c, _ in inside}, a, p, q)
    carry = _layers(items, p, p, box)
    db = _pow_boxed(order, box, {m: c for m, c in carry.items() if c}, b, p, q)
    return order.polynomial(f.field, f.vars, _mul_packed(db, list(fa.items()), p, *box))


def _probe_from_layers(inside: list, items: list, a: int, p: int, q: int,
                       box: tuple) -> dict:
    """f^a * delta1(f) in the q-box for a < p, packed, from layer p + a of
    the carry's product T and a correction in g = sum_t x_t = -f.

    Over F_p each factor E(x) = sum_{j < p} x^j / j! has, with
    theta = x d/dx, x E(x) = theta E(x) + x^p / (p-1)! = theta E(x) - x^p,
    as (p-1)! = -1 by Wilson's theorem.  Where the box truncates an item
    (J_t < p - 1), x_t^(J_t + 1) is cut, and so is the extra term.  Summed
    over the items, with T^(t) the product without item t,

        g T_k = (k + 1) T_(k+1) - sum_t x_t^p T^(t)_(k+1-p).

    Below count p, T_k = g^k / k! and T^(t) is T times exp(-x_t), so for
    a < p this unrolls to

        f^a delta1(f) = (-1)^a [a! T_(p+a) - sum_{j=0..a} w_j g^(a-j) S_(p+j)],

    S_k = sum_t x_t^k, w_j = (-1)^j sum_{i=max(j,1)..a} C(i, j) / i mod p.
    The sum runs as Horner's rule in g, acc <- acc * g + w_j S_(p+j), with
    at most a boxed products.  A term of S_k is formed only when its top
    exponent times k is below q, tested before packing so that no field
    carries into the next; an item the box truncates has none.
    """
    g = [(m, -c % p) for m, c, _ in inside]
    acc = {}
    for j in range(a + 1):
        if acc:
            acc = _mul_packed(acc, g, p, *box)
        w = (-1) ** j * sum(comb(i, j) * pow(i, -1, p) for i in range(max(j, 1), a + 1)) % p
        if w:
            k = p + j
            for m, c, top in inside:
                if top * k < q:
                    acc[m * k] = (acc.get(m * k, 0) + w * pow(-c, k, p)) % p
    sign = (-1) ** a
    scale = sign * factorial(a) % p
    out = {m: scale * c % p for m, c in _layers(items, p, p + a, box).items()}
    for m, c in acc.items():
        out[m] = (out.get(m, 0) - sign * c) % p
    return out


class FedderReport(_Value):
    """Everything the splitting check computed, in printable form."""

    __slots__ = ("status", "witness", "residue_terms", "delta1_terms",
                 "delta1_degree", "elapsed_ms")

    def __init__(self, status: str, witness: str | None, residue_terms: int,
                 delta1_terms: int, delta1_degree: tuple | None, elapsed_ms: float):
        self._init(status, witness, residue_terms, delta1_terms, delta1_degree,
                   elapsed_ms)

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "witness": self.witness,
            "residue_terms": self.residue_terms,
            "delta1_terms": self.delta1_terms,
            "delta1_degree": list(self.delta1_degree) if self.delta1_degree else None,
            "elapsed_ms": self.elapsed_ms,
        }


def fedder_report(ring: HypersurfaceRing) -> FedderReport:
    """The verdict, witness and carry shape for one ring; f must be homogeneous.

    A nonzero carry of f of multidegree d has multidegree p*d: every term of
    f^p has it, so the degree comes from ``ring.degree``, which validates f.
    The carry's terms are counted block by block (:func:`poly._delta1_count`),
    which needs that validation first.
    """
    degree = ring.degree
    start = time.perf_counter()
    residue = fedder_residue(ring)
    carry_terms = _delta1_count(ring.f)
    elapsed = (time.perf_counter() - start) * 1000.0
    verdict = _verdict(residue)
    return FedderReport(
        status=verdict.status.value,
        witness=None if verdict.witness is None
        else mono_str(ring.vars.names, verdict.witness),
        residue_terms=residue.num_terms,
        delta1_terms=carry_terms,
        delta1_degree=tuple(ring.p * d for d in degree) if carry_terms else None,
        elapsed_ms=round(elapsed, 3),
    )
