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

from .poly import (
    Monomial,
    Polynomial,
    VariableSet,
    _delta1_packed,
    _Value,
    as_prime,
    delta1,
    mono_str,
    mul_mod_frobenius,
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
    """f^a * delta1(f)^b reduced modulo (x_i^(p^s)).

    These products are the terms whose survival higher splitting criteria
    inspect; the probe only performs the exact arithmetic and reduction.
    """
    if a < 0 or b < 0 or s < 1:
        raise ValueError("need a >= 0, b >= 0, s >= 1")
    q = ring.p ** s
    fa = pow_mod_frobenius(ring.f, a, q)
    db = pow_mod_frobenius(delta1(ring.f), b, q)
    return mul_mod_frobenius(fa, db, q)


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
    """
    degree = ring.degree
    start = time.perf_counter()
    residue = fedder_residue(ring)
    order, carry = _delta1_packed(ring.f)
    carry_terms = order.count(carry)
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
