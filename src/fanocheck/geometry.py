"""Smoothness certification for hypersurfaces in products of (weighted)
projective spaces.

The workhorse is the affine-cone Jacobian criterion: the cone must be smooth
away from the irrelevant locus, the zeros of the irrelevant ideal B generated
by the products g picking one variable from each factor (the chart tuples).
The charts g != 0 cover the complement of that locus, and the cone is smooth
there exactly when B lies in the radical of the Jacobian ideal J.  J is
multihomogeneous, so S/J and S/in(J) have the same multigraded Hilbert
function, and B lies in rad(J) exactly when it lies in rad(in(J)): when each
chart tuple contains the support of some leading monomial of a Groebner basis
of J.  On a one-factor ambient that is a pure power of every variable (J is
m-primary or the unit ideal).  One Buchberger run on J settles it for every
ambient, and it stops as soon as the last tuple closes, since leading
monomials of a partial basis already lie in the initial ideal.  A chart is
a tuple of variable indices, one from each factor's index range: the
certificate tests them on its packed leading monomials, so a failed
certificate is the Singular verdict, and a chart it leaves open is a
witness: its product has no power in in(J), so none in J, and V(J) meets
g != 0 there.  Names appear only in that witness.  The run takes J's
generators packed straight from f, once per call, by
:func:`ideals._jacobian_certificate`, on the partials alone where Euler's
relation puts f in their ideal, so this module packs nothing.

For weighted factors the ambient itself carries quotient singularities along
coordinate strata, so a cone-smooth hypersurface is only quasi-smooth until
it is also known to avoid those strata.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from functools import cached_property
from math import gcd

from .ideals import _jacobian_certificate
from .poly import (
    ParseError,
    Polynomial,
    VariableSet,
    _is_variable_name,
    _set,
    _Value,
    as_prime,
    weighted_degree,
)


class UnsupportedStratumError(Exception):
    """A positive-dimensional ambient singular stratum; not handled here."""


_FACTOR_LETTERS = "xyzwvuts"


class AmbientFactor(_Value):
    """One weighted projective factor: variable names and positive weights."""

    __slots__ = ("names", "weights")

    def __init__(self, names: tuple, weights: tuple):
        if len(names) != len(weights) or not names:
            raise ValueError("factor needs matching nonempty names and weights")
        if any(w < 1 for w in weights):
            raise ValueError("weights must be positive")
        for name in names:
            if not _is_variable_name(name):
                raise ValueError(f"variable name {name!r} is not an identifier")
        _set(self, "names", names)
        _set(self, "weights", weights)
        _set(self, "_key", (names, weights))


class AmbientSpace:
    """A product of weighted projective factors with globally unique names."""

    def __init__(self, factors: Sequence[AmbientFactor]):
        if not factors:
            raise ValueError("need at least one factor")
        self.factors = tuple(factors)
        seen = set()
        for fac in self.factors:
            for name in fac.names:
                if name in seen:
                    raise ValueError(f"variable name {name!r} repeats across factors")
                seen.add(name)

    @cached_property
    def variable_set(self) -> VariableSet:
        """All variables, graded with one component per factor.

        The factors checked every name and weight, and the space checked
        that no name repeats, so the set is built without checking them
        again."""
        k = len(self.factors)
        names = []
        weights = []
        for j, fac in enumerate(self.factors):
            for name, w in zip(fac.names, fac.weights):
                names.append(name)
                weights.append(tuple(w if c == j else 0 for c in range(k)))
        return VariableSet._trusted(tuple(names), tuple(weights))


def parse_ambient(text: str, names: Sequence[str] | None = None) -> AmbientSpace:
    """Parse 'P(w1,...,wn)' factors separated by 'x', e.g. 'P(1,1,1) x P(1,1,1)'.

    ``names`` optionally supplies every variable name, flat, in factor order;
    the default is letter-per-factor naming x0..,y0..,z0.. .
    """
    weights_per_factor = []
    i, n = 0, len(text)
    expect_factor = True
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if not expect_factor:
            if ch in "xX*":
                expect_factor = True
                i += 1
                continue
            raise ParseError("expected 'x' between factors", i)
        if ch not in "Pp":
            raise ParseError("expected a factor 'P(...)'", i)
        i += 1
        if i >= n or text[i] != "(":
            raise ParseError("expected '(' after P", i)
        j = text.find(")", i)
        if j < 0:
            raise ParseError("unclosed factor", i)
        body = text[i + 1:j]
        try:
            ws = tuple(int(part.strip()) for part in body.split(","))
        except ValueError:
            raise ParseError(f"bad weight list {body!r}", i + 1) from None
        if any(w < 1 for w in ws):
            raise ParseError("weights must be positive integers", i + 1)
        weights_per_factor.append(ws)
        i = j + 1
        expect_factor = False
    if not weights_per_factor:
        raise ParseError("empty ambient description", 0)
    if expect_factor:
        raise ParseError("expected a factor 'P(...)'", n)
    total = sum(len(ws) for ws in weights_per_factor)
    if names is not None:
        names = [s.strip() for s in names]
        if len(names) != total:
            raise ValueError(f"need {total} variable names, got {len(names)}")
        flat = list(names)
    else:
        if len(weights_per_factor) > len(_FACTOR_LETTERS):
            raise ValueError("too many factors for default naming")
        flat = []
        for j, ws in enumerate(weights_per_factor):
            letter = _FACTOR_LETTERS[j]
            flat.extend(f"{letter}{i}" for i in range(len(ws)))
    factors = []
    pos = 0
    for ws in weights_per_factor:
        factors.append(AmbientFactor(tuple(flat[pos:pos + len(ws)]), ws))
        pos += len(ws)
    return AmbientSpace(factors)


# ---------------------------------------------------------------------------
# ambient singular strata
# ---------------------------------------------------------------------------

def _coprime_base(numbers) -> list:
    """Pairwise coprime integers > 1 whose products give every one of
    ``numbers`` (positive integers).

    A number that shares a factor g with a base element b gives way, with
    b, to g and both cofactors; each such step shrinks the product of what
    is left to place, so the loop ends after at most log2 of that product
    steps, with gcds alone.  A prime divides a number exactly when the one
    base element it divides does, so each element stands for the primes
    it holds.
    """
    base, todo = [], list(numbers)
    while todo:
        a = todo.pop()
        if a == 1:
            continue
        for i, b in enumerate(base):
            g = gcd(a, b)
            if g > 1:
                del base[i]
                todo += [g, a // g, b // g]
                break
        else:
            base.append(a)
    return base


def ambient_singular_strata(space: AmbientSpace) -> list:
    """Maximal coordinate strata where some prime divides all active weights.

    Each stratum is the tuple of the variable names spanning it, in factor
    order (all other variables of its factor vanish there); the list is
    sorted.  The primes of a coprime base element divide the same weights,
    so the weights are never factored.
    """
    strata = set()
    for fac in space.factors:
        for b in _coprime_base(set(fac.weights)):
            strata.add(tuple(name for name, w in zip(fac.names, fac.weights)
                             if gcd(b, w) > 1))
    # keep only strata maximal under inclusion; two factors share no name
    return sorted(s for s in strata if not any(set(s) < set(o) for o in strata))


# ---------------------------------------------------------------------------
# hypersurfaces
# ---------------------------------------------------------------------------

class HypersurfaceVariety:
    """A multihomogeneous hypersurface inside an ambient product."""

    def __init__(self, prime, space: AmbientSpace, f: Polynomial):
        prime = as_prime(prime)
        f._check_ring(prime, space.variable_set)
        if f.is_zero:
            raise ValueError("hypersurface polynomial must be nonzero")
        self.prime = prime
        self.space = space
        self.f = f
        if all(d == 0 for d in weighted_degree(f)):
            raise ValueError("hypersurface must have nonzero multidegree")


class ConeResult(_Value):
    # witness_chart: the product of the variables of a chart that V(J) meets
    __slots__ = ("smooth_away_from_irrelevant", "witness_chart")

    def __init__(self, smooth_away_from_irrelevant: bool, witness_chart: str | None = None):
        self._init(smooth_away_from_irrelevant, witness_chart)


def _factor_indices(space: AmbientSpace) -> list:
    """Each factor's variable indices in ``space.variable_set``, which lists
    the variables in factor order: the one form of the charts, whose
    product the support certificate's stop reads."""
    out, start = [], 0
    for fac in space.factors:
        out.append(range(start, start + len(fac.names)))
        start += len(fac.names)
    return out


def cone_smoothness(variety: HypersurfaceVariety) -> ConeResult:
    """Jacobian criterion on the affine cone away from the irrelevant locus,
    with a witness chart when it fails.

    One Groebner basis of the Jacobian ideal J decides every ambient: the
    cone is smooth there exactly when each chart tuple (one variable per
    factor) contains the support of some leading monomial.  Without that
    certificate the cone is singular, and ``witness_chart`` names the
    first chart, in product order, that the run left open.  V(J) meets
    that chart, so J + (x_i - 1) for the chart's variables is not the
    unit ideal, and a localization test rejects the chart too.  A chart
    the run closed can fail as well, so the witness is a failing chart
    but not always the first one.  The charts are index tuples; the
    witness alone is spelled in names.
    """
    chart = _jacobian_certificate(variety.f, _factor_indices(variety.space))
    if chart is None:
        return ConeResult(True)
    return ConeResult(False, "*".join(variety.f.vars.names[i] for i in chart))


class SmoothnessStatus(enum.Enum):
    SMOOTH = "Smooth"
    QUASI_SMOOTH_ONLY = "QuasiSmoothOnly"
    SINGULAR = "Singular"


def _has_pure_power(f: Polynomial, name: str) -> bool:
    idx = f.vars.index(name)
    return any(mono[idx] and sum(mono) == mono[idx] for mono in f.terms)


def smoothness_verdict(variety: HypersurfaceVariety) -> SmoothnessStatus:
    """Full verdict: cone criterion plus avoidance of ambient singular points.

    The cone criterion is the support certificate alone, one Buchberger
    run on J's generators packed straight from f: the partials alone where
    some component d of f's multidegree is prime to p (Euler's relation
    d*f = sum w_i*x_i*df/dx_i puts f in their ideal), else f and its
    partials.  Without it the verdict is Singular (``cone_smoothness``
    names a chart the run left open as its witness).  Only
    zero-dimensional ambient strata are supported; a hypersurface is
    Smooth when the punctured cone is smooth and f carries a pure power of
    each stratum variable (so the stratum point misses the hypersurface),
    QuasiSmoothOnly when cone-smooth but some stratum point lies on it.
    """
    if _jacobian_certificate(variety.f, _factor_indices(variety.space)) is not None:
        return SmoothnessStatus.SINGULAR
    verdict = SmoothnessStatus.SMOOTH
    for stratum in ambient_singular_strata(variety.space):
        if len(stratum) > 1:
            raise UnsupportedStratumError(f"stratum {stratum} has positive dimension")
        (name,) = stratum
        if not _has_pure_power(variety.f, name):
            verdict = SmoothnessStatus.QUASI_SMOOTH_ONLY
    return verdict
