"""Sparse multivariate polynomials over F_p with weighted multi-gradings.

A monomial is a tuple of exponents, one slot per variable.  A polynomial
stores a dict mapping monomials to coefficients in {1, ..., p-1}; zero
coefficients are never kept.  The canonical term order everywhere is graded
reverse lexicographic (grevlex), ties broken towards earlier variables.

This module owns the bit-field packing of monomials (Monagan & Pearce,
CASC 2007), :class:`_PackedOrder`: a product of monomials is one integer
add and the box test "some exponent >= its bound" (:meth:`_PackedOrder.box`)
one add and one mask; the Chow ring of :mod:`fanocheck.chow` packs and
boxes on it too.  Grevlex, the one term order, packs its rows above
the exponents, so ``_grevlex`` orders :meth:`Polynomial.leading_monomial`
and Buchberger in :mod:`fanocheck.ideals` alike.  Every packed kernel result
leaves through :meth:`_PackedOrder.polynomial` and is not validated again.

Exponents are capped at 2**16 so that products and powers fail loudly
instead of silently blowing up.
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sequence
from functools import lru_cache
from math import comb, factorial
from operator import countOf, mul

EXPONENT_LIMIT = 1 << 16

Monomial = tuple


class AlgebraError(Exception):
    """Base class for failures in the exact-algebra layer."""


class ExponentOverflowError(AlgebraError):
    """An exponent reached the 2**16 cap."""


class ZeroPolynomialError(AlgebraError):
    """An operation that needs a nonzero polynomial got the zero one."""


class NonHomogeneousError(AlgebraError):
    """A weighted-homogeneity check failed; carries two witness monomials."""

    def __init__(self, mono_a: Monomial, mono_b: Monomial):
        self.mono_a = mono_a
        self.mono_b = mono_b
        super().__init__(
            f"monomials {mono_a} and {mono_b} have different multidegrees"
        )


class ParseError(AlgebraError):
    """Syntax error in a polynomial or class expression; knows its position."""

    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} (at position {pos})")


def _prime_factors(n: int) -> list:
    """Prime factors of n, ascending, with multiplicity (none for n < 2)."""
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# the slot setter that value types build with: their own __setattr__ refuses
_set = object.__setattr__


class _Value:
    """An immutable record compared, hashed and printed by its fields.

    A subclass lists its fields in ``__slots__`` in the order its
    ``__init__`` takes them, and ``__init__`` stores their values with
    :meth:`_init`, which also keeps them as one tuple ``_key``.  A type
    built many times in one call (per corpus check, per lattice class)
    stores each slot and the key with :data:`_set` instead, in about half
    the time, and may leave its last slots out of the key: those take no
    part in equality, hash or repr.  Assignment and deletion raise
    AttributeError.
    """

    __slots__ = ("_key",)

    def _init(self, *values):
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)
        _set(self, "_key", values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._key))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as they cannot set slots
        return type(self), tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Prime(_Value):
    """A prime characteristic in the supported range 2..97."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not (2 <= p <= 97):
            raise ValueError(f"characteristic must be an integer in 2..97, got {p}")
        if _prime_factors(p) != [p]:
            raise ValueError(f"{p} is not prime")
        _set(self, "p", p)
        _set(self, "_key", (p,))


# every supported characteristic, built once; as_prime hands these out
_PRIMES = {p: Prime(p) for p in range(2, 98) if _prime_factors(p) == [p]}


def as_prime(p: int | Prime) -> Prime:
    """``p`` itself if it is a :class:`Prime`, else the characteristic p.

    A supported characteristic comes from a table built at import, so every
    call shares one ``Prime`` per p and no call factors p again.  Only an
    exact ``int`` is looked up: ``True`` equals 1 and ``2.0`` hashes as 2,
    and both must still reach ``Prime(p)`` and its message, as every value
    outside the table does."""
    if isinstance(p, Prime):
        return p
    field = _PRIMES.get(p) if type(p) is int else None
    return Prime(p) if field is None else field


# ---------------------------------------------------------------------------
# packed monomials and term orders
# ---------------------------------------------------------------------------

_CAPPED_WIDTH = EXPONENT_LIMIT.bit_length()  # 16 value bits and the guard bit


class _PackedOrder:
    """Exponent tuples on n variables packed into ints.

    Exponent i sits in bits [i*spacing, i*spacing + width), the field's top
    bit its guard, and x_i packs to its unit, 1 << (i*spacing); fields are
    adjacent (spacing = width) except in :func:`_grevlex`.  Int order is
    then no term order; :func:`_grevlex` adds its grading rows to the
    units.  Packing is linear.
    """

    __slots__ = ("width", "spacing", "mask", "shifts", "guard", "units")

    def __init__(self, n: int, width: int, spacing: int | None = None):
        spacing = spacing or width
        shifts = tuple(range(0, n * spacing, spacing))
        self.width = width
        self.spacing = spacing
        self.mask = (1 << width) - 1
        self.shifts = shifts
        self.units = tuple([1 << s for s in shifts])
        self.guard = sum(self.units) << (width - 1)

    def pack(self, mono) -> int:
        return sum(map(mul, mono, self.units))

    def unpack(self, m: int) -> tuple:
        mask = self.mask
        return tuple([(m >> s) & mask for s in self.shifts])

    def pack_terms(self, terms) -> dict:
        return {self.pack(m): c for m, c in terms.items()}

    def unpack_terms(self, packed: dict) -> dict:
        """Exponent tuples to coefficients in packed order, zeros dropped;
        one field at a time over all monomials, then zipped into tuples."""
        mask = self.mask
        keys = [m for m, c in packed.items() if c]
        columns = [[(m >> s) & mask for m in keys] for s in self.shifts]
        return dict(zip(zip(*columns), filter(None, packed.values())))

    def polynomial(self, field: Prime, variables: "VariableSet",
                   packed: dict) -> "Polynomial":
        """The kernel exit: packed terms with coefficients reduced mod p,
        zeros dropped, validated only by :meth:`_capped`."""
        return Polynomial._trusted(field, variables,
                                   self.unpack_terms(self._capped(packed)))

    def _capped(self, packed: dict) -> dict:
        """``packed``; the first nonzero term with an exponent past the cap
        (only a field wider than the cap's holds one) raises with the
        public constructor's message, as in :func:`delta1`."""
        if self.width > _CAPPED_WIDTH:
            for m, c in packed.items():
                if c and max(mono := self.unpack(m)) >= EXPONENT_LIMIT:
                    raise ExponentOverflowError(f"bad exponent tuple {mono}")
        return packed

    def box(self, bounds) -> tuple:
        """(off, guard) for :func:`_mul_packed`: ``m + off`` sets field i's
        guard bit exactly when its exponent is >= bounds[i] (while below
        2**(width-1) + bounds[i]); fields past len(bounds) stay open.  Each
        bound is at most 2**(width-1)."""
        top = 1 << (self.width - 1)
        shifts = self.shifts[:len(bounds)]
        return (sum((top - b) << s for b, s in zip(bounds, shifts)),
                sum(top << s for s in shifts))

    def overflow(self, t: int) -> ExponentOverflowError:
        return ExponentOverflowError(
            f"exponent cap {EXPONENT_LIMIT} exceeded in {self.unpack(t)}")


@lru_cache(maxsize=None)
def _packing(n: int, width: int) -> _PackedOrder:
    """The rows-free packing of products, boxed powers, the Witt carry and
    the Chow ring."""
    return _PackedOrder(n, width)


@lru_cache(maxsize=None)
def _times(p: int) -> tuple:
    """The multiplication table mod p: row a holds a * c mod p for c in 0..p-1.
    Tuples, as every caller in the process shares them."""
    return tuple(tuple([a * c % p for c in range(p)]) for a in range(p))


@lru_cache(maxsize=None)
def _grevlex(n: int) -> _PackedOrder:
    """Grevlex: row k = e_0 + ... + e_k above the exponents, total degree on
    top.  The 17-bit exponent fields sit at the rows' stride rw, the width
    of a row of n capped exponents (never below 17), and row k at
    n*rw + k*rw.  The guard stays at bit 16 of each field, so the cap and
    divisibility tests read as on adjacent fields.  The common stride lets
    one multiply form the rows of a packed exponent vector e (rows clear):
    field k of e * ones, ``ones`` the sum of the exponent units, is the
    prefix sum e_0 + ... + e_k, so e's rows are
    ``((e * ones) & ((1 << n*rw) - 1)) << n*rw``.  Buchberger's pair half
    forms its lcms that way.  x_i counts in rows i..n-1: its unit is one
    suffix sum of row bits."""
    rw = max(_CAPPED_WIDTH, (n * (EXPONENT_LIMIT - 1)).bit_length())
    order = _PackedOrder(n, _CAPPED_WIDTH, rw)
    rows, units = 0, list(order.units)
    for i in range(n - 1, -1, -1):
        rows += 1 << (n * rw + i * rw)
        units[i] += rows
    order.units = tuple(units)
    return order


def _mul_packed(acc: dict, factor: list, mod: int, off: int = 0, guard: int = 0) -> dict:
    """acc * factor with coefficients mod ``mod``, on packed monomials.

    ``acc`` maps packed monomials to coefficients, ``factor`` is a list of
    (packed monomial, coefficient) pairs.  ``off`` and ``guard`` come from
    :meth:`_PackedOrder.box`: a product with an exponent at or past its
    field's bound sets a guard bit in ``m + off`` and is dropped; with the
    defaults nothing is.  Dropping after every product is sound because the
    dropped monomials generate an ideal: they can never contribute back
    inside the box.  Terms keep their first-seen order; zero coefficients
    are not kept.
    """
    out = {}
    get = out.get
    for mb, cb in factor:
        for ma, ca in acc.items():
            m = ma + mb
            if not (m + off) & guard:
                out[m] = get(m, 0) + ca * cb
    return {m: c % mod for m, c in out.items() if c % mod}


# ---------------------------------------------------------------------------
# variables and gradings
# ---------------------------------------------------------------------------

class VariableSet(_Value):
    """Ordered variable names plus a weight vector per variable.

    Weight vectors all have the same length k, one slot per grading
    component (k > 1 happens for products of weighted projective spaces).
    Every variable must have a positive weight in at least one component.
    """

    __slots__ = ("names", "weights")

    def __init__(self, names: tuple, weights: tuple):
        if not names:
            raise ValueError("need at least one variable")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        if len(weights) != len(names):
            raise ValueError("one weight vector per variable required")
        k = len(weights[0])
        for name, w in zip(names, weights):
            if not _is_variable_name(name):
                raise ValueError(f"variable name {name!r} is not an identifier")
            if len(w) != k:
                raise ValueError("weight vectors must share one length")
            if any(c < 0 for c in w) or all(c == 0 for c in w):
                raise ValueError(f"variable {name} needs a nonnegative weight vector "
                                 "with some positive component")
        _set(self, "names", names)
        _set(self, "weights", weights)
        _set(self, "_key", (names, weights))

    @classmethod
    def _trusted(cls, names: tuple, weights: tuple) -> "VariableSet":
        """Names and weight vectors that already passed these checks, as
        an ambient space's factors hold them; nothing is checked again."""
        vs = object.__new__(cls)
        vs._init(names, weights)
        return vs

    @classmethod
    def unit(cls, names) -> "VariableSet":
        """All variables of weight 1 in a single grading component."""
        names = names.split(",") if isinstance(names, str) else tuple(names)
        return cls.weighted(names, (1,) * len(names))

    @classmethod
    def weighted(cls, names, weights: Sequence[int]) -> "VariableSet":
        """Single grading component with one integer weight per variable."""
        names = tuple(names.split(",")) if isinstance(names, str) else tuple(names)
        names = tuple(n.strip() for n in names)
        return cls(names, tuple((int(w),) for w in weights))

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def ncomponents(self) -> int:
        return len(self.weights[0])

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def multidegree(self, mono: Monomial) -> tuple:
        """Weighted multidegree of a monomial, one entry per component."""
        out = [0] * self.ncomponents
        for e, w in zip(mono, self.weights):
            if e:
                for c in range(len(out)):
                    out[c] += e * w[c]
        return tuple(out)


def mono_str(names: Sequence[str], mono: Monomial, coeff: int = 1) -> str:
    """One printed term: the coefficient unless it is 1, then x^e factors
    joined by '*'; the unit monomial prints as its coefficient ("1").  The
    coefficient prints in full however many digits it has."""
    factors = [name if e == 1 else f"{name}^{e}"
               for name, e in zip(names, mono) if e]
    if coeff != 1 or not factors:
        factors.insert(0, _int_str(coeff))
    return "*".join(factors)


# int() and str() refuse integers past sys.get_int_max_str_digits(), which
# is the whole process's to set; Decimal applies no such limit

def _int_str(n: int) -> str:
    """``str(n)``, however many digits n has."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal
        return str(Decimal(n))


# int() reads a run of 640 digits under any digit limit a process may set;
# a longer run is read in such pieces, as int() of it is quadratic
_CHUNK = 640
_CAP_DIGITS = len(str(EXPONENT_LIMIT))


def _read_int(digits: str) -> int:
    """``int(digits)`` of a run of decimal digits, however long it is: a
    longer run than :data:`_CHUNK` is read as two halves joined by a power
    of ten, so the time is that of the products, not quadratic."""
    if len(digits) <= _CHUNK:
        return int(digits)
    k = len(digits) // 2
    return _read_int(digits[:-k]) * 10 ** k + _read_int(digits[-k:])


def _read_int_mod(digits: str, p: int) -> int:
    """``int(digits) % p`` of a run of decimal digits, in linear time."""
    head = len(digits) % _CHUNK
    r = int(digits[:head] or 0)
    for i in range(head, len(digits), _CHUNK):
        r = (r * 10 ** _CHUNK + int(digits[i:i + _CHUNK])) % p
    return r % p


def _read_exponent(digits: str, pos: int) -> int:
    """A run of decimal digits as an exponent below the cap, in linear time;
    past the cap, the ParseError at ``pos`` names it in ASCII digits."""
    if len(digits) <= _CAP_DIGITS and (e := int(digits)) < EXPONENT_LIMIT:
        return e
    import unicodedata
    text = "".join(str(unicodedata.decimal(c)) for c in digits).lstrip("0") or "0"
    if len(text) > _CAP_DIGITS or int(text) >= EXPONENT_LIMIT:
        raise ParseError(f"exponent {text} exceeds the cap {EXPONENT_LIMIT}", pos)
    return int(text)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Polynomial:
    """Immutable sparse polynomial over F_p.

    ``terms`` is exposed directly for the ideal machinery; treat it as
    read-only.  Coefficients are stored as their canonical lifts 1..p-1.
    """

    __slots__ = ("field", "vars", "terms")

    def __init__(self, field: int | Prime, variables: VariableSet,
                 terms: Mapping):
        field = as_prime(field)
        p = field.p
        n = variables.n
        clean = {}
        for mono, coeff in terms.items():
            mono = tuple(mono)
            if len(mono) != n:
                raise ValueError(f"monomial {mono} does not fit {n} variables")
            if any(e < 0 or e >= EXPONENT_LIMIT for e in mono):
                raise ExponentOverflowError(f"bad exponent tuple {mono}")
            c = coeff % p
            if c:
                clean[mono] = c
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, field: Prime, variables: VariableSet, terms: dict) -> "Polynomial":
        """Kernel and parser results only: n-tuples below the
        cap, coefficients 1..p-1."""
        f = object.__new__(cls)
        object.__setattr__(f, "field", field)
        object.__setattr__(f, "vars", variables)
        object.__setattr__(f, "terms", terms)
        return f

    @classmethod
    def zero(cls, field, variables: VariableSet) -> "Polynomial":
        return cls(field, variables, {})

    @classmethod
    def constant(cls, field, variables: VariableSet, c: int) -> "Polynomial":
        return cls(field, variables, {(0,) * variables.n: c})

    # -- basic queries -----------------------------------------------------

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no leading monomial")
        return max(self.terms, key=_grevlex(self.vars.n).pack)

    def sorted_terms(self):
        """Terms in decreasing grevlex order."""
        key = _grevlex(self.vars.n).pack
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, field: Prime, variables: VariableSet):
        """The ring rule for arithmetic, ideals and hypersurfaces."""
        if self.field != field or self.vars != variables:
            raise ValueError("polynomial lives in a different ring")

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.field == other.field and self.vars == other.vars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, self.vars, frozenset(self.terms.items())))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        other._check_ring(self.field, self.vars)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Polynomial(self.field, self.vars, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + -other

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.field, self.vars,
                          {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial(self.field, self.vars,
                              {m: c * other for m, c in self.terms.items()})
        other._check_ring(self.field, self.vars)
        top = max(map(max, self.terms), default=0) + max(map(max, other.terms), default=0)
        order = _packing(self.vars.n, top.bit_length() + 1)
        # the kernel's outer loop runs over the factor: self outermost keeps
        # the terms in the order a self-by-other double loop meets them
        acc = order.pack_terms(other.terms)
        factor = [(order.pack(m), c) for m, c in self.terms.items()]
        return order.polynomial(self.field, self.vars, _mul_packed(acc, factor, self.p))

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative exponent")
        result = Polynomial.constant(self.field, self.vars, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(mono_str(self.vars.names, m, c) for m, c in self.sorted_terms())

    def __repr__(self):
        return f"Polynomial(p={self.p}, {self})"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# one token per match, its kind the group that matched: a run of decimal
# digits (str.isdecimal), a run of word characters (str.isalnum or "_"), an
# operator, or any other character but whitespace (str.isspace), an error
_WORD = r"\w+"
_TOKEN = re.compile(rf"(\d+)|({_WORD})|([-+*^(),])|(\S)")
_WORD_RE = re.compile(_WORD)
_KINDS = (None, "int", "ident", "op")


def _is_identifier(word: str) -> bool:
    """Whether a run of word characters that is no number lexes as an
    identifier: it starts with a letter or '_'."""
    return word[0].isalpha() or word[0] == "_"


def tokenize(text: str) -> list:
    """Shared lexer for polynomial and class expressions: a list of
    (kind, text, pos) tuples, kind one of "int", "ident", "op" and "end"."""
    out = []
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        word = m.group()
        if group == 4 or (group == 2 and not _is_identifier(word)):
            raise ParseError(f"unexpected character {word[0]!r}", m.start())
        out.append((_KINDS[group], word, m.start()))
    out.append(("end", "", len(text)))
    return out


def _is_variable_name(name) -> bool:
    """Whether a polynomial can name the variable: the whole string is one
    identifier token of :func:`tokenize`."""
    return (isinstance(name, str) and _WORD_RE.fullmatch(name) is not None
            and _is_identifier(name))


def parse_poly(text: str, variables: VariableSet, p: int | Prime) -> Polynomial:
    """Parse ``text`` into a polynomial; coefficients reduce mod p as parsed.

    Grammar: expr := term (('+'|'-') term)*, with a single optional unary
    minus in front of the leading term; term := (int | factor) ('*'? factor)*
    and factor := ident ('^' int)?.  Adjacency means multiplication, as
    does '*'.  The token list is walked by index; every read of a token
    checks its kind or text, so the walk stops at the "end" token.  An
    operator's text is one character no other token has.
    """
    field = as_prime(p)
    p = field.p
    tokens = tokenize(text)
    slots = {name: k for k, name in enumerate(variables.names)}
    terms = {}
    sign, i = (-1, 1) if tokens[0][1] == "-" else (1, 0)
    while True:
        kind, word, start = tokens[i]
        coeff = 1
        exps = [0] * len(slots)
        if kind == "int":
            coeff = _read_int_mod(word, p)
            i += 1
        elif kind != "ident":
            raise ParseError("expected a term", start)
        while True:
            kind, word, pos = tokens[i]
            if word == "*":
                i += 1
                kind, word, pos = tokens[i]
                if kind != "ident":
                    raise ParseError("expected a variable name", pos)
            elif kind != "ident":
                break
            try:
                k = slots[word]
            except KeyError:
                raise ParseError(f"unknown variable {word!r}", pos) from None
            i += 1
            e = 1
            if tokens[i][1] == "^":
                kind, digits, at = tokens[i + 1]
                if kind != "int":
                    raise ParseError("expected an exponent", at)
                e = _read_exponent(digits, pos)
                i += 2
            exps[k] += e
        if max(exps) >= EXPONENT_LIMIT:
            raise ParseError(f"exponent cap {EXPONENT_LIMIT} exceeded", start)
        mono = tuple(exps)
        terms[mono] = (terms.get(mono, 0) + sign * coeff) % p
        kind, word, pos = tokens[i]
        if word == "+" or word == "-":
            sign = 1 if word == "+" else -1
            i += 1
        elif kind == "end":
            break
        else:
            raise ParseError(f"unexpected {word!r}", pos)
    # n-tuples under the cap, as read: only the zero sums go
    return Polynomial._trusted(field, variables, {m: c for m, c in terms.items() if c})


# ---------------------------------------------------------------------------
# graded structure and Frobenius helpers
# ---------------------------------------------------------------------------

def weighted_degree(f: Polynomial) -> tuple:
    """Common multidegree of all terms; raises on zero or inhomogeneous input."""
    if f.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no multidegree")
    it = iter(f.terms)
    first = next(it)
    deg = f.vars.multidegree(first)
    for m in it:
        if f.vars.multidegree(m) != deg:
            raise NonHomogeneousError(first, m)
    return deg


def _frobenius_box(f: Polynomial, q: int):
    """The packing for the box (x_i^q) and its (off, guard), as
    :func:`_mul_packed` takes them; q must be a positive power of f's
    characteristic."""
    p = f.p
    m = q
    s = 0
    while m > 1 and m % p == 0:
        m //= p
        s += 1
    if m != 1 or s < 1:
        raise ValueError(f"{q} is not a positive power of the characteristic {p}")
    order = _packing(f.vars.n, (q - 1).bit_length() + 1)  # 2**(width-1) >= q
    return order, order.box([q] * f.vars.n)


def pow_mod_frobenius(f: Polynomial, e: int, q: int) -> Polynomial:
    """f**e reduced modulo the Frobenius-power ideal (x_0^q, ..., x_n^q), q a
    power of the characteristic: :func:`_pow_boxed` of f's terms inside the
    q-box, packed in lex order of their exponents."""
    if e < 0:
        raise ValueError("negative exponent")
    order, box = _frobenius_box(f, q)
    terms = {order.pack(m): c for m, c in sorted(f.terms.items()) if max(m) < q}
    return order.polynomial(f.field, f.vars, _pow_boxed(order, box, terms, e, f.p, q))


def _pow_boxed(order: _PackedOrder, box: tuple, terms: dict, e: int, p: int,
               q: int) -> dict:
    """terms**e mod (x_i^q) for packed terms inside the q-box of ``order``.

    In the q-box f^q is the constant term c of f (c^q = c, and every other
    m^q is cut), so f^e = c^(e // q) * f^(e mod q).  Over F_p,
    f^(d p^i) = (f^d)(x^(p^i)): the rest is one boxed product per nonzero
    base-p digit d of e mod q, highest first, until one is zero; none while
    the power is 1.  The part of digit d takes the terms whose top exponent
    times p^i is below q, tested before they are scaled to x^(p^i) so that
    no field carries into the next.  At d = 1 the part is those terms; at
    d = 2 it is their square by :func:`_square_packed`, one product per
    unordered pair; at d >= 3 it is d! times :func:`_layers` at count d,
    each term's steps stopping at the largest j with j * max(m) * p^i < q.
    """
    hi, lo = divmod(e, q)
    c = pow(terms.get(0, 0), hi, p)
    acc = {0: c} if c else {}
    s = q
    while lo and acc:
        s //= p
        d, lo = divmod(lo, s)
        if not d:
            continue
        if d <= 2:
            off, guard = order.box([q // s] * len(order.shifts))
            part = [(m * s, a) for m, a in terms.items() if not (m + off) & guard]
            if d == 2:
                part = _square_packed(part, p, *box)
        else:
            monos = zip(*[[(m >> t) & order.mask for m in terms] for t in order.shifts])
            items = [(m * s, a, j) for (m, a), top in zip(terms.items(), map(max, monos))
                     if (j := min(d, (q - 1) // (top * s or 1)))]
            scale = factorial(d) % p
            part = [(m, a * scale % p) for m, a in _layers(items, p, d, box).items() if a]
        acc = dict(part) if acc == {0: 1} else _mul_packed(acc, part, p, *box)
    return acc


def _square_packed(items: list, p: int, off: int, guard: int) -> list:
    """The nonzero terms, as (packed m, c) pairs, of (sum of a*m over the
    (packed m, a) items)^2 mod p, each product dropped when it sets a guard
    bit of ``m + off`` (:meth:`_PackedOrder.box`); every field of each m
    must be below its bound, so that no sum of two carries into the next.

    One loop over the unordered pairs: item i forms m_i^2 with a_i^2, then
    m_u * m_i with 2 a_u a_i for each u < i; terms keep the order in which
    they are first formed, the order of :func:`_layers` at count 2.
    """
    out = {}
    get = out.get
    for i, (mi, ai) in enumerate(items):
        mm = mi + mi
        if not (mm + off) & guard:
            out[mm] = (get(mm, 0) + ai * ai) % p
        twice = 2 * ai
        for mu, au in items[:i]:
            mm = mu + mi
            if not (mm + off) & guard:
                out[mm] = (get(mm, 0) + twice * au) % p
    return [(m, c) for m, c in out.items() if c]


# ---------------------------------------------------------------------------
# Witt carry
# ---------------------------------------------------------------------------

def delta1(f: Polynomial) -> Polynomial:
    """First Witt carry of f: ((sum of lifted terms)^p - sum of p-th powers)/p mod p.

    Each coefficient c_i of f = sum c_i m_i lifts to its representative in
    0..p-1.  By the multinomial theorem the carry sums, over the
    compositions k of p into one part per term with every part below p,
    p!/(p * prod k_i!) * prod (c_i m_i)^k_i.  By Wilson's theorem
    (p-1)! = -1 mod p, so each coefficient is -1/prod k_i! mod p and, as
    (-1)^p = -1 mod p (and 1 = -1 mod 2),

        delta1(f) = [count-p part of prod_i sum_{j<p} (-c_i m_i)^j / j!]  (mod p).

    :func:`_carry_layers` builds it on the keys of :func:`_carry_units`;
    this function unpacks each nonzero term in layer order, x_i's exponent
    being (key mod unit_(i+1)) // unit_i, and where p times f's top
    exponent reaches the 2**16 cap the public constructor raises on the
    first term past it.  A single-term polynomial has carry zero.
    """
    if f.num_terms <= 1:
        return Polynomial.zero(f.field, f.vars)
    units = _carry_units(f)
    carry = _carry_layers(units, f.terms.items(), f.p)
    keys = [m for m, c in carry.items() if c]
    columns, low = [], 1
    for high in units[1:-1]:  # each digit below the top one
        columns.append([m % high // low for m in keys] if low > 1 else [m % high for m in keys])
        low = high
    columns.append([m // low for m in keys])  # the top digit: every key is below units[n]
    terms = dict(zip(zip(*columns), filter(None, carry.values())))
    if units[-1] > EXPONENT_LIMIT and f.p * max(map(max, f.terms)) >= EXPONENT_LIMIT:
        return Polynomial(f.field, f.vars, terms)  # checks each term against the cap
    return Polynomial._trusted(f.field, f.vars, terms)


def _carry_units(f: Polynomial) -> list:
    """The unboxed carry's one keying, for :func:`_carry_layers`: x_i's
    unit ``units[i]`` is prod_{j<i} (p * top_j + 1), top_j being x_j's top
    exponent in f, which no layer at count <= p passes; ``units[n]`` bounds
    every key.

    No key of the unboxed carry is box-tested, so keys are mixed radix
    (Kronecker substitution), not guarded bit fields.  A product is one
    add, and on the benchmark's rows a key is one CPython digit (35-40 bits
    in bit fields at p = 11) spread over the dict's slots by every
    variable: delta1 took 69.1 -> 63.4 ms over the 54 ``split`` row members
    (2-vCPU Xeon VM, Python 3.11).
    """
    p = f.p
    units = [1]
    for top in map(max, zip(*f.terms)):
        units.append(units[-1] * (p * top + 1))
    return units


def _carry_layers(units: list, terms, p: int, every: bool = False):
    """:func:`_layers` at count p for the carry of ``terms``, some of f's
    (monomial, coefficient) pairs keyed by f's :func:`_carry_units`, each
    term -c*m stepping to j = p - 1: the count-p layer, or with ``every``
    all p + 1.

    Terms go in lex order, so the first ones share a face of the Newton
    polytope and the layers grow slowly, at about one product per
    composition, C(p+t-1, t-1) for t terms.  Against expanding f^p mod p^2
    they won on 290 of 297 seeded random cells (median 1.8x) and lost by up
    to 1.3x where the terms fill much of their degree at p = 11.
    """
    items = [(sum(map(mul, m, units)), -c, p - 1) for m, c in sorted(terms)]
    return _layers(items, p, p, every=every)


def _delta1_probe(f: Polynomial, a: int, b: int, s: int) -> Polynomial:
    """f^a * delta1(f)^b reduced modulo (x_i^q), q = p^s, for a nonzero f,
    a, b >= 0 and s >= 1.

    No exponent of the product passes E = (a + p*b) * (f's top exponent),
    so every box with q > E keeps all of it: q is p^s or, when that is
    larger, the least power of p above E, and p^s is never formed.  The
    packing holds the q-box: f's terms in the box, packed once (a term
    outside enters no carry term inside it), and the carry's items
    x_t = -c_t m_t, each one's steps stopping at the box, so that
    :func:`_layers` gives T_k, the count-k part of
    T = prod_t sum_{j <= J_t} x_t^j / j!, and delta1(f) = T_p in the box.
    Only the result is unpacked, so only its terms are checked against the
    exponent cap.  Where b != 1 or a >= p, f^a and the carry's b-th power
    come from :func:`_pow_boxed` and one boxed product; at b = 0 the probe
    is f^a alone, and no carry is built.

    For b = 1 and a < p the probe is read off layer p + a of T, with a
    correction in g = sum_t x_t = -f, and there is no power of f.  Over
    F_p each factor E(x) = sum_{j < p} x^j / j! has, with theta = x d/dx,
    x E(x) = theta E(x) + x^p / (p-1)! = theta E(x) - x^p, as (p-1)! = -1
    by Wilson's theorem.  Where the box truncates an item (J_t < p - 1),
    x_t^(J_t + 1) is cut, and so is the extra term.  Summed over the
    items, with T^(t) the product without item t,

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
    p = f.p
    bound = (a + p * b) * max(map(max, f.terms))
    q = p
    for _ in range(s - 1):
        if q > bound:
            break
        q *= p
    order, box = _frobenius_box(f, q)
    inside = [(order.pack(m), c, max(m)) for m, c in sorted(f.terms.items()) if max(m) < q]
    items = [(m, -c, min(p - 1, (q - 1) // (top or 1))) for m, c, top in inside]
    if b != 1 or a >= p:
        fa = _pow_boxed(order, box, {m: c for m, c, _ in inside}, a, p, q)
        if not b:
            return order.polynomial(f.field, f.vars, fa)
        carry = _layers(items, p, p, box)
        db = _pow_boxed(order, box, {m: c for m, c in carry.items() if c}, b, p, q)
        return order.polynomial(f.field, f.vars, _mul_packed(db, list(fa.items()), p, *box))
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
    return order.polynomial(f.field, f.vars, out)


def _delta1_count(f: Polynomial) -> int:
    """``delta1(f).num_terms`` for a weighted-homogeneous f, from the counts
    of f's blocks: two terms share a block when they share a variable.

    The product behind :func:`delta1` factors over the blocks, so its count-p
    layer sums, over the compositions (k_b) of p, the products of each
    block's count-k_b layer.  Every term of f has the same nonzero
    multidegree D, so block b's part of a monomial there has multidegree
    k_b * D: different compositions share no monomial, and a product of
    polynomials in disjoint variables over F_p has the product of their term
    counts.  Each block's layers come from :func:`_carry_layers`, on units
    built once for f, and are counted and dropped; a single term has one
    term at every count below p.
    Where f is one block, one pass builds its count-p layer alone.  Where f
    has one term, or p times its top exponent reaches the cap, the count is
    delta1(f)'s, which raises on a term past the cap.
    """
    p = f.p
    if f.num_terms <= 1 or p * max(map(max, f.terms)) >= EXPONENT_LIMIT:
        return delta1(f).num_terms
    blocks = {}  # a block's variables as a bit mask -> its terms
    for m, c in f.terms.items():
        mask = sum([1 << i for i, e in enumerate(m) if e])
        terms = [(m, c)]
        for other in [b for b in blocks if b & mask]:
            mask |= other
            terms += blocks.pop(other)
        blocks[mask] = terms
    units = _carry_units(f)
    total = [1] + [0] * p
    for block in blocks.values():
        if len(block) == 1:
            counts = [1] * p + [0]
        elif len(blocks) == 1:
            layer = _carry_layers(units, block, p)
            return len(layer) - countOf(layer.values(), 0)
        else:
            counts = [len(layer) - countOf(layer.values(), 0)
                      for layer in _carry_layers(units, block, p, every=True)]
        total = [sum(map(mul, total[:k + 1], counts[k::-1])) for k in range(p + 1)]
    return total[p]


def _layers(items: list, p: int, top: int, box: tuple = (0, 0), every: bool = False):
    """The count-``top`` part of prod_t sum_{j <= J_t} (a_t m_t)^j / j! mod p
    for items (packed m_t, a_t, J_t), J_t < p: coefficients in 0..p-1, zeros kept.

    All mod p and dividing by nothing, ``layers[k]`` holds the count-k part
    of the product over the items seen so far.  An item updates them in
    place from k = top down, each reading only the old layers below it:
    layers[k] += sum_{1 <= j <= J} layers[k-j] * (a*m)^j / j!.  With
    ``rest`` the sum of the J_t still to come, an item fills only layers
    k >= max(1, top - rest) and frees each layer below top - rest as it
    reads it the last time, so the last item fills layer top alone, as a
    full pass would, and where the J_t sum to
    less than top ``{}`` comes back at once.  With ``every`` each item fills
    every layer, and all top + 1 layers come back (the carry count's
    blocks).  With
    ``box`` from :meth:`_PackedOrder.box`, a second inner loop drops each
    product that leaves the box as it is formed (the carry in
    :func:`_delta1_probe`); :func:`_carry_layers` has no box, and its
    products pay for no test.  ``top`` may pass p while every J_t < p:
    :func:`_delta1_probe` reads f^a * delta1(f) off layer p + a for b = 1.

    A step's coefficient comes as its row of :func:`_times`, and a source
    coefficient scales by one read of it.  A product does one ``get``: a
    new monomial takes its scaled coefficient as it is, and one already
    there adds it and reduces mod p.  An entry whose coefficients cancel
    stays, as a zero: every reader of a layer counts or keeps nonzero
    coefficients, not entries.

    The table is built once per p in a process: p^2 entries, 9 us at
    p = 11 and 0.45 ms at p = 97 (2-vCPU Xeon VM, Python 3.11).  Rows built
    anew in each call cost up to that much every call, and made delta1,
    fedder_report and the b = 1 probe on 2-term forms 20-50% slower than
    a multiply per product at p = 31 and 97.  With the table those calls
    are within 4% of it, on 3- and 4-term forms there 1-17% faster, and on
    the seeded survey forms at p 5-11 1-10% faster.
    """
    # the step bounds of the items still to come; with ``every`` it counts
    # top more, so that every layer stays in reach
    rest = sum([jmax for _, _, jmax in items]) + (top if every else 0)
    if rest < top:
        return {}
    off, guard = box
    inv_fact = [1] * p
    for j in range(2, p):
        inv_fact[j] = inv_fact[j - 1] * pow(j, -1, p) % p
    times = _times(p)
    layers = [{0: 1}] + [{} for _ in range(top)]
    for m, c, jmax in items:
        rest -= jmax
        steps = []
        a = 1
        for j in range(1, jmax + 1):
            a = a * c % p
            steps.append((j * m, times[a * inv_fact[j] % p]))
        low = max(1, top - rest)
        for k in range(top, low - 1, -1):
            out = layers[k]
            get = out.get
            for src in range(max(k - jmax, 0), k):
                mj, row = steps[k - src - 1]
                if guard:
                    for mo, co in layers[src].items():
                        mm = mo + mj
                        if not (mm + off) & guard:
                            v = get(mm)
                            out[mm] = row[co] if v is None else (v + row[co]) % p
                else:
                    for mo, co in layers[src].items():
                        mm = mo + mj
                        v = get(mm)
                        out[mm] = row[co] if v is None else (v + row[co]) % p
                if k == low and src < top - rest:  # its last read; out of reach
                    layers[src] = None
    return layers if every else layers[top]
