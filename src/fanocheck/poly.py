"""Sparse multivariate polynomials over F_p with weighted multi-gradings.

A monomial is a tuple of exponents, one slot per variable.  A polynomial
stores a dict mapping monomials to coefficients in {1, ..., p-1}; zero
coefficients are never kept.  The canonical term order everywhere is graded
reverse lexicographic (grevlex), ties broken towards earlier variables.

This module owns the one packing of monomials into ints (Monagan & Pearce,
CASC 2007), :class:`_PackedOrder`: a product of monomials is one integer
add and the box test "some exponent >= its bound" (:meth:`_PackedOrder.box`)
one add and one mask; the Chow ring of :mod:`fanocheck.chow` packs, boxes
and multiplies on it too.  Term orders pack their rows above the exponents,
so ``_grevlex`` orders :meth:`Polynomial.leading_monomial` and Buchberger in
:mod:`fanocheck.ideals` alike.  Every kernel result leaves through
:meth:`_PackedOrder.polynomial` and is not validated again.

Exponents are capped at 2**16 so that products and powers fail loudly
instead of silently blowing up.
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sequence
from functools import lru_cache
from math import factorial
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


def as_prime(p: int | Prime) -> Prime:
    return p if isinstance(p, Prime) else Prime(p)


# ---------------------------------------------------------------------------
# packed monomials and term orders
# ---------------------------------------------------------------------------

_CAPPED_WIDTH = EXPONENT_LIMIT.bit_length()  # 16 value bits and the guard bit


class _PackedOrder:
    """Exponent tuples on n variables packed into ints, with an optional order.

    Exponent i sits in bits [i*width, (i+1)*width), the field's top bit its
    guard.  ``rows``, a term order's 0/1 weight rows, least significant
    first, sit above; each gets a field wide enough for n exponents below
    the guards, the top one is unbounded.  Int order is then the row values top first, then the
    exponents; without rows it is no term order.  Packing is linear.
    """

    __slots__ = ("width", "mask", "shifts", "guard", "units")

    def __init__(self, n: int, width: int, rows: Sequence = ()):
        shifts = tuple(i * width for i in range(n))
        self.width = width
        self.mask = (1 << width) - 1
        self.shifts = shifts
        self.guard = sum(1 << s for s in shifts) << (width - 1)
        if not rows:
            self.units = tuple(1 << s for s in shifts)
            return
        row_width = (n * ((1 << (width - 1)) - 1)).bit_length()
        row_shifts = [n * width + r * row_width for r in range(len(rows))]
        self.units = tuple(
            (1 << s) + sum(row[i] << rs for row, rs in zip(rows, row_shifts))
            for i, s in enumerate(shifts))

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

    def count(self, packed: dict) -> int:
        """How many terms :meth:`polynomial` keeps, unpacking none."""
        return len(packed) - countOf(self._capped(packed).values(), 0)

    def _capped(self, packed: dict) -> dict:
        """``packed``; the first nonzero term with an exponent past the cap
        (only a field wider than the cap's holds one) raises with the
        public constructor's message."""
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

    def lcm(self, a: tuple, b: tuple) -> int:
        """Packed lcm of two exponent tuples."""
        return sum(map(mul, map(max, a, b), self.units))

    def overflow(self, t: int) -> ExponentOverflowError:
        return ExponentOverflowError(
            f"exponent cap {EXPONENT_LIMIT} exceeded in {self.unpack(t)}")


@lru_cache(maxsize=None)
def _packing(n: int, width: int) -> _PackedOrder:
    """The rows-free packing of products, boxed powers, the Witt carry and
    the Chow ring."""
    return _PackedOrder(n, width)


@lru_cache(maxsize=None)
def _grevlex(n: int) -> _PackedOrder:
    """Grevlex: rows e_0 + ... + e_k for k = 0..n-1, total degree on top."""
    rows = [tuple(int(i <= k) for i in range(n)) for k in range(n)]
    return _PackedOrder(n, _CAPPED_WIDTH, rows)


def _mul_packed(acc: dict, factor: list, mod, off: int = 0, guard: int = 0) -> dict:
    """acc * factor with coefficients mod ``mod`` (integers if None), on packed monomials.

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
    if mod is None:
        return {m: c for m, c in out.items() if c}
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
        """Kernel, parser and derivative results only: n-tuples below the
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

    def _check_compatible(self, other: "Polynomial"):
        if self.field != other.field or self.vars != other.vars:
            raise ValueError("polynomials live in different rings")

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.field == other.field and self.vars == other.vars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, self.vars, frozenset(self.terms.items())))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
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
        self._check_compatible(other)
        top = max(map(max, self.terms), default=0) + max(map(max, other.terms), default=0)
        order = _packing(self.vars.n, top.bit_length() + 1)
        # the kernel's outer loop runs over the factor: self outermost keeps
        # the terms in the order a self-by-other double loop meets them
        acc = order.pack_terms(other.terms)
        factor = [(order.pack(m), c) for m, c in self.terms.items()]
        return order.polynomial(self.field, self.vars, _mul_packed(acc, factor, self.p))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

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

    def partial(self, name: str) -> "Polynomial":
        """Formal partial derivative with respect to one variable."""
        i = self.vars.index(name)
        out = {}
        for m, c in self.terms.items():
            e = m[i]
            if e:
                lowered = m[:i] + (e - 1,) + m[i + 1:]
                out[lowered] = out.get(lowered, 0) + c * e
        p = self.p
        return Polynomial._trusted(self.field, self.vars,
                                   {m: c % p for m, c in out.items() if c % p})

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
    """f**e reduced modulo the Frobenius-power ideal (x_0^q, ..., x_n^q).

    q must be a power of the characteristic p.  In the q-box f^q is the
    constant term c of f (c^q = c, and every other m^q is cut), so
    f^e = c^(e // q) * f^(e mod q).  Over F_p, f^(d p^i) = (f^d)(x^(p^i)): the
    rest is one boxed product per nonzero base-p digit d of e mod q, highest
    first, until one is zero.  f^d is d! times :func:`_layers` at count d,
    each term's steps stopping at the largest j with j * max(m) * p^i < q.
    """
    if e < 0:
        raise ValueError("negative exponent")
    order, box = _frobenius_box(f, q)
    p = f.p
    hi, lo = divmod(e, q)
    c = pow(f.terms.get((0,) * f.vars.n, 0), hi, p)
    acc = {0: c} if c else {}
    terms = sorted(f.terms.items())
    s = q
    while lo and acc:
        s //= p
        d, lo = divmod(lo, s)
        if d:
            items = [(order.pack(m) * s, a, j) for m, a in terms
                     if (j := min(d, (q - 1) // (max(m) * s or 1)))]
            scale = factorial(d) % p
            part = _layers(items, p, d, box)
            acc = _mul_packed(acc, [(m, a * scale % p) for m, a in part.items() if a],
                              p, *box)
    return order.polynomial(f.field, f.vars, acc)


def mul_mod_frobenius(f: Polynomial, g: Polynomial, q: int) -> Polynomial:
    """f*g reduced modulo the Frobenius-power ideal (x_0^q, ..., x_n^q).

    q must be a power of the characteristic.  Terms of f or g with an
    exponent >= q lie in the ideal and are left out, and a product is cut as
    soon as it leaves the box, so no exponent past q - 1 is ever formed.
    """
    f._check_compatible(g)
    order, (off, guard) = _frobenius_box(f, q)
    acc = {order.pack(m): c for m, c in g.terms.items() if max(m) < q}
    factor = [(order.pack(m), c) for m, c in f.terms.items() if max(m) < q]
    return order.polynomial(f.field, f.vars, _mul_packed(acc, factor, f.p, off, guard))


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

    The packed kernel :func:`_delta1_packed` builds it for two callers:
    this function, which unpacks it, and ``splitting.fedder_report``, which
    counts its nonzero terms with :meth:`_PackedOrder.count`.  Both raise
    on an exponent past the 2**16 cap only in a nonzero carry term.  A
    single-term polynomial has carry zero.
    """
    if f.num_terms <= 1:
        return Polynomial.zero(f.field, f.vars)
    order, carry = _delta1_packed(f)
    return order.polynomial(f.field, f.vars, carry)


def _delta1_packed(f: Polynomial) -> tuple:
    """(packing, carry) for a nonzero f: delta1(f) on packed monomials,
    coefficients in 0..p-1 and zeros kept: :func:`_layers` at count p, the
    steps of each term -c*m running to j = p - 1.

    Terms go in lex order of their exponents, so the first ones share a
    face of the Newton polytope and the layers grow slowly.  With no two
    monomials meeting they make about one product per composition,
    C(p+t-1, t-1) for t terms.  Against expanding f^p mod p^2 (2-vCPU Xeon
    VM, Python 3.11) they won on 290 of 297 seeded random cells, median
    1.8x, and lost by up to about 1.3x where the terms fill much of their
    degree at p = 11.
    """
    p = f.p
    order = _packing(f.vars.n, (p * max(map(max, f.terms))).bit_length() + 1)
    items = [(order.pack(m), -c, p - 1) for m, c in sorted(f.terms.items())]
    return order, _layers(items, p, p)


def _layers(items: list, p: int, top: int, box: tuple = (0, 0)) -> dict:
    """The count-``top`` part of prod_t sum_{j <= J_t} (a_t m_t)^j / j! mod p
    for items (packed m_t, a_t, J_t), J_t < p: coefficients in 0..p-1, zeros kept.

    All mod p and dividing by nothing, ``layers[k]`` holds the count-k part
    of the product over the items seen so far.  An item updates them in
    place from k = top down, each reading only the old layers below it:
    layers[k] += sum_{1 <= j <= J} layers[k-j] * (a*m)^j / j!.  The last
    item fills only layer top and frees each layer below once read.  With
    ``box`` from :meth:`_PackedOrder.box`, a second inner loop drops each
    product that leaves the box as it is formed; the carry has no box, and
    its products pay for no test.
    """
    off, guard = box
    inv_fact = [1] * p
    for j in range(2, p):
        inv_fact[j] = inv_fact[j - 1] * pow(j, -1, p) % p
    layers = [{0: 1}] + [{} for _ in range(top)]
    last = len(items) - 1
    for i, (m, c, jmax) in enumerate(items):
        steps = []
        a = 1
        for j in range(1, jmax + 1):
            a = a * c % p
            steps.append((j * m, a * inv_fact[j] % p))
        for k in range(top, top - 1 if i == last else 0, -1):
            out = layers[k]
            get = out.get
            for src in range(max(k - jmax, 0), k):
                mj, aj = steps[k - src - 1]
                if guard:
                    for mo, co in layers[src].items():
                        mm = mo + mj
                        if not (mm + off) & guard:
                            out[mm] = (get(mm, 0) + co * aj) % p
                else:
                    for mo, co in layers[src].items():
                        mm = mo + mj
                        out[mm] = (get(mm, 0) + co * aj) % p
                if i == last:
                    layers[src] = None
    return layers[top]
