"""The contract suite of the packed kernels: one hypothesis property per
kernel entry, each against one reference in ``tests/helpers``, with its
mass on the edges where the kernels broke.  Every property draws a fixed
number of examples under the derandomized profile of ``tests/conftest``.

The unboxed Witt carry.  ``delta1`` and the carry count build the carry's
count-p layer on mixed-radix keys (``poly._carry_units``): x_i's unit is
the product over j < i of (p * top_j + 1), top_j being x_j's top exponent
in f.  ``delta1`` is checked against ``naive_delta1``, the count against
``delta1(f).num_terms``, where that keying can break:

- p in {2, 3, 5, 7, 31, 97};
- p times f's top exponent next to 2**15 - 1, 2**15, 2**16 - 1 and 2**16,
  the exponent cap (on it where p divides the edge);
- two terms sharing a top exponent, so that the carry reaches the top of a
  radix digit, p * top_j;
- a variable in no term, whose radix base is 1;
- constant terms, inhomogeneous forms, dense forms (every monomial of a
  degree) and the terms in a drawn order, for ``delta1``;
- weighted variables, and forms of one block or of several (terms in
  disjoint variables), for the count's two paths.

``naive_delta1`` sums over every composition of p, so forms keep to 3
terms at p = 31 and 2 at p = 97.

The boxed kernels, in the q-box (x_i^q), q = p^s:

- the boxed power ``pow_mod_frobenius`` (``poly._pow_boxed``: a digit 1,
  a digit 2 squared by pairs in ``_square_packed``, a digit d >= 3 from
  ``_layers`` at count d, and c^(e // q) for the constant term c) against
  ``ref_pow_mod_frobenius``, one boxed product per step: every base-p
  digit of e mod q in {0, 1, 2, >= 3}, e past q, and exponents next to
  q / p^i, where a term leaves the box at scale p^i, and up to q - 1,
  where a scaled exponent would pass its field;
- the carry probe ``poly._delta1_probe`` against f^a * naive_delta1(f)^b,
  formed as two boxed powers of the same reference: a in {0, p - 1, p,
  p + 1} or below p (b = 1, a < p reads the carry's layers), b in {0, 1,
  2, p}, terms outside the box, and s past E = (a + p*b) * (f's top
  exponent) against the unboxed product, with a top that is a power of p
  shared by every term so that the product reaches E;
- the layer kernel ``poly._layers``, which builds only the layers that can
  still reach the top count, against ``ref_layers``: step bounds J_t that
  sum to top - 1 (nothing reaches top), top and top + 1 (the first item's
  lowest layer is top - rest), unboxed and in a q-box, and with ``every``;
- the Chow ring's one product ``IntersectionRing._mul``, which sends every
  product that xi^r divides to a spill and multiplies the spill by the xi
  rule until it is empty, against ``RefIntersectionRing``: products of
  reduced elements whose xi powers sum to 2r - 2 (two spill rounds from
  r = 3 on, the pure power xi^r itself at r = 2), and ``reduce`` on inputs
  with xi^r, xi^(r+1) and terms outside the h-box.

The boxed product ``poly._mul_packed`` has its property beside the box
test it relies on, in ``test_poly.TestPackedBox``.  Tests that pin a
kernel's shape or path (zero entries, term order, which kernel runs) stay
beside the public functions.
"""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from fanocheck.chow import IntersectionRing, ProductBase, SplitBundleSpec
from fanocheck.poly import (
    ExponentOverflowError,
    Polynomial,
    VariableSet,
    _delta1_count,
    _delta1_probe,
    _layers,
    _packing,
    delta1,
    pow_mod_frobenius,
)
from helpers import (
    RefIntersectionRing,
    monomials_of_degree,
    naive_delta1,
    ref_layers,
    ref_pow_mod_frobenius,
)

PRIMES = (2, 3, 5, 7, 31, 97)
EDGES = (2**15 - 1, 2**15, 2**16 - 1, 2**16)
MAX_TERMS = {31: 3, 97: 2}  # for naive_delta1
MAX_COUNT_TERMS = {31: 4, 97: 3}
# the largest s with q = p^s for the boxed power, where the reference's
# e mod q products stay cheap, and for the probe, whose reference also
# multiplies two boxed powers
POWER_SCALES = {2: 6, 3: 4, 5: 3, 7: 2, 31: 1, 97: 1}
PROBE_SCALES = {2: 3, 3: 2, 5: 2, 7: 1, 31: 1, 97: 1}


def _names(n: int) -> str:
    return ",".join(f"x{i}" for i in range(n))


def _outcome(fn, f):
    """fn(f), or the message of the ExponentOverflowError it raises."""
    try:
        return fn(f)
    except ExponentOverflowError as exc:
        return f"raises: {exc}"


@st.composite
def edge_tops(draw, p: int) -> int:
    """A top exponent whose p-fold is next to an edge: floor or ceiling."""
    edge = draw(st.sampled_from(EDGES))
    return draw(st.sampled_from(sorted({edge // p, -(-edge // p)})))


@st.composite
def carry_inputs(draw) -> Polynomial:
    """2 to 4 terms on 1 to 3 variables, one more in no term at times; the
    first term holds the top exponent, small or at an edge, the last is
    constant at times, and every exponent leans to 0, 1 and the top's
    neighbours, so that most forms are inhomogeneous."""
    p = draw(st.sampled_from(PRIMES))
    top = draw(st.integers(1, 4) | edge_tops(p))
    used = draw(st.integers(1, 3))
    exponent = st.sampled_from([0, 1, top - 1, top]) | st.integers(0, top)
    monos = [draw(st.lists(exponent, min_size=used, max_size=used))
             for _ in range(draw(st.integers(2, MAX_TERMS.get(p, 4))))]
    monos[0][draw(st.integers(0, used - 1))] = top
    if draw(st.booleans()):
        monos[-1] = [0] * used
    absent = draw(st.none() | st.integers(0, used))
    if absent is not None:
        for m in monos:
            m.insert(absent, 0)
    terms = {tuple(m): draw(st.integers(1, p - 1)) for m in monos}
    return Polynomial(p, VariableSet.unit(_names(len(monos[0]))), terms)


@st.composite
def dense_inputs(draw) -> Polynomial:
    """Every monomial of one degree in 2 or 3 variables, as many as
    ``naive_delta1`` affords at p (up to 7), and a constant term at times."""
    p = draw(st.sampled_from(PRIMES))
    most = MAX_TERMS.get(p, 7)
    vs = VariableSet.unit(_names(draw(st.integers(2, min(3, most)))))
    pools = [pool for d in range(1, 7) if len(pool := monomials_of_degree(vs, d)) <= most]
    terms = {m: draw(st.integers(1, p - 1)) for m in draw(st.sampled_from(pools))}
    if len(terms) < most and draw(st.booleans()):
        terms[(0,) * vs.n] = draw(st.integers(1, p - 1))
    return Polynomial(p, vs, terms)


@lru_cache(maxsize=None)
def _degree_six(weights: tuple) -> list:
    return monomials_of_degree(VariableSet.weighted(_names(len(weights)), list(weights)), 6)


@st.composite
def homogeneous_inputs(draw, edge: bool) -> Polynomial:
    """A weighted-homogeneous form whose variables fall into 1 to 3 groups,
    each group's terms in its own variables, so that no two groups share a
    block, and each group of two or more variables has two or three terms.
    Weights in {1, 2, 3} at degree 6; or, at an ``edge``, unit weights at
    degree top + 1 with p * top next to an edge: a group's terms
    x_i^(top-k) * x_j^(k+1), k in {0, 1}, share its lead variable x_i, and
    a group of one is x_i^(top+1)."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(2, 5))
    labels = [draw(st.integers(0, 2)) for _ in range(n)]
    groups = [[i for i in range(n) if labels[i] == g] for g in sorted(set(labels))]
    monos = []
    if not edge:
        weights = [draw(st.sampled_from([1, 1, 2, 3])) for _ in range(n)]
        for group in groups:
            pool = _degree_six(tuple(weights[i] for i in group))
            for sub in draw(st.lists(st.sampled_from(pool), min_size=min(2, len(pool)),
                                     max_size=3, unique=True)):
                mono = [0] * n
                for i, e in zip(group, sub):
                    mono[i] = e
                monos.append(mono)
    else:
        weights = [1] * n
        top = draw(edge_tops(p))
        for lead, *others in groups:
            if not others:
                monos.append([top + 1 if i == lead else 0 for i in range(n)])
            for _ in range(draw(st.integers(2, 3)) if others else 0):
                mono = [0] * n
                k = draw(st.integers(0, 1))
                mono[lead], mono[draw(st.sampled_from(others))] = top - k, k + 1
                monos.append(mono)
    monos = monos[:MAX_COUNT_TERMS.get(p, 6)]
    terms = {tuple(m): draw(st.integers(1, p - 1)) for m in monos}
    return Polynomial(p, VariableSet.weighted(_names(n), weights), terms)


@settings(max_examples=150)
@given(st.data())
def test_delta1_is_the_naive_carry(data):
    # delta1 gets f's terms in a drawn order; which term past the cap the
    # error names depends on the order each side sums in, so a raise
    # compares by kind alone
    f = data.draw(carry_inputs() | dense_inputs())
    shuffled = Polynomial(f.field, f.vars, dict(data.draw(st.permutations(list(f.terms.items())))))
    got, want = _outcome(delta1, shuffled), _outcome(naive_delta1, f)
    if isinstance(want, str):
        assert isinstance(got, str) and got.startswith("raises: bad exponent tuple")
    else:
        assert got == want


def _assert_count_is_the_carry_count(f):
    # past the cap the count is delta1's, so both raise on the same term
    carry = _outcome(delta1, f)
    want = carry if isinstance(carry, str) else carry.num_terms
    assert _outcome(_delta1_count, f) == want


@settings(max_examples=100)
@given(homogeneous_inputs(edge=False))
def test_count_is_the_carry_count(f):
    _assert_count_is_the_carry_count(f)


@settings(max_examples=100)
@given(homogeneous_inputs(edge=True))
def test_count_is_the_carry_count_at_the_edges(f):
    _assert_count_is_the_carry_count(f)


@st.composite
def layer_inputs(draw):
    """(items, nvars, p, top, q, every): 1 to 5 items (exponent tuple,
    coefficient, J_t), top one below, at or one above the sum of the J_t;
    in a q-box (q = p^s) each item inside it, its steps stopping there."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11)))
    nvars = draw(st.integers(1, 3))
    q = draw(st.none() | st.sampled_from((p, p * p)))
    exponent = st.integers(0, 3) if q is None else st.integers(0, min(3, q - 1))
    items = []
    for _ in range(draw(st.integers(1, 5))):
        m = tuple(draw(st.lists(exponent, min_size=nvars, max_size=nvars)))
        most = p - 1 if q is None else min(p - 1, (q - 1) // (max(m) or 1))
        items.append((m, draw(st.integers(1, p - 1)), draw(st.integers(1, most))))
    top = max(1, sum(j for _, _, j in items) + draw(st.sampled_from((-1, 0, 1))))
    return items, nvars, p, top, q, draw(st.booleans())


@settings(max_examples=300)
@given(layer_inputs())
def test_layers_are_the_reference_layers(case):
    items, nvars, p, top, q, every = case
    if q is None:
        most = sum(j * max(m) for m, _, j in items) or 1
        order, box = _packing(nvars, most.bit_length() + 1), (0, 0)
    else:
        order = _packing(nvars, (q - 1).bit_length() + 1)
        box = order.box([q] * nvars)
    got = _layers([(order.pack(m), a, j) for m, a, j in items], p, top, box, every)
    want = ref_layers(items, nvars, p, top, q)
    layers = [{order.unpack(m): c for m, c in layer.items() if c}
              for layer in (got if every else [got])]
    assert layers == (want if every else want[top:])


@st.composite
def chow_rings(draw):
    """A bundle of rank 2 to 4 over 1 to 4 factors of dimension 1 to 3,
    twists in -2..2: the packed ring and the reference ring."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    twists = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(dims),
                                    max_size=len(dims)), min_size=2, max_size=4))
    base = ProductBase(dims)
    ring = IntersectionRing(base, SplitBundleSpec(base, tuple(map(tuple, twists))))
    return ring, RefIntersectionRing(dims, twists)


@st.composite
def chow_elements(draw, ring, xi_powers, h_past=0):
    """Up to 6 terms, xi powers from ``xi_powers``, the first at its last;
    each h exponent up to n_i + h_past, coefficients in -3..3."""
    terms = {}
    for i in range(draw(st.integers(1, 6))):
        xi = xi_powers[-1] if i == 0 else draw(st.sampled_from(xi_powers))
        hs = tuple(draw(st.sampled_from((0, n)) | st.integers(0, n + h_past))
                   for n in ring.base.dims)
        terms[hs + (xi,)] = draw(st.integers(-3, 3))
    return terms


@settings(max_examples=200)
@given(st.data())
def test_chow_products_are_the_reference_products(data):
    ring, ref = data.draw(chow_rings())
    r = ring.rank
    # xi powers lean to r - 1, so that two of them sum to 2r - 2
    powers = (0, 1, r - 1, r - 1)
    a = data.draw(chow_elements(ring, powers))
    b = data.draw(chow_elements(ring, powers))
    got = ring._unpack(ring._mul(ring._pack(a), ring._pack(b)))
    assert got == ref.mul(a, b)


@settings(max_examples=200)
@given(st.data())
def test_chow_reduce_is_the_reference_reduce(data):
    ring, ref = data.draw(chow_rings())
    r = ring.rank
    el = data.draw(chow_elements(ring, (0, r - 1, r, r + 1), h_past=1))
    assert ring.reduce(el) == ref.reduce(el)


@st.composite
def boxed_forms(draw, p: int, q: int) -> Polynomial:
    """1 to 4 terms (fewer at p = 31 and 97) on 1 to 3 weighted variables,
    one more in no term at times; each exponent 0, 1 or 2, next to q / p^i
    for some i >= 0 (below it the term fits the box at scale p^i, at it
    and above it does not; at q - 1 a scaled exponent would pass its
    field), or any below 2q.  At times every term shares one power of p
    as its first exponent, so that the carry, and the probe's product,
    reach p times it (a top E that is a power of p); else at times the
    last term is constant."""
    used = draw(st.integers(1, 3))
    powers = [p ** i for i in range(q.bit_length()) if p ** i <= q]  # the q / p^i
    edges = sorted({e + k for e in powers for k in (-1, 0, 1)} - {0})
    exponent = st.sampled_from([0, 0, 0, 1, 2]) | st.sampled_from(edges) | st.integers(0, 2 * q)
    monos = [draw(st.lists(exponent, min_size=used, max_size=used))
             for _ in range(draw(st.integers(1, MAX_TERMS.get(p, 4))))]
    if draw(st.booleans()):
        top = draw(st.sampled_from(powers))
        for m in monos:
            m[0] = top
    elif draw(st.booleans()):
        monos[-1] = [0] * used
    absent = draw(st.none() | st.integers(0, used))
    if absent is not None:
        for m in monos:
            m.insert(absent, 0)
    weights = [draw(st.sampled_from([1, 1, 2, 3])) for _ in monos[0]]
    terms = {tuple(m): draw(st.integers(1, p - 1)) for m in monos}
    return Polynomial(p, VariableSet.weighted(_names(len(weights)), weights), terms)


def _digits(p: int):
    """A base-p digit: 0, 1 and 2 (a boxed part, its square by pairs) or
    one of 3..p-1 (the layers at count d)."""
    return st.sampled_from(sorted({0, 1, 2} & set(range(p)))) | st.integers(min(3, p - 1), p - 1)


@settings(max_examples=300)
@given(st.data())
def test_power_is_the_step_by_step_power(data):
    # e = hi * q + lo, lo drawn digit by digit; hi > 0 takes the constant
    # term's power c^hi
    p = data.draw(st.sampled_from(PRIMES))
    s = data.draw(st.integers(1, POWER_SCALES[p]))
    q = p ** s
    f = data.draw(boxed_forms(p, q))
    lo = sum(data.draw(_digits(p)) * p ** i for i in range(s))
    e = data.draw(st.sampled_from((0, 0, 1, 2, p, 10**9 + 7))) * q + lo
    assert pow_mod_frobenius(f, e, q) == ref_pow_mod_frobenius(f, e, q)


@settings(max_examples=300)
@given(st.data())
def test_probe_is_the_boxed_product(data):
    # a < p at b = 1 reads the carry's layers; every other (a, b) is two
    # boxed powers and their product.  Past E = (a + p*b) * (f's top
    # exponent) no box cuts anything, and s = 10**6 is the unboxed product
    p = data.draw(st.sampled_from(PRIMES))
    s = data.draw(st.integers(1, PROBE_SCALES[p]))
    f = data.draw(boxed_forms(p, p ** s))
    a = data.draw(st.sampled_from((0, p - 1, p, p + 1)) | st.integers(0, p - 1))
    b = data.draw(st.sampled_from((0, 1, 2, p)))
    carry = naive_delta1(f)
    if b <= 2 and data.draw(st.booleans()):
        s, want = 10**6, f ** a * carry ** b
    else:
        q = p ** s
        full = ref_pow_mod_frobenius(f, a, q) * ref_pow_mod_frobenius(carry, b, q)
        want = Polynomial(p, f.vars, {m: c for m, c in full.terms.items() if max(m) < q})
    assert _delta1_probe(f, a, b, s) == want
