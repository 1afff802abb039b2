"""Contract properties of the unboxed Witt carry, at the edges of its keying.

``delta1`` and the carry count build the carry's count-p layer on mixed-radix
keys (``poly._carry_layers``): x_i's unit is the product over j < i of
(p * top_j + 1), top_j being x_j's top exponent in f.  The strategies put
their mass where that keying can break:

- p in {2, 3, 5, 7, 31, 97};
- p times f's top exponent next to 2**15 - 1, 2**15, 2**16 - 1 and 2**16,
  the exponent cap (on it where p divides the edge);
- two terms sharing a top exponent, so that the carry reaches the top of a
  radix digit, p * top_j;
- a variable in no term, whose radix base is 1;
- weighted variables, and forms of one block or of several (terms in
  disjoint variables), for the count's two paths.

Each property runs a fixed, derandomized sample.  ``naive_delta1`` sums over
every composition of p, so forms keep to 3 terms at p = 31 and 2 at p = 97.
"""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from fanocheck.poly import (
    ExponentOverflowError,
    Polynomial,
    VariableSet,
    _delta1_count,
    delta1,
)
from helpers import monomials_of_degree, naive_delta1

PRIMES = (2, 3, 5, 7, 31, 97)
EDGES = (2**15 - 1, 2**15, 2**16 - 1, 2**16)
MAX_TERMS = {31: 3, 97: 2}  # for naive_delta1
MAX_COUNT_TERMS = {31: 4, 97: 3}


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
    first term holds the top exponent, small or at an edge, and every
    exponent leans to 0, 1 and the top's neighbours."""
    p = draw(st.sampled_from(PRIMES))
    top = draw(st.integers(1, 4) | edge_tops(p))
    used = draw(st.integers(1, 3))
    exponent = st.sampled_from([0, 1, top - 1, top]) | st.integers(0, top)
    monos = [draw(st.lists(exponent, min_size=used, max_size=used))
             for _ in range(draw(st.integers(2, MAX_TERMS.get(p, 4))))]
    monos[0][draw(st.integers(0, used - 1))] = top
    absent = draw(st.none() | st.integers(0, used))
    if absent is not None:
        for m in monos:
            m.insert(absent, 0)
    terms = {tuple(m): draw(st.integers(1, p - 1)) for m in monos}
    return Polynomial(p, VariableSet.unit(_names(len(monos[0]))), terms)


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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(carry_inputs())
def test_delta1_is_the_naive_carry(f):
    # which term past the cap the error names depends on the order each
    # side sums in, so a raise compares by kind alone
    got, want = _outcome(delta1, f), _outcome(naive_delta1, f)
    if isinstance(want, str):
        assert isinstance(got, str) and got.startswith("raises: bad exponent tuple")
    else:
        assert got == want


def _assert_count_is_the_carry_count(f):
    # past the cap the count is delta1's, so both raise on the same term
    carry = _outcome(delta1, f)
    want = carry if isinstance(carry, str) else carry.num_terms
    assert _outcome(_delta1_count, f) == want


@settings(max_examples=100, deadline=None, derandomize=True)
@given(homogeneous_inputs(edge=False))
def test_count_is_the_carry_count(f):
    _assert_count_is_the_carry_count(f)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(homogeneous_inputs(edge=True))
def test_count_is_the_carry_count_at_the_edges(f):
    _assert_count_is_the_carry_count(f)
