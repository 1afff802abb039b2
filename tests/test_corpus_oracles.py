"""The corpus's splitting rows, re-derived by sympy alone.

``tests/test_acceptance.py`` checks every row of ``corpus/paper_examples.json``
against fanocheck's own answer.  Here each ``fsplit`` and ``delta1`` row's
``expect`` is recomputed from the row's polynomial by sympy, and nothing is
imported from fanocheck:

- ``fsplit``: f^(p-1) over GF(p) is FSplit exactly when one of its terms
  survives outside (x_i^p) (Fedder's criterion);
- ``delta1``: ((sum of lifted terms)^p - sum of (c*m)^p)/p over the
  integers, reduced mod p;
- a ``delta1`` row with a ``probe`` (a, b, s): f^a * delta1(f)^b mod p, less
  every term in (x_i^(p^s)).
"""

import json
from pathlib import Path

import pytest

CORPUS = Path(__file__).resolve().parents[1] / "corpus" / "paper_examples.json"


def _rows(kind: str) -> list:
    entries = json.loads(CORPUS.read_text(encoding="utf-8"))["entries"]
    return [(entry, check) for entry in entries for check in entry["checks"]
            if check["kind"] == kind]


def _poly(sympy, text: str, gens: list, **domain):
    local = {str(g): g for g in gens}
    return sympy.Poly(sympy.parse_expr(text.replace("^", "**"), local_dict=local),
                      *gens, **domain)


def _fsplit(sympy, f, p: int) -> str:
    power = sympy.Poly(f.as_expr(), *f.gens, modulus=p) ** (p - 1)
    survives = any(max(m) < p for m, c in power.terms() if c)
    return "FSplit" if survives else "NotFSplit"


def _delta1(sympy, f, p: int):
    """delta1(f) over the integers: coefficients lifted to 0..p-1, then the
    carry's integer coefficients, reduced mod p by the caller."""
    terms = [sympy.Poly.from_dict({m: c % p}, *f.gens, domain=sympy.ZZ)
             for m, c in f.terms()]
    lifted = sum(terms[1:], terms[0])
    carry = lifted ** p - sum((t ** p for t in terms[1:]), terms[0] ** p)
    assert all(c % p == 0 for c in carry.coeffs())
    return sympy.Poly.from_dict({m: c // p for m, c in carry.terms()}, *f.gens,
                                domain=sympy.ZZ)


def _expected(sympy, entry: dict, check: dict):
    """(oracle value, expect), compared as polynomials for delta1 rows."""
    p = entry["prime"]
    gens = sympy.symbols([name for factor in entry["ambient"]["factors"]
                          for name in factor["vars"]])
    f = _poly(sympy, entry["polynomial"], gens, domain=sympy.ZZ)
    if check["kind"] == "fsplit":
        return _fsplit(sympy, f, p), check["expect"]
    value = sympy.Poly(_delta1(sympy, f, p).as_expr(), *gens, modulus=p)
    if "probe" in check.get("params", {}):
        a, b, s = check["params"]["probe"]
        product = sympy.Poly(f.as_expr(), *gens, modulus=p) ** a * value ** b
        q = p ** s
        value = sympy.Poly.from_dict({m: c for m, c in product.terms() if max(m) < q},
                                     *gens, modulus=p)
    return value, _poly(sympy, check["expect"], gens, modulus=p)


def test_splitting_rows_match_an_outside_oracle():
    sympy = pytest.importorskip("sympy")
    rows = _rows("fsplit") + _rows("delta1")
    assert [check["kind"] for _, check in rows].count("fsplit") == 7
    assert len(rows) == 11
    got = {entry["name"]: _expected(sympy, entry, check) for entry, check in rows}
    assert {name: value for name, (value, _) in got.items()} \
        == {name: expect for name, (_, expect) in got.items()}
