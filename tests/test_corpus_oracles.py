"""The corpus's splitting and smoothness rows, re-derived by sympy alone.

``tests/test_acceptance.py`` checks every row of ``corpus/paper_examples.json``
against fanocheck's own answer.  Here each ``fsplit`` and ``delta1`` row's
``expect`` is recomputed from the row's polynomial by sympy, and nothing is
imported from fanocheck:

- ``fsplit``: f^(p-1) over GF(p) is FSplit exactly when one of its terms
  survives outside (x_i^p) (Fedder's criterion);
- ``delta1``: ((sum of lifted terms)^p - sum of (c*m)^p)/p over the
  integers, reduced mod p;
- a ``delta1`` row with a ``probe`` (a, b, s): f^a * delta1(f)^b mod p, less
  every term in (x_i^(p^s));
- ``smooth``: Singular unless the reduced grevlex basis of
  (f, df/dx_0, ..., df/dx_n, t*g - 1) over GF(p) is (1) for every chart g,
  a product of one variable per factor (Rabinowitsch: the cone's singular
  locus misses g != 0); then QuasiSmoothOnly when f has no pure power of
  some variable that spans an ambient singular point (some prime divides
  its weight and no other of its factor's), else Smooth;
- ``chow`` with ``expr`` (every one a ``deg(...)``): the coefficient of
  h1^n1 ... hk^nk in the sympy expansion modulo (h_i^(n_i+1));
- ``chow`` with ``canonical``: K = sum_c (-(n_c+1) + sum_j a_jc) h_c - r*xi
  on P(O(a_1) + ... + O(a_r)), equal to ``expect`` read by sympy;
- ``chow`` with ``identity``: lhs - rhs, K as above, has remainder 0 modulo
  the lex basis (h_i^(n_i+1), prod_j (xi - a_j.h)), whose leading terms are
  pairwise coprime;
- ``lattice``: the (-1)-classes of the plane blown up in 7 points by a plain
  search over (d, m), the Fano plane's lines from determinants over F_2,
  |PGL_3(F_2)| by counting invertible matrices, and the orbit of the whole
  plane under all of them.
"""

import itertools
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


def _smooth(sympy, entry: dict) -> str:
    p = entry["prime"]
    factors = [(factor["vars"], factor["weights"]) for factor in entry["ambient"]["factors"]]
    gens = sympy.symbols([name for names, _ in factors for name in names])
    by_name = {str(g): g for g in gens}
    t = sympy.Symbol("t_rabinowitsch")
    f = sympy.parse_expr(entry["polynomial"].replace("^", "**"), local_dict=by_name)
    jacobian = [f] + [sympy.diff(f, g) for g in gens]
    for chart in itertools.product(*(names for names, _ in factors)):
        g = sympy.Mul(*(by_name[name] for name in chart))
        basis = sympy.groebner([*jacobian, t * g - 1], *gens, t, modulus=p, order="grevlex")
        if list(basis.exprs) != [1]:
            return "Singular"
    monomials = sympy.Poly(f, *gens).monoms()
    for names, weights in factors:
        strata = {tuple(name for name, w in zip(names, weights) if w % ell == 0)
                  for ell in {q for w in weights for q in sympy.primefactors(w)}}
        for stratum in strata:
            if any(set(stratum) < set(other) for other in strata):
                continue
            assert len(stratum) == 1, stratum  # a point, as every corpus row's
            i = gens.index(by_name[stratum[0]])
            if not any(m[i] and sum(m) == m[i] for m in monomials):
                return "QuasiSmoothOnly"
    return "Smooth"


def test_splitting_rows_match_an_outside_oracle():
    sympy = pytest.importorskip("sympy")
    rows = _rows("fsplit") + _rows("delta1")
    assert [check["kind"] for _, check in rows].count("fsplit") == 7
    assert len(rows) == 11
    got = {entry["name"]: _expected(sympy, entry, check) for entry, check in rows}
    assert {name: value for name, (value, _) in got.items()} \
        == {name: expect for name, (_, expect) in got.items()}


def test_smooth_rows_match_an_outside_oracle():
    sympy = pytest.importorskip("sympy")
    rows = _rows("smooth")
    assert len(rows) == 7
    got = {entry["name"]: _smooth(sympy, entry) for entry, _ in rows}
    assert got == {entry["name"]: check["expect"] for entry, check in rows}


def _chow_gens(sympy, params: dict) -> tuple:
    hs = sympy.symbols([f"h{i + 1}" for i in range(len(params["base"]))])
    return hs, sympy.Symbol("xi")


def _canonical(sympy, params: dict, hs, xi):
    twists = params.get("bundle", [])
    return (sum((-(n + 1) + sum(t[c] for t in twists)) * h
                for c, (n, h) in enumerate(zip(params["base"], hs)))
            - len(twists) * xi)


def _read(sympy, text: str, hs, xi, k=None):
    local = {str(h): h for h in hs}
    local.update(xi=xi, K=k)
    return sympy.parse_expr(text.replace("^", "**"), local_dict=local)


def _chow(sympy, params: dict) -> str:
    hs, xi = _chow_gens(sympy, params)
    dims = params["base"]
    if params.get("canonical"):
        return _canonical(sympy, params, hs, xi)
    if "identity" in params:
        k = _canonical(sympy, params, hs, xi)
        side = params["identity"]
        diff = sympy.expand(_read(sympy, side["lhs"], hs, xi, k)
                            - _read(sympy, side["rhs"], hs, xi, k))
        relation = sympy.Mul(*(xi - sum(a * h for a, h in zip(t, hs)) for t in params["bundle"]))
        basis = [h ** (n + 1) for n, h in zip(dims, hs)] + [sympy.expand(relation)]
        _, remainder = sympy.reduced(diff, basis, xi, *hs, order="lex")
        return "true" if remainder == 0 else "false"
    text = params["expr"]
    assert text.startswith("deg(") and text.endswith(")"), text
    expanded = sympy.Poly(_read(sympy, text[4:-1], hs, xi), *hs)
    kept = {m: c for m, c in expanded.terms() if all(e <= n for e, n in zip(m, dims))}
    return str(kept.get(tuple(dims), 0))


def test_chow_rows_match_an_outside_oracle():
    sympy = pytest.importorskip("sympy")
    rows = _rows("chow")
    assert len(rows) == 10
    got = [(entry["name"], _chow(sympy, check["params"])) for entry, check in rows]
    want = []
    for entry, check in rows:
        params = check["params"]
        if params.get("canonical"):
            hs, xi = _chow_gens(sympy, params)
            want.append((entry["name"], _read(sympy, check["expect"], hs, xi)))
        else:
            want.append((entry["name"], check["expect"]))
    kinds = [next(k for k in ("canonical", "identity", "expr") if k in check["params"])
             for _, check in rows]
    assert (kinds.count("expr"), kinds.count("canonical"), kinds.count("identity")) == (6, 2, 2)
    assert got == want


def _exceptional(d_max: int) -> list:
    """(d, m) with d^2 - sum m_a^2 = -1 and 3d - sum m_a = 1 on 7 points:
    every vector of m_a^2 <= d^2 + 1 in turn."""
    out = []

    def search(d, m, budget):
        if len(m) == 7:
            if budget == 0 and sum(m) == 3 * d - 1:
                out.append((d, tuple(m)))
            return
        bound = int(budget ** 0.5) + 1
        for v in range(-bound, bound + 1):
            if v * v <= budget:
                search(d, m + [v], budget - v * v)

    for d in range(d_max + 1):
        search(d, [], d * d + 1)
    return out


def _fano_lines() -> list:
    """Triples of distinct nonzero vectors of F_2^3 with determinant 0 mod 2."""
    points = [v for v in itertools.product((0, 1), repeat=3) if any(v)]
    lines = []
    for a, b, c in itertools.combinations(points, 3):
        det = (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
               + a[2] * (b[0] * c[1] - b[1] * c[0]))
        if det % 2 == 0:
            lines.append((a, b, c))
    return points, lines


def _invertible_f2() -> list:
    """Every 3x3 matrix over F_2 with odd determinant, as a tuple of rows."""
    out = []
    for bits in itertools.product((0, 1), repeat=9):
        a, b, c = bits[0:3], bits[3:6], bits[6:9]
        det = (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
               + a[2] * (b[0] * c[1] - b[1] * c[0]))
        if det % 2:
            out.append((a, b, c))
    return out


def _lattice(query: str) -> str:
    points, lines = _fano_lines()
    if query == "langer":
        exceptional = _exceptional(3)
        # the (-2)-class H - E_i - E_j - E_k of each line, by its points' indices
        neg2 = [[points.index(pt) for pt in line] for line in lines]
        compatible = [(d, m) for d, m in exceptional
                      if all(d - sum(m[i] for i in line) >= 0 for line in neg2)]
        disjoint = all(1 - len(set(a) & set(b)) == 0 for a, b in itertools.combinations(neg2, 2))
        return (f"(-1)-classes: {len(exceptional)}; compatible: {len(compatible)}; "
                f"(-2)-classes: {len(neg2)}; disjoint: {'yes' if disjoint else 'no'}")
    if query == "fano":
        per_line = {len(line) for line in lines}
        per_point = {sum(pt in line for line in lines) for pt in points}
        assert len(per_line) == len(per_point) == 1
        return (f"points: {len(points)}; lines: {len(lines)}; "
                f"per-line: {per_line.pop()}; per-point: {per_point.pop()}")
    # over F_2 the only nonzero scalar is 1, so PGL_3 = GL_3
    group = _invertible_f2()
    if query == "pgl_order":
        return str(len(group))
    assert query == "full_plane_orbit", query
    images = {frozenset(tuple(sum(r * x for r, x in zip(row, pt)) % 2 for row in g)
                        for pt in points) for g in group}
    return str(len(images))


def test_lattice_rows_match_an_outside_oracle():
    rows = _rows("lattice")
    assert len(rows) == 4
    assert all(check["params"].get("q", 2) == 2 for _, check in rows)
    got = {entry["name"]: _lattice(check["params"]["query"]) for entry, check in rows}
    assert got == {entry["name"]: check["expect"] for entry, check in rows}
