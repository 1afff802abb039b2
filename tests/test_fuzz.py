"""Seeded fuzz of the command line and of corpus documents: every mutated
argv and every mutated corpus ends with exit code 0, 1 or 2, and nothing
reaches stderr as a traceback.

The alphabets are bounded so that no input reaches a known blow-up, which
would stop the run with no typed error yet:
- primes <= 13: ``fsplit`` and ``delta1`` at p = 97 on 6-variable Fermat
  forms run for more than 10 s;
- polynomial exponents <= 9 and at most 6 variables, and no digit is ever
  inserted into a polynomial: Buchberger on sparse forms with exponents
  near the cap (x0^40000*x1 + ...) raises or runs without bound;
- Chow exponents <= 20, and no digit is inserted into a class expression;
  base dimensions <= 3 on the command line, and every integer a corpus
  mutation writes (a dimension, a prime, a weight, q) in -1..13:
  ``deg((2+h1)^1000000000)`` and ``--base 100000`` are unbounded, and
  printing an integer past the digit limit is quadratic.  A weight is
  bounded only because that mutation writes it: the ambient strata read
  the weights through a coprime base, gcds alone, so no weight is a
  blow-up;
- ``lattice exc``: enumerate_classes only ever asks for (-1)-classes there,
  which stay cheap for every rank and degree bound; the blow-up is a large
  negative K-degree, which the command line cannot ask for;
- delta1 probes (a, b, s) with entries <= 2, and ``verify --jobs`` <= 2.
"""

from __future__ import annotations

import copy
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from fanocheck import cli

SHIPPED = Path(__file__).resolve().parent.parent / "corpus" / "paper_examples.json"

PRIMES = ["2", "3", "5", "7", "11", "13"] * 2 + ["0", "1", "4", "9", "-3", "p", ""]
NAMES = ["x0", "x1", "x2", "x3", "x4", "y", "z", "x0", "2y", "x y", "_t", ""]
# characters a corruption inserts: no digit, so no exponent grows
NOISE = " ^*+-(),:;xyhK$_\t²"
JUNK_ARGS = ["--help", "-h", "--bogus", "", "-p", "--poly", "--vars", "verify",
             "smooth", "--ambient", "--expr", "--", "-", "x0"]


def _run(argv):
    """(exit code, stderr) of one in-process ``fanocheck`` call."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
        except Exception as exc:
            pytest.fail(f"{argv!r} raised {exc!r}")
    return code, err.getvalue()


def _corrupt(rng, text: str) -> str:
    """Insert, delete or replace one character; a digit is only ever deleted."""
    i = rng.randint(0, len(text))
    op = rng.randrange(3)
    if op == 0 or not text:
        return text[:i] + rng.choice(NOISE) + text[i:]
    i = min(i, len(text) - 1)
    if op == 1:
        return text[:i] + text[i + 1:]
    return text[:i] + rng.choice(NOISE) + text[i + 1:]


def _poly(rng, groups) -> str:
    """A few terms in the names of ``groups``, lists of (name, weight) per
    grading factor; exponents <= 9.  Most are homogeneous of a seeded
    degree in each factor, the rest have random exponents."""
    homogeneous = rng.random() < 0.7
    degrees = [rng.randint(1, 4) for _ in groups]
    terms = []
    for _ in range(rng.randint(1, 4)):
        exps = {}
        for group, degree in zip(groups, degrees):
            if homogeneous:
                while (fits := [n for n, w in group if w <= degree]):
                    name = rng.choice(fits)
                    exps[name] = exps.get(name, 0) + 1
                    degree -= dict(group)[name]
            else:
                exps.update((n, rng.randint(0, 9)) for n, _ in group if rng.random() < 0.4)
        factors = [f"{n}^{e}" if e > 1 else n for n, e in exps.items() if e]
        if rng.random() < 0.3 or not factors:
            factors.insert(0, str(rng.randint(0, 13)))
        terms.append("*".join(factors))
    return rng.choice([" + ", " - ", "+"]).join(terms)


def _vars_spec(rng) -> tuple:
    """(--vars text, its names and weights as one group)."""
    group = [(f"x{i}", rng.choice([1, 1, 1, 1, 2, 3])) for i in range(rng.randint(1, 6))]
    text = ",".join(f"{n}:{w}" if w > 1 or rng.random() < 0.1 else n for n, w in group)
    if rng.random() < 0.15:
        text = text.replace(group[-1][0], rng.choice(NAMES), 1)
    return text, [group]


def _ambient(rng) -> tuple:
    """(--ambient text, its default names and weights per factor), at most
    6 variables."""
    sizes = rng.choice([[3], [4], [5], [2, 2], [3, 3], [2, 3], [2, 2, 2]])
    factors, groups = [], []
    for j, size in enumerate(sizes):
        weights = [rng.choice([1, 1, 1, 1, 2, 3]) for _ in range(size)]
        factors.append("P(" + ",".join(map(str, weights)) + ")")
        groups.append([(f"{'xyz'[j]}{i}", w) for i, w in enumerate(weights)])
    return " x ".join(factors), groups


def _chow_expr(rng, k: int) -> str:
    hs = [f"h{i + 1}" for i in range(k)]
    inner = " + ".join(f"{rng.randint(-3, 3)}*{h}" for h in rng.sample(hs, rng.randint(1, k)))
    return rng.choice([
        f"deg(({inner})^{rng.randint(0, 20)})",
        f"deg(({rng.randint(0, 3)}+{rng.choice(hs)})^{rng.randint(0, 20)})",
        "deg(K^dim)", f"({inner})^{rng.randint(0, 20)}", "K", "deg(xi)",
        f"deg({'*'.join(rng.choice(hs) for _ in range(rng.randint(1, 4)))})"])


def _argv(rng) -> list:
    kind = rng.choice(["fsplit", "delta1", "smooth", "chow", "lattice", "verify"])
    if kind in ("fsplit", "delta1"):
        spec, groups = _vars_spec(rng)
        argv = [kind, "-p", rng.choice(PRIMES), "--vars", spec, "--poly", _poly(rng, groups)]
        if kind == "delta1" and rng.random() < 0.5:
            argv += ["--probe", ",".join(str(rng.randint(0, 2))
                                         for _ in range(rng.choice([2, 3, 3, 4])))]
    elif kind == "smooth":
        text, groups = _ambient(rng)
        argv = ["smooth", "-p", rng.choice(PRIMES), "--ambient", text,
                "--poly", _poly(rng, groups)]
        if rng.random() < 0.2:
            argv += ["--vars", ",".join(rng.choice(NAMES) for g in groups for _ in g)]
    elif kind == "chow":
        k = rng.randint(1, 3)
        argv = ["chow", "--base", ",".join(str(rng.randint(0, 3)) for _ in range(k))]
        if rng.random() < 0.4:
            argv += ["--bundle", ";".join(",".join(str(rng.randint(-2, 2)) for _ in range(k))
                                          for _ in range(rng.randint(1, 3)))]
        argv += rng.choice([["--expr", _chow_expr(rng, k)], ["--canonical"], []])
    elif kind == "lattice":
        argv = ["lattice", rng.choice(["exc", "exc", "other"]),
                "--points", str(rng.randint(-1, 9)), "--dmax", str(rng.randint(-1, 9))]
        if rng.random() < 0.3:
            argv.append("--langer")
    else:
        argv = ["verify", rng.choice([str(SHIPPED)] * 2 + ["missing.json", ""]),
                "--format", rng.choice(["json", "text", "xml"]),
                "--jobs", rng.choice(["1", "2", "0", "-1", "x"])]
    for _ in range(rng.choice([0, 0, 1, 2])):
        if not argv:
            break
        i = rng.randrange(len(argv))
        op = rng.randrange(4)
        if op == 0:
            argv[i] = _corrupt(rng, argv[i])
        elif op == 1:
            del argv[i]
        elif op == 2:
            argv.insert(i, rng.choice(JUNK_ARGS))
        else:
            argv = argv[:i]
    return argv


def test_mutated_argv_keep_the_exit_code_contract():
    rng = random.Random(20260)
    codes, succeeded = {}, set()
    for _ in range(600):
        argv = _argv(rng)
        code, err = _run(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        codes[code] = codes.get(code, 0) + 1
        if code == 0:
            succeeded.add(argv[0])
    # input errors are most, but every subcommand also runs to a verdict
    assert codes.get(0, 0) >= 80 and codes.get(2, 0) >= 200, codes
    assert succeeded >= {"fsplit", "delta1", "smooth", "chow", "lattice", "verify"}


# a JSON value a field may be replaced with; ints stay in -1..13
VALUES = [None, True, False, 0, 1, 2, 3, 5, 7, 9, 11, 13, -1, 2.5, "", "x0",
          "P(1,1)", "smooth", "fsplit", [], {}, [1, 1], ["x0"], {"kind": "smooth"}]


def _paths(node):
    """Every (container, key) inside a decoded JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield node, key
        yield from _paths(child)


def _mutate_doc(rng, doc):
    """Change one value somewhere in ``doc``: mostly within its type (an
    int for an int, one character of a string, one item more or less),
    otherwise delete it or replace it with any JSON value."""
    paths = list(_paths(doc))
    if not paths:  # "entries" is gone
        return
    container, key = rng.choice(paths)
    value = container[key]
    if rng.random() < 0.25:
        if rng.random() < 0.5:
            del container[key]
        else:
            container[key] = copy.deepcopy(rng.choice(VALUES))
    elif key == "polynomial" and rng.random() < 0.5:
        container[key] = _poly(rng, [[(n, 1) for n in ("x0", "x1", "x2", "t0", "t1")]])
    elif isinstance(value, str):
        container[key] = _corrupt(rng, value)
    elif isinstance(value, bool):
        container[key] = not value
    elif isinstance(value, int):
        container[key] = rng.randint(-1, 13)
    elif isinstance(value, list) and value:
        if rng.random() < 0.5:
            value.append(copy.deepcopy(rng.choice(value)))
        else:
            del value[rng.randrange(len(value))]
    elif isinstance(value, dict) and value:
        del value[rng.choice(list(value))]


def test_mutated_corpora_keep_the_exit_code_contract(tmp_path):
    rng = random.Random(20261)
    shipped = json.loads(SHIPPED.read_text())["entries"]
    path = tmp_path / "corpus.json"
    codes = {}
    # one handle rewrites the file for every document: opening an existing
    # file for writing can take tens of milliseconds, 300 times over
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(300):
            doc = {"entries": copy.deepcopy(rng.sample(shipped, rng.randint(1, 3)))}
            for _ in range(rng.randint(0, 2)):
                _mutate_doc(rng, doc)
            text = json.dumps(doc)
            if i % 10 == 0:
                text = _corrupt(rng, text)  # mostly no longer JSON
            fh.seek(0)
            fh.truncate()
            fh.write(text)
            fh.flush()
            code, err = _run(["verify", str(path), "--format", rng.choice(["json", "text"])])
            assert code in (0, 1, 2), text
            assert "Traceback" not in err, text
            codes[code] = codes.get(code, 0) + 1
    # passing, failing and rejected documents all occur
    assert min(codes.get(c, 0) for c in (0, 1, 2)) >= 20, codes
