"""Corpus verification: load JSON-described expectations, evaluate every
check, and assemble a deterministic report.

Schema (all keys required unless noted):

    {"entries": [
        {"name": str,
         "prime": int,
         "ambient": {"factors": [{"weights": [int, ...], "vars": [str, ...]}]},
         "polynomial": str,
         "checks": [{"kind": str, "expect": str, "params": object}],
         "paper_ref": str}
    ]}

``params`` may be omitted for checks that need none; all are validated
when the corpus loads, before any check runs.  Each kind is one function
from typed inputs to a ``CheckResult``, shared with the CLI subcommands.
A failed or crashing check never aborts the run; it becomes a failing row.
Reports contain no wall-clock data, so the same corpus always serializes
to the same bytes regardless of --jobs.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from json.encoder import encode_basestring_ascii

from . import chow as chowmod
from . import delpezzo
from .geometry import (
    AmbientFactor,
    AmbientSpace,
    HypersurfaceVariety,
    smoothness_verdict,
)
from .poly import VariableSet, _set, _Value, delta1 as poly_delta1, mono_str, parse_poly
from .splitting import HypersurfaceRing, delta1_probe, fedder_fsplit


class CorpusFormatError(ValueError):
    """Schema violation; names the entry and field when known."""

    def __init__(self, message: str, entry: str | None = None,
                 field_name: str | None = None):
        self.entry = entry
        self.field_name = field_name
        where = f" in entry {entry!r}" if entry else ""
        where += f" (field {field_name!r})" if field_name else ""
        super().__init__(f"{message}{where}")


class CorpusCheck(_Value):
    # params: the validated keyword arguments; a dict, so no check hashes
    __slots__ = ("kind", "expect", "params")

    def __init__(self, kind: str, expect: str, params: dict | None = None):
        params = {} if params is None else params
        _set(self, "kind", kind)
        _set(self, "expect", expect)
        _set(self, "params", params)
        _set(self, "_key", (kind, expect, params))


class CorpusEntry(_Value):
    __slots__ = ("name", "prime", "ambient", "polynomial", "checks", "paper_ref")

    def __init__(self, name: str, prime: int, ambient: AmbientSpace, polynomial: str,
                 checks: tuple, paper_ref: str):
        _set(self, "name", name)
        _set(self, "prime", prime)
        _set(self, "ambient", ambient)
        _set(self, "polynomial", polynomial)
        _set(self, "checks", checks)
        _set(self, "paper_ref", paper_ref)
        _set(self, "_key", (name, prime, ambient, polynomial, checks, paper_ref))


def _is_int(val) -> bool:
    """A JSON integer: bool is an int subclass, but true is not 1 here."""
    return isinstance(val, int) and not isinstance(val, bool)


def _require(obj: dict, key: str, typ, entry: str | None, what: str):
    if key not in obj:
        raise CorpusFormatError(f"missing key {key!r} in {what}", entry, key)
    val = obj[key]
    if not (_is_int(val) if typ is int else isinstance(val, typ)):
        raise CorpusFormatError(
            f"{what} key {key!r} must be {typ.__name__}", entry, key)
    return val


def _load_ambient(raw: dict, entry: str) -> AmbientSpace:
    factors_raw = _require(raw, "factors", list, entry, "ambient")
    if not factors_raw:
        raise CorpusFormatError("ambient needs at least one factor", entry, "factors")
    factors = []
    for fac in factors_raw:
        if not isinstance(fac, dict):
            raise CorpusFormatError("ambient factor must be an object", entry, "factors")
        weights = _require(fac, "weights", list, entry, "ambient factor")
        names = _require(fac, "vars", list, entry, "ambient factor")
        if (len(weights) != len(names)
                or not all(_is_int(w) and w >= 1 for w in weights)
                or not all(isinstance(v, str) for v in names)):
            raise CorpusFormatError("ambient factor needs matching positive weights "
                                    "and string vars", entry, "factors")
        try:
            factors.append(AmbientFactor(tuple(names), tuple(weights)))
        except ValueError as exc:
            raise CorpusFormatError(str(exc), entry, "factors") from None
    try:
        return AmbientSpace(factors)
    except ValueError as exc:
        raise CorpusFormatError(str(exc), entry, "ambient") from None


def load_corpus(data: dict) -> list:
    """Validate a decoded corpus document into entries."""
    if not isinstance(data, dict):
        raise CorpusFormatError("corpus document must be a JSON object")
    entries_raw = _require(data, "entries", list, None, "corpus")
    entries = []
    seen = set()
    for idx, raw in enumerate(entries_raw):
        if not isinstance(raw, dict):
            raise CorpusFormatError(f"entry #{idx} must be an object")
        name = _require(raw, "name", str, f"#{idx}", "entry")
        if name in seen:
            raise CorpusFormatError("duplicate entry name", name, "name")
        seen.add(name)
        prime = _require(raw, "prime", int, name, "entry")
        ambient = _load_ambient(_require(raw, "ambient", dict, name, "entry"), name)
        polynomial = _require(raw, "polynomial", str, name, "entry")
        paper_ref = _require(raw, "paper_ref", str, name, "entry")
        checks_raw = _require(raw, "checks", list, name, "entry")
        if not checks_raw:
            raise CorpusFormatError("entry needs at least one check", name, "checks")
        checks = []
        for craw in checks_raw:
            if not isinstance(craw, dict):
                raise CorpusFormatError("check must be an object", name, "checks")
            kind = _require(craw, "kind", str, name, "check")
            if kind not in _KINDS:
                raise CorpusFormatError(f"unknown check kind {kind!r}", name, "kind")
            expect = _require(craw, "expect", str, name, "check")
            params = craw.get("params", {})
            if not isinstance(params, dict):
                raise CorpusFormatError("check params must be an object", name, "params")
            checks.append(CorpusCheck(kind, expect, _KINDS[kind][0](params, name)))
        entries.append(CorpusEntry(name, prime, ambient, polynomial,
                                   tuple(checks), paper_ref))
    return entries


def load_corpus_file(path) -> list:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CorpusFormatError(f"cannot read corpus: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"corpus is not valid JSON: {exc}") from None
    except ValueError as exc:  # bad UTF-8, or an integer past the int/str digit limit
        raise CorpusFormatError(f"corpus cannot be decoded: {exc}") from None
    return load_corpus(data)


# ---------------------------------------------------------------------------
# params: JSON objects validated into each kind's keyword arguments
# ---------------------------------------------------------------------------

def _no_params(params: dict, entry: str) -> dict:
    return {}


def _delta1_params(params: dict, entry: str) -> dict:
    probe = params.get("probe")
    if probe is None:
        return {}
    if (not isinstance(probe, list) or len(probe) != 3
            or not all(_is_int(v) for v in probe)):
        raise CorpusFormatError("delta1 probe must be [a, b, s]", entry, "params")
    return {"probe": tuple(probe)}


def _chow_params(params: dict, entry: str) -> dict:
    base = params.get("base")
    if (not isinstance(base, list) or not base
            or not all(_is_int(v) and v >= 1 for v in base)):
        raise CorpusFormatError("chow check needs base: [dims]", entry, "params")
    bundle = params.get("bundle")
    if bundle is not None and (
            not isinstance(bundle, list)
            or not all(isinstance(t, list) and len(t) == len(base)
                       and all(_is_int(a) for a in t) for t in bundle)):
        raise CorpusFormatError("chow bundle must be a list of twist lists",
                                entry, "params")
    ring = {"base": tuple(base),
            "bundle": None if bundle is None else tuple(map(tuple, bundle))}
    canonical = params.get("canonical")
    if canonical is not None and not isinstance(canonical, bool):
        raise CorpusFormatError("chow canonical must be true or false",
                                entry, "params")
    if canonical:
        return {**ring, "canonical": True}
    identity = params.get("identity")
    if identity is not None:
        if (not isinstance(identity, dict)
                or not isinstance(identity.get("lhs"), str)
                or not isinstance(identity.get("rhs"), str)):
            raise CorpusFormatError("chow identity needs lhs and rhs expressions",
                                    entry, "params")
        return {**ring, "identity": (identity["lhs"], identity["rhs"])}
    expr = params.get("expr")
    if not isinstance(expr, str):
        raise CorpusFormatError("chow check needs expr, canonical or identity",
                                entry, "params")
    return {**ring, "expr": expr}


def _lattice_params(params: dict, entry: str) -> dict:
    query = params.get("query")
    if query in ("pgl_order", "full_plane_orbit"):
        q = params.get("q")
        if not _is_int(q):
            raise CorpusFormatError(f"{query} needs q", entry, "params")
        return {"query": query, "q": q}
    if query not in ("langer", "fano"):
        raise CorpusFormatError(f"unknown lattice query {query!r}", entry, "params")
    return {"query": query}


# ---------------------------------------------------------------------------
# check kinds
# ---------------------------------------------------------------------------

class CheckResult(_Value):
    """A check's verdict line and, when the kind has one, an evidence line."""

    # read: reads a verdict string into the value it is compared as; it
    # takes no part in equality, hash or repr
    __slots__ = ("verdict", "evidence", "read")

    def __init__(self, verdict: str, evidence: str | None = None, read: Callable = str):
        _set(self, "verdict", verdict)
        _set(self, "evidence", evidence)
        _set(self, "read", read)
        _set(self, "_key", (verdict, evidence))

    def matches(self, expect: str) -> bool:
        """Equal texts match without being read: every verdict reads back."""
        return expect == self.verdict or self.read(expect) == self.read(self.verdict)


def fsplit(prime: int, variables: VariableSet, polynomial: str) -> CheckResult:
    """F-splitting verdict; the evidence is the surviving-monomial witness."""
    ring = HypersurfaceRing(prime, variables, parse_poly(polynomial, variables, prime))
    ring.degree  # force the homogeneity validation
    verdict = fedder_fsplit(ring)
    evidence = (None if verdict.witness is None
                else f"witness: {mono_str(variables.names, verdict.witness)}")
    return CheckResult(verdict.status.value, evidence)


def delta1(prime: int, variables: VariableSet, polynomial: str,
           probe: tuple | None = None) -> CheckResult:
    """The Witt carry delta1(f), or the probe (a, b, s) of it; compared as
    polynomials, so formatting differences cannot fail a check."""
    f = parse_poly(polynomial, variables, prime)
    if probe is None:
        carry = poly_delta1(f)
    else:
        carry = delta1_probe(HypersurfaceRing(prime, variables, f), *probe)
    return CheckResult(str(carry),
                       read=lambda text: parse_poly(text, variables, prime))


def smooth(prime: int, space: AmbientSpace, polynomial: str) -> CheckResult:
    """Smooth, QuasiSmoothOnly or Singular."""
    f = parse_poly(polynomial, space.variable_set, prime)
    return CheckResult(smoothness_verdict(HypersurfaceVariety(prime, space, f)).value)


def chow(base: tuple, bundle: tuple | None = None, canonical: bool = False,
         identity: tuple | None = None,
         expr: str | None = None) -> CheckResult:
    """In the Chow ring of the base (or of the bundle over it): the canonical
    class, whether identity's two expressions agree, or expr's value."""
    product = chowmod.ProductBase(base)
    spec = None if bundle is None else chowmod.SplitBundleSpec(product, bundle)
    ring = chowmod.IntersectionRing(product, spec)
    if canonical:
        return CheckResult(chowmod.div_class_str(ring, chowmod.canonical_class(ring)))
    if identity is not None:
        lhs, rhs = (chowmod.evaluate_expression(ring, side) for side in identity)
        return CheckResult("true" if lhs == rhs else "false")
    el = chowmod.evaluate_expression(ring, expr)
    return CheckResult(ring.element_str(el))


def langer_summary() -> str:
    """The headline counts for the blown-up 7-point plane, CLI format."""
    lattice = delpezzo.PicLattice(7)
    exceptional = delpezzo.enumerate_classes(lattice, -1, -1, 3)
    neg2 = delpezzo.langer_neg2_classes()
    compatible = sum(1 for cls in exceptional
                     if all(cls.dot(n) >= 0 for n in neg2))
    disjoint = all(a.dot(b) == 0 for i, a in enumerate(neg2)
                   for b in neg2[i + 1:])
    return (f"(-1)-classes: {len(exceptional)}; compatible: {compatible}; "
            f"(-2)-classes: {len(neg2)}; disjoint: {'yes' if disjoint else 'no'}")


def lattice(query: str, q: int | None = None) -> CheckResult:
    """One of the lattice queries langer, fano, pgl_order (of PGL_3(F_q))
    and full_plane_orbit (of P^2(F_q))."""
    if query == "langer":
        return CheckResult(langer_summary())
    if query == "fano":
        lines = delpezzo.fano_lines()
        per_point = [sum(1 for ln in lines if i in ln) for i in range(7)]
        per_line = {len(ln) for ln in lines}
        return CheckResult(
            f"points: 7; lines: {len(lines)}; "
            f"per-line: {per_line.pop() if len(per_line) == 1 else 'mixed'}; "
            f"per-point: {per_point[0] if len(set(per_point)) == 1 else 'mixed'}")
    if query == "pgl_order":
        return CheckResult(str(delpezzo.pgl3_order(q)))
    if query == "full_plane_orbit":
        delpezzo.pgl3_order(q)  # rejects q > 8 before GF(q) and the plane are built
        config = delpezzo.PointConfig.from_points(q, delpezzo.plane_points(q))
        return CheckResult(str(delpezzo.pgl_orbit_canonical(config)[1]))
    raise ValueError(f"unknown lattice query {query!r}")


# kind -> (params validator, runner on an entry and the validated params)
_KINDS = {
    "fsplit": (_no_params, lambda e: fsplit(e.prime, e.ambient.variable_set, e.polynomial)),
    "smooth": (_no_params, lambda e: smooth(e.prime, e.ambient, e.polynomial)),
    "delta1": (_delta1_params,
               lambda e, **kw: delta1(e.prime, e.ambient.variable_set, e.polynomial, **kw)),
    "chow": (_chow_params, lambda e, **kw: chow(**kw)),
    "lattice": (_lattice_params, lambda e, **kw: lattice(**kw)),
}


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class CheckRow(_Value):
    __slots__ = ("entry", "kind", "expected", "actual", "passed")

    def __init__(self, entry: str, kind: str, expected: str, actual: str, passed: bool):
        _set(self, "entry", entry)
        _set(self, "kind", kind)
        _set(self, "expected", expected)
        _set(self, "actual", actual)
        _set(self, "passed", passed)
        _set(self, "_key", (entry, kind, expected, actual, passed))


class Report(_Value):
    __slots__ = ("rows",)

    def __init__(self, rows: tuple):
        self._init(rows)

    @property
    def total(self) -> int:
        return len(self.rows)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.rows if r.passed)

    @property
    def failed(self) -> int:
        return self.total - self.passed

    @property
    def all_passed(self) -> bool:
        return self.failed == 0

    def to_json(self) -> str:
        """``json.dumps(doc, indent=2, sort_keys=True)`` of the rows and the
        summary, written out: json uses its C encoder only without indent,
        so the layout is fixed here and only the strings go through it."""
        q = encode_basestring_ascii
        rows = ",\n".join(
            f'    {{\n      "actual": {q(r.actual)},\n      "entry": {q(r.entry)},\n'
            f'      "expected": {q(r.expected)},\n      "kind": {q(r.kind)},\n'
            f'      "passed": {"true" if r.passed else "false"}\n    }}'
            for r in self.rows)
        rows = f"[\n{rows}\n  ]" if self.rows else "[]"
        return (f'{{\n  "rows": {rows},\n  "summary": {{\n'
                f'    "failed": {self.failed},\n    "passed": {self.passed},\n'
                f'    "total": {self.total}\n  }}\n}}')

    def to_text(self) -> str:
        lines = []
        for r in self.rows:
            tag = "PASS" if r.passed else "FAIL"
            lines.append(f"{tag} {r.entry} [{r.kind}] expected={r.expected!r} "
                         f"actual={r.actual!r}")
        lines.append(f"checks passed: {self.passed}/{self.total}")
        return "\n".join(lines)


def _run_entry(entry: CorpusEntry) -> list:
    rows = []
    for check in entry.checks:
        try:
            result = _KINDS[check.kind][1](entry, **check.params)
            actual, ok = result.verdict, result.matches(check.expect)
        except Exception as exc:  # a crashing check fails but never aborts
            actual = f"error: {str(exc) or type(exc).__name__}"
            ok = False
        rows.append(CheckRow(entry.name, check.kind, check.expect, actual, ok))
    return rows


def run_corpus(path, jobs: int = 1) -> Report:
    """Evaluate every check in the corpus file; row order follows the file."""
    entries = load_corpus_file(path)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs == 1 or len(entries) <= 1:
        per_entry = [_run_entry(e) for e in entries]
    else:
        # imported here: the pool alone needs it, and it loads logging,
        # traceback and queue into every process that imports it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            per_entry = list(pool.map(_run_entry, entries))
    rows = [row for chunk in per_entry for row in chunk]
    return Report(tuple(rows))
