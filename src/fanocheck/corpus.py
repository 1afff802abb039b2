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
when the corpus loads, before any check runs.  Each kind has one entry, a
function from typed inputs (a parsed polynomial, a Chow ring) to a
``CheckResult``, which the CLI subcommands call too.  A failed or crashing
check never aborts the run; it becomes a failing row.  Reports contain no
wall-clock data, so the same corpus always serializes to the same bytes
regardless of --jobs.

What checks share is built once.  A load builds one ambient space per
distinct ambient in the file, so its entries share the space and its
variable set.  A run parses each entry's polynomial once, at the first
fsplit, smooth or delta1 check that reads it (chow and lattice checks never
do), and builds one Chow ring per (base, bundle).  A parse that raised
raises again for every check that reads it, so each of their rows reads
the same error as when each check parsed for itself.
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
from .poly import (
    Polynomial,
    VariableSet,
    _set,
    _Value,
    delta1 as poly_delta1,
    mono_str,
    parse_poly,
)
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


def _load_ambient(raw: dict, entry: str, built: dict) -> AmbientSpace:
    """The entry's ambient.  ``built`` holds what this load has built so
    far: each factor under its shape (names, weights), each space under the
    tuple of its factors (no such tuple equals a shape).  An ambient that
    recurs is built once and its entries share one space, whose variable
    set is then built once too.  A shape is checked when it is first built,
    so every error raises at the factor, and with the message, that a load
    sharing nothing would give; a shape with a name that is not a string is
    never looked up, so hashing raises nothing and the factor raises its
    own error."""
    factors_raw = _require(raw, "factors", list, entry, "ambient")
    if not factors_raw:
        raise CorpusFormatError("ambient needs at least one factor", entry, "factors")
    factors = []
    for fac in factors_raw:
        if not isinstance(fac, dict):
            raise CorpusFormatError("ambient factor must be an object", entry, "factors")
        weights = _require(fac, "weights", list, entry, "ambient factor")
        names = _require(fac, "vars", list, entry, "ambient factor")
        if not all(_is_int(w) for w in weights):
            raise CorpusFormatError("ambient factor weights must be integers",
                                    entry, "factors")
        shape = (tuple(names), tuple(weights))
        factor = built.get(shape) if all(isinstance(n, str) for n in names) else None
        if factor is None:
            try:
                factor = built[shape] = AmbientFactor(*shape)
            except ValueError as exc:
                raise CorpusFormatError(str(exc), entry, "factors") from None
        factors.append(factor)
    factors = tuple(factors)
    space = built.get(factors)
    if space is None:
        try:
            space = built[factors] = AmbientSpace(factors)
        except ValueError as exc:
            raise CorpusFormatError(str(exc), entry, "ambient") from None
    return space


def load_corpus(data: dict) -> list:
    """Validate a decoded corpus document into entries."""
    if not isinstance(data, dict):
        raise CorpusFormatError("corpus document must be a JSON object")
    entries_raw = _require(data, "entries", list, None, "corpus")
    entries = []
    seen = set()
    ambients = {}
    for idx, raw in enumerate(entries_raw):
        if not isinstance(raw, dict):
            raise CorpusFormatError(f"entry #{idx} must be an object")
        name = _require(raw, "name", str, f"#{idx}", "entry")
        if name in seen:
            raise CorpusFormatError("duplicate entry name", name, "name")
        seen.add(name)
        prime = _require(raw, "prime", int, name, "entry")
        ambient = _load_ambient(_require(raw, "ambient", dict, name, "entry"), name,
                                ambients)
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
    identity, expr = params.get("identity"), params.get("expr")
    if (canonical is True) + (identity is not None) + (expr is not None) > 1:
        raise CorpusFormatError("chow check needs exactly one of expr, canonical "
                                "or identity", entry, "params")
    if canonical:
        return {**ring, "canonical": True}
    if identity is not None:
        if (not isinstance(identity, dict)
                or not isinstance(identity.get("lhs"), str)
                or not isinstance(identity.get("rhs"), str)):
            raise CorpusFormatError("chow identity needs lhs and rhs expressions",
                                    entry, "params")
        return {**ring, "identity": (identity["lhs"], identity["rhs"])}
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


def fsplit(prime: int, variables: VariableSet, f: Polynomial) -> CheckResult:
    """F-splitting verdict; the evidence is the surviving-monomial witness."""
    ring = HypersurfaceRing(prime, variables, f)
    ring.degree  # force the homogeneity validation
    verdict = fedder_fsplit(ring)
    evidence = (None if verdict.witness is None
                else f"witness: {mono_str(variables.names, verdict.witness)}")
    return CheckResult(verdict.status.value, evidence)


def delta1(prime: int, variables: VariableSet, f: Polynomial,
           probe: tuple | None = None) -> CheckResult:
    """The Witt carry delta1(f), or the probe (a, b, s) of it; compared as
    polynomials, so formatting differences cannot fail a check."""
    if probe is None:
        carry = poly_delta1(f)
    else:
        carry = delta1_probe(HypersurfaceRing(prime, variables, f), *probe)
    return CheckResult(str(carry),
                       read=lambda text: parse_poly(text, variables, prime))


def smooth(prime: int, space: AmbientSpace, f: Polynomial) -> CheckResult:
    """Smooth, QuasiSmoothOnly or Singular."""
    return CheckResult(smoothness_verdict(HypersurfaceVariety(prime, space, f)).value)


def chow_ring(base: tuple, bundle: tuple | None) -> chowmod.IntersectionRing:
    """The Chow ring of the product of projective spaces of the base's
    dimensions, or of the bundle of the given twists over it."""
    product = chowmod.ProductBase(base)
    spec = None if bundle is None else chowmod.SplitBundleSpec(product, bundle)
    return chowmod.IntersectionRing(product, spec)


def chow(ring: chowmod.IntersectionRing, canonical: bool = False,
         identity: tuple | None = None, expr: str | None = None) -> CheckResult:
    """In the ring: the canonical class, whether identity's two expressions
    agree, or expr's value."""
    if canonical:
        return CheckResult(chowmod.div_class_str(ring, chowmod.canonical_class(ring)))
    if identity is not None:
        lhs, rhs = (chowmod.evaluate_expression(ring, side) for side in identity)
        return CheckResult("true" if lhs == rhs else "false")
    el = chowmod.evaluate_expression(ring, expr)
    return CheckResult(ring.element_str(el))


def langer_summary() -> str:
    """The headline counts for the blown-up 7-point plane, CLI format.  A
    (-1)-class d*H - sum m_a E_a meets the (-2)-class of the line {i, j, k}
    in d - m_i - m_j - m_k; the compatible ones meet all seven in >= 0."""
    lattice = delpezzo.PicLattice(7)
    compatible = exceptional = delpezzo.enumerate_classes(lattice, -1, -1, 3)
    neg2 = delpezzo.langer_neg2_classes()
    for line in neg2:
        i, j, k = [a for a, m in enumerate(line.m) if m]
        compatible = [c for c in compatible if c.d >= c.m[i] + c.m[j] + c.m[k]]
    disjoint = all(a.dot(b) == 0 for i, a in enumerate(neg2)
                   for b in neg2[i + 1:])
    return (f"(-1)-classes: {len(exceptional)}; compatible: {len(compatible)}; "
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


class _Run:
    """What the checks of one run share, each built at its first use: every
    entry's polynomial, parsed once for all of its fsplit, smooth and delta1
    checks, and one Chow ring per (base, bundle).  A parse that raised keeps
    its exception, raised again for each check that reads the polynomial,
    so each of their rows reads the error it read when every check parsed
    for itself.  Entries on ``--jobs`` threads share one run: a dict's get
    and set are atomic and what it holds is immutable, so two threads at
    most build one ring twice, and an entry's polynomial is read by the one
    thread that runs the entry."""

    __slots__ = ("_polynomials", "_rings")

    def __init__(self):
        self._polynomials = {}
        self._rings = {}

    def polynomial(self, entry: CorpusEntry) -> Polynomial:
        f = self._polynomials.get(entry.name)
        if f is None:
            try:
                f = parse_poly(entry.polynomial, entry.ambient.variable_set, entry.prime)
            except Exception as exc:  # kept for every check that reads f
                f = exc
            self._polynomials[entry.name] = f
        if isinstance(f, Exception):
            raise f
        return f

    def chow_ring(self, base: tuple, bundle: tuple | None) -> chowmod.IntersectionRing:
        ring = self._rings.get((base, bundle))
        if ring is None:
            ring = self._rings[base, bundle] = chow_ring(base, bundle)
        return ring


# kind -> (params validator, runner on the run, an entry and the validated
# params); chow and lattice checks never read the entry's polynomial
_KINDS = {
    "fsplit": (_no_params, lambda run, e: fsplit(
        e.prime, e.ambient.variable_set, run.polynomial(e))),
    "smooth": (_no_params, lambda run, e: smooth(e.prime, e.ambient, run.polynomial(e))),
    "delta1": (_delta1_params, lambda run, e, **kw: delta1(
        e.prime, e.ambient.variable_set, run.polynomial(e), **kw)),
    "chow": (_chow_params, lambda run, e, base, bundle, **kw: chow(
        run.chow_ring(base, bundle), **kw)),
    "lattice": (_lattice_params, lambda run, e, **kw: lattice(**kw)),
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


def _run_entry(run: _Run, entry: CorpusEntry) -> list:
    rows = []
    for check in entry.checks:
        try:
            result = _KINDS[check.kind][1](run, entry, **check.params)
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
    run = _Run()
    if jobs == 1 or len(entries) <= 1:
        per_entry = [_run_entry(run, e) for e in entries]
    else:
        # imported here: the pool alone needs it, and it loads logging,
        # traceback and queue into every process that imports it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            per_entry = list(pool.map(_run_entry, [run] * len(entries), entries))
    rows = [row for chunk in per_entry for row in chunk]
    return Report(tuple(rows))
