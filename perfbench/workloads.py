"""Build fanocheck inputs from generated specs, run ops and check outputs.

An op is one user-visible fanocheck call.  ``prepare`` turns a plain-data
spec from ``gen.py`` into the objects the call takes (set-up work, outside
the timed region) and returns the zero-argument call, which is what gets
timed, plus the map from its result to the JSON value that is checked
against the stored reference after the clock stops.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import io
import json
import math
import random
import signal
import sys
import time
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus" / "paper_examples.json"
DATA = Path(__file__).resolve().parent / "data"
REFS = DATA / "refs.json"

# per-op deadlines, seconds; an op past its deadline is stopped and fails
OP_DEADLINE = 30.0
HARD_DEADLINE = 3.0


class Deadline(Exception):
    """Raised inside an op that ran past its deadline."""


def _alarm(signum, frame):
    raise Deadline()


def calibrate() -> float:
    """Seconds one fixed pure-Python loop (dict and tuple work) takes now.

    Measured next to every op, so op times can be expressed in units of
    this loop ("cal"), which cancels the machine's momentary speed.  The
    best of three passes, because an interrupt can only add time.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        table = {}
        for i in range(3000):
            key = (i % 97, i % 13)
            table[key] = table.get(key, 0) + i * i
        best = min(best, time.perf_counter() - start)
    return best


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def prepare(spec: dict):
    """Objects for one op spec: a zero-argument callable and its output map."""
    # calls go through module attributes, so the tracer's wrappers see them
    from fanocheck import chow, delpezzo, geometry, splitting
    from fanocheck.geometry import HypersurfaceVariety, parse_ambient
    from fanocheck.poly import VariableSet, parse_poly
    from fanocheck.splitting import HypersurfaceRing

    call = spec["call"]
    if call in ("fedder_report", "delta1_probe"):
        vset = VariableSet.weighted(spec["vars"], spec["weights"])
        ring = HypersurfaceRing(spec["p"], vset, parse_poly(spec["poly"], vset, spec["p"]))
        if call == "fedder_report":
            return (lambda: splitting.fedder_report(ring)), _report_output
        a, b, s = spec["probe"]
        return (lambda: splitting.delta1_probe(ring, a, b, s)), _probe_output
    if call == "smoothness_verdict":
        space = parse_ambient(spec["ambient"], spec["vars"])
        f = parse_poly(spec["poly"], space.variable_set, spec["p"])
        variety = HypersurfaceVariety(spec["p"], space, f)
        return (lambda: geometry.smoothness_verdict(variety)), (lambda v: v.value)
    if call == "enumerate_classes":
        lattice = delpezzo.PicLattice(spec["r"])
        args = (lattice, spec["self_int"], spec["k_deg"], spec["d_max"])
        return (lambda: delpezzo.enumerate_classes(*args)), _classes_output
    if call == "pgl_orbit_canonical":
        config = delpezzo.PointConfig.from_points(spec["q"], spec["points"])
        return (lambda: delpezzo.pgl_orbit_canonical(config)), _orbit_output
    if call == "evaluate_expression":
        base = chow.ProductBase(tuple(spec["base"]))
        bundle = chow.SplitBundleSpec(base, tuple(tuple(t) for t in spec["bundle"]))
        ring = chow.IntersectionRing(base, bundle)
        expr = spec["expr"]
        return (lambda: chow.evaluate_expression(ring, expr)), _chow_output
    raise ValueError(f"unknown call {call!r}")


def _report_output(rep) -> dict:
    out = rep.as_dict()
    del out["elapsed_ms"]
    return out


def _probe_output(poly) -> dict:
    return {"terms": poly.num_terms, "sha": digest(str(poly))}


def _classes_output(classes) -> dict:
    text = ";".join(f"{c.d}:{','.join(map(str, c.m))}" for c in classes)
    return {"count": len(classes), "sha": digest(text)}


def _orbit_output(result) -> dict:
    config, size = result
    return {"canonical": [list(pt) for pt in config.points], "orbit_size": size}


def _chow_output(el: dict) -> dict:
    if any(any(m) for m in el):
        raise ValueError("deg(...) did not reduce to a constant")
    return {"degree": next(iter(el.values()), 0)}


def corpus_op():
    """One ``fanocheck verify <corpus> --format json`` run, stdout captured."""
    from fanocheck import cli

    argv = ["verify", str(CORPUS), "--format", "json"]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    return run, (lambda res: {"exit": res[0], "sha": digest(res[1])})


def load_refs() -> dict:
    with open(REFS, encoding="utf-8") as fh:
        return json.load(fh)


class Op:
    """One scheduled op: its class, pool member, reference and input builder.

    ``make`` builds the op's fanocheck objects.  They are built once when the
    op is made (set-up parses every input) and anew before every later run,
    so no state an earlier run left on them can speed up the next.
    """

    __slots__ = ("cls", "index", "make", "ref", "_ready")

    def __init__(self, cls, index, make, ref):
        self.cls, self.index, self.make, self.ref = cls, index, make, ref
        self._ready = make()

    def fresh(self):
        """(call, output map) on objects no earlier run has used."""
        ready, self._ready = self._ready, None
        return ready or self.make()


def clear_caches() -> None:
    """Empty every functools cache in fanocheck's modules, as in a fresh process.

    Follows ``__wrapped__``, so a cache under a tracer wrapper is found too.
    """
    for name, module in list(sys.modules.items()):
        if name != "fanocheck" and not name.startswith("fanocheck."):
            continue
        for value in list(vars(module).values()):
            while value is not None and not hasattr(value, "cache_clear"):
                value = getattr(value, "__wrapped__", None)
            if value is not None:
                value.cache_clear()


def build_ops(workload: str, refs: dict) -> dict:
    """Ops for every pool member of every class of the workload."""
    if workload == "corpus":
        return {("verify", 0): Op("verify", 0, corpus_op, refs["corpus"]["verify"][0])}
    ops = {}
    for cls in sorted(gen.CLASSES[workload]):
        for i in range(gen.POOL):
            make = functools.partial(prepare, gen.member(workload, cls, i))
            ops[(cls, i)] = Op(cls, i, make, refs[workload][cls][i])
    return ops


def build_hard_ops(refs: dict, seed: int) -> list:
    """One seeded member of each known-slow smoothness class."""
    rng = random.Random(f"hard:{seed}")
    out = []
    for cls in sorted(gen.SMOOTH_HARD):
        i = rng.choice(gen.HARD_MEMBERS[cls])
        make = functools.partial(prepare, gen.member("smooth", cls, i))
        out.append(Op(cls, i, make, refs["smooth_hard"][cls][str(i)]))
    return out


def timed(op: Op, deadline: float):
    """Run one op under a deadline: (seconds, status).

    status is "ok", "mismatch", "error" or "deadline".  Before the clock
    starts, fanocheck's caches are emptied, the op's objects built anew and
    a full garbage collection run, so the collector's counters, and with
    them the points inside the op where it runs, are the same every time.
    The reference check happens after the clock stops.
    """
    clear_caches()
    call, output = op.fresh()
    gc.collect()
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, deadline)
    start = time.perf_counter()
    try:
        result = call()
        elapsed = time.perf_counter() - start
    except Deadline:
        return deadline, "deadline"
    except Exception:  # an op that raises fails; the run goes on
        return time.perf_counter() - start, "error"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    try:
        out = json.loads(json.dumps(output(result)))
    except (TypeError, ValueError, AttributeError):
        return elapsed, "error"
    return elapsed, ("ok" if out == op.ref else "mismatch")
