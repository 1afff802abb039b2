"""Spans around the calls into each fanocheck module, from outside the package.

``Tracer.install`` wraps each public function listed in ``TARGETS`` on its
defining module and on every fanocheck module that bound the same object at
import (``geometry.localized_is_unit``, ``corpus.poly_delta1``, ...); methods
are wrapped on their class.  Each call records a span in memory: name,
start, end, parent span and op id.  Self time ("busy") is a span's duration
minus the durations of its direct child spans.  ``uninstall`` puts the
original objects back.
"""

from __future__ import annotations

import importlib
import json
import time

MODULES = ("poly", "splitting", "ideals", "geometry", "chow", "delpezzo",
           "smallfields", "corpus", "cli")


def _terms(result):
    return result.num_terms


def _truth(result):
    return 1 if result else 0


def _length(result):
    return len(result)


def _orbit_size(result, config):
    q = config.q
    return (result[1], q ** 3 * (q ** 3 - 1) * (q ** 2 - 1))


def _verdict(result):
    return result.value


def _charts(result, variety):
    """(charts tested, charts available) for one cone_smoothness call."""
    names = [fac.names for fac in variety.space.factors]
    available = 1
    for group in names:
        available *= len(group)
    if result.smooth_away_from_irrelevant:
        return (available, available)
    # charts run in itertools.product order and stop at the first failure
    failed = result.witness_chart.split("*")
    index = 0
    for group, name in zip(names, failed):
        index = index * len(group) + group.index(name)
    return (index + 1, available)


# (module, qualified name, stat taken from the result or None)
TARGETS = (
    ("poly", "pow_mod_frobenius", _terms),
    ("poly", "delta1", _terms),
    ("poly", "parse_poly", None),
    ("poly", "Polynomial.__mul__", None),
    ("splitting", "fedder_report", None),
    ("splitting", "delta1_probe", None),
    ("ideals", "localized_is_unit", _truth),
    ("ideals", "PolyIdeal.groebner_basis", None),
    ("geometry", "smoothness_verdict", _verdict),
    ("geometry", "jacobian_ideal", None),
    ("geometry", "cone_smoothness", _charts),
    ("chow", "evaluate_expression", None),
    ("chow", "IntersectionRing.reduce", None),
    ("delpezzo", "enumerate_classes", _length),
    ("delpezzo", "pgl3_elements", _length),
    ("delpezzo", "pgl_orbit_canonical", _orbit_size),
    ("smallfields", "GF.__init__", None),
    ("corpus", "run_corpus", None),
    ("corpus", "load_corpus_file", None),
    ("corpus", "Report.to_json", None),
    ("cli", "main", None),
)


def span_name(module: str, qualname: str) -> str:
    # a class constructor is reported under the class name
    return f"{module}.{qualname.removesuffix('.__init__')}"


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names = []
        # each span: [name index, start, end, parent span, op id, stat]
        self.spans = []
        self._stack = []
        self.op_id = -1
        self._undo = []

    def _wrap(self, index, fn, stat):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self
        with_arg = stat in (_charts, _orbit_size)

        def wrapper(*args, **kwargs):
            rec = [index, clock(), 0.0, stack[-1] if stack else -1, tracer.op_id, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if stat is not None:
                rec[5] = stat(result, args[0]) if with_arg else stat(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def set_op(self, op_id: int):
        """Tag the spans that follow with the id of the op being run."""
        self.op_id = op_id

    def install(self):
        mods = {name: importlib.import_module(f"fanocheck.{name}") for name in MODULES}
        mods["__init__"] = importlib.import_module("fanocheck")
        for module, qualname, stat in TARGETS:
            index = len(self.names)
            self.names.append(span_name(module, qualname))
            owner_name, _, attr = qualname.rpartition(".")
            owner = mods[module]
            # a target the package no longer has reports zero calls
            if owner_name:
                owner = getattr(owner, owner_name, None)
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    continue
                wrapper = self._wrap(index, original, stat)
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, original))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(index, original, stat)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self) -> dict:
        """Per span name: calls, busy seconds and the collected stats."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child_time[rec[3]] += rec[2] - rec[1]
        out = {name: {"calls": 0, "busy_s": 0.0, "stats": []} for name in self.names}
        for i, rec in enumerate(self.spans):
            entry = out[self.names[rec[0]]]
            entry["calls"] += 1
            entry["busy_s"] += (rec[2] - rec[1]) - child_time[i]
            if rec[5] is not None:
                entry["stats"].append(rec[5])
        return out

    def write(self, path):
        """Write every span as JSON: names table plus one row per span."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "start", "end", "parent", "op", "stat"],
                       "spans": self.spans}, fh)


def _share(pairs):
    tested = sum(t for t, _ in pairs)
    available = sum(a for _, a in pairs)
    return tested / available if available else 0.0


def _pgl_yield(sizes):
    # |PGL_3(F_q)| = q^3 (q^3 - 1) (q^2 - 1); the stat is orbit size per
    # group element, recorded with the group order of the same call
    return sum(size / order for size, order in sizes) / len(sizes) if sizes else 0.0


# per-layer metric -> (span name, what, unit); what is "calls", "busy_s",
# or a function of the span's collected stats
LAYER_METRICS = {
    "poly.pow_mod_frobenius.calls": ("poly.pow_mod_frobenius", "calls", "count"),
    "poly.pow_mod_frobenius.busy_s": ("poly.pow_mod_frobenius", "busy_s", "s"),
    "poly.pow_mod_frobenius.out_terms": ("poly.pow_mod_frobenius", sum, "count"),
    "poly.delta1.calls": ("poly.delta1", "calls", "count"),
    "poly.delta1.busy_s": ("poly.delta1", "busy_s", "s"),
    "poly.delta1.out_terms": ("poly.delta1", sum, "count"),
    "poly.parse_poly.busy_s": ("poly.parse_poly", "busy_s", "s"),
    "poly.Polynomial.__mul__.calls": ("poly.Polynomial.__mul__", "calls", "count"),
    "poly.Polynomial.__mul__.busy_s": ("poly.Polynomial.__mul__", "busy_s", "s"),
    "splitting.fedder_report.busy_s": ("splitting.fedder_report", "busy_s", "s"),
    "splitting.delta1_probe.busy_s": ("splitting.delta1_probe", "busy_s", "s"),
    "ideals.localized_is_unit.calls": ("ideals.localized_is_unit", "calls", "count"),
    "ideals.localized_is_unit.busy_s": ("ideals.localized_is_unit", "busy_s", "s"),
    "ideals.localized_is_unit.true_share": (
        "ideals.localized_is_unit", lambda v: sum(v) / len(v) if v else 0.0, "ratio"),
    "ideals.PolyIdeal.groebner_basis.calls": ("ideals.PolyIdeal.groebner_basis", "calls", "count"),
    "ideals.PolyIdeal.groebner_basis.busy_s": ("ideals.PolyIdeal.groebner_basis", "busy_s", "s"),
    "geometry.smoothness_verdict.calls": ("geometry.smoothness_verdict", "calls", "count"),
    "geometry.smoothness_verdict.busy_s": ("geometry.smoothness_verdict", "busy_s", "s"),
    "geometry.jacobian_ideal.busy_s": ("geometry.jacobian_ideal", "busy_s", "s"),
    "geometry.cone_smoothness.charts_share": ("geometry.cone_smoothness", _share, "ratio"),
    "geometry.verdicts.Smooth": (
        "geometry.smoothness_verdict", lambda v: v.count("Smooth"), "count"),
    "geometry.verdicts.Singular": (
        "geometry.smoothness_verdict", lambda v: v.count("Singular"), "count"),
    "geometry.verdicts.QuasiSmoothOnly": (
        "geometry.smoothness_verdict", lambda v: v.count("QuasiSmoothOnly"), "count"),
    "chow.evaluate_expression.calls": ("chow.evaluate_expression", "calls", "count"),
    "chow.evaluate_expression.busy_s": ("chow.evaluate_expression", "busy_s", "s"),
    "chow.IntersectionRing.reduce.calls": ("chow.IntersectionRing.reduce", "calls", "count"),
    "chow.IntersectionRing.reduce.busy_s": ("chow.IntersectionRing.reduce", "busy_s", "s"),
    "delpezzo.enumerate_classes.calls": ("delpezzo.enumerate_classes", "calls", "count"),
    "delpezzo.enumerate_classes.busy_s": ("delpezzo.enumerate_classes", "busy_s", "s"),
    "delpezzo.enumerate_classes.out_classes": ("delpezzo.enumerate_classes", sum, "count"),
    "delpezzo.pgl3_elements.calls": ("delpezzo.pgl3_elements", "calls", "count"),
    "delpezzo.pgl3_elements.busy_s": ("delpezzo.pgl3_elements", "busy_s", "s"),
    "delpezzo.pgl3_elements.group_order": (
        "delpezzo.pgl3_elements", lambda v: max(v, default=0), "count"),
    "delpezzo.pgl_orbit_canonical.calls": ("delpezzo.pgl_orbit_canonical", "calls", "count"),
    "delpezzo.pgl_orbit_canonical.busy_s": ("delpezzo.pgl_orbit_canonical", "busy_s", "s"),
    "delpezzo.pgl_orbit_canonical.yield": ("delpezzo.pgl_orbit_canonical", _pgl_yield, "ratio"),
    "smallfields.GF.calls": ("smallfields.GF", "calls", "count"),
    "smallfields.GF.busy_s": ("smallfields.GF", "busy_s", "s"),
    "corpus.run_corpus.busy_s": ("corpus.run_corpus", "busy_s", "s"),
    "corpus.load_corpus_file.busy_s": ("corpus.load_corpus_file", "busy_s", "s"),
    "corpus.Report.to_json.busy_s": ("corpus.Report.to_json", "busy_s", "s"),
    "cli.main.busy_s": ("cli.main", "busy_s", "s"),
}


def layer_metrics(summary: dict) -> dict:
    """The LAYER_METRICS values from a ``Tracer.summary``, with units."""
    out = {}
    for name, (span, what, unit) in LAYER_METRICS.items():
        entry = summary[span]
        value = entry[what] if isinstance(what, str) else what(entry["stats"])
        out[name] = {"value": value, "unit": unit}
    return out
