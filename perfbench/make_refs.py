#!/usr/bin/env python3
"""Build perfbench/data/refs.json: the reference output of every pool member.

    python3 perfbench/make_refs.py

Rebuilds and cross-checks the reference of every pool member of every
workload, the known-slow smoothness members included.  Each reference is fanocheck's output at the commit that made it, accepted
only after a method that is not fanocheck agreed (see crosscheck.py).  A
disagreement stops the script without writing anything.  The result also
records which cross-check confirmed each entry.  Needs sympy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import crosscheck  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402


def fanocheck_output(spec):
    call, output = workloads.prepare(spec)
    return json.loads(json.dumps(output(call())))


def split_ref(spec):
    out = fanocheck_output(spec)
    if spec["call"] == "fedder_report":
        return out, "sympy box power + integer Witt carry: " + crosscheck.check_split_row(spec, out)
    from fanocheck.poly import VariableSet, parse_poly
    from fanocheck.splitting import HypersurfaceRing, delta1_probe

    vset = VariableSet.weighted(spec["vars"], spec["weights"])
    poly = delta1_probe(HypersurfaceRing(spec["p"], vset, parse_poly(spec["poly"], vset, spec["p"])),
                        *spec["probe"])
    return out, "sympy box power of f and of the carry: " + crosscheck.check_probe(spec, dict(poly.terms))


def smooth_ref(spec, search=True):
    out = fanocheck_output(spec)
    verdict = crosscheck.smoothness(spec)
    note = "sympy groebner per chart: " + ("ok" if verdict == out else f"MISMATCH {verdict}")
    if search and out == "Singular":
        for k in (1, 2):
            point = crosscheck.singular_point(spec, k)
            if point not in (None, "skipped"):
                note += f"; singular F_{spec['p']}^{k} point {list(point)}"
                break
            note += f"; F_{spec['p']}^{k} search {point or 'found none'}"
    return out, note


def lattice_ref(spec):
    out = fanocheck_output(spec)
    call = spec["call"]
    if call == "enumerate_classes":
        classes = crosscheck.lattice_classes(spec["r"], spec["self_int"], spec["k_deg"], spec["d_max"])
        text = ";".join(f"{d}:{','.join(map(str, m))}" for d, m in classes)
        got = {"count": len(classes), "sha": workloads.digest(text)}
        return out, "independent enumeration: " + ("ok" if got == out else f"MISMATCH {got}")
    if call == "pgl_orbit_canonical":
        canonical, size = crosscheck.orbit(spec["q"], spec["points"])
        order = crosscheck.pgl3_order(spec["q"])
        ok = (canonical == out["canonical"] and size == out["orbit_size"]
              and order % size == 0)
        return out, (f"own PGL_3 enumeration, |PGL_3| = {order} divisible by orbit: "
                     + ("ok" if ok else f"MISMATCH {canonical} {size}"))
    degree = crosscheck.chow_degree(spec)
    return out, "sympy expansion: " + ("ok" if degree == out["degree"] else f"MISMATCH {degree}")


def corpus_ref():
    call, output = workloads.corpus_op()
    code, text = call()
    report = json.loads(text)
    with open(workloads.CORPUS, encoding="utf-8") as fh:
        corpus = json.load(fh)
    expected = [c["expect"] for e in corpus["entries"] for c in e["checks"]]
    ok = (code == 0 and report["summary"] == {"total": 32, "passed": 32, "failed": 0}
          and [r["expected"] for r in report["rows"]] == expected)
    note = "32/32 rows passed and expected values equal the corpus file: " + ("ok" if ok else "MISMATCH")
    return output((code, text)), note


REF_FOR = {"split": split_ref, "smooth": smooth_ref, "lattice": lattice_ref}


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    out, note = corpus_ref()
    refs = {"corpus": {"verify": [out]}}
    checks = refs["cross_checks"] = {"corpus/verify/0": note}
    bad = [] if note.endswith("ok") else [f"corpus/verify/0: {note}"]
    print("corpus/verify/0", note, flush=True)
    for workload in sorted(REF_FOR):
        table = refs[workload] = {}
        for cls in sorted(gen.CLASSES[workload]):
            table[cls] = []
            for i in range(gen.POOL):
                start = time.perf_counter()
                out, note = REF_FOR[workload](gen.member(workload, cls, i))
                table[cls].append(out)
                checks[f"{workload}/{cls}/{i}"] = note
                if "MISMATCH" in note:
                    bad.append(f"{workload}/{cls}/{i}: {note}")
                print(f"{workload}/{cls}/{i} {time.perf_counter() - start:.2f}s {out} -- {note}",
                      flush=True)
    hard = refs["smooth_hard"] = {}
    for cls, members in gen.HARD_MEMBERS.items():
        hard[cls] = {}
        for i in members:
            start = time.perf_counter()
            out, note = smooth_ref(gen.member("smooth", cls, i), search=False)
            hard[cls][str(i)] = out
            note = checks[f"smooth_hard/{cls}/{i}"] = (
                f"{note}; both took {time.perf_counter() - start:.1f}s")
            if "MISMATCH" in note:
                bad.append(f"smooth_hard/{cls}/{i}: {note}")
            print(f"smooth_hard/{cls}/{i} {out} -- {note}", flush=True)
    if bad:
        print("cross-check disagreements; nothing written:", *bad, sep="\n  ", file=sys.stderr)
        return 1
    workloads.REFS.parent.mkdir(exist_ok=True)
    # write then rename, so a benchmark run never reads a half-written file
    tmp = workloads.REFS.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, workloads.REFS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
