#!/usr/bin/env python3
"""fanocheck benchmark: one closed-loop client driving the public API.

    python3 perfbench/run.py --workload split --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Workloads: corpus, split, smooth, lattice
(see BENCHMARK.json and perfbench/README.md).  With ``--trace 0`` the run
times about ``--seconds`` worth of ops and prints the end-to-end metrics; with
``--trace 1`` it runs half as many ops untraced and then the same ops
traced, and prints the per-module metrics.  Every op's output is checked
against the stored reference.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("corpus", "split", "smooth", "lattice")
SETUP_PROBES = 21
# setup_s is each probe's time in cal times this: the calibration loop's
# median time (seconds) over 80 runs on a 2-CPU Xeon at 2.0 GHz, so it reads
# as seconds on that machine at its typical speed
REFERENCE_CAL_S = 1.03e-3
# seconds one cycle (every pool member once) took when the benchmark was
# made, on a 2-CPU Xeon at 2.0 GHz.  A run does a fixed number of whole
# cycles, sized from --seconds with these, so every run of a workload does
# the same ops and its counts repeat exactly; a faster program ends sooner.
NOMINAL_CYCLE_S = {"corpus": 0.1, "split": 8.4, "smooth": 6.9, "lattice": 6.8}
# an untraced run groups its cycles in pairs; an op's sample is its
# faster run within a pair
REPEATS = 2
# lattice runs at least four cycles (two pairs, 60 samples): then its tail,
# p83, falls among the twelve q = 4 orbit samples rather than on the edge
# below them, and its median, a Chow degree of a few ms, is taken over two
# samples of every member
MIN_CYCLES = {"lattice": 4}


def run_blocks_for(workload: str, seconds: float, grouped: bool) -> int:
    """Blocks in a run of about ``seconds``: whole cycles, whole groups if ``grouped``."""
    import gen

    cycles = seconds / NOMINAL_CYCLE_S[workload]
    if grouped:
        cycles = max(REPEATS * max(1, round(cycles / REPEATS)), MIN_CYCLES.get(workload, 0))
    else:
        cycles = max(1, round(cycles))
    return cycles * gen.cycle_blocks(workload)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def check_checkout() -> str | None:
    for need in (ROOT / "src" / "fanocheck" / "__init__.py",
                 ROOT / "corpus" / "paper_examples.json",
                 HERE / "data" / "refs.json"):
        if not need.is_file():
            return f"missing {need.relative_to(ROOT)}; run from a full checkout"
    return None


def setup(workload: str):
    """Import fanocheck, load references and build every input of the run."""
    sys.path.insert(0, str(ROOT / "src"))
    import fanocheck  # noqa: F401  (the import is part of set-up)
    import workloads

    refs = workloads.load_refs()
    return refs, workloads.build_ops(workload, refs)


def setup_probe(workload: str):
    """Spawning a fresh interpreter to its inputs being built: (seconds, cal).

    The calibration is the mean of the loop timed here just before the
    spawn and in the child just after its set-up.
    """
    import workloads

    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", "0"]
    before = workloads.calibrate()
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    # perf_counter is CLOCK_MONOTONIC, shared by every process on Linux
    done, after = map(float, proc.stdout.split()[-2:])
    return done - start, (done - start) / ((before + after) / 2)


def tail(times: list):
    """Highest whole percentile with at least ten ops above it: (pct, value)."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 50, statistics.median(ordered)


def run_blocks(ops: dict, block_iter, stop, deadline: float, on_op=None,
               between=None):
    """Closed loop: run whole blocks until ``stop(blocks_done)`` is true.

    ``between(blocks_done)``, if given, runs before each block, untimed.

    Returns one (class, index, seconds, status, calibration seconds) record
    per op; the calibration is the mean of the loop timed just before and
    just after the op.
    """
    import workloads

    records = []
    done = 0
    while not stop(done):
        if between is not None:
            between(done)
        for key in next(block_iter):
            op = ops[key]
            if on_op is not None:
                on_op(len(records))
            before = workloads.calibrate()
            seconds, status = workloads.timed(op, deadline)
            cal = (before + workloads.calibrate()) / 2
            records.append((op.cls, op.index, seconds, status, cal))
        done += 1
    return records


def summarize(records: list, deadline: float, per_cycle: int = 0) -> dict:
    """Timing statistics of a run's op records, in seconds and in cal.

    An op's time in *cal* is its seconds divided by its calibration: the
    time of one fixed pure-Python loop measured next to it.  The machine's
    momentary speed (other tenants slow a shared 2-CPU VM by up to 1.7x
    for seconds at a time) cancels out of the ratio.

    With ``per_cycle`` (ops in one cycle) the cycles are taken in groups of
    ``REPEATS`` and each op's sample is the fastest of its runs, one in each
    cycle of the group.  A sample fails if any of its runs failed, and a
    failed sample counts at the deadline for the tail.
    """
    groups = {}
    for i, (cls, index, seconds, status, cal) in enumerate(records):
        key = (i // per_cycle // REPEATS, cls, index) if per_cycle else i
        groups.setdefault(key, []).append((seconds, status, cal))
    raw, norm, tails, passed = [], [], [], 0
    for runs in groups.values():
        fastest = min(runs, key=lambda r: r[0] / r[2])
        ok = all(r[1] == "ok" for r in runs)
        passed += ok
        raw.append(min(r[0] for r in runs))
        norm.append(fastest[0] / fastest[2])
        tails.append(norm[-1] if ok else max(max(deadline, r[0]) / r[2] for r in runs))
    pct, tail_cal = tail(tails)
    return {"n": len(records), "samples": len(norm), "passed": passed,
            "failed": sum(1 for r in records if r[3] != "ok"),
            "p50": statistics.median(norm), "tail_pct": pct, "tail": tail_cal,
            "busy": sum(norm), "p50_s": statistics.median(raw),
            "tail_s": tail(raw)[1], "cal_s": statistics.median(r[4] for r in records)}


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(workload: str, seed: int, seconds: float):
    import gen
    import workloads

    refs, ops = setup(workload)
    nblocks = run_blocks_for(workload, seconds, grouped=True)
    # set-up probes are spread over the run, so a slow spell of the shared
    # machine hits a few of them rather than all
    step = max(1, nblocks // SETUP_PROBES)
    setup_s = []

    def probe(done):
        if done % step == 0 and len(setup_s) < SETUP_PROBES:
            setup_s.append(setup_probe(workload))

    records = run_blocks(ops, gen.blocks(workload, seed), lambda done: done >= nblocks,
                         workloads.OP_DEADLINE, between=probe)
    while len(setup_s) < SETUP_PROBES:
        setup_s.append(setup_probe(workload))
    s = summarize(records, workloads.OP_DEADLINE, gen.ops_per_cycle(workload))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_cal = statistics.median(cal for _, cal in setup_s)
    print(f"# {workload} seed={seed}: {s['n']} ops, {s['failed']} failed "
          f"(failed_share {s['failed']}/{s['n']}); {s['samples']} samples; "
          f"tail is p{s['tail_pct']} over {s['samples']} samples; in seconds: "
          f"p50 {s['p50_s']:.5f} s, tail {s['tail_s']:.5f} s, calibration loop "
          f"{s['cal_s'] * 1000:.4f} ms; set-up probes in seconds "
          f"{[round(sec, 4) for sec, _ in setup_s]}, median {setup_cal:.1f} cal")
    metrics = {
        "op_cal.p50": metric(s["p50"], "cal"),
        "op_cal.tail": metric(s["tail"], "cal"),
        "throughput_ops_kcal": metric(1000 * s["passed"] / s["busy"], "ops/kcal"),
        "setup_s": metric(setup_cal * REFERENCE_CAL_S, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    return s["failed"] == 0, s["n"], s["failed"], metrics


def traced(workload: str, seed: int, seconds: float):
    import gen
    import workloads
    from spans import Tracer, layer_metrics

    refs, ops = setup(workload)
    nblocks = run_blocks_for(workload, seconds / 2, grouped=False)
    extra = {}
    if workload == "corpus":
        extra.update(corpus_extras())
    plain = run_blocks(ops, gen.blocks(workload, seed), lambda done: done >= nblocks,
                       workloads.OP_DEADLINE)
    tracer = Tracer()
    tracer.install()
    try:
        records = run_blocks(ops, gen.blocks(workload, seed),
                             lambda done: done >= nblocks, workloads.OP_DEADLINE,
                             on_op=tracer.set_op)
    finally:
        tracer.uninstall()
    hard = []
    if workload == "smooth":
        for op in workloads.build_hard_ops(refs, seed):
            hard.append(workloads.timed(op, workloads.HARD_DEADLINE)[1])
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload}-seed{seed}.json")
    base = summarize(plain, workloads.OP_DEADLINE)
    s = summarize(records, workloads.OP_DEADLINE)
    metrics = layer_metrics(tracer.summary())
    metrics["trace.untraced_op_s.p50"] = metric(base["p50_s"], "s")
    metrics["trace.op_s.p50"] = metric(s["p50_s"], "s")
    metrics["trace.overhead_s"] = metric(s["p50_s"] - base["p50_s"], "s")
    metrics["trace.overhead_share"] = metric(s["p50"] / base["p50"] - 1, "ratio")
    metrics["geometry.smoothness_verdict.hard_ops"] = metric(len(hard), "count")
    metrics["geometry.smoothness_verdict.hard_deadline_misses"] = metric(
        sum(1 for h in hard if h == "deadline"), "count")
    for name in ("corpus.run_corpus.jobs_speedup", "cli.process_s"):
        metrics[name] = extra.get(name, metric(0.0, "ratio" if "jobs" in name else "s"))
    bad_hard = sum(1 for h in hard if h not in ("ok", "deadline"))
    print(f"# {workload} seed={seed} traced: {nblocks} blocks, {s['n']} ops traced, "
          f"{s['failed'] + base['failed']} failed; hard ops {hard}; "
          f"trace overhead {s['p50_s'] - base['p50_s']:+.5f} s on the median op, "
          f"{s['p50'] / base['p50'] - 1:+.3f} of it in cal")
    failed = s["failed"] + base["failed"] + bad_hard
    return failed == 0, s["n"] + base["n"] + len(hard), failed, metrics


def corpus_extras() -> dict:
    """``verify --jobs`` speed-up and the wall time of a fresh CLI process."""
    from fanocheck import corpus
    import workloads

    jobs = len(os.sched_getaffinity(0))
    one, many = [], []
    for _ in range(5):
        for n, sink in ((1, one), (jobs, many)):
            start = time.perf_counter()
            report = corpus.run_corpus(workloads.CORPUS, jobs=n)
            sink.append(time.perf_counter() - start)
            if not report.all_passed:
                raise RuntimeError("corpus failed during the --jobs measurement")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "fanocheck.cli", "verify", str(workloads.CORPUS),
           "--format", "json"]
    walls = []
    for _ in range(3):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              timeout=60, check=False)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError("fanocheck verify failed in a fresh process")
    print(f"# verify --jobs: jobs=1 median {statistics.median(one):.4f} s, "
          f"jobs={jobs} median {statistics.median(many):.4f} s")
    return {"corpus.run_corpus.jobs_speedup":
            metric(statistics.median(one) / statistics.median(many), "ratio"),
            "cli.process_s": metric(statistics.median(walls), "s")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    problem = check_checkout()
    if problem:
        return fail(problem)
    if args.setup_probe:
        setup(args.workload)
        done = time.perf_counter()
        import workloads

        print(repr(done), repr(workloads.calibrate()))
        return 0
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    run = traced if args.trace else untraced
    correct, attempted, failed, metrics = run(args.workload, args.seed, args.seconds)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
