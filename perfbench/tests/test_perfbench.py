"""Tests of the benchmark itself (not of fanocheck).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

INPUTS = (
    "import json, sys; sys.path.insert(0, {here!r}); import gen; "
    "print(json.dumps([gen.member(w, c, i) for w in ('split', 'smooth', 'lattice') "
    "for c, i in gen.schedule(w, {seed}, 3)], sort_keys=True))"
)


def generated(seed: int, hashseed: str) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    code = INPUTS.format(here=str(HERE), seed=seed)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, timeout=60).stdout


def test_same_seed_gives_identical_inputs():
    first = generated(7, "1")
    assert first == generated(7, "2")
    assert len(json.loads(first)) > 20


def test_different_seed_gives_different_inputs():
    assert generated(7, "0") != generated(8, "0")


def test_every_pool_member_has_a_reference():
    refs = workloads.load_refs()
    for workload, table in gen.CLASSES.items():
        assert sorted(refs[workload]) == sorted(table)
        assert all(len(refs[workload][cls]) == gen.POOL for cls in table)
    for cls, members in gen.HARD_MEMBERS.items():
        assert sorted(refs["smooth_hard"][cls]) == sorted(map(str, members))
    assert all(not note.count("MISMATCH") for note in refs["cross_checks"].values())


def test_wrong_reference_counts_as_failed():
    refs = workloads.load_refs()
    refs["lattice"]["chow.P1"][0] = {"degree": refs["lattice"]["chow.P1"][0]["degree"] + 1}
    ops = workloads.build_ops("lattice", refs)
    block = [("chow.P1", 0), ("chow.P2", 0), ("chow.P1", 1)]
    records = run.run_blocks(ops, iter([block, block]), lambda done: done >= 2,
                             workloads.OP_DEADLINE)
    summary = run.summarize(records, workloads.OP_DEADLINE)
    assert (summary["n"], summary["failed"]) == (6, 2)
    assert [r[3] for r in records].count("mismatch") == 2


def _last_json(args) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = _last_json(["--workload", "corpus", "--seed", "3", "--seconds", "1",
                         "--trace", str(trace)])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec[key]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


def test_refuses_to_run_without_the_package(tmp_path):
    # only BENCHMARK.json and the benchmark's own files, no fanocheck
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "corpus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_every_op_starts_with_empty_caches():
    from fanocheck import delpezzo

    ops = workloads.build_ops("lattice", workloads.load_refs())
    assert workloads.timed(ops[("orbit.q4", 0)], workloads.OP_DEADLINE)[1] == "ok"
    assert delpezzo.pgl3_elements.cache_info().currsize == 1
    # the next op, whatever it is, starts as a fresh process would
    assert workloads.timed(ops[("chow.P1", 0)], workloads.OP_DEADLINE)[1] == "ok"
    assert delpezzo.pgl3_elements.cache_info().currsize == 0
