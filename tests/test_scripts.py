"""Smoke tests for the command-line scripts under ``scripts/``.

Each script runs as a fresh interpreter from the repository root, the way a
user runs it; the scripts put ``src`` on the path themselves.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fanocheck.poly import VariableSet, delta1, parse_poly
from fanocheck.splitting import HypersurfaceRing, fedder_report
from helpers import diagonal_fedder

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _run(*args, env=None):
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)


def _run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return _run("-m", "fanocheck.cli", *args, env=env)


def test_verify_examples_json_matches_the_cli():
    script = _run(str(SCRIPTS / "verify_examples.py"), "--json")
    assert script.returncode == 0, script.stderr
    cli = _run_cli("verify", "corpus/paper_examples.json", "--format", "json")
    assert cli.returncode == 0, cli.stderr
    assert script.stdout == cli.stdout


def _line_corpus(expect):
    return {"entries": [{
        "name": "line", "prime": 2, "polynomial": "t0",
        "ambient": {"factors": [{"weights": [1, 1], "vars": ["t0", "t1"]}]},
        "checks": [{"kind": "fsplit", "expect": "FSplit"},
                   {"kind": "smooth", "expect": expect}],
        "paper_ref": "a line in P^1 over F_2",
    }]}


@pytest.mark.parametrize("document,code", [
    (_line_corpus("Smooth"), 0),
    (_line_corpus("Singular"), 1),
    ({"entries": [{"name": "line"}]}, 2),
], ids=["passing", "failing", "malformed"])
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_verify_examples_is_the_cli_verify(tmp_path, document, code, as_json):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(document))
    script = _run(str(SCRIPTS / "verify_examples.py"), str(path),
                  *(["--json"] if as_json else []))
    cli = _run_cli("verify", str(path), "--format", "json" if as_json else "text")
    assert script.returncode == cli.returncode == code, (script.stderr, cli.stderr)
    assert script.stdout == cli.stdout
    assert script.stderr == cli.stderr
    assert script.stderr.startswith(b"error: ") == (code == 2)


def test_verify_examples_rejects_bad_jobs_like_the_cli():
    script = _run(str(SCRIPTS / "verify_examples.py"), "--jobs", "0")
    cli = _run_cli("verify", "corpus/paper_examples.json", "--jobs", "0")
    assert script.returncode == cli.returncode == 2
    assert script.stderr == cli.stderr == b"error: jobs must be >= 1\n"


def test_splitting_survey_prints_one_row_per_prime():
    run = _run(str(SCRIPTS / "splitting_survey.py"), "--family", "quartic",
               "--primes", "2,3")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.decode().splitlines()
    assert lines[0].startswith("quartic: f = ")
    rows = [line.split()[0] for line in lines[1:]]
    assert rows == ["p=2", "p=3"]


def test_splitting_survey_reruns_byte_for_byte():
    args = (str(SCRIPTS / "splitting_survey.py"), "--family", "quartic",
            "--primes", "2,3")
    first, second = _run(*args), _run(*args)
    assert first.returncode == second.returncode == 0, first.stderr
    assert first.stdout == second.stdout


@pytest.mark.parametrize("primes", ["2,4", "2,x", "2,101"])
def test_splitting_survey_rejects_a_bad_prime_before_any_row(primes):
    run = _run(str(SCRIPTS / "splitting_survey.py"), "--family", "quartic",
               "--primes", primes)
    assert run.returncode == 2
    assert run.stderr.startswith(b"error: ")
    assert run.stdout == b""


def _survey_module():
    spec = importlib.util.spec_from_file_location(
        "splitting_survey", SCRIPTS / "splitting_survey.py")
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    return survey


def test_splitting_survey_counts_every_carry():
    run = _run(str(SCRIPTS / "splitting_survey.py"))
    assert run.returncode == 0, run.stderr
    survey = _survey_module()
    rows = {}
    for line in run.stdout.decode().splitlines():
        if not line.startswith(" "):
            family = line.split(":")[0]
            continue
        words = line.split()
        rows[family, int(words[0][2:])] = int(words[words.index("carry") + 2])
    primes = (2, 3, 5, 7, 11, 13)
    assert set(rows) == {(fam, p) for fam in survey.FAMILIES for p in primes}
    for (family, p), terms in rows.items():
        text, names, weights = survey.FAMILIES[family]
        vs = VariableSet.weighted(names, weights)
        assert terms == delta1(parse_poly(text, vs, p)).num_terms, (family, p)


def test_splitting_survey_lets_a_crash_propagate(monkeypatch):
    survey = _survey_module()

    def crash(ring):
        raise RuntimeError("boom")

    monkeypatch.setattr(survey, "fedder_report", crash)
    with pytest.raises(RuntimeError, match="boom"):
        survey.survey("quartic", [2])


def test_survey_families_match_the_diagonal_closed_form():
    # every survey family is a diagonal form sum x_i^(e_i) with unit
    # coefficients, so verdict, witness, residue and carry sizes have
    # closed forms
    for family, (text, names, weights) in _survey_module().FAMILIES.items():
        vs = VariableSet.weighted(names, weights)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            f = parse_poly(text, vs, p)
            assert set(f.terms.values()) == {1} and len(f.terms) == vs.n
            assert all(sum(1 for e in m if e) == 1 for m in f.terms)
            # one pure power per variable: its exponent is its column's sum
            exponents = [sum(column) for column in zip(*f.terms)]
            report = fedder_report(HypersurfaceRing(p, vs, f))
            assert (report.status, report.residue_terms, report.delta1_terms,
                    report.witness) == diagonal_fedder(exponents, p, vs.names), (family, p)
