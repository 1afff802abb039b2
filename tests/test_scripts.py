"""Smoke tests for the command-line scripts under ``scripts/``.

Each script runs as a fresh interpreter from the repository root, the way a
user runs it; the scripts put ``src`` on the path themselves.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from fanocheck.poly import VariableSet, delta1, parse_poly
from fanocheck.splitting import HypersurfaceRing, fedder_report
from helpers import diagonal_fedder

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _run(*args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          timeout=120)


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
