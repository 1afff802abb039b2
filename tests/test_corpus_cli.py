import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fanocheck import corpus, delpezzo
from fanocheck.cli import build_parser, main
from fanocheck.corpus import (
    CheckRow,
    CorpusFormatError,
    Report,
    langer_summary,
    load_corpus,
    load_corpus_file,
    run_corpus,
)
from fanocheck.poly import delta1, parse_poly
from fanocheck.splitting import HypersurfaceRing, delta1_probe
from helpers import pgl3_elements

SHIPPED = Path(__file__).resolve().parent.parent / "corpus" / "paper_examples.json"


def entry(name="probe", prime=2, weights=(1, 1), variables=("t0", "t1"),
          polynomial="t0", checks=None, paper_ref="synthetic test entry"):
    return {
        "name": name,
        "prime": prime,
        "ambient": {"factors": [{"weights": list(weights),
                                 "vars": list(variables)}]},
        "polynomial": polynomial,
        "checks": checks or [{"kind": "fsplit", "expect": "FSplit"}],
        "paper_ref": paper_ref,
    }


def write_corpus(tmp_path, entries, name="corpus.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"entries": entries}))
    return path


class TestLoadCorpus:
    def test_minimal_document(self):
        entries = load_corpus({"entries": [entry()]})
        assert len(entries) == 1
        assert entries[0].name == "probe"
        assert entries[0].checks[0].kind == "fsplit"

    def test_empty_entry_list_is_fine(self):
        assert load_corpus({"entries": []}) == []

    def test_missing_key_names_entry_and_field(self):
        doc = {"entries": [entry()]}
        del doc["entries"][0]["polynomial"]
        with pytest.raises(CorpusFormatError) as exc:
            load_corpus(doc)
        assert exc.value.entry == "probe"
        assert exc.value.field_name == "polynomial"

    def test_duplicate_names(self):
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_corpus({"entries": [entry(), entry()]})

    def test_unknown_check_kind(self):
        doc = {"entries": [entry(checks=[{"kind": "bogus", "expect": "x"}])]}
        with pytest.raises(CorpusFormatError, match="bogus"):
            load_corpus(doc)

    def test_checks_must_be_nonempty(self):
        doc = {"entries": [entry()]}
        doc["entries"][0]["checks"] = []
        with pytest.raises(CorpusFormatError, match="at least one check"):
            load_corpus(doc)

    def test_boolean_prime_rejected(self):
        doc = {"entries": [entry(prime=True)]}
        with pytest.raises(CorpusFormatError, match="prime"):
            load_corpus(doc)

    def test_boolean_weight_rejected(self):
        doc = {"entries": [entry(weights=(1, True))]}
        with pytest.raises(CorpusFormatError, match="factors"):
            load_corpus(doc)

    @pytest.mark.parametrize("variables", [("t0", ""), ("t0", "t 1"), ("t0", " t1"),
                                           ("t0", "1"), ("t0", "t-1")],
                             ids=["empty", "space", "padded", "digit", "minus"])
    def test_unreferencable_var_rejected(self, tmp_path, capsys, variables):
        doc = {"entries": [entry(variables=variables)]}
        with pytest.raises(CorpusFormatError, match="not an identifier"):
            load_corpus(doc)
        path = tmp_path / "bad_vars.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_factor_shape_mismatch(self):
        doc = {"entries": [entry(weights=(1, 1, 1))]}
        with pytest.raises(CorpusFormatError, match="factor"):
            load_corpus(doc)

    def test_params_must_be_object(self):
        doc = {"entries": [entry(checks=[{"kind": "fsplit", "expect": "FSplit",
                                          "params": [1]}])]}
        with pytest.raises(CorpusFormatError, match="params"):
            load_corpus(doc)

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(CorpusFormatError, match="not valid JSON"):
            load_corpus_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="cannot read"):
            load_corpus_file(tmp_path / "absent.json")

    def test_bad_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"entries": [], "note": "\xe9"}')
        with pytest.raises(CorpusFormatError, match="cannot be decoded"):
            load_corpus_file(path)


def write_long_prime_corpus(tmp_path, digits=5000):
    """A corpus whose prime is an integer literal past the interpreter's
    default int/str digit limit (4300)."""
    text = json.dumps({"entries": [entry(prime=7)]})
    path = tmp_path / "long_prime.json"
    path.write_text(text.replace('"prime": 7', '"prime": ' + "1" * digits))
    return path


class TestRunCorpus:
    def test_shipped_corpus_all_pass(self):
        report = run_corpus(SHIPPED)
        assert report.all_passed
        assert report.total == 32

    def test_failing_expectation_is_reported(self, tmp_path):
        path = write_corpus(tmp_path, [
            entry(checks=[{"kind": "fsplit", "expect": "NotFSplit"}]),
        ])
        report = run_corpus(path)
        assert report.failed == 1 and report.total == 1
        row = report.rows[0]
        assert row.expected == "NotFSplit" and row.actual == "FSplit"
        assert not row.passed

    def test_crashing_check_becomes_failing_row(self, tmp_path):
        path = write_corpus(tmp_path, [
            entry(name="bad", weights=(2, 2), polynomial="t0 + t1",
                  checks=[{"kind": "smooth", "expect": "Smooth"}]),
            entry(name="good"),
        ])
        report = run_corpus(path)
        assert report.total == 2
        bad, good = report.rows
        assert not bad.passed and bad.actual.startswith("error:")
        assert good.passed

    def test_delta1_compared_as_polynomials(self, tmp_path):
        path = write_corpus(tmp_path, [
            entry(polynomial="t0 + t1",
                  checks=[{"kind": "delta1", "expect": "t1 * t0"}]),
        ])
        assert run_corpus(path).all_passed

    def test_shipped_delta1_verdicts_read_back_as_the_kernel_polynomial(self):
        # a verdict equal to its expectation passes unread; this holds only
        # if every verdict text reads back as the polynomial it prints
        checked = 0
        for e in load_corpus_file(SHIPPED):
            vs = e.ambient.variable_set
            f = parse_poly(e.polynomial, vs, e.prime)
            for check in e.checks:
                if check.kind != "delta1":
                    continue
                probe = check.params.get("probe")
                kernel = (delta1(f) if probe is None else
                          delta1_probe(HypersurfaceRing(e.prime, vs, f), *probe))
                result = corpus.delta1(e.prime, vs, e.polynomial, **check.params)
                assert parse_poly(result.verdict, vs, e.prime) == kernel, e.name
                assert result.matches(check.expect)
                checked += 1
        assert checked == 4

    def test_jobs_do_not_change_the_bytes(self):
        sequential = run_corpus(SHIPPED, jobs=1)
        threaded = run_corpus(SHIPPED, jobs=4)
        assert sequential.to_json() == threaded.to_json()
        assert sequential.to_text() == threaded.to_text()

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            run_corpus(SHIPPED, jobs=0)

    def test_text_format(self, tmp_path):
        path = write_corpus(tmp_path, [entry()])
        text = run_corpus(path).to_text()
        lines = text.splitlines()
        assert lines[0] == "PASS probe [fsplit] expected='FSplit' actual='FSplit'"
        assert lines[-1] == "checks passed: 1/1"

    # JSON true is an int in Python; as an integer param it must not run as 1
    @pytest.mark.parametrize("check", [
        {"kind": "delta1", "expect": "0", "params": {"probe": [True, 1, 1]}},
        {"kind": "chow", "expect": "1", "params": {"base": [True], "expr": "h1"}},
        {"kind": "chow", "expect": "1",
         "params": {"base": [1], "bundle": [[0], [True]], "expr": "xi"}},
        {"kind": "lattice", "expect": "168", "params": {"query": "pgl_order", "q": True}},
        {"kind": "lattice", "expect": "1",
         "params": {"query": "full_plane_orbit", "q": True}},
    ], ids=["delta1.probe", "chow.base", "chow.bundle", "lattice.pgl_order.q",
            "lattice.full_plane_orbit.q"])
    def test_boolean_integer_params_rejected(self, tmp_path, capsys, check):
        path = write_corpus(tmp_path, [entry(polynomial="t0 + t1", checks=[check])])
        with pytest.raises(CorpusFormatError, match="params"):
            run_corpus(path)
        assert main(["verify", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    # a string "false" is truthy: it must not run the canonical-class check
    @pytest.mark.parametrize("canonical", ["false", "true", 1, 0, [], None],
                             ids=["str.false", "str.true", "int.1", "int.0",
                                  "list", "null"])
    def test_non_boolean_canonical_rejected(self, tmp_path, capsys, canonical):
        params = {"base": [1], "canonical": canonical}
        if canonical is None:
            params["expr"] = "h1"
        check = {"kind": "chow", "expect": "-2*h1", "params": params}
        path = write_corpus(tmp_path, [entry(polynomial="t0 + t1", checks=[check])])
        if canonical is None:
            # null reads as absent, like the other optional chow params
            assert run_corpus(path).rows[0].actual == "h1"
            return
        with pytest.raises(CorpusFormatError, match="params"):
            run_corpus(path)
        assert main(["verify", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_boolean_canonical_accepted(self, tmp_path):
        path = write_corpus(tmp_path, [entry(checks=[
            {"kind": "chow", "expect": "-2*h1",
             "params": {"base": [1], "canonical": True}},
            {"kind": "chow", "expect": "h1",
             "params": {"base": [1], "canonical": False, "expr": "h1"}},
        ])])
        assert run_corpus(path).all_passed

    def test_pgl_order_rows(self, tmp_path, monkeypatch):
        real = delpezzo.plane_points

        def small_planes_only(q):
            if q > 8:
                raise AssertionError(f"built the plane over F_{q}")
            return real(q)

        monkeypatch.setattr(delpezzo, "plane_points", small_planes_only)
        qs = (2, 3, 4, 6, 9)
        orbit_qs = (2, 6, 9, 125, 1000003)
        path = write_corpus(tmp_path, [entry(checks=[
            *({"kind": "lattice", "expect": "?", "params": {"query": "pgl_order", "q": q}}
              for q in qs),
            *({"kind": "lattice", "expect": "?",
               "params": {"query": "full_plane_orbit", "q": q}} for q in orbit_qs)])])
        actual = [row.actual for row in run_corpus(path).rows]
        # the closed form against the enumerated group; error rows as the
        # enumeration gave them
        assert actual[:3] == [str(len(pgl3_elements(q))) for q in (2, 3, 4)]
        assert actual[3:5] == ["error: 6 is not a prime power",
                               "error: PGL enumeration supports q <= 8, got 9"]
        # the whole plane is rigid; q past the PGL bound fails before the
        # plane (and GF(q)'s q x q tables) is built
        assert actual[5:] == ["1", "error: 6 is not a prime power",
                              *(f"error: PGL enumeration supports q <= 8, got {q}"
                                for q in orbit_qs[2:])]

    def test_error_row_without_message_names_the_exception(self, tmp_path, monkeypatch):
        def out_of_memory(*args):
            raise MemoryError()

        monkeypatch.setattr(corpus, "fsplit", out_of_memory)
        row, = run_corpus(write_corpus(tmp_path, [entry()])).rows
        assert (row.actual, row.passed) == ("error: MemoryError", False)

    def test_bad_params_in_the_last_entry_fail_before_any_check(
            self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(corpus, "fsplit", lambda *args: calls.append(args))
        bad = {"kind": "chow", "expect": "1", "params": {"base": [1], "expr": 1}}
        doc = {"entries": [entry(name="first"), entry(name="last", checks=[bad])]}
        with pytest.raises(CorpusFormatError, match="needs expr") as exc:
            load_corpus(doc)
        assert (exc.value.entry, exc.value.field_name) == ("last", "params")
        with pytest.raises(CorpusFormatError, match="needs expr"):
            run_corpus(write_corpus(tmp_path, doc["entries"]))
        assert calls == []
        # the patched kind is the one the first entry runs
        run_corpus(write_corpus(tmp_path, doc["entries"][:1]))
        assert len(calls) == 1

    def test_langer_summary_text(self):
        assert langer_summary() == ("(-1)-classes: 56; compatible: 7; "
                                    "(-2)-classes: 7; disjoint: yes")


# report fields are arbitrary text: any code point, lone surrogates included,
# and the characters JSON escapes
_TEXT = st.text(st.one_of(st.characters(exclude_categories=()),
                          st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\ud800\udfff')))
_ROWS = st.lists(st.builds(CheckRow, _TEXT, _TEXT, _TEXT, _TEXT, st.booleans()),
                 max_size=4)


@settings(max_examples=300, deadline=None)
@given(_ROWS)
@example([])
def test_report_json_is_json_dumps(rows):
    report = Report(tuple(rows))
    doc = {"rows": [{"entry": r.entry, "kind": r.kind, "expected": r.expected,
                     "actual": r.actual, "passed": r.passed} for r in rows],
           "summary": {"total": report.total, "passed": report.passed,
                       "failed": report.failed}}
    assert report.to_json() == json.dumps(doc, indent=2, sort_keys=True)


def cli_argv(raw: dict, check: dict):
    """The fanocheck argv that runs a corpus check, or None if no flags can."""
    kind, params = check["kind"], check.get("params", {})
    factors = raw["ambient"]["factors"]
    prime = ["-p", str(raw["prime"])]
    if kind in ("fsplit", "delta1"):
        if len(factors) != 1:
            return None
        spec = ",".join(f"{v}:{w}" for v, w in zip(factors[0]["vars"],
                                                    factors[0]["weights"]))
        argv = [kind, *prime, "--vars", spec, "--poly", raw["polynomial"]]
        if "probe" in params:
            argv += ["--probe", ",".join(map(str, params["probe"]))]
        return argv
    if kind == "smooth":
        ambient = " x ".join("P(" + ",".join(map(str, f["weights"])) + ")"
                             for f in factors)
        names = ",".join(v for f in factors for v in f["vars"])
        return ["smooth", *prime, "--ambient", ambient, "--vars", names,
                "--poly", raw["polynomial"]]
    if kind == "chow":
        if "identity" in params:
            return None
        argv = ["chow", "--base", ",".join(map(str, params["base"]))]
        if "bundle" in params:
            argv += ["--bundle", ";".join(",".join(map(str, t))
                                          for t in params["bundle"])]
        return argv + (["--canonical"] if params.get("canonical")
                       else ["--expr", params["expr"]])
    return ["lattice", "exc", "--langer"] if params["query"] == "langer" else None


class TestCli:
    def test_subcommands_print_the_corpus_verdicts(self, capsys):
        raw_checks = [(raw, check)
                      for raw in json.loads(SHIPPED.read_text())["entries"]
                      for check in raw["checks"]]
        rows = run_corpus(SHIPPED).rows
        assert len(rows) == len(raw_checks)
        compared = 0
        for (raw, check), row in zip(raw_checks, rows):
            argv = cli_argv(raw, check)
            if argv is None:
                continue
            assert main(argv) == 0, argv
            assert capsys.readouterr().out.splitlines()[0] == row.actual, argv
            compared += 1
        # 6 fsplit, 4 delta1, 7 smooth, 8 chow and the Langer counts
        assert compared == 26

    def test_fsplit_command(self, capsys):
        rc = main(["fsplit", "-p", "2", "--vars", "x0,x1", "--poly", "x0"])
        assert rc == 0
        assert capsys.readouterr().out == "FSplit\nwitness: x0\n"

    def test_fsplit_not_split(self, capsys):
        rc = main(["fsplit", "-p", "2", "--vars", "x0,x1", "--poly", "x0^2"])
        assert rc == 0
        assert capsys.readouterr().out == "NotFSplit\n"

    def test_fsplit_weighted_vars(self, capsys):
        rc = main(["fsplit", "-p", "5", "--vars", "x0,x1,x2,x3,y:3",
                   "--poly", "x0^6 + x1^6 + x2^6 + x3^6 + y^2"])
        assert rc == 0
        assert capsys.readouterr().out == "NotFSplit\n"

    def test_fsplit_rejects_inhomogeneous(self, capsys):
        rc = main(["fsplit", "-p", "2", "--vars", "x0,x1", "--poly", "x0 + x0^2"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_delta1_command(self, capsys):
        rc = main(["delta1", "-p", "2", "--vars", "x,y", "--poly", "x + y"])
        assert rc == 0
        assert capsys.readouterr().out == "x*y\n"

    def test_delta1_probe(self, capsys):
        rc = main(["delta1", "-p", "2", "--vars", "x,y", "--poly", "x + y",
                   "--probe", "0,1,2"])
        assert rc == 0
        assert capsys.readouterr().out == "x*y\n"

    @pytest.mark.parametrize("probe", ["0,1", "0,1,2,9"])
    def test_delta1_probe_needs_three_integers(self, probe, capsys):
        rc = main(["delta1", "-p", "2", "--vars", "x,y", "--poly", "x + y",
                   "--probe", probe])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "need a,b,s" in captured.err

    def test_smooth_command(self, capsys):
        rc = main(["smooth", "-p", "11", "--ambient", "P(1,1,1,1,3)",
                   "--vars", "x0,x1,x2,x3,y",
                   "--poly", "x0^6 + x1^6 + x2^6 + x3^6 + y^2"])
        assert rc == 0
        assert capsys.readouterr().out == "Smooth\n"

    def test_smooth_singular(self, capsys):
        rc = main(["smooth", "-p", "5", "--ambient", "P(1,1,1)",
                   "--poly", "x0^2"])
        assert rc == 0
        assert capsys.readouterr().out == "Singular\n"

    @pytest.mark.parametrize("names", ["a,b,c,", "a,b,c,d e", "a,b,c,1", "a,b,c,d$"],
                             ids=["trailing-comma", "space", "digit", "dollar"])
    def test_smooth_unreferencable_var_rejected(self, capsys, names):
        rc = main(["smooth", "-p", "5", "--ambient", "P(1,1) x P(1,1)",
                   "--vars", names, "--poly", "a*c"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: variable name")

    @pytest.mark.parametrize("names", ["x0,x 1,2", "x0,x1,2", "x0,x1-y"],
                             ids=["space", "digit", "minus"])
    def test_fsplit_unreferencable_var_rejected(self, capsys, names):
        rc = main(["fsplit", "-p", "5", "--vars", names, "--poly", "x0"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: variable name")

    @pytest.mark.parametrize("spaced,plain", [
        (["fsplit", "-p", "2", "--vars", " x0 , y :3 ", "--poly", "x0^3 + y"],
         ["fsplit", "-p", "2", "--vars", "x0,y:3", "--poly", "x0^3 + y"]),
        (["fsplit", "-p", "2", "--vars", "x0 , x0 ", "--poly", "x0"],
         ["fsplit", "-p", "2", "--vars", "x0,x0", "--poly", "x0"]),
        (["smooth", "-p", "5", "--ambient", "P(1,1) x P(1,1)",
          "--vars", " a , b,c , d ", "--poly", "a*c + b*d"],
         ["smooth", "-p", "5", "--ambient", "P(1,1) x P(1,1)",
          "--vars", "a,b,c,d", "--poly", "a*c + b*d"]),
        (["smooth", "-p", "5", "--ambient", "P(1,1)", "--vars", " a , a ",
          "--poly", "a"],
         ["smooth", "-p", "5", "--ambient", "P(1,1)", "--vars", "a,a", "--poly", "a"]),
    ], ids=["fsplit", "fsplit-duplicate", "smooth", "smooth-duplicate"])
    def test_spaces_around_variable_names_change_nothing(self, spaced, plain, capsys):
        outcomes = []
        for argv in (spaced, plain):
            rc = main(argv)
            captured = capsys.readouterr()
            outcomes.append((rc, captured.out, captured.err))
        assert outcomes[0] == outcomes[1]

    def test_smooth_exponent_overflow_exit_code(self, capsys):
        # the product criterion multiplies x0^40000*x1 by x0^39999*x1
        rc = main(["smooth", "--ambient", "P(1,1)", "-p", "3",
                   "--poly", "x0^40000*x1 + x0*x1^40000"])
        assert rc == 2
        assert capsys.readouterr().err == "error: exponent cap 65536 exceeded in (79999, 2)\n"

    def test_smooth_positive_dimensional_stratum_exit_code(self, capsys):
        rc = main(["smooth", "-p", "5", "--ambient", "P(1,1,2,2)",
                   "--poly", "x0^4+x1^4+x2^2+x3^2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "positive dimension" in err

    def test_chow_expr(self, capsys):
        rc = main(["chow", "--base", "1,2", "--expr", "deg((2*h1+3*h2)^3)"])
        assert rc == 0
        assert capsys.readouterr().out == "54\n"

    def test_chow_huge_power(self, capsys):
        # a binomial sum over the powers of h1 that do not vanish, not a
        # billion products
        rc = main(["chow", "--base", "1,1", "--expr", "deg((1+h1)^1000000000)"])
        assert rc == 0
        assert capsys.readouterr().out == "0\n"
        rc = main(["chow", "--base", "1", "--expr", "deg((1+h1)^1000000000)"])
        assert rc == 0
        assert capsys.readouterr().out == "1000000000\n"

    def test_chow_prints_integers_past_the_str_digit_limit(self, capsys):
        # 20000 * 3^19999 has 9547 digits, past Python's default cap of 4300
        # on int-to-str conversion, which the CLI leaves as it found it
        limit = sys.get_int_max_str_digits()
        rc = main(["chow", "--base", "1", "--expr", "deg((3+h1)^20000)"])
        assert (rc, sys.get_int_max_str_digits()) == (0, limit)
        degree = capsys.readouterr().out
        rc = main(["chow", "--base", "1", "--expr", "(3+h1)^20000"])
        assert (rc, sys.get_int_max_str_digits()) == (0, limit)
        element = capsys.readouterr().out
        sys.set_int_max_str_digits(0)
        try:
            assert degree == f"{20000 * 3**19999}\n"
            assert element == f"{20000 * 3**19999}*h1 + {3**20000}\n"
        finally:
            sys.set_int_max_str_digits(limit)

    def _run_keeping_the_digit_limit(self, argv, capsys):
        limit = sys.get_int_max_str_digits()
        rc = main(argv)
        assert sys.get_int_max_str_digits() == limit
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    @pytest.mark.parametrize("ones,p", [(5000, 7), (6000, 7), (5001, 3)])
    def test_fsplit_reads_coefficients_past_the_str_digit_limit(self, ones, p, capsys):
        # the repunit's residue, summed digit by digit
        residue = sum(pow(10, k, p) for k in range(ones)) % p
        poly = "{}*x^3 + y^3 + z^3"
        big = self._run_keeping_the_digit_limit(
            ["fsplit", "-p", str(p), "--vars", "x,y,z", "--poly", poly.format("1" * ones)],
            capsys)
        reduced = self._run_keeping_the_digit_limit(
            ["fsplit", "-p", str(p), "--vars", "x,y,z", "--poly", poly.format(residue)],
            capsys)
        assert big == reduced and big[0] == 0

    def test_chow_reads_integers_past_the_str_digit_limit(self, capsys):
        ones = "1" * 5000
        assert self._run_keeping_the_digit_limit(
            ["chow", "--base", "1", "--expr", ones], capsys) == (0, f"{ones}\n", "")
        assert self._run_keeping_the_digit_limit(
            ["chow", "--base", "1", "--expr", f"{ones}*h1 - 2"], capsys) == \
            (0, f"{ones}*h1 - 2\n", "")
        # h1^2 = 0 on P^1, so any power past 1 is 0
        assert self._run_keeping_the_digit_limit(
            ["chow", "--base", "1", "--expr", "h1^" + "9" * 5000], capsys) == (0, "0\n", "")
        rc, out, err = self._run_keeping_the_digit_limit(
            ["chow", "--base", "1", "--expr", "h" + "9" * 5000], capsys)
        assert (rc, out, err) == (2, "", f"error: unknown symbol 'h{'9' * 5000}' "
                                         "(at position 0)\n")

    def test_exponent_past_the_str_digit_limit_is_a_parse_error(self, capsys):
        digits = "9" * 5000
        rc, out, err = self._run_keeping_the_digit_limit(
            ["fsplit", "-p", "5", "--vars", "x,y", "--poly", f"y + x^{digits}"], capsys)
        assert (rc, out) == (2, "")
        assert err == f"error: exponent {digits} exceeds the cap 65536 (at position 4)\n"

    def test_chow_canonical(self, capsys):
        rc = main(["chow", "--base", "1,1", "--bundle", "0,0;1,0;0,1",
                   "--canonical"])
        assert rc == 0
        assert capsys.readouterr().out == "-3*xi - h1 - h2\n"

    @pytest.mark.parametrize("expr", ["(" * 5000 + "h1" + ")" * 5000,
                                      "-" * 5000 + "h1",
                                      "deg(" * 300 + "h1" + ")" * 300])
    def test_chow_expr_nested_too_deeply(self, expr, capsys):
        rc = main(["chow", "--base", "1,1", f"--expr={expr}"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: expression nested too deeply")

    def test_chow_expr_nesting_below_the_limit(self, capsys):
        # 199 parentheses around h1 make 200 nested factors: the limit itself
        rc = main(["chow", "--base", "1,1", "--expr", "(" * 199 + "h1" + ")" * 199])
        assert rc == 0
        assert capsys.readouterr().out == "h1\n"

    @pytest.mark.parametrize("argv,message", [
        (["fsplit", "-p", "3", "--vars", "x,y", "--poly", "x^\u00b2 + y"],
         "unexpected character '\u00b2' (at position 2)"),
        (["chow", "--base", "1,1", "--expr", "deg(h1^\u00b2)"],
         "unexpected character '\u00b2' (at position 7)"),
        (["chow", "--base", "1,1", "--expr", "deg(h\u00b2)"],
         "unknown symbol 'h\u00b2' (at position 4)"),
    ], ids=["fsplit-exponent", "chow-exponent", "chow-generator"])
    def test_superscript_digit_is_a_parse_error(self, argv, message, capsys):
        rc = main(argv)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_chow_requires_exactly_one_mode(self, capsys):
        assert main(["chow", "--base", "1,1"]) == 2
        capsys.readouterr()
        assert main(["chow", "--base", "1,1", "--expr", "h1",
                     "--canonical"]) == 2

    def test_lattice_counts(self, capsys):
        rc = main(["lattice", "exc", "--points", "7", "--dmax", "3"])
        assert rc == 0
        assert capsys.readouterr().out == "exceptional classes (d <= 3): 56\n"

    def test_lattice_huge_dmax_answers(self, capsys):
        rc = main(["lattice", "exc", "--points", "8", "--dmax", "1000000000"])
        assert rc == 0
        assert capsys.readouterr().out == "exceptional classes (d <= 1000000000): 240\n"

    def test_lattice_langer(self, capsys):
        rc = main(["lattice", "exc", "--langer"])
        assert rc == 0
        assert capsys.readouterr().out == langer_summary() + "\n"

    def test_lattice_bad_rank(self, capsys):
        assert main(["lattice", "exc", "--points", "9"]) == 2

    def test_verify_shipped_corpus(self, capsys):
        rc = main(["verify", str(SHIPPED)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[-1] == "checks passed: 32/32"

    def test_verify_json_format(self, capsys):
        rc = main(["verify", str(SHIPPED), "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"] == {"total": 32, "passed": 32, "failed": 0}

    @pytest.mark.parametrize("fmt,prefix", [
        ("json", "283133dec2313b79"), ("text", "797fb0e6368f43fe")])
    def test_verify_report_bytes_are_pinned(self, fmt, prefix, capsys):
        assert main(["verify", str(SHIPPED), "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == prefix

    def test_default_jobs_leave_the_thread_pool_unimported(self):
        code = ("import contextlib, io, sys\n"
                "from fanocheck.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    code = main(['verify', {str(SHIPPED)!r}])\n"
                "print(code, 'concurrent.futures' in sys.modules)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SHIPPED.parent.parent / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 False\n"

    def test_verify_jobs_identical_output(self, capsys):
        main(["verify", str(SHIPPED), "--jobs", "1"])
        first = capsys.readouterr().out
        main(["verify", str(SHIPPED), "--jobs", "4"])
        second = capsys.readouterr().out
        assert first == second

    def test_verify_long_prime_is_a_corpus_error(self, tmp_path, capsys):
        path = write_long_prime_corpus(tmp_path)
        rc, out, err = self._run_keeping_the_digit_limit(["verify", str(path)], capsys)
        assert (rc, out) == (2, "")
        assert err.startswith("error: corpus cannot be decoded: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_verify_failure_exit_code(self, tmp_path, capsys):
        path = write_corpus(tmp_path, [
            entry(checks=[{"kind": "fsplit", "expect": "NotFSplit"}]),
        ])
        rc = main(["verify", str(path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert out.startswith("FAIL probe")

    def test_verify_schema_error_exit_code(self, tmp_path, capsys):
        doc = {"entries": [entry()]}
        del doc["entries"][0]["prime"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        rc = main(["verify", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "prime" in err and "probe" in err

    def test_verify_missing_file(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "none.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_vars_spec(self, capsys):
        assert main(["fsplit", "-p", "2", "--vars", "x0,x1:zero",
                     "--poly", "x0"]) == 2
        assert main(["fsplit", "-p", "2", "--vars", "x0,,x1",
                     "--poly", "x0"]) == 2


def _exit(parse, argv, capsys):
    """stdout, stderr and exit status of ``parse(argv)``."""
    try:
        code = parse(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return captured.out, captured.err, code


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["bogus"], ["verify"], ["verify", "-h"],
    *[[name, "-h"] for name in ("fsplit", "delta1", "smooth", "chow", "lattice")],
    ["fsplit", "-p", "x"], ["lattice", "foo"],
    ["verify", "x.json", "--format", "xml"], ["--help", "verify"],
    ["verify", "x.json", "--bogus"], ["verify", "a", "b"],
], ids=repr)
def test_help_and_usage_errors_match_the_full_parser(argv, capsys):
    assert _exit(main, argv, capsys) == _exit(build_parser().parse_args, argv, capsys)
