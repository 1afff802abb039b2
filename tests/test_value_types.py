"""The immutable value types, pinned by behaviour.

Every small record the package hands around (a prime, a variable set, a
lattice class, a corpus row, ...) compares and hashes by its fields,
prints as ``Name(field=value, ...)``, refuses assignment and deletion with
AttributeError, and checks its arguments when it is built.  One case per
type pins all of that: an instance, an equal twin built another way, an
unequal one, the exact repr, and every message its constructor raises.
"""

import copy
import pickle

import pytest

from fanocheck.chow import DivClass, ProductBase, SplitBundleSpec
from fanocheck.corpus import CheckResult, CheckRow, CorpusCheck, CorpusEntry, Report
from fanocheck.delpezzo import LatticeClass, PicLattice, PointConfig
from fanocheck.geometry import AmbientFactor, AmbientSpace, ConeResult
from fanocheck.poly import Prime, VariableSet
from fanocheck.splitting import FedderReport, SplitStatus, SplitVerdict

_AMBIENT = AmbientSpace([AmbientFactor(("x", "y"), (1, 1))])
_ROW = CheckRow("e", "fsplit", "FSplit", "FSplit", True)


def _entry(polynomial, checks=()):
    return CorpusEntry("e", 2, _AMBIENT, polynomial, checks, "ref")


# (name, make, twin, other, repr text, [(constructor args, error message)])
CASES = [
    ("Prime", lambda: Prime(7), lambda: Prime(p=7), lambda: Prime(5), "Prime(p=7)",
     [((1,), "characteristic must be an integer in 2..97, got 1"),
      ((101,), "characteristic must be an integer in 2..97, got 101"),
      ((7.0,), "characteristic must be an integer in 2..97, got 7.0"),
      ((9,), "9 is not prime")]),
    ("VariableSet",
     lambda: VariableSet(("x", "y"), ((1,), (2,))),
     lambda: VariableSet.weighted("x,y", [1, 2]),
     lambda: VariableSet(("x", "y"), ((1,), (1,))),
     "VariableSet(names=('x', 'y'), weights=((1,), (2,)))",
     [(((), ()), "need at least one variable"),
      ((("x", "x"), ((1,), (1,))), "duplicate variable names in ('x', 'x')"),
      ((("x", "y"), ((1,),)), "one weight vector per variable required"),
      ((("x", "2y"), ((1,), (1,))), "variable name '2y' is not an identifier"),
      ((("x", "y"), ((1,), (1, 1))), "weight vectors must share one length"),
      ((("x", "y"), ((1,), (0,))),
       "variable y needs a nonnegative weight vector with some positive component"),
      ((("x", "y"), ((1,), (-1,))),
       "variable y needs a nonnegative weight vector with some positive component")]),
    ("ProductBase", lambda: ProductBase((1, 2)), lambda: ProductBase(dims=(1, 2)),
     lambda: ProductBase((2, 1)), "ProductBase(dims=(1, 2))",
     [(((),), "factor dimensions must be positive"),
      (((1, 0),), "factor dimensions must be positive")]),
    ("SplitBundleSpec",
     lambda: SplitBundleSpec(ProductBase((1,)), ((0,), (1,))),
     lambda: SplitBundleSpec(base=ProductBase((1,)), twists=((0,), (1,))),
     lambda: SplitBundleSpec(ProductBase((1,)), ((0,), (2,))),
     "SplitBundleSpec(base=ProductBase(dims=(1,)), twists=((0,), (1,)))",
     [((ProductBase((1,)), ((0,),)), "need at least two summands to projectivize"),
      ((ProductBase((1,)), ((0,), (1, 1))),
       "each twist needs one entry per base factor")]),
    ("DivClass", lambda: DivClass((1, -2), 3), lambda: DivClass([1, -2], xi=3),
     lambda: DivClass((1, -2)), "DivClass(h=(1, -2), xi=3)", []),
    ("LatticeClass", lambda: LatticeClass(3, (1, 1, 0)),
     lambda: LatticeClass(d=3, m=[1, 1, 0]), lambda: LatticeClass(3, (1, 0, 1)),
     "LatticeClass(d=3, m=(1, 1, 0))", []),
    ("PicLattice", lambda: PicLattice(7), lambda: PicLattice(r=7), lambda: PicLattice(6),
     "PicLattice(r=7)",
     [((0,), "rank parameter r must be in 1..8"),
      ((9,), "rank parameter r must be in 1..8")]),
    ("PointConfig", lambda: PointConfig(2, ((0, 0, 1), (0, 1, 0))),
     lambda: PointConfig.from_points(2, [(0, 1, 0), (0, 0, 1)]),
     lambda: PointConfig(3, ((0, 0, 1), (0, 1, 0))),
     "PointConfig(q=2, points=((0, 0, 1), (0, 1, 0)))", []),
    ("AmbientFactor", lambda: AmbientFactor(("x", "y"), (1, 2)),
     lambda: AmbientFactor(names=("x", "y"), weights=(1, 2)),
     lambda: AmbientFactor(("x", "y"), (2, 1)),
     "AmbientFactor(names=('x', 'y'), weights=(1, 2))",
     [(((), ()), "factor needs matching nonempty names and weights"),
      ((("x",), (1, 1)), "factor needs matching nonempty names and weights"),
      ((("x",), (0,)), "weights must be positive"),
      ((("x y",), (1,)), "variable name 'x y' is not an identifier")]),
    ("ConeResult", lambda: ConeResult(False, "x*y"),
     lambda: ConeResult(smooth_away_from_irrelevant=False, witness_chart="x*y"),
     lambda: ConeResult(True),
     "ConeResult(smooth_away_from_irrelevant=False, witness_chart='x*y')", []),
    ("SplitVerdict", lambda: SplitVerdict(SplitStatus.FSPLIT, (1, 0)),
     lambda: SplitVerdict(status=SplitStatus.FSPLIT, witness=(1, 0)),
     lambda: SplitVerdict(SplitStatus.NOT_FSPLIT),
     "SplitVerdict(status=<SplitStatus.FSPLIT: 'FSplit'>, witness=(1, 0))", []),
    ("FedderReport", lambda: FedderReport("FSplit", "x0", 1, 2, (6,), 0.5),
     lambda: FedderReport(status="FSplit", witness="x0", residue_terms=1,
                          delta1_terms=2, delta1_degree=(6,), elapsed_ms=0.5),
     lambda: FedderReport("FSplit", "x0", 1, 2, (6,), 0.25),
     "FedderReport(status='FSplit', witness='x0', residue_terms=1, delta1_terms=2, "
     "delta1_degree=(6,), elapsed_ms=0.5)", []),
    ("CorpusEntry", lambda: _entry("x"), lambda: _entry("x"), lambda: _entry("y"),
     f"CorpusEntry(name='e', prime=2, ambient={_AMBIENT!r}, polynomial='x', "
     "checks=(), paper_ref='ref')", []),
    ("CheckResult", lambda: CheckResult("Smooth", "e"),
     lambda: CheckResult(verdict="Smooth", evidence="e", read=str.lower),
     lambda: CheckResult("Smooth"), "CheckResult(verdict='Smooth', evidence='e')", []),
    ("CheckRow", lambda: CheckRow("e", "smooth", "Smooth", "Smooth", True),
     lambda: CheckRow(entry="e", kind="smooth", expected="Smooth", actual="Smooth",
                      passed=True),
     lambda: CheckRow("e", "smooth", "Smooth", "Singular", False),
     "CheckRow(entry='e', kind='smooth', expected='Smooth', actual='Smooth', "
     "passed=True)", []),
    ("Report", lambda: Report((_ROW,)), lambda: Report(rows=(_ROW,)), lambda: Report(()),
     "Report(rows=(CheckRow(entry='e', kind='fsplit', expected='FSplit', "
     "actual='FSplit', passed=True),))", []),
]


@pytest.mark.parametrize("name,make,twin,other,text,errors", CASES,
                         ids=[case[0] for case in CASES])
def test_value_type(name, make, twin, other, text, errors):
    a, b, c = make(), twin(), other()
    assert type(a).__name__ == name
    assert a == b and not a != b
    assert a != c and not a == c
    assert a != object() and a != text
    assert hash(a) == hash(b)
    assert repr(a) == text
    field = text[len(name) + 1:].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(c, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b
    cls = type(a)
    for args, message in errors:
        with pytest.raises(ValueError) as exc:
            cls(*args)
        assert str(exc.value) == message


def test_corpus_check_and_an_entry_holding_one_are_unhashable():
    check = CorpusCheck("chow", "6", {"base": (1, 1)})
    assert check == CorpusCheck(kind="chow", expect="6", params={"base": (1, 1)})
    assert check != CorpusCheck("chow", "6")
    assert repr(check) == "CorpusCheck(kind='chow', expect='6', params={'base': (1, 1)})"
    with pytest.raises(TypeError):
        hash(check)
    entry = _entry("x", (check,))
    assert entry == _entry("x", (CorpusCheck("chow", "6", {"base": (1, 1)}),))
    assert repr(entry) == (f"CorpusEntry(name='e', prime=2, ambient={_AMBIENT!r}, "
                           f"polynomial='x', checks=({check!r},), paper_ref='ref')")
    with pytest.raises(TypeError):
        hash(entry)
    with pytest.raises(AttributeError):
        check.kind = "smooth"
    # each check gets its own params dict
    assert CorpusCheck("fsplit", "FSplit").params == {}
    assert CorpusCheck("fsplit", "FSplit").params is not CorpusCheck("fsplit", "x").params


def test_check_result_read_defaults_to_str_and_is_kept():
    assert CheckResult("1").read is str
    read = int
    result = CheckResult("01", read=read)
    assert result.read is read
    assert result.matches("1") and not result.matches("2")
    assert result == CheckResult("01") and hash(result) == hash(CheckResult("01"))


@pytest.mark.parametrize("name,make", [case[:2] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_value_type_copies_and_pickles(name, make):
    a = make()
    assert copy.copy(a) == a
    for b in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is type(a)
        if name == "CorpusEntry":  # its ambient space compares by identity
            b = CorpusEntry(b.name, b.prime, a.ambient, b.polynomial, b.checks,
                            b.paper_ref)
        assert b == a
