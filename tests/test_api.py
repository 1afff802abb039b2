"""The public surface of fanocheck, pinned name by name.

A subprocess test pins the package namespace: it binds no public name,
and importing it loads no other module, so every name has one import
path, its module's.  Another pins what the modules load: all of them
together load neither ``dataclasses`` nor ``inspect`` nor ``typing``.
Two lists pin the rest: per module the public
functions and classes that module defines, and per module the private
names it imports from another.  Adding, removing or moving one changes
one line here, so every change to the public API, every helper moving
into or out of ``src``, and every private helper kept alive for one
other module shows up in review.  And every public name a module
surface pins, and every public method of a pinned class, has a caller
outside the unit tests, and every name a module or a test file imports
is read there.  Every function and class of ``tests/helpers.py`` is read by some test
or helper.
A dunder has no caller by name, so the dunders of the pinned classes are
a list of their own, each with the protocol that calls it.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fanocheck


def test_namespace_loads_no_module_and_binds_no_name():
    code = ("import sys\n"
            "import fanocheck\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'fanocheck'))\n"
            "print(sorted(n for n in dir(fanocheck) if not n.startswith('_')))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(fanocheck.__file__).parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['fanocheck']\n[]\n"


def test_modules_load_without_dataclasses_inspect_or_typing():
    # -S: no site, whose .pth files may load typing themselves
    code = ("import importlib, sys\n"
            f"for name in {sorted(MODULE_SURFACES)!r}:\n"
            "    importlib.import_module('fanocheck.' + name)\n"
            "print(sorted(m for m in ('dataclasses', 'inspect', 'typing')"
            " if m in sys.modules))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(fanocheck.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


MODULE_SURFACES = {
    "chow": [
        "DimensionMismatchError",
        "DivClass",
        "IntersectionRing",
        "NonP1FactorError",
        "ProductBase",
        "SplitBundleSpec",
        "canonical_class",
        "div_class_str",
        "evaluate_expression",
        "intersect",
        "omega_twist_factors",
        "section_class",
    ],
    "cli": [
        "InputError",
        "build_parser",
        "main",
    ],
    "corpus": [
        "CheckResult",
        "CheckRow",
        "CorpusCheck",
        "CorpusEntry",
        "CorpusFormatError",
        "Report",
        "chow",
        "delta1",
        "fsplit",
        "langer_summary",
        "lattice",
        "load_corpus",
        "load_corpus_file",
        "run_corpus",
        "smooth",
    ],
    "delpezzo": [
        "LatticeClass",
        "PicLattice",
        "PointConfig",
        "enumerate_classes",
        "fano_lines",
        "langer_neg2_classes",
        "pgl3_order",
        "pgl_orbit_canonical",
        "plane_points",
    ],
    "geometry": [
        "AmbientFactor",
        "AmbientSpace",
        "ConeResult",
        "HypersurfaceVariety",
        "SmoothnessStatus",
        "UnsupportedStratumError",
        "ambient_singular_strata",
        "cone_smoothness",
        "parse_ambient",
        "smoothness_verdict",
    ],
    "ideals": [
        "PolyIdeal",
        "localized_is_unit",
        "normal_form",
    ],
    "poly": [
        "AlgebraError",
        "ExponentOverflowError",
        "NonHomogeneousError",
        "ParseError",
        "Polynomial",
        "Prime",
        "VariableSet",
        "ZeroPolynomialError",
        "as_prime",
        "delta1",
        "mono_str",
        "parse_poly",
        "pow_mod_frobenius",
        "tokenize",
        "weighted_degree",
    ],
    "smallfields": [
        "GF",
        "UnsupportedFieldSizeError",
    ],
    "splitting": [
        "FedderReport",
        "HypersurfaceRing",
        "SplitStatus",
        "SplitVerdict",
        "delta1_probe",
        "fedder_fsplit",
        "fedder_report",
        "fedder_residue",
    ],
}


def test_every_module_is_pinned():
    modules = sorted(info.name for info in pkgutil.iter_modules(fanocheck.__path__))
    assert modules == sorted(MODULE_SURFACES)


@pytest.mark.parametrize("module", sorted(MODULE_SURFACES))
def test_module_surface(module):
    mod = importlib.import_module(f"fanocheck.{module}")
    # callables defined here, cached functions included; imports are not
    defined = sorted(name for name, value in vars(mod).items()
                     if not name.startswith("_") and callable(value)
                     and getattr(value, "__module__", None) == mod.__name__)
    assert defined == MODULE_SURFACES[module]


# per module, the "from .m import _name" imports it makes, as "m._name"
PRIVATE_IMPORTS = {
    "chow": ["poly._Value", "poly._packing", "poly._read_int"],
    "corpus": ["poly._Value", "poly._set"],
    "delpezzo": ["poly._Value", "poly._set", "smallfields._factor_prime_power"],
    "geometry": ["ideals._chart_is_unit", "ideals._jacobian_certificate",
                 "poly._Value", "poly._is_variable_name", "poly._set"],
    "ideals": ["poly._PackedOrder", "poly._grevlex"],
    "smallfields": ["poly._prime_factors"],
    "splitting": ["poly._Value", "poly._delta1_count", "poly._delta1_probe",
                  "poly._set"],
}


@pytest.mark.parametrize("module", sorted(MODULE_SURFACES))
def test_private_imports(module):
    source = Path(fanocheck.__file__).with_name(f"{module}.py").read_text()
    imported = sorted(f"{node.module}.{alias.name}"
                      for node in ast.walk(ast.parse(source))
                      if isinstance(node, ast.ImportFrom) and node.level == 1
                      for alias in node.names if alias.name.startswith("_"))
    assert imported == PRIVATE_IMPORTS.get(module, [])


def test_no_unused_imports():
    """Every name a module of the package or a file of ``tests/`` imports
    is read in that file; ``from __future__`` is exempt."""
    unused = []
    for path in [*sorted(Path(fanocheck.__file__).parent.glob("*.py")),
                 *sorted(Path(__file__).parent.glob("*.py"))]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unused += [f"{path.stem}.{name}" for name in bound if name not in read]
    assert unused == []


# The places where a public name counts as called: the package's own
# modules, the scripts, the benchmark and the acceptance suite.  A name
# only its unit test calls has no caller.
_ROOT = Path(__file__).resolve().parents[1]
_CALLER_SOURCES = [
    *Path(fanocheck.__file__).parent.glob("*.py"),
    *(_ROOT / "scripts").rglob("*.py"),
    *(_ROOT / "perfbench").rglob("*.py"),
    _ROOT / "tests" / "test_acceptance.py",
]


def test_every_public_name_has_a_caller():
    used = set()
    for path in _CALLER_SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    uncalled = [f"{module}.{name}" for module, names in sorted(MODULE_SURFACES.items())
                for name in names if name not in used]
    assert uncalled == []


def test_every_public_method_has_a_caller():
    """Every public function in the body of a pinned class (method,
    property, classmethod) is read as an attribute in a caller source.

    The match is by name alone: a member shares its name with every other
    object's member of that name, so one read of ``args.canonical`` passes
    ``PicLattice.canonical``.  Review catches those.
    """
    attrs = {node.attr for path in _CALLER_SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute)}
    uncalled = [f"{cls}.{name}" for cls, name in _pinned_methods()
                if not name.startswith("_") and name not in attrs]
    assert uncalled == []


def test_every_helper_is_read():
    """Every top-level function and class of ``tests/helpers.py`` is read
    in ``tests/`` outside its own definition: by a test module or by
    another helper.  Reference code whose last test is retired goes with it."""
    tests = Path(__file__).resolve().parent
    helpers = ast.parse((tests / "helpers.py").read_text(encoding="utf-8"))
    read = set()
    for path in tests.glob("*.py"):
        if path.name != "helpers.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for top in helpers.body:
        read |= {node.id for node in ast.walk(top)
                 if isinstance(node, ast.Name) and node.id != getattr(top, "name", None)}
    unread = [top.name for top in helpers.body
              if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name not in read]
    assert unread == []


def _pinned_methods():
    """(class, function) names for every function in the body of a pinned class."""
    for module, names in sorted(MODULE_SURFACES.items()):
        source = Path(fanocheck.__file__).with_name(f"{module}.py").read_text()
        for cls in ast.parse(source).body:
            if isinstance(cls, ast.ClassDef) and cls.name in names:
                yield from ((cls.name, node.name) for node in cls.body
                            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))


# The dunders a pinned class defines besides ``__init__``, each with the
# protocol that calls it.  Python reaches a dunder through an operator or a
# builtin, never by its name, so the caller test above cannot see one; a
# new one adds a line here for review.
DUNDERS = {
    "Polynomial.__setattr__": "attribute assignment, refused: a Polynomial is immutable",
    "Polynomial.__eq__": "f == g (tests/test_acceptance.py)",
    "Polynomial.__hash__": "hash(f), kept consistent with __eq__ for dict and set keys",
    "Polynomial.__add__": "f + g (tests/test_acceptance.py)",
    "Polynomial.__sub__": "f - g (tests/test_acceptance.py)",
    "Polynomial.__neg__": "-f, in __sub__",
    "Polynomial.__mul__": "f * g (tests/test_acceptance.py) and f * c for an integer c",
    "Polynomial.__pow__": "f ** e (tests/test_acceptance.py)",
    "Polynomial.__str__": "str(f), the carry printed by corpus.delta1",
    "Polynomial.__repr__": "repr(f), in assertion messages",
}


def test_every_dunder_is_listed():
    defined = [f"{cls}.{name}" for cls, name in _pinned_methods()
               if name.startswith("__") and name.endswith("__") and name != "__init__"]
    assert sorted(defined) == sorted(DUNDERS)
