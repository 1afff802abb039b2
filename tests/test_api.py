"""The public surface of the fanocheck namespace, pinned name by name.

Adding or removing an export changes one line here, so every change to the
public API shows up in review.
"""

import types

import fanocheck

PUBLIC_NAMES = [
    "AlgebraError",
    "AmbientFactor",
    "AmbientSpace",
    "CorpusFormatError",
    "DimensionMismatchError",
    "DivClass",
    "ExponentOverflowError",
    "FedderReport",
    "GroebnerBasis",
    "HypersurfaceRing",
    "HypersurfaceVariety",
    "IntersectionRing",
    "LatticeClass",
    "NonHomogeneousError",
    "NonP1FactorError",
    "ParseError",
    "PicLattice",
    "PointConfig",
    "PolyIdeal",
    "Polynomial",
    "Prime",
    "ProductBase",
    "Report",
    "SingularStratum",
    "SmoothnessStatus",
    "SplitBundleSpec",
    "SplitStatus",
    "SplitVerdict",
    "UnsupportedStratumError",
    "VariableSet",
    "ZeroPolynomialError",
    "ambient_singular_strata",
    "buchberger",
    "canonical_class",
    "chern_top_degree",
    "cone_smoothness",
    "count_compatible_exceptionals",
    "delta1",
    "delta1_probe",
    "enumerate_classes",
    "fano_lines",
    "fedder_fsplit",
    "fedder_report",
    "fedder_residue",
    "ideal_quotient",
    "intersect",
    "langer_neg2_classes",
    "load_corpus",
    "localized_is_unit",
    "normal_form",
    "omega_twist_factors",
    "parse_ambient",
    "parse_poly",
    "pgl_orbit_canonical",
    "pow_mod_frobenius",
    "run_corpus",
    "section_class",
    "smoothness_verdict",
    "weighted_degree",
]


def test_public_names():
    public = sorted(name for name in dir(fanocheck)
                    if not name.startswith("_")
                    and not isinstance(getattr(fanocheck, name), types.ModuleType))
    assert public == PUBLIC_NAMES
