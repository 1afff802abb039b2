"""Exact verification toolkit: Frobenius splitting verdicts, Witt carries,
Groebner smoothness certificates, integer intersection numbers and del Pezzo
lattice counts."""

from .poly import (
    AlgebraError,
    ExponentOverflowError,
    NonHomogeneousError,
    ParseError,
    Polynomial,
    Prime,
    VariableSet,
    ZeroPolynomialError,
    delta1,
    parse_poly,
    pow_mod_frobenius,
    weighted_degree,
)
from .ideals import (
    PolyIdeal,
    localized_is_unit,
    normal_form,
)
from .splitting import (
    FedderReport,
    HypersurfaceRing,
    SplitStatus,
    SplitVerdict,
    delta1_probe,
    fedder_fsplit,
    fedder_report,
    fedder_residue,
)
from .geometry import (
    AmbientFactor,
    AmbientSpace,
    HypersurfaceVariety,
    SmoothnessStatus,
    UnsupportedStratumError,
    ambient_singular_strata,
    cone_smoothness,
    parse_ambient,
    smoothness_verdict,
)
from .chow import (
    DimensionMismatchError,
    DivClass,
    IntersectionRing,
    NonP1FactorError,
    ProductBase,
    SplitBundleSpec,
    canonical_class,
    intersect,
    omega_twist_factors,
    section_class,
)
from .delpezzo import (
    LatticeClass,
    PicLattice,
    PointConfig,
    enumerate_classes,
    fano_lines,
    langer_neg2_classes,
    pgl_orbit_canonical,
)
from .corpus import Report, CorpusFormatError, load_corpus, run_corpus

__version__ = "0.1.0"
