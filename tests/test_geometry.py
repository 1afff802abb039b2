import random

import pytest

from fanocheck.geometry import (
    AmbientFactor,
    AmbientSpace,
    ConeResult,
    HypersurfaceVariety,
    SingularStratum,
    SmoothnessStatus,
    UnsupportedStratumError,
    ambient_singular_strata,
    cone_smoothness,
    jacobian_ideal,
    parse_ambient,
    smoothness_verdict,
)
from fanocheck.poly import ParseError, Polynomial, VariableSet, parse_poly
from helpers import random_homogeneous


def variety(ambient_text, poly_text, p, names=None):
    space = parse_ambient(ambient_text, names=names)
    f = parse_poly(poly_text, space.variable_set, p)
    return HypersurfaceVariety(p, space, f)


class TestParseAmbient:
    def test_single_factor_default_names(self):
        space = parse_ambient("P(1,1,1,1,3)")
        assert space.nfactors == 1
        assert space.factors[0].names == ("x0", "x1", "x2", "x3", "x4")
        assert space.factors[0].weights == (1, 1, 1, 1, 3)

    def test_product_default_names(self):
        space = parse_ambient("P(1,1,1) x P(1,1,1)")
        assert [f.names for f in space.factors] == [
            ("x0", "x1", "x2"), ("y0", "y1", "y2")]

    def test_star_and_capital_separators(self):
        for sep in ("x", "X", "*"):
            space = parse_ambient(f"P(1,1) {sep} P(1,1,1)")
            assert [len(f.names) for f in space.factors] == [2, 3]

    def test_custom_names(self):
        space = parse_ambient("P(1,1,1,1,3)", names=["x0", "x1", "x2", "x3", "y"])
        assert space.factors[0].names == ("x0", "x1", "x2", "x3", "y")
        assert space.variable_set.weights[-1] == (3,)

    def test_grading_components(self):
        space = parse_ambient("P(1,1) x P(1,1,1)")
        vs = space.variable_set
        assert vs.weights[0] == (1, 0)
        assert vs.weights[2] == (0, 1)

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_ambient("Q(1,1)")
        with pytest.raises(ParseError):
            parse_ambient("P(1,1")
        with pytest.raises(ParseError):
            parse_ambient("P(1,a)")
        with pytest.raises(ParseError):
            parse_ambient("P(0,1)")
        with pytest.raises(ParseError):
            parse_ambient("")
        with pytest.raises(ParseError):
            parse_ambient("P(1,1) P(1,1)")
        with pytest.raises(ValueError):
            parse_ambient("P(1,1)", names=["a"])

    def test_chart_tuples(self):
        space = parse_ambient("P(1,1) x P(1,1)")
        charts = list(space.chart_tuples())
        assert charts == [("x0", "y0"), ("x0", "y1"), ("x1", "y0"), ("x1", "y1")]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            AmbientSpace([AmbientFactor(("x",), (1,)),
                          AmbientFactor(("x",), (1,))])


class TestSingularStrata:
    def test_unweighted_has_none(self):
        assert ambient_singular_strata(parse_ambient("P(1,1,1) x P(1,1,1)")) == []

    def test_single_weight_three(self):
        strata = ambient_singular_strata(parse_ambient("P(1,1,1,1,3)"))
        assert strata == [SingularStratum(("x4",), 3)]

    def test_two_point_strata(self):
        strata = ambient_singular_strata(parse_ambient("P(1,1,1,2,3)"))
        assert strata == [SingularStratum(("x3",), 2), SingularStratum(("x4",), 3)]

    def test_prime_powers_dedupe(self):
        # 2 and 3 both pick out the weight-6 variable; one stratum, order 6
        strata = ambient_singular_strata(parse_ambient("P(1,6)"))
        assert strata == [SingularStratum(("x1",), 6)]

    def test_inclusion_maximality(self):
        # V_3 = {x1} sits inside V_2 = {x0, x1} and is absorbed by it
        strata = ambient_singular_strata(parse_ambient("P(2,6)"))
        assert strata == [SingularStratum(("x0", "x1"), 2)]

    def test_incomparable_strata_survive(self):
        strata = ambient_singular_strata(parse_ambient("P(1,2,3,6)"))
        assert strata == [SingularStratum(("x1", "x3"), 2),
                          SingularStratum(("x2", "x3"), 3)]


class TestConeSmoothness:
    def test_double_plane_fails_with_witness(self):
        v = variety("P(1,1,1)", "x0^2", 5)
        res = cone_smoothness(v)
        assert not res.smooth_away_from_irrelevant
        assert res.witness_chart == "x1"
        assert res.witness_ideal is not None
        assert res.witness_ideal.contains(v.f)

    def test_fermat_cone_smooth(self):
        res = cone_smoothness(variety("P(1,1,1)", "x0^3 + x1^3 + x2^3", 5))
        assert res == ConeResult(True)

    def test_jacobian_generators(self):
        v = variety("P(1,1,1)", "x0^2 + x1*x2", 7)
        gens = [str(g) for g in jacobian_ideal(v).generators]
        assert gens == ["x0^2 + x1*x2", "2*x0", "x2", "x1"]


class TestVerdicts:
    def test_weighted_sextic_p11_smooth(self):
        v = variety("P(1,1,1,1,3)", "x0^6 + x1^6 + x2^6 + x3^6 + y^2", 11,
                    names=["x0", "x1", "x2", "x3", "y"])
        assert smoothness_verdict(v) is SmoothnessStatus.SMOOTH

    def test_quartic_double_cover_p3_smooth(self):
        v = variety("P(1,1,1,1,2)", "x0^4 + x1^4 + x2^4 + x3^4 + y^2", 3,
                    names=["x0", "x1", "x2", "x3", "y"])
        assert smoothness_verdict(v) is SmoothnessStatus.SMOOTH

    def test_perturbed_sextic_double_solid_p11_smooth(self):
        v = variety("P(1,1,1,1,3)",
                    "x0^6 + x1^6 + x2^6 + x3^6 + y^2"
                    " + 6*x0^3*x1*x3^2 + x0^2*x2^2*x3^2", 11,
                    names=["x0", "x1", "x2", "x3", "y"])
        assert smoothness_verdict(v) is SmoothnessStatus.SMOOTH

    def test_perturbed_quartic_surface_p7_smooth(self):
        v = variety("P(1,1,1,1)",
                    "x0^4 + x1^4 + x2^4 + x3^4 + 6*x0^3*x2 + 6*x1*x2^2*x3"
                    " + 6*x0*x3^3 + 2*x0^2*x1^2 + 3*x0^2*x1*x2 + 3*x0^2*x3^2", 7)
        assert smoothness_verdict(v) is SmoothnessStatus.SMOOTH

    def test_wild_conic_p2_smooth(self):
        v = variety("P(1,1,1) x P(1,1,1)", "x0*y0^2 + x1*y1^2 + x2*y2^2", 2)
        assert smoothness_verdict(v) is SmoothnessStatus.SMOOTH

    def test_double_plane_singular(self):
        assert smoothness_verdict(variety("P(1,1,1)", "x0^2", 5)) \
            is SmoothnessStatus.SINGULAR

    def test_quasi_smooth_only(self):
        # no pure power of y, so the cone is smooth but the hypersurface
        # passes through the order-3 quotient point [0:0:0:0:1]
        v = variety("P(1,1,1,1,3)", "x0^7 + x1^7 + x2^7 + x3^7 + x0*y^2", 11,
                    names=["x0", "x1", "x2", "x3", "y"])
        assert smoothness_verdict(v) is SmoothnessStatus.QUASI_SMOOTH_ONLY

    def test_positive_dimensional_stratum_unsupported(self):
        v = variety("P(2,2)", "x0 + x1", 5)
        with pytest.raises(UnsupportedStratumError):
            smoothness_verdict(v)

    def test_variety_validation(self):
        space = parse_ambient("P(1,1)")
        with pytest.raises(ValueError):
            HypersurfaceVariety(5, space, parse_poly("0", space.variable_set, 5))
        with pytest.raises(ValueError):
            HypersurfaceVariety(5, space, parse_poly("3", space.variable_set, 5))
        other = parse_ambient("P(1,1,1)")
        with pytest.raises(ValueError):
            HypersurfaceVariety(5, space, parse_poly("x0", other.variable_set, 5))


def euler_sum(f, c):
    """sum over the variables x of w_c(x) * x * df/dx, in grading component c."""
    total = Polynomial.zero(f.field, f.vars)
    for name, w in zip(f.vars.names, f.vars.weights):
        if w[c]:
            total = total + w[c] * (Polynomial.variable(f.field, f.vars, name)
                                    * f.partial(name))
    return total


class TestEulerRelation:
    def test_ok_components(self):
        v = variety("P(1,1,1)", "x0^2 + x1*x2", 5)
        assert v.multidegree == (2,)
        assert euler_sum(v.f, 0) == 2 * v.f

    def test_mixed_components(self):
        # degree (1, 2) at p = 2: the identity degenerates to 0 == 0 in
        # component 1
        v = variety("P(1,1) x P(1,1)", "x0*y0^2 + x1*y1^2", 2)
        assert v.multidegree == (1, 2)
        assert euler_sum(v.f, 0) == v.f
        assert euler_sum(v.f, 1).is_zero

    @pytest.mark.parametrize("vs,degree", [
        (VariableSet.unit("x0,x1,x2"), (3,)),
        (VariableSet.weighted("x0,x1,x2,y", [1, 1, 2, 3]), (5,)),
        (VariableSet(("x0", "x1", "y0", "y1", "y2"),
                     ((1, 0), (1, 0), (0, 1), (0, 1), (0, 2))), (2, 3)),
    ], ids=["unit", "weighted", "bigraded"])
    def test_seeded_identity(self, vs, degree):
        rng = random.Random(8080)
        for p in (2, 3, 5, 7):
            for _ in range(10):
                f = random_homogeneous(rng, vs, p, degree, max_terms=5)
                for c, d_c in enumerate(degree):
                    if d_c % p:
                        assert euler_sum(f, c) == d_c * f
