import itertools
import random
from math import gcd

import pytest

from fanocheck import geometry, ideals
from fanocheck import poly as poly_module
from fanocheck.geometry import (
    AmbientFactor,
    AmbientSpace,
    ConeResult,
    HypersurfaceVariety,
    SmoothnessStatus,
    UnsupportedStratumError,
    _coprime_base,
    _no_chart_open,
    ambient_singular_strata,
    cone_smoothness,
    parse_ambient,
    smoothness_verdict,
)
from fanocheck.ideals import (
    PolyIdeal,
    _chart_is_unit,
    _jacobian_certificate,
    _packed_jacobian,
    normal_form,
)
from fanocheck.poly import (
    ParseError,
    Polynomial,
    VariableSet,
    _grevlex,
    parse_poly,
    weighted_degree,
)
from helpers import (
    complete_intersection_counts,
    cone_singular_point_search,
    dense_form,
    jacobian_generators,
    jacobian_hilbert_counts,
    monomials_of_degree,
    partial,
    random_homogeneous,
    ref_ambient_singular_strata,
    ref_chart_is_unit,
    variable,
)


def variety(ambient_text, poly_text, p, names=None):
    space = parse_ambient(ambient_text, names=names)
    f = parse_poly(poly_text, space.variable_set, p)
    return HypersurfaceVariety(p, space, f)


class TestParseAmbient:
    def test_single_factor_default_names(self):
        space = parse_ambient("P(1,1,1,1,3)")
        assert len(space.factors) == 1
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
        # a trailing 'x' leaves a factor missing at the end, not an empty text
        for text in ("P(1,1) x", "P(1,1)x"):
            with pytest.raises(ParseError, match=r"expected a factor 'P\(\.\.\.\)'") as err:
                parse_ambient(text)
            assert err.value.pos == len(text)
        with pytest.raises(ParseError, match="empty ambient description"):
            parse_ambient("   ")

    @pytest.mark.parametrize("call,error,message", [
        (lambda: AmbientSpace([]), ValueError, "need at least one factor"),
        (lambda: parse_ambient("P[1,1]"), ParseError,
         "expected '(' after P (at position 1)"),
        (lambda: parse_ambient(" x ".join(["P(1,1)"] * 9)), ValueError,
         "too many factors for default naming"),
    ], ids=["no-factor", "bracket", "nine-factors"])
    def test_input_rule(self, call, error, message):
        with pytest.raises(error) as exc:
            call()
        assert exc.value.args == (message,)

    def test_chart_tuples(self):
        space = parse_ambient("P(1,1) x P(1,1)")
        charts = list(space.chart_tuples())
        assert charts == [("x0", "y0"), ("x0", "y1"), ("x1", "y0"), ("x1", "y1")]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            AmbientSpace([AmbientFactor(("x",), (1,)),
                          AmbientFactor(("x",), (1,))])

    @pytest.mark.parametrize("name", ["", "x 1", "1", "x-1", "x$"])
    def test_unreferencable_names_rejected(self, name):
        with pytest.raises(ValueError, match="not an identifier"):
            AmbientFactor(("x0", name), (1, 1))
        with pytest.raises(ValueError, match="not an identifier"):
            parse_ambient("P(1,1) x P(1,1)", names=["a", "b", "c", name])

    def test_each_name_is_checked_once(self, monkeypatch):
        # the factors check every name; the variable set trusts them
        names = ("a", "b", "c", "d", "e")
        expected = VariableSet(names, ((1, 0), (1, 0), (1, 0), (0, 1), (0, 2)))
        checked = []
        real = poly_module._is_variable_name

        def counting(name):
            checked.append(name)
            return real(name)

        monkeypatch.setattr(poly_module, "_is_variable_name", counting)
        monkeypatch.setattr(geometry, "_is_variable_name", counting)
        assert parse_ambient("P(1,1,1) x P(1,2)", names=names).variable_set == expected
        assert checked == list(names)


class TestSingularStrata:
    def test_unweighted_has_none(self):
        assert ambient_singular_strata(parse_ambient("P(1,1,1) x P(1,1,1)")) == []

    def test_single_weight_three(self):
        strata = ambient_singular_strata(parse_ambient("P(1,1,1,1,3)"))
        assert strata == [("x4",)]

    def test_two_point_strata(self):
        strata = ambient_singular_strata(parse_ambient("P(1,1,1,2,3)"))
        assert strata == [("x3",), ("x4",)]

    def test_prime_powers_dedupe(self):
        # 2 and 3 both pick out the weight-6 variable; one stratum
        strata = ambient_singular_strata(parse_ambient("P(1,6)"))
        assert strata == [("x1",)]

    def test_inclusion_maximality(self):
        # V_3 = {x1} sits inside V_2 = {x0, x1} and is absorbed by it
        strata = ambient_singular_strata(parse_ambient("P(2,6)"))
        assert strata == [("x0", "x1")]

    def test_incomparable_strata_survive(self):
        strata = ambient_singular_strata(parse_ambient("P(1,2,3,6)"))
        assert strata == [("x1", "x3"), ("x2", "x3")]

    def test_seeded_weights_against_trial_division(self):
        # 1s, prime powers, and products that share a prime or share none
        rng = random.Random(6161)
        primes = [2, 3, 5, 7, 11, 13, 10007]
        kinds = set()
        for _ in range(300):
            weights = []
            for _ in range(rng.randint(1, 6)):
                w = 1
                for ell in rng.sample(primes, rng.choice([0, 1, 1, 2, 3])):
                    w *= ell ** rng.randint(1, 3)
                weights.append(w)
            factors = [weights]
            if rng.random() < 0.3:
                factors.append([rng.choice([1, 2, 3, 4, 6, 9]) for _ in range(3)])
            space = parse_ambient(" x ".join(
                "P(" + ",".join(map(str, ws)) + ")" for ws in factors))
            strata = ambient_singular_strata(space)
            assert strata == ref_ambient_singular_strata(space), factors
            kinds.add(min(len(s) for s in strata) if strata else 0)
        # no stratum, point strata and wider ones all occur
        assert {0, 1, 2} <= kinds

    def test_coprime_base(self):
        rng = random.Random(6262)
        for _ in range(200):
            numbers = [rng.choice([1, 2, 3, 4, 6, 8, 9, 12, 35, 10007 * 6])
                       ** rng.randint(1, 3) for _ in range(rng.randint(1, 5))]
            base = _coprime_base(numbers)
            assert all(b > 1 for b in base)
            assert all(gcd(a, b) == 1 for a, b in itertools.combinations(base, 2))
            for n in numbers:
                for b in base:
                    while n % b == 0:
                        n //= b
                assert n == 1, numbers


class TestConeSmoothness:
    def test_double_plane_fails_with_witness(self):
        v = variety("P(1,1,1)", "x0^2", 5)
        assert cone_smoothness(v) == ConeResult(False, "x1")
        jac = PolyIdeal(v.prime, v.f.vars, jacobian_generators(v.f))
        assert normal_form(v.f, jac.groebner_basis()).is_zero

    def test_fermat_cone_smooth(self):
        res = cone_smoothness(variety("P(1,1,1)", "x0^3 + x1^3 + x2^3", 5))
        assert res == ConeResult(True)

    def test_jacobian_generators(self):
        v = variety("P(1,1,1)", "x0^2 + x1*x2", 7)
        order = _grevlex(3)
        gens = [str(order.polynomial(v.prime, v.f.vars, g))
                for g in _packed_jacobian(v.f, order)]
        assert gens == ["x0^2 + x1*x2", "2*x0", "x2", "x1"]


def _both_methods(v):
    """(single-basis verdict, chart-by-chart result).  The certificate runs
    as the smoothness calls run it; the chart loop runs on J's packed
    generators for every member, certified or not, up to the first chart
    that is not the unit ideal."""
    certified = _jacobian_certificate(v.f, _no_chart_open(v.space)) is None
    vs = v.space.variable_set
    order = _grevlex(vs.n)
    jac = _packed_jacobian(v.f, order)
    for chart in v.space.chart_tuples():
        if not _chart_is_unit(jac, [vs.index(name) for name in chart], order, v.prime.p):
            return certified, ConeResult(False, "*".join(chart))
    return certified, ConeResult(True)


def _singular_at_e0(rng, space, p, degree):
    """Every term has degree >= 2 in the variables other than the first of
    each factor: singular at [1:0:...:0] in every factor."""
    return _singular_at_coordinates(rng, space, p, degree,
                                    [fac.names[0] for fac in space.factors])


def _singular_at_coordinates(rng, space, p, degree, point):
    """Every term has degree >= 2 in the variables other than ``point``'s,
    one name per factor: singular where those are 1 and the rest 0."""
    vs = space.variable_set
    chosen = {vs.index(name) for name in point}
    pool = [m for m in monomials_of_degree(vs, degree)
            if sum(e for i, e in enumerate(m) if i not in chosen) >= 2]
    while True:
        picks = rng.sample(pool, min(len(pool), rng.randint(2, 6)))
        f = Polynomial(p, vs, {m: rng.randint(1, p - 1) for m in picks})
        if not f.is_zero:
            return f


def _singular_at_e0_plus_e1(rng, space, p, degree):
    """A member of (x0 - x1, x2, ..., xn)^2: singular at [1:1:0:...:0]."""
    vs = space.variable_set
    var = [variable(p, vs, name) for name in vs.names]
    lin = [var[0] - var[1]] + var[2:]
    wts = [1] + [w for (w,) in vs.weights[2:]]
    while True:
        f = Polynomial.zero(p, vs)
        for _ in range(rng.randint(1, 3)):
            i, j = rng.randrange(len(lin)), rng.randrange(len(lin))
            rest = degree - wts[i] - wts[j]
            if rest < 0:
                continue
            h = (random_homogeneous(rng, vs, p, rest, max_terms=3) if rest
                 else Polynomial.constant(p, vs, rng.randint(1, p - 1)))
            f = f + h * lin[i] * lin[j]
        if not f.is_zero:
            return f


def _differential_members():
    """Seeded one-factor hypersurfaces: (label, variety, forced verdict or None)."""
    rng = random.Random(5150)
    out = []
    ambients = [("P(1,1,1)", (2, 3, 4, 5)), ("P(1,1,1,1)", (2, 3)),
                ("P(1,1,2)", (2, 4, 6)), ("P(1,1,1,2)", (2, 4))]
    for p in (2, 3, 5, 7):
        for text, degrees in ambients:
            space = parse_ambient(text)
            vs = space.variable_set
            for d in degrees:
                f = random_homogeneous(rng, vs, p, d, max_terms=6)
                out.append((f"{text}.d{d}.p{p}.random", space, f, None))
                fermat = Polynomial(p, vs, {
                    tuple(d // w if k == i else 0 for k in range(vs.n)): 1
                    for i, (w,) in enumerate(vs.weights) if d % w == 0})
                g = fermat + random_homogeneous(rng, vs, p, d, max_terms=2)
                if not g.is_zero:
                    out.append((f"{text}.d{d}.p{p}.fermat+2", space, g, None))
                out.append((f"{text}.d{d}.p{p}.sing.e0", space,
                            _singular_at_e0(rng, space, p, d), False))
                out.append((f"{text}.d{d}.p{p}.sing.e0+e1", space,
                            _singular_at_e0_plus_e1(rng, space, p, d), False))
        # degree p, all partials zero: f = (sum x_i)^p
        for text in ("P(1,1,1)", "P(1,1,1,1)"):
            space = parse_ambient(text)
            names = space.variable_set.names
            f = parse_poly(" + ".join(f"{x}^{p}" for x in names),
                           space.variable_set, p)
            out.append((f"{text}.frobenius.p{p}", space, f, False))
    return [(label, HypersurfaceVariety(f.p, space, f), forced)
            for label, space, f, forced in out]


def _product_members():
    """Seeded divisors in products: (label, variety, forced verdict or None)."""
    rng = random.Random(7)
    out = []
    ambients = [("P(1,1) x P(1,1)", ((1, 1), (2, 2), (1, 3))),
                ("P(1,1) x P(1,1,1)", ((1, 1), (1, 2), (2, 2))),
                ("P(1,1,1) x P(1,1,1)", ((1, 1), (1, 2))),
                ("P(1,1) x P(1,1) x P(1,1)", ((1, 1, 1), (2, 1, 1))),
                ("P(1,1,2) x P(1,1)", ((2, 1), (2, 2))),
                ("P(1,1,1,2) x P(1,1)", ((2, 1), (2, 2)))]
    for p in (2, 3, 5, 7):
        for text, degrees in ambients:
            space = parse_ambient(text)
            vs = space.variable_set
            for d in degrees:
                for label, terms in (("random", 6), ("dense", 12)):
                    f = random_homogeneous(rng, vs, p, d, max_terms=terms)
                    out.append((f"{text}.d{d}.p{p}.{label}", space, f, None))
                out.append((f"{text}.d{d}.p{p}.sing.e0", space,
                            _singular_at_e0(rng, space, p, d), False))
    return [(label, HypersurfaceVariety(f.p, space, f), forced)
            for label, space, f, forced in out]


def _assert_methods_agree(members):
    """Both methods, cone_smoothness and smoothness_verdict agree; returns
    cone_smoothness's results."""
    verdicts, results = [], []
    for label, v, forced in members:
        single, charts = _both_methods(v)
        assert single == charts.smooth_away_from_irrelevant, (label, str(v.f))
        if forced is not None:
            assert single is forced, (label, str(v.f))
        res = cone_smoothness(v)
        assert (res.smooth_away_from_irrelevant, res.witness_chart) \
            == (charts.smooth_away_from_irrelevant, charts.witness_chart)
        # the verdict reads the certificate alone; the chart loop backs it
        assert (smoothness_verdict(v) is SmoothnessStatus.SINGULAR) \
            == (not charts.smooth_away_from_irrelevant), (label, str(v.f))
        verdicts.append(single)
        results.append(res)
    # both verdicts occur often, so neither method can pass by default
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20
    return results


class TestSingleBasisAgainstCharts:
    """The support certificate against the chart loop: two different
    computations of one verdict.  The certificate reads the leading
    monomials of one Buchberger run on J; the loop runs Buchberger on J
    dehomogenized at each chart, with a chart's variables set to 1."""

    def test_seeded_verdicts_agree(self):
        members = _differential_members()
        assert len(members) >= 100
        _assert_methods_agree(members)

    def test_seeded_product_verdicts_agree(self):
        members = _product_members()
        assert len(members) >= 150
        results = _assert_methods_agree(members)
        # a point singular in every factor lies in the first chart
        for (label, v, forced), res in zip(members, results):
            if forced is False:
                assert res.witness_chart == "*".join(
                    next(v.space.chart_tuples())), label

    def test_literal_singular_product(self):
        # singular at ([1:0:0], [0:0:1]), which the third chart x0*y2 sees first
        v = variety("P(1,1,1) x P(1,1,1)", "x0*y0^2 + x1*y1^2 + x2*y1*y2", 5)
        single, charts = _both_methods(v)
        assert single is charts.smooth_away_from_irrelevant is False
        assert charts.witness_chart == "x0*y2"
        assert cone_smoothness(v) == ConeResult(False, "x0*y2")
        assert smoothness_verdict(v) is SmoothnessStatus.SINGULAR

    @pytest.mark.parametrize("ambient,poly,p,smooth,chart", [
        ("P(1,1,1,1,3)", "x0^6 + x1^6 + x2^6 + x3^6 + y^2"
         " + 3*x0^3*x1*x3^2 + 3*x0*x1*x2^2*x3^2", 5, True, None),
        ("P(1,1,1,1,2)", "x0^4 + x1^4 + x2^4 + x3^4 + y^2"
         " + x0*x1*x2^2 + x1^2*x2^2", 3, True, None),
        ("P(1,1,1,1,2)", "x0^4 + x1^4 + x2^4 + x3^4 + y^2"
         " + 2*x0*x1^2*x2 + x0^3*x3", 3, False, "x0"),
    ], ids=["sextic.P11113.p5", "quartic.P11112.p3.smooth",
            "quartic.P11112.p3.singular"])
    def test_perturbed_double_covers(self, ambient, poly, p, smooth, chart):
        v = variety(ambient, poly, p, names=["x0", "x1", "x2", "x3", "y"])
        single, charts = _both_methods(v)
        assert single is charts.smooth_away_from_irrelevant is smooth
        assert charts.witness_chart == chart
        assert cone_smoothness(v).witness_chart == chart


def _wild_weight_members():
    """Seeded members of P(1,1,3) at p = 3, where p divides the weight of the
    chart variable x2: (label, variety, None)."""
    rng = random.Random(3113)
    space = parse_ambient("P(1,1,3)")
    vs = space.variable_set
    out = []
    for d in (3, 6, 9):
        for i in range(8):
            f = random_homogeneous(rng, vs, 3, d, max_terms=2 + i % 4)
            out.append((f"P(1,1,3).d{d}.p3.random{i}", f))
        out.append((f"P(1,1,3).d{d}.p3.sing.e0", _singular_at_e0(rng, space, 3, d)))
    return [(label, HypersurfaceVariety(3, space, f), None) for label, f in out]


class TestChartsAgainstLocalization:
    """The dehomogenized chart kernel against the Rabinowitsch test: on every
    chart, J + (x_i - 1 : x_i in the chart) is the unit ideal exactly when J
    becomes the unit ideal after inverting the chart's product."""

    @staticmethod
    def assert_charts_agree(members):
        """Compare on every chart; return {weight of the chart variable
        in a one-factor ambient: [unit charts, non-unit charts]}."""
        seen = {}
        for label, v, _ in members:
            vs = v.space.variable_set
            order = _grevlex(vs.n)
            packed = _packed_jacobian(v.f, order)
            jac = PolyIdeal(v.prime, vs, jacobian_generators(v.f))
            for chart in v.space.chart_tuples():
                g = Polynomial.constant(v.prime, vs, 1)
                for name in chart:
                    g = g * variable(v.prime, vs, name)
                unit = ideals._chart_is_unit(packed, [vs.index(name) for name in chart],
                                             order, v.prime.p)
                assert unit == ideals.localized_is_unit(jac, g), (label, chart, str(v.f))
                if len(chart) == 1:
                    (w,) = vs.weights[vs.index(chart[0])]
                    seen.setdefault(w, [0, 0])[0 if unit else 1] += 1
        return seen

    def test_one_factor_and_weighted_members(self):
        seen = self.assert_charts_agree(_differential_members())
        # charts on weight-1 and weight-2 variables both ways, the weight-2
        # ones also at p = 2
        assert min(seen[1]) >= 20 and min(seen[2]) >= 10

    def test_product_members(self):
        self.assert_charts_agree(_product_members())

    def test_weight_divisible_by_p(self):
        # P(1,1,2) at p = 2 and P(1,1,3) at p = 3, charts on the wild variable
        members = [m for m in _differential_members()
                   if m[0].startswith("P(1,1,2).") and ".p2." in m[0]]
        assert len(members) >= 10
        seen = self.assert_charts_agree(members + _wild_weight_members())
        assert min(seen[2]) >= 3 and min(seen[3]) >= 3, seen

    def test_literal_charts(self):
        def charts(v):
            order = _grevlex(3)
            jac = _packed_jacobian(v.f, order)
            return [ideals._chart_is_unit(jac, [i], order, v.prime.p) for i in range(3)]

        # x0^2 in P(1,1,1): the x0 chart is the unit ideal, x1 and x2 are not
        assert charts(variety("P(1,1,1)", "x0^2", 5)) == [True, False, False]
        # at p = 3, J of x0^6 + x1^6 + x2^2 is ((x0^2 + x1^2)^3, 2*x2): its
        # points have x2 = 0 and x1 = +-i*x0, with i in F_9 only
        assert charts(variety("P(1,1,3)", "x0^6 + x1^6 + x2^2", 3)) == [False, False, True]
        # x0^9 + x1^9 + x2^3 is a cube at p = 3, so V(J) = V(f) meets the
        # chart x2 != 0 too, where x2 = 1 needs a cube root of 1/x2
        assert charts(variety("P(1,1,3)", "x0^9 + x1^9 + x2^3", 3)) == [False] * 3


def _chart_route_members():
    """Seeded Singular members, each singular at a coordinate point picked
    at random in every factor: (label, variety, the point's chart)."""
    rng = random.Random(3737)
    ambients = [("P(1,1,1)", (2, 3, 4)), ("P(1,1,1,1)", (2, 3)),
                ("P(1,1,1,2)", (2, 4)), ("P(1,1,1,1,3)", (3, 6)),
                ("P(1,1) x P(1,1,1)", ((1, 2), (2, 2))),
                ("P(1,1,1) x P(1,1,1)", ((1, 1), (1, 2)))]
    out = []
    for p in (3, 5, 7):
        for text, degrees in ambients:
            space = parse_ambient(text)
            for d in degrees:
                for _ in range(3):
                    point = [rng.choice(fac.names) for fac in space.factors]
                    f = _singular_at_coordinates(rng, space, p, d, point)
                    chart = "*".join(point)
                    out.append((f"{text}.d{d}.p{p}.sing.{chart}",
                                HypersurfaceVariety(p, space, f), chart))
    return out


class TestPackedCharts:
    """The chart route on J's packed generators, after the certificate ran
    on them, against ``helpers.ref_chart_is_unit`` on tuple partials: the
    chart's exponents set to 0 and the reference Buchberger loop."""

    def test_every_chart_against_the_tuple_reference(self):
        members = _chart_route_members()
        later = several = 0
        for label, v, point_chart in members:
            vs = v.space.variable_set
            failed = _jacobian_certificate(v.f, _no_chart_open(v.space))
            assert failed is not None, label
            order, jac = failed
            gens = jacobian_generators(v.f)
            failing = []
            for chart in v.space.chart_tuples():
                indices = [vs.index(name) for name in chart]
                unit = ideals._chart_is_unit(jac, indices, order, v.prime.p)
                assert unit == ref_chart_is_unit(gens, indices), (label, chart, str(v.f))
                if not unit:
                    failing.append("*".join(chart))
            assert point_chart in failing, (label, str(v.f))
            assert cone_smoothness(v) == ConeResult(False, failing[0]), label
            later += failing[0] != "*".join(next(v.space.chart_tuples()))
            several += len(failing) > 1
        assert len(members) >= 100
        # the witness is often not the first chart, and often not the only
        # failing one, so every chart's answer is checked, not just the first
        assert later >= 40 and several >= 60, (later, several)


# at p = 3, d/dx0 keeps one of three terms and d/dx1 one of two
_LITERAL_SEXTIC = "x0^3*x1^3 + x0*x1^2*y + x2^5*x3 + 2*x0^3*y + y^2"


def _jacobian_members():
    """Seeded varieties for the packed Jacobian: one-factor, weighted and
    product ambients, with p often dividing an exponent."""
    members = [v for _, v, _ in _differential_members() + _product_members()]
    rng = random.Random(3232)
    names = ["x0", "x1", "x2", "x3", "y"]
    for ambient, degrees in (("P(1,1,1,1,2)", (2, 4, 6)), ("P(1,1,1,1,3)", (3, 6, 9))):
        space = parse_ambient(ambient, names=names)
        for p in (2, 3, 5, 7, 11):
            for d in degrees:
                f = random_homogeneous(rng, space.variable_set, p, d, max_terms=8)
                members.append(HypersurfaceVariety(p, space, f))
    for ambient, poly, p in (
            ("P(1,1,1,1,2)", "x0^4 + x1^4 + x2^4 + x3^4 + y^2", 2),
            ("P(1,1,1,1,3)", "x0^6 + x1^6 + x2^6 + x3^6 + y^2", 3),
            ("P(1,1,1,1,3)", "x0^6 + x1^6 + x2^6 + x3^6 + y^2", 2),
            ("P(1,1,1,1,3)", _LITERAL_SEXTIC, 3)):
        space = parse_ambient(ambient, names=names)
        members.append(HypersurfaceVariety(p, space, parse_poly(poly, space.variable_set, p)))
    return members


class TestPackedJacobian:
    """The generators the certificate and the charts run on, packed straight
    from f, against the tuple partials of ``helpers.partial`` packed
    afterwards."""

    def test_seeded_members_term_for_term(self):
        lost = zero = 0
        members = _jacobian_members()
        for v in members:
            order = _grevlex(v.f.vars.n)
            packed = _packed_jacobian(v.f, order)
            expected = [order.pack_terms(g.terms) for g in jacobian_generators(v.f)]
            # the same generators in the same order, and each one's terms too
            assert [list(g.items()) for g in packed] \
                == [list(g.items()) for g in expected], str(v.f)
            for i, g in enumerate(packed[1:]):
                with_var = sum(1 for m in v.f.terms if m[i])
                lost += 0 < len(g) < with_var
                zero += with_var > 0 and not g
        assert len(members) >= 300
        # p divides an exponent often enough that partials lose terms or vanish
        assert lost >= 30 and zero >= 30, (lost, zero)

    def test_literal_partials(self):
        v = variety("P(1,1,1,1,3)", _LITERAL_SEXTIC, 3,
                    names=["x0", "x1", "x2", "x3", "y"])
        order = _grevlex(5)
        vs = v.space.variable_set
        got = [order.polynomial(v.prime, vs, g) for g in _packed_jacobian(v.f, order)]
        assert [str(g) for g in got] == [
            str(v.f), "x1^2*y", "2*x0*x1*y", "2*x2^4*x3", "x2^5",
            "2*x0^3 + x0*x1^2 + 2*y"]


def _ref_closed_charts(space, exp) -> set:
    """The charts an exponent tuple closes, by the chart-tuple dict that
    picks one variable per factor."""
    vset = space.variable_set
    factor_of = [j for j, fac in enumerate(space.factors) for _ in fac.names]
    pick = {}
    for i, e in enumerate(exp):
        if e:
            if factor_of[i] in pick:
                return set()
            pick[factor_of[i]] = i
    charts = {tuple(vset.index(name) for name in chart) for chart in space.chart_tuples()}
    return {t for t in charts if all(t[j] == i for j, i in pick.items())}


class TestChartMasks:
    """``_no_chart_open``'s bitmask predicate against the dict predicate."""

    AMBIENTS = ("P(1,1,1)", "P(1,1,1,1,3)", "P(1,1) x P(1,1)", "P(1,1,1) x P(1,1,1)",
                "P(1,1) x P(1,1,2) x P(1,1)")

    @staticmethod
    def closes(space, exp, chart) -> bool:
        """Whether the predicate closes ``chart`` on ``exp``: every other
        chart is closed first by its own product, which closes it alone."""
        vset = space.variable_set
        stop = _no_chart_open(space)
        for other in space.chart_tuples():
            if other != chart:
                assert not stop(tuple(int(name in other) for name in vset.names))
        return stop(exp)

    @staticmethod
    def seeded_exps(space, rng):
        vset = space.variable_set
        n = vset.n
        assert len(space.factors[0].names) >= 2
        # the constant closes every chart, x0^3*x1^3 (one factor) none
        exps = [(0,) * n, tuple(int(i < 2) * 3 for i in range(n))]
        charts = [[vset.index(name) for name in chart] for chart in space.chart_tuples()]
        for _ in range(30):
            chart = rng.choice(charts)
            # any support, then one inside a chart
            for support in (rng.sample(range(n), rng.randint(1, n)),
                            rng.sample(chart, rng.randint(1, len(chart)))):
                exps.append(tuple(rng.randint(1, 4) if i in support else 0
                                  for i in range(n)))
        return exps

    @pytest.mark.parametrize("ambient", AMBIENTS)
    def test_same_charts_close(self, ambient):
        rng = random.Random(ambient)
        space = parse_ambient(ambient)
        vset = space.variable_set
        closed_some = closed_none = 0
        for exp in self.seeded_exps(space, rng):
            ref = _ref_closed_charts(space, exp)
            for chart in space.chart_tuples():
                index = tuple(vset.index(name) for name in chart)
                assert self.closes(space, exp, chart) == (index in ref), (exp, chart)
            closed_some += bool(ref)
            closed_none += not ref
        assert closed_some >= 5 and closed_none >= 5

    @pytest.mark.parametrize("ambient", AMBIENTS)
    def test_same_stop_on_seeded_runs(self, ambient):
        # a run of leading monomials stops at the same one for both
        rng = random.Random(f"runs {ambient}")
        space = parse_ambient(ambient)
        charts = {tuple(space.variable_set.index(name) for name in chart)
                  for chart in space.chart_tuples()}
        exps = self.seeded_exps(space, rng)[1:]
        stopped = 0
        for _ in range(30):
            stop, ref_open = _no_chart_open(space), set(charts)
            for exp in rng.sample(exps, len(exps)):
                ref_open -= _ref_closed_charts(space, exp)
                assert stop(exp) == (not ref_open)
                if not ref_open:
                    stopped += 1
                    break
        assert stopped >= 10


class TestFastPath:
    @pytest.fixture
    def unit_calls(self, monkeypatch):
        """What a call runs: "certificate" as each support certificate
        starts, then each chart tested, as its variables' indices."""
        calls = []
        real_certificate, real_chart = ideals._jacobian_certificate, ideals._chart_is_unit

        def certificate(f, stop):
            calls.append("certificate")
            return real_certificate(f, stop)

        def chart(gens, indices, order, p):
            calls.append(tuple(indices))
            return real_chart(gens, indices, order, p)

        monkeypatch.setattr(geometry, "_jacobian_certificate", certificate)
        monkeypatch.setattr(geometry, "_chart_is_unit", chart)
        return calls

    @pytest.fixture
    def built_jacobians(self, monkeypatch):
        """Each time a call packs J's generators from f."""
        built = []
        real = ideals._packed_jacobian

        def packed(f, order):
            built.append("packed")
            return real(f, order)

        monkeypatch.setattr(ideals, "_packed_jacobian", packed)
        return built

    def test_fermat_sextic_tests_no_chart(self, unit_calls, built_jacobians):
        v = variety("P(1,1,1,1,3)", "x0^6 + x1^6 + x2^6 + x3^6 + y^2", 11,
                    names=["x0", "x1", "x2", "x3", "y"])
        assert smoothness_verdict(v) is SmoothnessStatus.SMOOTH
        assert unit_calls == ["certificate"]
        assert built_jacobians == ["packed"]

    def test_double_plane_tests_charts_up_to_the_witness(self, unit_calls,
                                                         built_jacobians):
        v = variety("P(1,1,1)", "x0^2", 5)
        res = cone_smoothness(v)
        assert res.witness_chart == "x1"
        assert unit_calls == ["certificate", (0,), (1,)]
        # the charts run on the generators the certificate ran on
        assert built_jacobians == ["packed"]

    def test_smooth_cone_builds_no_ideal(self, unit_calls, built_jacobians):
        assert cone_smoothness(variety("P(1,1,1)", "x0^3 + x1^3 + x2^3", 5)) \
            == ConeResult(True)
        assert unit_calls == ["certificate"]
        assert built_jacobians == ["packed"]

    def test_smooth_product_tests_no_chart(self, unit_calls, built_jacobians):
        v = variety("P(1,1,1) x P(1,1,1)", "x0*y0^2 + x1*y1^2 + x2*y2^2", 5)
        assert smoothness_verdict(v) is SmoothnessStatus.SMOOTH
        assert unit_calls == ["certificate"]
        assert built_jacobians == ["packed"]

    def test_singular_product_packs_once(self, unit_calls, built_jacobians):
        # singular at ([1:0:0], [0:0:1]): the charts x0*y0 and x0*y1 are
        # units, x0*y2 is the witness, and all three reuse one packing
        v = variety("P(1,1,1) x P(1,1,1)", "x0*y0^2 + x1*y1^2 + x2*y1*y2", 5)
        assert cone_smoothness(v) == ConeResult(False, "x0*y2")
        assert unit_calls == ["certificate", (0, 3), (0, 4), (0, 5)]
        assert built_jacobians == ["packed"]

    @pytest.mark.parametrize("ambient,poly", [
        ("P(1,1,1)", "x0^2"),
        ("P(1,1,1) x P(1,1,1)", "x0*y0^2 + x1*y1^2 + x2*y1*y2"),
    ])
    def test_singular_verdict_tests_no_chart(self, unit_calls, built_jacobians,
                                             ambient, poly):
        # a failed support certificate is the verdict; charts only name a
        # witness, which smoothness_verdict does not ask for
        assert smoothness_verdict(variety(ambient, poly, 5)) is SmoothnessStatus.SINGULAR
        assert unit_calls == ["certificate"]
        assert built_jacobians == ["packed"]


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
        with pytest.raises(ValueError, match="^polynomial lives in a different ring$"):
            HypersurfaceVariety(5, space, parse_poly("x0", other.variable_set, 5))
        with pytest.raises(ValueError, match="^polynomial lives in a different ring$"):
            HypersurfaceVariety(7, space, parse_poly("x0", space.variable_set, 5))


class TestDenseSingularAgainstPoints:
    def test_points_sit_under_singular_verdicts(self):
        # dense quartics in P^3 (12 to 35 terms), where the pair update of
        # Buchberger prunes most; an F_p point where f and every partial
        # vanish proves Singular, and a Singular verdict with none found
        # has its singular points only over extensions of F_p
        rng = random.Random(1904)
        space = parse_ambient("P(1,1,1,1)")
        singular = confirmed = 0
        for i in range(30):
            p = (5, 7)[i % 2]
            v = HypersurfaceVariety(p, space, dense_form(rng, space.variable_set, p, 4, 8, 31))
            verdict = smoothness_verdict(v)
            point = cone_singular_point_search(v, [p])
            if point is not None:
                assert verdict is SmoothnessStatus.SINGULAR, str(v.f)
                confirmed += 1
            singular += verdict is SmoothnessStatus.SINGULAR
        assert singular >= 4 and confirmed >= 0.75 * singular


class TestHilbertCountOracle:
    """cone_smoothness against a rank oracle that builds no Groebner basis.
    On P^n, d prime to p, f lies in J = (df/dx_i) by Euler, and the cone is
    smooth away from the origin exactly when J fills R in degree D + 1,
    D = sum (d - 2 w_i): then the partials are a regular sequence, and
    R/J has the complete intersection's Hilbert function c_t, which bounds
    it from below in every degree otherwise (Froeberg)."""

    def test_seeded_cubics_against_the_rank(self):
        rng = random.Random(1313)
        verdicts = []
        for text in ("P(1,1,1)", "P(1,1,1,1)"):
            space = parse_ambient(text)
            vs = space.variable_set
            top = vs.n + 1  # D + 1 for cubics
            ci = complete_intersection_counts(3, [1] * vs.n, top)
            fermat = {tuple(3 * (i == j) for j in range(vs.n)): 1 for i in range(vs.n)}
            for p in (5, 7):
                for k in range(6):
                    if k % 2:
                        # no pure power of the last variable, and every term
                        # of degree >= 2 in the others: singular at its point
                        f = _singular_at_coordinates(rng, space, p, 3, [vs.names[-1]])
                    else:
                        f = Polynomial(p, vs, fermat) \
                            + random_homogeneous(rng, vs, p, 3, max_terms=3)
                    counts = jacobian_hilbert_counts(f, top)
                    smooth = counts[top] == 0
                    label = (text, p, str(f))
                    assert all(c >= b for c, b in zip(counts, ci)), label
                    if smooth:
                        assert counts == ci, label
                    assert not (k % 2 and smooth), label
                    result = cone_smoothness(HypersurfaceVariety(p, space, f))
                    assert result.smooth_away_from_irrelevant is smooth, label
                    verdicts.append(smooth)
        assert verdicts.count(True) >= 6 and verdicts.count(False) >= 12


def euler_sum(f, c):
    """sum over the variables x of w_c(x) * x * df/dx, in grading component c."""
    total = Polynomial.zero(f.field, f.vars)
    for name, w in zip(f.vars.names, f.vars.weights):
        if w[c]:
            total = total + variable(f.field, f.vars, name) * partial(f, name) * w[c]
    return total


class TestEulerRelation:
    def test_ok_components(self):
        v = variety("P(1,1,1)", "x0^2 + x1*x2", 5)
        assert weighted_degree(v.f) == (2,)
        assert euler_sum(v.f, 0) == v.f * 2

    def test_mixed_components(self):
        # degree (1, 2) at p = 2: the identity degenerates to 0 == 0 in
        # component 1
        v = variety("P(1,1) x P(1,1)", "x0*y0^2 + x1*y1^2", 2)
        assert weighted_degree(v.f) == (1, 2)
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
                        assert euler_sum(f, c) == f * d_c
