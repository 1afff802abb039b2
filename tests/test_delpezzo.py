import itertools
import random
from functools import lru_cache

import pytest

from fanocheck import corpus, delpezzo
from fanocheck.delpezzo import (
    FANO_POINTS,
    LatticeClass,
    PicLattice,
    PointConfig,
    enumerate_classes,
    fano_lines,
    langer_neg2_classes,
    pgl3_order,
    pgl_orbit_canonical,
    plane_points,
)
from fanocheck.smallfields import _IRREDUCIBLE, GF, UnsupportedFieldSizeError
from helpers import (
    exceptional_basis,
    gf_pow,
    gf_sub,
    pgl3_elements,
    ref_dot,
    ref_enumerate_classes,
    ref_gf_tables,
    ref_langer_summary,
    ref_pgl_orbit_canonical,
)


def k_degree(c):
    """Pairing with the canonical class K = -3H + sum E_i."""
    return c.dot(LatticeClass(-3, (-1,) * len(c.m)))


def pgl_order(q):
    d = q ** 3 - 1
    return (q ** 3 - q) * (q ** 3 - q ** 2) * d // (q - 1)


class TestLatticeClass:
    def test_pairing(self):
        a = LatticeClass(1, (1, 1, 0, 0, 0, 0, 0))
        b = LatticeClass(0, (-1, 0, 0, 0, 0, 0, 0))
        assert a.dot(b) == 1
        assert a.self_intersection == -1
        assert k_degree(a) == -1

    def test_canonical_and_basis(self):
        assert LatticeClass(-3, (-1, -1, -1)).self_intersection == 9 - 3
        basis = exceptional_basis(3)
        assert len(basis) == 3
        for e in basis:
            assert e.self_intersection == -1 and k_degree(e) == -1
        assert basis[0].dot(basis[1]) == 0

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            PicLattice(0)
        with pytest.raises(ValueError):
            PicLattice(9)

    def test_mismatched_lattices(self):
        with pytest.raises(ValueError):
            LatticeClass(1, (0,)).dot(LatticeClass(1, (0, 0)))

    def test_dot_against_the_generator_sum(self):
        rng = random.Random(23)

        def random_class(r):
            return LatticeClass(rng.randint(-9, 9),
                                tuple(rng.randint(-9, 9) for _ in range(r)))

        for _ in range(400):
            r = rng.randint(0, 8)
            a, b = random_class(r), random_class(r)
            assert a.dot(b) == ref_dot(a, b) == b.dot(a)
            # a shorter side must not be read as zeros past its end
            c = random_class(rng.choice([s for s in range(9) if s != r]))
            with pytest.raises(ValueError):
                a.dot(c)
            with pytest.raises(ValueError):
                c.dot(a)


class TestEnumeration:
    def test_exceptional_count_rank7(self):
        classes = enumerate_classes(PicLattice(7), -1, -1, 3)
        assert len(classes) == 56
        by_d = {}
        for c in classes:
            by_d[c.d] = by_d.get(c.d, 0) + 1
        assert by_d == {0: 7, 1: 21, 2: 21, 3: 7}

    def test_every_class_checks_out(self):
        for c in enumerate_classes(PicLattice(7), -1, -1, 3):
            assert c.self_intersection == -1
            assert k_degree(c) == -1
            assert all(m >= -1 for m in c.m)

    def test_sorted_and_duplicate_free(self):
        classes = enumerate_classes(PicLattice(7), -1, -1, 3)
        keys = [(c.d, c.m) for c in classes]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)

    def test_small_rank_counts(self):
        # blow-up of r <= 4 points: the classical exceptional-curve counts
        assert len(enumerate_classes(PicLattice(1), -1, -1, 3)) == 1
        assert len(enumerate_classes(PicLattice(2), -1, -1, 3)) == 3
        assert len(enumerate_classes(PicLattice(3), -1, -1, 3)) == 6
        assert len(enumerate_classes(PicLattice(4), -1, -1, 3)) == 10

    def test_neg2_root_count_rank7(self):
        # all (-2) K-orthogonal classes with d in 0..3 and m_i >= -1; the
        # count 84 was frozen from a plain itertools brute force over the
        # same search box
        roots = enumerate_classes(PicLattice(7), -2, 0, 3)
        assert all(c.self_intersection == -2 and k_degree(c) == 0 for c in roots)
        assert len(roots) == 84

    def test_exceptional_count_rank8(self):
        # the 240 exceptional curves of the degree-1 del Pezzo surface
        classes = enumerate_classes(PicLattice(8), -1, -1, 6)
        assert len(classes) == 240
        assert max(c.d for c in classes) == 6

    def test_degree_cutoff_ignores_huge_d_max(self):
        # past d = 6 no degree can meet Cauchy-Schwarz, so the search stops
        # there whatever d_max says
        lattice = PicLattice(8)
        assert (enumerate_classes(lattice, -1, -1, 10 ** 9)
                == enumerate_classes(lattice, -1, -1, 6))

    def test_matches_the_reference_search(self):
        rng = random.Random(10)
        cases = [(rng.randint(1, 8), rng.choice((-2, -1, 0, 1)),
                  rng.randint(-3, 3), rng.randint(0, 6)) for _ in range(100)]
        # the workload's shapes, the widest box and a one-slot lattice
        cases += [(7, -1, -1, 3), (8, -2, 0, 5), (8, -1, -1, 6), (1, 1, 3, 6)]
        # the last two slots solved: at the root of r = 2 (H - E_1 - E_2 has
        # v = w, E_1 has v = -1), v = w = -1 in (-1, -1, -1), and every
        # shape the benchmark's class search draws
        cases += [(2, -1, -1, 6), (2, -2, 0, 6), (2, 0, 2, 8), (2, -1, -1, 0),
                  (3, -3, -3, 0), (4, -4, -4, 2)]
        cases += [(r, s, -1 if s == -1 else 0, d)
                  for r in (6, 7, 8) for s in (-1, -2) for d in range(3, 7)]
        for r, self_int, k_deg, d_max in cases:
            ours = enumerate_classes(PicLattice(r), self_int, k_deg, d_max)
            assert ours == ref_enumerate_classes(r, self_int, k_deg, d_max), (
                r, self_int, k_deg, d_max)

    def test_odd_parity_is_empty(self):
        # q - s = d(d-3) - self_int - k_deg is odd at every degree; the
        # degree loop alone would walk some 6 * 10^6 degrees first
        assert enumerate_classes(PicLattice(8), -1, -10 ** 6, 10 ** 12) == []
        rng = random.Random(11)
        for _ in range(100):
            r, self_int = rng.randint(1, 8), rng.choice((-2, -1, 0, 1))
            k_deg = rng.randint(-4, 3) * 2 + 1 - self_int % 2
            d_max = rng.randint(0, 6)
            assert (self_int + k_deg) % 2 == 1
            assert ref_enumerate_classes(r, self_int, k_deg, d_max) == []
            assert enumerate_classes(PicLattice(r), self_int, k_deg, d_max) == []


class TestFanoConfiguration:
    def test_lines(self):
        lines = fano_lines()
        assert len(lines) == 7
        assert lines == [(0, 1, 3), (0, 2, 4), (0, 5, 6), (1, 2, 5),
                         (1, 4, 6), (2, 3, 6), (3, 4, 5)]

    def test_incidence_counts(self):
        lines = fano_lines()
        per_point = [sum(1 for ln in lines if i in ln) for i in range(7)]
        assert per_point == [3] * 7
        assert all(len(ln) == 3 for ln in lines)

    def test_neg2_classes_pairwise_orthogonal(self):
        neg2 = langer_neg2_classes()
        assert len(neg2) == 7
        for c in neg2:
            assert c.self_intersection == -2 and k_degree(c) == 0
        for i, a in enumerate(neg2):
            for b in neg2[i + 1:]:
                assert a.dot(b) == 0

    def test_compatible_exceptionals(self):
        neg2 = langer_neg2_classes()
        classes = enumerate_classes(PicLattice(7), -1, -1, 3)

        def compatible(constraints):
            return sum(1 for cls in classes
                       if all(cls.dot(n) >= 0 for n in constraints))

        assert compatible(neg2) == 7
        # with no constraint, everything is compatible
        assert compatible([]) == 56
        # a single line class excludes 3 blow-downs, 6 conics and 3 cubics
        assert compatible(neg2[:1]) == 44

    def test_compatible_are_the_blowdowns(self):
        neg2 = langer_neg2_classes()
        lattice = PicLattice(7)
        compat = [c for c in enumerate_classes(lattice, -1, -1, 3)
                  if all(c.dot(n) >= 0 for n in neg2)]
        assert compat == exceptional_basis(7)

    def test_langer_summary_against_the_reference(self):
        assert corpus.langer_summary() == ref_langer_summary()

    def test_langer_summary_enumerates_once(self, monkeypatch):
        calls = []
        real = delpezzo.enumerate_classes

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(delpezzo, "enumerate_classes", counting)
        assert corpus.langer_summary() == ("(-1)-classes: 56; compatible: 7; "
                                           "(-2)-classes: 7; disjoint: yes")
        assert calls == [(PicLattice(7), -1, -1, 3)]


class TestPlaneConfigurations:
    def test_plane_point_counts(self):
        assert len(plane_points(2)) == 7
        assert len(plane_points(3)) == 13
        assert len(plane_points(4)) == 21

    def test_fano_points_are_the_f2_plane(self):
        assert sorted(FANO_POINTS) == plane_points(2)

    def test_pgl_orders(self):
        assert len(pgl3_elements(2)) == pgl_order(2) == 168
        assert len(pgl3_elements(3)) == pgl_order(3) == 5616
        assert len(pgl3_elements(4)) == pgl_order(4) == 60480

    def test_pgl_unsupported_size(self):
        with pytest.raises(UnsupportedFieldSizeError):
            pgl3_elements(9)

    def test_matrices_normalized_and_distinct(self):
        mats = pgl3_elements(2)
        assert len(set(mats)) == len(mats)

    def test_full_plane_is_rigid(self):
        config = PointConfig.from_points(2, FANO_POINTS)
        assert list(config.points) == plane_points(config.q)
        canonical, orbit = pgl_orbit_canonical(config)
        assert orbit == 1
        assert canonical == config

    def test_frame_orbit(self):
        # the four-point projective frame: transitive, stabilizer-free count
        frame = PointConfig.from_points(2, [(1, 0, 0), (0, 1, 0),
                                            (0, 0, 1), (1, 1, 1)])
        canonical, orbit = pgl_orbit_canonical(frame)
        assert orbit == 7
        assert canonical == frame

    def test_single_point_orbit(self):
        config = PointConfig.from_points(2, [(1, 1, 0)])
        canonical, orbit = pgl_orbit_canonical(config)
        assert orbit == 7
        assert canonical.points == ((0, 0, 1),)

    def test_normalization_merges_scalings(self):
        config = PointConfig.from_points(3, [(1, 2, 0), (2, 1, 0)])
        assert len(config.points) == 1

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            PointConfig.from_points(2, [(0, 0, 0)])

    def test_negative_coordinate_rejected(self):
        # -1 would index the F_4 tables from the end and read as 3, not 1
        with pytest.raises(ValueError, match="0..3"):
            PointConfig.from_points(4, [(1, -1, 0)])

    def test_out_of_range_coordinate_rejected(self):
        with pytest.raises(ValueError, match="0..2"):
            PointConfig.from_points(3, [(1, 0, 0), (1, 3, 0)])

    @pytest.mark.parametrize("point", [(1, 0), (1, 0, 0, 0), (1, 0.0, 0), (1, True, 0)])
    def test_malformed_point_rejected(self, point):
        with pytest.raises(ValueError, match="3 integer coordinates"):
            PointConfig.from_points(2, [(0, 1, 0), point])


@lru_cache(maxsize=None)
def _point_permutations(q):
    """Each element of pgl3_elements(q) as a permutation of plane_points(q)."""
    gf = GF(q)
    pts = plane_points(q)
    index = {}
    for i, pt in enumerate(pts):
        for s in range(1, q):
            index[tuple(gf.mul(s, c) for c in pt)] = i
    rows = {r for m in pgl3_elements(q) for r in m}
    # row . point for every point, so a matrix maps the plane by zipping rows
    dots = {r: [gf._add[gf._add[gf.mul(r[0], x)][gf.mul(r[1], y)]][gf.mul(r[2], z)]
                for x, y, z in pts] for r in rows}
    perms = [tuple(map(index.__getitem__, zip(dots[r0], dots[r1], dots[r2])))
             for r0, r1, r2 in pgl3_elements(q)]
    return pts, perms


def brute_force_orbit(config):
    """Least image over every matrix of PGL_3 and the number of distinct images."""
    pts, perms = _point_permutations(config.q)
    idx = [pts.index(pt) for pt in config.points]
    images = {tuple(sorted(map(perm.__getitem__, idx))) for perm in perms}
    return tuple(pts[i] for i in min(images)), len(images)


class TestOrbitAgainstBruteForce:
    def seeded_configs(self):
        rng = random.Random(606)
        for q, per_size in ((2, 3), (3, 3), (4, 2)):
            pts = plane_points(q)
            for size in range(8):
                for _ in range(per_size):
                    yield q, rng.sample(pts, size)
            # collinear: the line y = z, and three of its points plus one off it
            line = [pt for pt in pts if pt[1] == pt[2]]
            yield q, line
            yield q, line[:3] + [(0, 1, 0)]
        # richest lines: two 4-point lines x = 0 and y = 0 meeting in
        # (0,0,1), and a 3-point line with two points off it
        yield 3, [pt for pt in plane_points(3) if not pt[0] or not pt[1]]
        yield 4, [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 2, 3)]
        yield 2, plane_points(2)
        yield 3, plane_points(3)

    def test_canonical_form_and_orbit_size(self):
        seen = set()
        for q, points in self.seeded_configs():
            config = PointConfig.from_points(q, points)
            canonical, size = pgl_orbit_canonical(config)
            assert (canonical.points, size) == brute_force_orbit(config), (q, points)
            assert canonical.q == q
            seen.add((q, len(config.points)))
        assert {(q, n) for q in (2, 3, 4) for n in range(8)} <= seen


def _line_points(q, line):
    gf = GF(q)
    return [pt for pt in plane_points(q)
            if not gf._add[gf._add[gf.mul(line[0], pt[0])][gf.mul(line[1], pt[1])]][
                gf.mul(line[2], pt[2])]]


def torus_shapes(q, rng):
    """Seeded sets for the torus step, on both sides of its selection: a
    richest line of two points (frames, 5-point arcs on the conic y^2 = xz,
    and a lone affine point off a triangle) gives every ratio, a 3-point
    one a single ratio; a whole line holds every ratio too, and one point
    off it is a lone affine point."""
    gf = GF(q)
    pts = plane_points(q)
    line = _line_points(q, rng.choice(pts))
    off = [pt for pt in pts if pt not in line]
    conic = [(1, t, gf.mul(t, t)) for t in range(q)] + [(0, 0, 1)]
    yield rng.sample(conic, 4)
    yield rng.sample(conic, 5)
    yield rng.sample(conic, 3)
    yield rng.sample(line, 3) + rng.sample(off, 2)
    yield rng.sample(line, 3) + rng.sample(off, 3)
    yield line + rng.sample(off, 1)
    yield line + rng.sample(off, 2)


def orbit_both_sides(config):
    """(canonical points, orbit size) as selected, then with every torus
    solved, then with every torus searched scaling by scaling."""
    out = []
    for bound in (delpezzo._TORUS_LOOP_MAX, 0, 10 ** 9):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(delpezzo, "_TORUS_LOOP_MAX", bound)
            canonical, size = pgl_orbit_canonical(config)
        out.append((canonical.points, size))
    return out


class TestTorusStep:
    """The solved torus and the scaling loop against the whole-group brute
    force at q = 4 and the all-pairs search at q = 5, 7, 8, each side of
    the selection forced in turn."""

    def test_against_the_brute_force(self):
        rng = random.Random(4904)
        pts = plane_points(4)
        shapes = list(torus_shapes(4, rng))
        shapes += [rng.sample(pts, 17), rng.sample(pts, 19), rng.sample(pts, 20)]
        for points in shapes:
            config = PointConfig.from_points(4, points)
            assert orbit_both_sides(config) == [brute_force_orbit(config)] * 3, points

    @pytest.mark.parametrize("q", [5, 7, 8])
    def test_against_the_reference(self, q):
        rng = random.Random(4900 + q)
        for points in torus_shapes(q, rng):
            config = PointConfig.from_points(q, points)
            ref, ref_size = ref_pgl_orbit_canonical(config)
            assert orbit_both_sides(config) == [(ref.points, ref_size)] * 3, points

    def test_near_full_set(self):
        # beyond the reference's reach (seconds at q = 5), so the sides are
        # compared with each other; a set and its complement share a
        # stabilizer, so their orbits have one size
        gone = random.Random(4905).sample(plane_points(5), 3)
        config = PointConfig.from_points(
            5, [pt for pt in plane_points(5) if pt not in gone])
        sides = orbit_both_sides(config)
        assert sides == [sides[2]] * 3
        assert sides[2][1] == pgl_orbit_canonical(PointConfig.from_points(5, gone))[1]


class TestOrbitAgainstReference:
    """The richest-line search against the search over every ordered pair,
    at q beyond the whole-group brute force."""

    def seeded_configs(self):
        rng = random.Random(1717)
        for q in (5, 7, 8):
            pts = plane_points(q)
            # a point's coordinates read as a line's coefficients
            first, second = (_line_points(q, ln) for ln in rng.sample(pts, 2))
            off = [pt for pt in pts if pt not in first]
            # 3- and 4-point collinearities with points off the line
            yield q, first[:3] + rng.sample(off, 2)
            yield q, first[1:5] + rng.sample(off, 3)
            # two lines tied for richest, with and without a common point
            yield q, first[:3] + second[:3]
            yield q, rng.sample(first, 4) + rng.sample(second, 4)
            # all points on one line, and a whole line plus points off it
            yield q, rng.sample(first, rng.randint(2, q))
            yield q, first + rng.sample(off, 2)
            # arcs: points of the conic y^2 = xz, no three collinear
            gf = GF(q)
            conic = [(1, t, gf.mul(t, t)) for t in range(q)] + [(0, 0, 1)]
            yield q, rng.sample(conic, 4)
            yield q, rng.sample(conic, 6)
            yield q, rng.sample(pts, rng.randint(4, 7))
        yield 5, rng.sample(plane_points(5), 20)

    def test_same_canonical_form_and_orbit_size(self):
        for q, points in self.seeded_configs():
            config = PointConfig.from_points(q, points)
            canonical, size = pgl_orbit_canonical(config)
            ref, ref_size = ref_pgl_orbit_canonical(config)
            assert (canonical.points, size) == (ref.points, ref_size), (q, points)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
    def test_more_points_on_a_line_read_smaller(self, q):
        # the least image's points on x = 0 read, after (0,0,1), as sorted z
        # of (0,1,z); per set of k points of P^1(F_q) take the least such
        # reading over the choices of the points sent to (0,0,1), (0,1,0)
        # and the scalings, padded by q, which sorts after every z.  Each
        # set of 3 or more points is PGL_2-equivalent to one holding
        # infinity, 0 and 1, so those sets give every reading.
        gf = GF(q)
        line = [(0, 1)] + [(1, t) for t in range(q)]

        def det(u, v):
            return gf_sub(gf, gf.mul(u[0], v[1]), gf.mul(u[1], v[0]))

        def reading(points):
            out = []
            for a, b in itertools.permutations(points, 2):
                zs = [gf.mul(det(pt, b), gf.inv(det(pt, a))) for pt in points if pt != a]
                for s in range(1, q):
                    out.append(sorted(gf.mul(s, z) for z in zs) + [q])
            return min(out)

        readings = {2: [[0, q]]}
        for rest in range(q - 1):
            for extra in itertools.combinations(line[3:], rest):
                readings.setdefault(3 + rest, []).append(reading(line[:3] + list(extra)))
        for k, m in itertools.combinations(sorted(readings), 2):
            assert max(readings[m]) < min(readings[k]), (q, k, m)


class TestOrbitClosedForms:
    """Orbit sizes that need no enumeration, at q beyond the brute force."""

    @pytest.mark.parametrize("q", [4, 5, 7, 8])
    def test_frame(self, q):
        frame = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
        canonical, size = pgl_orbit_canonical(PointConfig.from_points(q, frame))
        # PGL_3 is sharply transitive on ordered frames: Stab is S_4
        assert size == pgl3_order(q) // 24
        assert canonical.points == ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1))

    @pytest.mark.parametrize("q", [5, 7])
    def test_line(self, q):
        line = [pt for pt in plane_points(q) if pt[0] == pt[1]]
        assert len(line) == q + 1
        canonical, size = pgl_orbit_canonical(PointConfig.from_points(q, line))
        assert size == q * q + q + 1
        assert canonical.points == ((0, 0, 1),) + tuple((0, 1, z) for z in range(q))

    @pytest.mark.parametrize("q", [5, 7])
    def test_full_plane(self, q):
        config = PointConfig.from_points(q, plane_points(q))
        assert pgl_orbit_canonical(config) == (config, 1)

    @pytest.mark.parametrize("q", [5, 7])
    def test_single_point(self, q):
        config = PointConfig.from_points(q, [(1, 2, 3)])
        canonical, size = pgl_orbit_canonical(config)
        assert size == q * q + q + 1
        assert canonical.points == ((0, 0, 1),)

    def test_empty(self):
        assert pgl_orbit_canonical(PointConfig.from_points(7, [])) == (
            PointConfig(7, ()), 1)

    def test_q9_unsupported(self):
        with pytest.raises(UnsupportedFieldSizeError):
            pgl_orbit_canonical(PointConfig.from_points(9, [(1, 0, 0), (0, 1, 0)]))
        with pytest.raises(UnsupportedFieldSizeError):
            pgl_orbit_canonical(PointConfig.from_points(9, []))


class TestSmallFields:
    def test_prime_field_tables(self):
        gf = GF(3)
        assert gf._add[2][2] == 1
        assert gf.mul(2, 2) == 1
        assert gf.inv(2) == 2

    def test_extension_field_f4(self):
        gf = GF(4)
        assert len(gf.elements) == 4
        for a in gf.elements:
            if a:
                assert gf.mul(a, gf.inv(a)) == gf.mul(gf.inv(a), a)
                assert gf.mul(a, gf.inv(a)) in gf.elements
        # multiplicative group is cyclic of order 3
        nonzero = [a for a in gf.elements if a]
        cubes = {gf_pow(gf, a, 3) for a in nonzero}
        assert len(cubes) == 1
        with pytest.raises(ZeroDivisionError, match="^inverting 0 in GF$"):
            gf.inv(0)

    def test_f8_and_f27_sizes(self):
        assert len(GF(8).elements) == 8
        assert len(GF(27).elements) == 27

    def test_unsupported_sizes(self):
        with pytest.raises(UnsupportedFieldSizeError):
            GF(9 * 9)
        with pytest.raises(UnsupportedFieldSizeError, match="^6 is not a prime power$"):
            GF(6)
        with pytest.raises(UnsupportedFieldSizeError, match="^bad field size 1$"):
            GF(1)

    @pytest.mark.parametrize("q", sorted({p ** k for p, k in _IRREDUCIBLE} | {2, 3, 5, 7}))
    def test_tables_match_polynomial_arithmetic(self, q):
        gf = GF(q)
        assert (gf._add, gf._mul, gf._neg, gf._inv) == ref_gf_tables(q)

    def test_field_axioms_seeded(self):
        rng = random.Random(135)
        for q in (2, 3, 4, 5, 8, 9, 25, 27):
            gf = GF(q)
            els = gf.elements
            for _ in range(60):
                a, b, c = (rng.choice(els) for _ in range(3))
                assert gf.mul(a, gf._add[b][c]) == gf._add[gf.mul(a, b)][gf.mul(a, c)]
                assert gf.mul(a, b) == gf.mul(b, a)
                assert gf._add[a][gf.mul(gf.p - 1, a)] == 0
            one = gf.mul(1, 1)
            assert one == 1
