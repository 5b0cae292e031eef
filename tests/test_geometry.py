import math
import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from ehrkit import geometry
from ehrkit.counting import translated_enumerator
from ehrkit.geometry import (
    AlmostIntegralPolytope,
    LatticePolytope,
    affine_hull,
    face_polytope,
    faces_of_dim,
    hrep,
    is_centrally_symmetric,
    is_zonotope,
    minkowski_facet_check,
    relative_volume,
)
from ehrkit.linalg import DimensionMismatch, dot, rational_rank, vec_add, vec_sub
from ehrkit.zonotopes import ZonotopeSpec, zonotope_vertices

CUBE = LatticePolytope([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
OCTA = LatticePolytope([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
PENTAGON = LatticePolytope([(1, 0), (0, 1), (0, 2), (1, 3), (2, 1)])
SIMPLEX2 = LatticePolytope([(0, 0), (1, 0), (0, 1)])
HEXAGON = LatticePolytope([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)])


def _det(rows):
    """Integer determinant by cofactor expansion along the first row."""
    if len(rows) < 2:
        return rows[0][0] if rows else 1
    return sum((-1) ** j * x * _det([r[:j] + r[j + 1 :] for r in rows[1:]]) for j, x in enumerate(rows[0]) if x)


def brute_facets(points, m):
    """Facets of the hull of full-dimensional ``points`` in Z^m by brute
    force over every m-subset: the oracle for the double-description hull.

    Same contract as ``geometry._facets_from_points``: sorted (primitive
    outward normal, Fraction offset, frozenset of indices on the facet).
    The normal of m points is the cofactor vector of their m-1
    differences, zero when they span no hyperplane.
    """
    found = {}
    for subset in combinations(range(len(points)), m):
        p0 = points[subset[0]]
        diffs = [vec_sub(points[i], p0) for i in subset[1:]]
        normal = [(-1) ** i * _det([r[:i] + r[i + 1 :] for r in diffs]) for i in range(m)]
        g = math.gcd(*normal)
        if g == 0:
            continue
        normal = tuple(x // g for x in normal)
        b = dot(normal, p0)
        vals = [dot(normal, p) for p in points]
        if all(v <= b for v in vals):
            pass
        elif all(v >= b for v in vals):
            normal = tuple(-x for x in normal)
            b = -b
            vals = [-v for v in vals]
        else:
            continue
        key = (normal, Fraction(b))
        if key not in found:
            found[key] = frozenset(i for i, v in enumerate(vals) if v == b)
    return sorted((a, b, idx) for (a, b), idx in found.items())


def random_lattice_polytope(rng, d, npts=6, bound=3):
    while True:
        pts = [tuple(rng.randint(-bound, bound) for _ in range(d)) for _ in range(npts)]
        P = LatticePolytope(pts)
        if P.dim == d:
            return P


class TestConstruction:
    def test_canonicalization_drops_non_vertices(self):
        P = LatticePolytope([(0, 0), (2, 0), (1, 0), (0, 2), (1, 1), (0, 1)])
        assert P.vertices == ((0, 0), (0, 2), (2, 0))

    def test_duplicates_merged(self):
        P = LatticePolytope([(0, 0), (1, 1), (0, 0), (1, 1)])
        assert P.vertices == ((0, 0), (1, 1))

    def test_rejects_fractional(self):
        with pytest.raises(ValueError):
            LatticePolytope([(0, 0), (Fraction(1, 2), 1)])

    def test_rejects_mixed_dimension(self):
        with pytest.raises(DimensionMismatch):
            LatticePolytope([(0, 0), (1, 2, 3)])

    def test_hashable_and_equal_by_vertices(self):
        assert LatticePolytope([(0, 0), (1, 0), (0, 0)]) == LatticePolytope([(1, 0), (0, 0)])


class TestHull:
    def test_matches_brute_force(self):
        rng = random.Random(211)
        done = 0
        while done < 150:
            m = rng.randint(1, 4)
            width = rng.randint(1, 5)
            pts = [tuple(rng.randint(0, width) for _ in range(m)) for _ in range(rng.randint(m + 1, m + 10))]
            if done % 3 == 0:
                pts += [rng.choice(pts) for _ in range(rng.randint(1, 3))]
                rng.shuffle(pts)
            if rational_rank([vec_sub(p, pts[0]) for p in pts[1:]]) < m:
                continue
            facets = brute_facets(pts, m)
            assert geometry._facets_from_points(pts, m) == facets, pts
            # a vertex is a point on facets whose normals have full rank
            vertices = {p for i, p in enumerate(pts) if rational_rank([a for a, _, idx in facets if i in idx]) == m}
            assert LatticePolytope(pts).vertices == tuple(sorted(vertices)), pts
            done += 1

    def test_five_cube(self):
        start = time.perf_counter()
        P = LatticePolytope(product((0, 1), repeat=5))
        assert len(P.vertices) == 32
        assert len(P.coord_facets) == 10
        assert relative_volume(P) == 1
        # a C(n, m) hull spends minutes here
        assert time.perf_counter() - start < 10


class TestAffineHull:
    def test_cube(self):
        h = affine_hull(CUBE)
        assert h.dim == 3
        assert sorted(h.lattice_basis) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_segment_primitive_basis(self):
        h = affine_hull(LatticePolytope([(0, 0), (2, 4)]))
        assert h.dim == 1
        assert h.lattice_basis in (((1, 2),), ((-1, -2),))

    def test_point(self):
        h = affine_hull(LatticePolytope([(5, 7)]))
        assert h.dim == 0
        assert h.lattice_basis == ()
        assert h.origin == (5, 7)


class TestHRep:
    def test_cube_six_facets(self):
        H = hrep(CUBE)
        assert H.equalities == ()
        assert len(H.inequalities) == 6
        assert set(H.inequalities) == {
            ((1, 0, 0), 1), ((-1, 0, 0), 0),
            ((0, 1, 0), 1), ((0, -1, 0), 0),
            ((0, 0, 1), 1), ((0, 0, -1), 0),
        }

    def test_octahedron_eight_facets(self):
        H = hrep(OCTA)
        assert len(H.inequalities) == 8
        assert all(tuple(abs(x) for x in a) == (1, 1, 1) and b == 1 for a, b in H.inequalities)

    def test_pentagon_contains_lower_edges(self):
        H = hrep(PENTAGON)
        assert len(H.inequalities) == 5
        # the two lower edges: x + y >= 1 and x >= 0
        assert ((-1, -1), Fraction(-1)) in H.inequalities
        assert ((-1, 0), Fraction(0)) in H.inequalities

    def test_lower_dimensional_equalities(self):
        seg = LatticePolytope([(0, 0), (2, 4)])
        H = hrep(seg)
        assert len(H.equalities) == 1
        a, b = H.equalities[0]
        assert dot(a, (0, 0)) == b and dot(a, (2, 4)) == b

    def test_vertex_round_trip_on_corpus(self):
        for P in (CUBE, OCTA, PENTAGON, SIMPLEX2, HEXAGON):
            H = hrep(P)
            for v in P.vertices:
                tight = [a for a, b in H.inequalities if dot(a, v) == b]
                assert len(tight) >= P.dim
            # every inequality is satisfied by every vertex
            assert all(dot(a, v) <= b for a, b in H.inequalities for v in P.vertices)


class TestFaces:
    def test_cube_face_counts(self):
        assert len(faces_of_dim(CUBE, 2)) == 6
        assert len(faces_of_dim(CUBE, 1)) == 12
        assert len(faces_of_dim(CUBE, 0)) == 8

    def test_octahedron_triangles(self):
        assert len(faces_of_dim(OCTA, 2)) == 8

    def test_pentagon_edges(self):
        assert len(faces_of_dim(PENTAGON, 1)) == 5

    def test_euler_relation_dim3(self):
        for P in (CUBE, OCTA):
            v = len(faces_of_dim(P, 0))
            e = len(faces_of_dim(P, 1))
            f = len(faces_of_dim(P, 2))
            assert v - e + f == 2

    def test_improper_face(self):
        (top,) = faces_of_dim(CUBE, 3)
        assert top.vertex_indices == tuple(range(8))


class TestRelativeVolume:
    def test_cube(self):
        assert relative_volume(CUBE) == 1

    def test_octahedron(self):
        assert relative_volume(OCTA) == Fraction(4, 3)

    def test_segment(self):
        assert relative_volume(LatticePolytope([(0, 0), (2, 4)])) == 2

    def test_point(self):
        assert relative_volume(LatticePolytope([(3, 1)])) == 1

    def test_matches_leading_ehrhart_coefficient(self):
        rng = random.Random(31)
        for _ in range(12):
            d = rng.randint(1, 3)
            P = random_lattice_polytope(rng, d)
            poly = translated_enumerator(P, (0,) * d)
            assert poly.leading_coefficient == relative_volume(P)


class TestCentralSymmetry:
    def test_octahedron_center_zero(self):
        assert is_centrally_symmetric(OCTA) == (0, 0, 0)

    def test_cube_center(self):
        assert is_centrally_symmetric(CUBE) == (1, 1, 1)

    def test_pentagon_absent(self):
        assert is_centrally_symmetric(PENTAGON) is None

    def test_zonotopes_always_symmetric(self):
        rng = random.Random(47)
        done = 0
        while done < 20:
            d = rng.randint(1, 3)
            gens = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, 4))]
            gens = [g for g in gens if any(g)]
            if not gens:
                continue
            Z = zonotope_vertices(ZonotopeSpec(gens)).base
            assert is_centrally_symmetric(Z) is not None
            done += 1


class TestMinkowskiFacetCheck:
    def test_cube_empty(self):
        assert minkowski_facet_check(CUBE) == []

    def test_simplex_three_violations(self):
        assert len(minkowski_facet_check(SIMPLEX2)) == 3

    def test_matches_central_symmetry_on_random(self):
        rng = random.Random(53)
        for _ in range(20):
            d = rng.randint(1, 3)
            P = random_lattice_polytope(rng, d)
            Q = P.coord_polytope if P.dim < P.ambient_dim else P
            empty = minkowski_facet_check(Q) == []
            assert empty == (is_centrally_symmetric(Q) is not None)

    def test_mirrored_random_polytopes_pass(self):
        rng = random.Random(59)
        for _ in range(10):
            d = rng.randint(2, 3)
            pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(4)]
            sym = pts + [tuple(-x for x in p) for p in pts]
            P = LatticePolytope(sym)
            if P.dim == d:
                assert minkowski_facet_check(P) == []


class TestIsZonotope:
    def test_cube(self):
        verdict, witness = is_zonotope(CUBE)
        assert verdict and witness is None

    def test_octahedron_triangle_witness(self):
        verdict, witness = is_zonotope(OCTA)
        assert not verdict
        assert witness.dim == 2
        face = face_polytope(OCTA, witness)
        assert len(face.vertices) == 3
        assert is_centrally_symmetric(face) is None

    def test_hexagon(self):
        verdict, _ = is_zonotope(HEXAGON)
        assert verdict
        Z = zonotope_vertices(ZonotopeSpec([(1, 0), (1, 1), (0, 1)])).base
        assert Z == HEXAGON

    def test_segment_and_point_trivially(self):
        assert is_zonotope(LatticePolytope([(0, 0), (2, 4)]))[0]
        assert is_zonotope(LatticePolytope([(7,)]))[0]


class TestAlmostIntegral:
    def test_denominator(self):
        A = AlmostIntegralPolytope(CUBE, (Fraction(1, 9), Fraction(2, 9), Fraction(1, 3)))
        assert A.denominator == 9

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            AlmostIntegralPolytope(CUBE, (Fraction(1, 2),))
