import random
from fractions import Fraction

import pytest

from ehrkit.counting import (
    InterpolationGuardFailed,
    _interpolate_guarded,
    count_points,
    count_rational_dilate,
    count_weighted_simplex,
    ehrhart_quasi,
    lost_new_counts,
    rational_dilation_quasi,
    scan_scaled_translate,
    translated_enumerator,
    weighted_simplex_counts_upto,
    weighted_simplex_quasi,
)
from ehrkit.geometry import AlmostIntegralPolytope, LatticePolytope, relative_volume
from ehrkit.linalg import DimensionMismatch, vec_add, vec_scale, vec_sub
from ehrkit.qpoly import Polynomial, evaluate

PENTAGON = LatticePolytope([(1, 0), (0, 1), (0, 2), (1, 3), (2, 1)])
PENTA_C = (Fraction(3, 4), Fraction(3, 4))
CUBE = LatticePolytope([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
OCTA = LatticePolytope([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
SQUARE = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])


def brute_count(P, c, t):
    """Independent oracle: test every box point against all vertex-cone-free
    membership via convex combination feasibility is overkill; instead use
    exact hull membership through the facet description of the dilate."""
    from ehrkit.geometry import hrep
    from ehrkit.linalg import dot
    import math as _m

    H = hrep(P)
    d = P.ambient_dim
    pts = [vec_add(c, vec_scale(t, v)) for v in P.vertices]
    lo = [_m.ceil(min(p[i] for p in pts)) for i in range(d)]
    hi = [_m.floor(max(p[i] for p in pts)) for i in range(d)]
    import itertools

    total = 0
    for x in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        y = [xi - ci for xi, ci in zip(x, c)]
        if all(dot(a, y) <= t * b for a, b in H.inequalities) and all(
            dot(a, y) == t * b for a, b in H.equalities
        ):
            total += 1
    return total


def brute_lost_new(P, c, t):
    """Independent oracle for ``lost_new_counts``: every point x of the
    bounding box of tP ∪ (c + tP) is tested for membership in tP + [0,c]
    (some s ∈ [0,1] with x - s c ∈ tP, an exact rational interval
    intersection against the facet description), in tP and in c + tP."""
    from ehrkit.geometry import hrep
    from ehrkit.linalg import dot
    import itertools
    import math as _m

    d = P.ambient_dim
    c = tuple(Fraction(x) for x in c)
    H = hrep(P)
    constraints = [(a, b, dot(a, c), False) for a, b in H.inequalities]
    constraints += [(a, b, dot(a, c), True) for a, b in H.equalities]
    base_pts = [vec_scale(t, v) for v in P.vertices]
    all_pts = base_pts + [vec_add(c, p) for p in base_pts]
    lo = [_m.ceil(min(p[i] for p in all_pts)) for i in range(d)]
    hi = [_m.floor(max(p[i] for p in all_pts)) for i in range(d)]
    lost = new = 0
    for x in itertools.product(*(range(lo[i], hi[i] + 1) for i in range(d))):
        s_lo, s_hi = Fraction(0), Fraction(1)
        in_sum = True
        for a, b, ac, is_eq in constraints:
            rhs = dot(a, x) - t * b  # need s * ac >= rhs (== for equalities)
            if is_eq:
                if ac == 0:
                    if rhs != 0:
                        in_sum = False
                        break
                else:
                    s = rhs / ac
                    s_lo = max(s_lo, s)
                    s_hi = min(s_hi, s)
            elif ac > 0:
                s_lo = max(s_lo, rhs / ac)
            elif ac < 0:
                s_hi = min(s_hi, rhs / ac)
            elif rhs > 0:
                in_sum = False
                break
            if s_lo > s_hi:
                in_sum = False
                break
        if not in_sum:
            continue
        in_base = all(
            (dot(a, x) == t * b) if is_eq else (dot(a, x) <= t * b)
            for a, b, _, is_eq in constraints
        )
        xc = vec_sub(x, c)
        in_translate = all(
            (dot(a, xc) == t * b) if is_eq else (dot(a, xc) <= t * b)
            for a, b, _, is_eq in constraints
        )
        if not in_translate:
            lost += 1
        if not in_base:
            new += 1
    return lost, new


class TestCountPoints:
    def test_pentagon_table_translated(self):
        assert [count_points(PENTAGON, PENTA_C, t) for t in (0, 1, 2)] == [0, 5, 17]

    def test_pentagon_table_base(self):
        assert [count_points(PENTAGON, (0, 0), t) for t in (0, 1, 2)] == [1, 7, 20]

    def test_cube(self):
        assert count_points(CUBE, (0, 0, 0), 2) == 27

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            count_points(CUBE, (0, 0), 1)

    def test_lower_dimensional_empty_slice(self):
        seg = LatticePolytope([(0, 0), (1, 0)])
        assert count_points(seg, (0, Fraction(1, 2)), 3) == 0

    def test_lower_dimensional_segment(self):
        seg = LatticePolytope([(0, 0), (2, 4)])
        assert count_points(seg, (0, 0), 1) == 3
        assert count_points(seg, (0, 0), 2) == 5

    def test_point_polytope(self):
        pt = LatticePolytope([(2, 3)])
        assert count_points(pt, (0, 0), 5) == 1
        assert count_points(pt, (Fraction(1, 2), 0), 5) == 0

    def test_integer_translation_invariance(self):
        rng = random.Random(3)
        for _ in range(15):
            d = rng.randint(1, 3)
            pts = [tuple(rng.randint(-2, 3) for _ in range(d)) for _ in range(5)]
            P = LatticePolytope(pts)
            c = tuple(Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 4))) for _ in range(d))
            z = tuple(rng.randint(-3, 3) for _ in range(d))
            t = rng.randint(1, 4)
            assert count_points(P, c, t) == count_points(P, vec_add(c, z), t)

    def test_matches_independent_membership_oracle(self):
        rng = random.Random(11)
        for _ in range(20):
            d = rng.randint(1, 3)
            pts = [tuple(rng.randint(-2, 3) for _ in range(d)) for _ in range(5)]
            P = LatticePolytope(pts)
            c = tuple(Fraction(rng.randint(0, 4), rng.choice((1, 2, 3, 4))) for _ in range(d))
            for t in range(1, 5):
                assert count_points(P, c, t) == brute_count(P, c, t)
        # lower-dimensional slices through a lattice point, d <= 4, with
        # negative translates, half of them along the slice so that its
        # translates keep lattice points, and fractional dilations
        ts = (Fraction(1, 3), Fraction(1, 2), 1, Fraction(3, 2), 2)
        for _ in range(60):
            d = rng.randint(2, 4)
            m = rng.randint(1, d - 1)
            base = tuple(rng.randint(-2, 2) for _ in range(d))
            dirs = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(m)]
            pts = [base]
            for _ in range(4):
                ks = [rng.randint(0, 1) for _ in dirs]
                pts.append(vec_add(base, [sum(k * u[i] for k, u in zip(ks, dirs)) for i in range(d)]))
            P = LatticePolytope(pts)
            assert P.dim <= m < d
            c = tuple(Fraction(rng.randint(-6, 2), rng.choice((1, 2, 3))) for _ in range(d))
            if rng.random() < 0.5:
                ws = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in dirs]
                along = [sum(w * u[i] for w, u in zip(ws, dirs)) for i in range(d)]
                c = vec_add(tuple(rng.randint(-3, 1) for _ in range(d)), along)
            for t in ts:
                assert count_points(P, c, t) == brute_count(P, c, t), (P, c, t)


class TestTranslatedEnumerator:
    def test_pentagon_polynomials(self):
        assert translated_enumerator(PENTAGON, PENTA_C) == Polynomial(
            (0, Fraction(3, 2), Fraction(7, 2))
        )
        assert translated_enumerator(PENTAGON, (0, 0)) == Polynomial(
            (1, Fraction(5, 2), Fraction(7, 2))
        )

    def test_empty_slice_zero_polynomial(self):
        seg = LatticePolytope([(0, 0), (1, 0)])
        assert translated_enumerator(seg, (0, Fraction(1, 2))) == Polynomial()

    def test_guard_rejects_non_polynomial_count(self):
        with pytest.raises(InterpolationGuardFailed):
            _interpolate_guarded(lambda t: 2**t, range(1, 5))

    def test_degree_and_leading_coefficient(self):
        rng = random.Random(17)
        for _ in range(10):
            d = rng.randint(1, 3)
            pts = [tuple(rng.randint(-2, 3) for _ in range(d)) for _ in range(5)]
            P = LatticePolytope(pts)
            c = tuple(Fraction(rng.randint(0, 3), rng.choice((1, 2, 3))) for _ in range(d))
            poly = translated_enumerator(P, c)
            if poly:
                assert poly.degree == P.dim
                assert poly.leading_coefficient == relative_volume(P)
            for t in range(1, 9):
                assert poly(t) == count_points(P, c, t)


class TestEhrhartQuasi:
    def test_period_is_translate_denominator(self):
        A = AlmostIntegralPolytope(CUBE, (Fraction(1, 9), Fraction(2, 9), Fraction(1, 3)))
        q = ehrhart_quasi(A)
        assert q.period == 9

    def test_constituents_count_dilated_translates(self):
        A = AlmostIntegralPolytope(OCTA, (Fraction(1, 5),) * 3)
        q = ehrhart_quasi(A)
        for t in range(1, 16):
            direct = count_points(A.base, vec_scale(t, A.translate), t)
            assert evaluate(q, t) == direct

    def test_integral_translate_gives_period_one(self):
        q = ehrhart_quasi(AlmostIntegralPolytope(SQUARE, (2, -1)))
        assert q.period == 1
        assert q.constituent(1) == Polynomial((1, 2, 1))


class TestWeightedSimplex:
    def test_g2_counts(self):
        assert count_weighted_simplex((2, 3), 6) == 7
        assert count_weighted_simplex((2, 3), 1) == 1
        assert count_weighted_simplex((2, 3), 7) == 8

    def test_e6_at_one(self):
        assert count_weighted_simplex((1, 1, 2, 2, 2, 3), 1) == 3

    def test_counts_upto_matches_naive(self):
        for t in range(0, 13):
            naive = sum(
                1
                for x in range(t + 1)
                for y in range(t + 1)
                if 2 * x + 3 * y <= t
            )
            assert count_weighted_simplex((2, 3), t) == naive

    def test_matches_vertex_realization(self):
        # {x >= 0 : 2x + 3y <= t} equals t * conv{0, (1/2,0), (0,1/3)};
        # clearing denominators, count the lattice polytope dilate via the
        # general path at 6-fold dilations
        P = LatticePolytope([(0, 0), (3, 0), (0, 2)])
        for s in range(1, 4):
            assert count_weighted_simplex((2, 3), 6 * s) == count_points(P, (0, 0), s)

    def test_quasi_matches_counts(self):
        q = weighted_simplex_quasi((2, 3))
        assert q.period == 6
        counts = weighted_simplex_counts_upto((2, 3), 40)
        for t in range(1, 41):
            assert evaluate(q, t) == counts[t]

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            weighted_simplex_counts_upto((0, 2), 5)


class TestRationalDilation:
    def test_ninth_cube_counts(self):
        ninth = [tuple(Fraction(x, 9) for x in v) for v in CUBE.vertices]
        for t in (1, 8, 9, 10, 18):
            assert count_rational_dilate(ninth, t) == (t // 9 + 1) ** 3

    def test_ninth_cube_quasi(self):
        ninth = [tuple(Fraction(x, 9) for x in v) for v in CUBE.vertices]
        q = rational_dilation_quasi(ninth)
        assert q.period == 9
        for k in range(1, 10):
            a = 9 - k if k < 9 else 9
            expected = Polynomial(
                (Fraction(a**3, 729), Fraction(3 * a**2, 729), Fraction(3 * a, 729), Fraction(1, 729))
            )
            assert q.constituent(k) == expected

    def test_lower_dimensional_rejected(self):
        with pytest.raises(ValueError):
            count_rational_dilate([(0, 0), (Fraction(1, 2), Fraction(1, 2))], 1)


class TestLostNew:
    def test_pentagon_table(self):
        assert [lost_new_counts(PENTAGON, PENTA_C, t) for t in (0, 1, 2)] == [
            (1, 0),
            (4, 2),
            (7, 4),
        ]

    def test_zero_translate(self):
        assert lost_new_counts(CUBE, (0, 0, 0), 3) == (0, 0)

    def test_identity_on_corpus(self):
        rng = random.Random(23)
        for P in (PENTAGON, SQUARE, CUBE, OCTA):
            d = P.ambient_dim
            for _ in range(4):
                c = tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 4))) for _ in range(d))
                for t in range(0, 4):
                    lost, new = lost_new_counts(P, c, t)
                    assert count_points(P, c, t) + lost == count_points(P, (0,) * d, t) + new

    def test_matches_membership_oracle(self):
        rng = random.Random(29)
        for i in range(40):
            d = rng.randint(1, 3)
            if i % 3 == 0:
                # lower dimensional: lattice points on a line through a lattice point
                o = [rng.randint(-2, 2) for _ in range(d)]
                u = [rng.randint(-2, 2) for _ in range(d)]
                pts = [tuple(o[j] + k * u[j] for j in range(d)) for k in rng.sample(range(-2, 3), 2)]
            else:
                pts = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d + 2)]
            P = LatticePolytope(pts)
            c = tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 4))) for _ in range(d))
            for t in range(0, 3):
                assert lost_new_counts(P, c, t) == brute_lost_new(P, c, t), (pts, c, t)

    def test_lower_dimensional_segment(self):
        seg = LatticePolytope([(0, 0), (2, 4)])
        c = (Fraction(1, 2), 1)
        lost, new = lost_new_counts(seg, c, 2)
        assert count_points(seg, c, 2) + lost == count_points(seg, (0, 0), 2) + new


class TestScan:
    def test_square_scan(self):
        c = (Fraction(1, 2), Fraction(1, 4))
        assert scan_scaled_translate(SQUARE, c, [0, 1, 2, 4, 6]) == [4, 1, 2, 4, 2]

    def test_octahedron_scan(self):
        c = (Fraction(1, 3),) * 3
        xs = [0, Fraction(1, 2), Fraction(3, 2), 3]
        assert scan_scaled_translate(OCTA, c, xs) == [7, 1, 0, 7]
