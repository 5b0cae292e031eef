import gc
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from ehrkit.characterize import classify
from ehrkit.counting import count_points
from ehrkit.geometry import LatticePolytope, relative_volume
from ehrkit.linalg import is_integer_vector, vec_scale
from ehrkit.qpoly import Polynomial, evaluate, has_gcd_property, minimal_period
from ehrkit.zonotopes import (
    TooManyGenerators,
    ZonotopeSpec,
    abm_quasi,
    zonotope_point_bound_check,
    zonotope_vertices,
)


def random_spec(rng, max_dim=3, max_gens=4, entry_bound=3, max_den=4):
    while True:
        d = rng.randint(1, max_dim)
        gens = [
            tuple(rng.randint(-entry_bound, entry_bound) for _ in range(d))
            for _ in range(rng.randint(1, max_gens))
        ]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        c = tuple(Fraction(rng.randint(0, 7), rng.choice(range(1, max_den + 1))) for _ in range(d))
        return ZonotopeSpec(gens, c)


class TestSpec:
    def test_rejects_zero_generator(self):
        with pytest.raises(ValueError):
            ZonotopeSpec([(0, 0)])

    def test_default_translate(self):
        Z = ZonotopeSpec([(1, 0)])
        assert Z.translate == (0, 0)
        assert Z.denominator == 1

    def test_guard(self):
        gens = [(1, 0)] * 21
        with pytest.raises(TooManyGenerators):
            abm_quasi(ZonotopeSpec(gens))
        with pytest.raises(TooManyGenerators):
            zonotope_vertices(ZonotopeSpec(gens))


class TestAbmQuasi:
    def test_segment(self):
        q = abm_quasi(ZonotopeSpec([(1,)], ambient_dim=1))
        assert q.period == 1
        assert q.constituent(1) == Polynomial((1, 1))

    def test_hexagon_area_three(self):
        q = abm_quasi(ZonotopeSpec([(1, 0), (1, 1), (0, 1)]))
        assert q.period == 1
        assert q.constituent(1) == Polynomial((1, 3, 3))

    def test_shifted_unit_cube(self):
        c = (Fraction(1, 9), Fraction(2, 9), Fraction(1, 3))
        q = abm_quasi(ZonotopeSpec([(1, 0, 0), (0, 1, 0), (0, 0, 1)], c))
        assert q.period == 9
        assert q.constituent(9) == Polynomial((1, 3, 3, 1))
        assert q.constituent(1) == Polynomial((0, 0, 0, 1))
        assert has_gcd_property(q)

    def test_point_zonotope(self):
        q = abm_quasi(ZonotopeSpec([], translate=(Fraction(1, 2), 0)))
        assert q.period == 2
        assert q.constituent(1) == Polynomial()
        assert q.constituent(2) == Polynomial((1,))

    def test_duplicate_generators_are_multiset_elements(self):
        # Z(e1, e1) is the segment [0, 2e1]: L(t) = 2t + 1
        q = abm_quasi(ZonotopeSpec([(1, 0), (1, 0)]))
        assert q.constituent(1) == Polynomial((1, 2))

    def test_constant_term_is_integrality_indicator(self):
        rng = random.Random(7)
        for _ in range(25):
            Z = random_spec(rng)
            q = abm_quasi(Z)
            for k in range(1, q.period + 1):
                coeffs = q.constituent(k).coefficients
                c0 = coeffs[0] if coeffs else 0
                expected = 1 if is_integer_vector(vec_scale(k, Z.translate)) else 0
                assert c0 == expected


class TestKeptResults:
    def test_memory_per_result(self):
        # a benchmark or a caller keeps every result; equal constituents
        # share one object and small integral coefficients one Fraction
        rng = random.Random(307)
        specs = []
        while len(specs) < 300:
            d = rng.randint(2, 3)
            gens = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(1, d + 1))]
            if all(any(g) for g in gens):
                q = rng.randint(1, 6)
                specs.append(ZonotopeSpec(gens, [Fraction(rng.randrange(q), q) for _ in range(d)]))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [abm_quasi(Z) for Z in specs]
            gc.collect()
            per_result = (tracemalloc.get_traced_memory()[0] - before) / len(kept)
        finally:
            tracemalloc.stop()
        assert per_result <= 600, per_result


class TestZonotopeVertices:
    def test_unit_square(self):
        A = zonotope_vertices(ZonotopeSpec([(1, 0), (0, 1)]))
        assert A.base.vertices == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_hexagon(self):
        A = zonotope_vertices(ZonotopeSpec([(1, 0), (1, 1), (0, 1)]))
        assert len(A.base.vertices) == 6

    def test_segment_with_translate(self):
        A = zonotope_vertices(ZonotopeSpec([(2, 4)], (Fraction(1, 2), 0)))
        assert A.base.vertices == ((0, 0), (2, 4))
        assert A.translate == (Fraction(1, 2), 0)


    def test_eight_generators_in_general_position(self):
        # any three of the moment-curve generators (1, s, s^2) are independent
        Z = ZonotopeSpec([(1, s, s * s) for s in range(-3, 5)], (Fraction(1, 2), Fraction(1, 3), 0))
        start = time.perf_counter()
        P = zonotope_vertices(Z).base
        report = classify(P)
        # a C(n, m) hull over the 256 subset sums spends minutes here
        assert time.perf_counter() - start < 10
        assert len(P.vertices) == 58
        assert len(P.coord_facets) == 56
        assert report["zonotope"] and report["centrally_symmetric"]
        q = abm_quasi(Z)
        assert evaluate(q, 1) == count_points(P, Z.translate, 1)
        # the triangulated volume against the ABM formula's leading coefficients
        assert relative_volume(P) == 1344
        assert {f.leading_coefficient for f in q.constituents} == {1344}


class TestPointBound:
    def test_half_shifted_square(self):
        ct, cb, ok = zonotope_point_bound_check(ZonotopeSpec([(1, 0), (0, 1)], (Fraction(1, 2), Fraction(1, 2))))
        assert (ct, cb, ok) == (1, 4, True)

    def test_integer_shift(self):
        ct, cb, ok = zonotope_point_bound_check(ZonotopeSpec([(1, 0), (0, 1)], (1, 0)))
        assert (ct, cb, ok) == (4, 4, True)

    def test_shifted_cube(self):
        c = (Fraction(1, 9), Fraction(2, 9), Fraction(1, 3))
        ct, cb, ok = zonotope_point_bound_check(ZonotopeSpec([(1, 0, 0), (0, 1, 0), (0, 0, 1)], c))
        assert (ct, cb, ok) == (1, 8, True)


class TestRandomSuite:
    def test_oracle_agreement(self):
        rng = random.Random(2026)
        for _ in range(40):
            Z = random_spec(rng)
            q = abm_quasi(Z)
            A = zonotope_vertices(Z)
            for t in range(1, 9):
                direct = count_points(A.base, vec_scale(t, A.translate), t)
                assert evaluate(q, t) == direct

    def test_gcd_property_and_minimal_period(self):
        rng = random.Random(2027)
        for _ in range(40):
            Z = random_spec(rng)
            q = abm_quasi(Z)
            assert has_gcd_property(q)
            assert minimal_period(q).period == Z.denominator
            ct, cb, ok = zonotope_point_bound_check(Z)
            assert ok
