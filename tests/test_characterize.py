import math
import random
from fractions import Fraction
from itertools import chain, count as icount

from ehrkit import characterize
from ehrkit.characterize import (
    WitnessReport,
    _facet_direction_candidates,
    _grid_candidates,
    _reduce_mod_one,
    _scaling_candidates,
    asymmetry_witness,
    classify,
    gcd_violation_witness,
    verify_witness,
)
from ehrkit.corpus import counterexample_polytope
from ehrkit.counting import count_points, translated_enumerator
from ehrkit.geometry import LatticePolytope
from ehrkit.linalg import dot, lcm_denominators, vec_neg, vec_scale

CUBE = LatticePolytope([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
OCTA = LatticePolytope([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
PENTAGON = LatticePolytope([(1, 0), (0, 1), (0, 2), (1, 3), (2, 1)])
SIMPLEX = LatticePolytope([(0, 0), (1, 0), (0, 1)])


SEARCHES = {"asymmetry": asymmetry_witness, "gcd_violation": gcd_violation_witness}


def brute_witness(P, kind, budget):
    """The attempt loop of both searches with no enumerator kept: two
    enumerators per attempt, the partner's at -c or 2c as computed,
    not reduced mod Z^d."""
    if kind == "asymmetry":
        candidates = chain(_facet_direction_candidates(P), _grid_candidates(P.ambient_dim, icount(2)))
    else:
        candidates = chain(_scaling_candidates(P), _grid_candidates(P.ambient_dim, icount(3, 2)))
    attempts = 0
    seen = set()
    for c in candidates:
        if attempts >= budget:
            break
        rho = lcm_denominators(c)
        if c in seen or all(x == 0 for x in c) or (rho <= 2 if kind == "asymmetry" else rho % 2 == 0):
            continue
        seen.add(c)
        attempts += 1
        f = translated_enumerator(P, c)
        g = translated_enumerator(P, vec_neg(c) if kind == "asymmetry" else vec_scale(2, c))
        if f != g:
            residues = (1, rho - 1) if kind == "asymmetry" else (1, 2)
            return WitnessReport(kind, True, c, residues, (f, g), attempts, False)
    return WitnessReport(kind, False, None, None, None, attempts, True)


def random_base(rng):
    """A lattice polytope in Z^d, d = 1..3: about a third embedded
    lower-dimensionally (points included), about a quarter mirrored
    through the origin, so that some searches exhaust their budget."""
    d = rng.randint(1, 3)
    k = rng.randint(0, d - 1) if rng.random() < 1 / 3 else d
    pts = [tuple(rng.randint(-1, 1) for _ in range(k)) for _ in range(rng.randint(k + 1, k + 3))]
    if rng.random() < 0.25:
        pts += [tuple(-x for x in p) for p in pts]
    if k < d:
        rows = [[rng.randint(-1, 2) for _ in range(k)] for _ in range(d)]
        shift = [rng.randint(-2, 2) for _ in range(d)]
        pts = [tuple(dot(r, p) + s for r, s in zip(rows, shift)) for p in pts]
    return LatticePolytope(pts)


def count_enumerators(monkeypatch):
    """Route the searches' enumerator calls through a recorder; returns
    the list of the classes mod Z^d they were called on."""
    calls = []

    def recorded(P, c):
        calls.append(_reduce_mod_one(c))
        return translated_enumerator(P, c)

    monkeypatch.setattr(characterize, "translated_enumerator", recorded)
    return calls


class TestEnumeratorCache:
    def test_matches_brute_force(self):
        # one search per base, the two kinds in turn, to keep this near 10 s
        rng = random.Random(1307)
        for i in range(150):
            P = random_base(rng)
            kind = ("asymmetry", "gcd_violation")[i % 2]
            assert SEARCHES[kind](P, 40) == brute_witness(P, kind, 40), (P, kind)

    def test_one_enumerator_per_class(self, monkeypatch):
        calls = count_enumerators(monkeypatch)
        for P in (CUBE, OCTA, PENTAGON, counterexample_polytope(8)):
            for search in SEARCHES.values():
                calls.clear()
                search(P, 100)
                assert len(calls) == len(set(calls)), (P, search)

    def test_second_search_starts_cold(self, monkeypatch):
        calls = count_enumerators(monkeypatch)
        for search in SEARCHES.values():
            calls.clear()
            first = search(LatticePolytope(CUBE.vertices), 30)
            n = len(calls)
            assert search(LatticePolytope(CUBE.vertices), 30) == first
            assert calls[n:] == calls[:n]

    def test_cube_calls(self, monkeypatch):
        # without the dict, two calls per attempt: 200 each
        calls = count_enumerators(monkeypatch)
        for search, most in ((asymmetry_witness, 106), (gcd_violation_witness, 133)):
            calls.clear()
            rep = search(CUBE, 100)
            assert not rep.found and rep.attempts == 100
            assert len(calls) <= most, search

    def test_point(self):
        for d in (1, 2, 3):
            P = LatticePolytope([tuple(range(1, d + 1))])
            for kind, search in SEARCHES.items():
                rep = search(P, 20)
                assert not rep.found and rep.budget_exhausted and rep.attempts == 20, (d, kind)


class TestAsymmetryWitness:
    def test_standard_simplex(self):
        rep = asymmetry_witness(SIMPLEX, budget=500)
        assert rep.found
        assert verify_witness(SIMPLEX, rep)
        # the known witness translate separates the counts at t = 1
        c = (Fraction(1, 3), Fraction(1, 3))
        assert count_points(SIMPLEX, c, 1) == 0
        assert count_points(SIMPLEX, vec_neg(c), 1) == 1

    def test_pentagon(self):
        rep = asymmetry_witness(PENTAGON, budget=500)
        assert rep.found
        assert verify_witness(PENTAGON, rep)
        assert translated_enumerator(PENTAGON, rep.translate) != translated_enumerator(
            PENTAGON, vec_neg(rep.translate)
        )

    def test_counterexample_family(self):
        P8 = counterexample_polytope(8)
        rep = asymmetry_witness(P8, budget=500)
        assert rep.found
        assert verify_witness(P8, rep)

    def test_cube_exhausts_budget(self):
        rep = asymmetry_witness(CUBE, budget=60)
        assert not rep.found
        assert rep.budget_exhausted
        assert rep.attempts == 60

    def test_witness_residue_structure(self):
        rep = asymmetry_witness(SIMPLEX, budget=500)
        rho = lcm_denominators(rep.translate)
        k, l = rep.residues
        assert (k + l) % rho == 0
        assert rep.constituents[0] != rep.constituents[1]


class TestGcdViolationWitness:
    def test_octahedron(self):
        rep = gcd_violation_witness(OCTA, budget=500)
        assert rep.found
        assert verify_witness(OCTA, rep)
        rho = lcm_denominators(rep.translate)
        assert rho % 2 == 1
        assert math.gcd(rho, rep.residues[0]) == math.gcd(rho, rep.residues[1])

    def test_octahedron_known_translate_works(self):
        c = (Fraction(1, 5),) * 3
        f1 = translated_enumerator(OCTA, c)
        f2 = translated_enumerator(OCTA, vec_scale(2, c))
        assert f1 != f2

    def test_simplex(self):
        rep = gcd_violation_witness(SIMPLEX, budget=500)
        assert rep.found
        assert verify_witness(SIMPLEX, rep)

    def test_cube_exhausts_budget(self):
        rep = gcd_violation_witness(CUBE, budget=60)
        assert not rep.found
        assert rep.budget_exhausted

    def test_determinism(self):
        assert gcd_violation_witness(OCTA, budget=200) == gcd_violation_witness(OCTA, budget=200)
        assert asymmetry_witness(PENTAGON, budget=200) == asymmetry_witness(PENTAGON, budget=200)


class TestVerifyWitness:
    def test_rejects_not_found(self):
        rep = WitnessReport("asymmetry", False, None, None, None, 3, True)
        assert not verify_witness(SIMPLEX, rep)

    def test_rejects_tampered_report(self):
        rep = gcd_violation_witness(OCTA, budget=500)
        swapped = WitnessReport(
            rep.kind, True, rep.translate, rep.residues,
            (rep.constituents[1], rep.constituents[0]), rep.attempts, False,
        )
        assert not verify_witness(OCTA, swapped)


class TestClassify:
    def test_cube(self):
        rep = classify(CUBE)
        assert rep["centrally_symmetric"]
        assert rep["zonotope"]
        assert rep["minkowski_violations"] == []
        assert rep["non_symmetric_2face"] is None

    def test_octahedron_with_witness(self):
        rep = classify(OCTA, witness=True, budget=500)
        assert rep["centrally_symmetric"]
        assert not rep["zonotope"]
        assert rep["non_symmetric_2face"] is not None
        assert "asymmetry_witness" not in rep
        assert rep["gcd_violation_witness"].found

    def test_counterexample_with_witness(self):
        P8 = counterexample_polytope(8)
        rep = classify(P8, witness=True, budget=500)
        assert not rep["centrally_symmetric"]
        assert len(rep["minkowski_violations"]) > 0
        assert rep["asymmetry_witness"].found
