import math
import random
from fractions import Fraction

import pytest

from ehrkit.qpoly import (
    Polynomial,
    QuasiPolynomial,
    evaluate,
    gcd_violation,
    has_gcd_property,
    inflate_period,
    is_symmetric,
    minimal_period,
    polynomial_to_strings,
    quasi_to_json_dict,
    symmetry_violation,
)


def poly(*coeffs):
    return Polynomial(coeffs)


def polynomial_from_strings(items):
    return Polynomial(Fraction(s) for s in items)


def quasi_from_json_dict(doc):
    return QuasiPolynomial(int(doc["period"]), tuple(polynomial_from_strings(c) for c in doc["constituents"]))


def gcd_property_period_stability(q, k):
    """gcd-property verdict after inflating the period by k; must agree
    with ``has_gcd_property(q)``."""
    return has_gcd_property(inflate_period(q, k))


def brute_symmetry_violation(q):
    """The first k in 0..rho with f_k != f_{rho-k}, as residues mod rho:
    the scan oracle for ``symmetry_violation``."""
    rho = q.period
    k = next((k for k in range(rho + 1) if q.constituent(k) != q.constituent(rho - k)), None)
    return None if k is None else (k % rho, (rho - k) % rho)


def brute_gcd_violation(q):
    """The lexicographically first k < l with gcd(rho, k) = gcd(rho, l)
    and f_k != f_l, by an O(rho^2) scan: the oracle for ``gcd_violation``."""
    rho = q.period
    return next(
        (
            (k, l)
            for k in range(1, rho + 1)
            for l in range(k + 1, rho + 1)
            if math.gcd(rho, k) == math.gcd(rho, l) and q.constituent(k) != q.constituent(l)
        ),
        None,
    )


def brute_interpolate(samples):
    """Lagrange interpolation through ``(t, value)`` pairs, exact over Q:
    the O(n^3) oracle for ``Polynomial.interpolate``."""
    pts = [(Fraction(t), Fraction(v)) for t, v in samples]
    n = len(pts)
    coeffs = [Fraction(0)] * n
    for i, (ti, vi) in enumerate(pts):
        # basis polynomial prod_{j != i} (x - t_j) / (t_i - t_j)
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (tj, _) in enumerate(pts):
            if j == i:
                continue
            denom *= ti - tj
            nxt = [Fraction(0)] * (len(basis) + 1)
            for k, b in enumerate(basis):
                nxt[k + 1] += b
                nxt[k] -= tj * b
            basis = nxt
        w = vi / denom
        for k, b in enumerate(basis):
            coeffs[k] += w * b
    return Polynomial(coeffs)


class TestPolynomial:
    def test_canonical_form_strips_trailing_zeros(self):
        assert poly(1, 2, 0, 0) == poly(1, 2)
        assert poly().degree == -1
        assert poly(0, 0).degree == -1
        assert not poly(0)
        assert poly(0, 1).degree == 1

    def test_evaluation(self):
        p = poly(1, Fraction(5, 2), Fraction(7, 2))
        assert p(1) == 7
        assert p(2) == 20

    def test_interpolate_exact(self):
        p = poly(Fraction(1, 3), 0, 2, -1)
        samples = [(t, p(t)) for t in range(1, 6)]
        assert Polynomial.interpolate(samples) == p

    def test_interpolate_rational_nodes(self):
        p = Polynomial.interpolate([(Fraction(1, 2), 1), (Fraction(3, 2), 3)])
        assert p == poly(0, 2)

    def test_interpolate_matches_lagrange_oracle(self):
        rng = random.Random(16)

        def rational():
            return Fraction(rng.randint(-40, 40), rng.randint(1, 12))

        for trial in range(300):
            n = trial % 11
            if trial % 3 == 0:  # arithmetic progression, any sign of step
                start, step = rational(), rational() or Fraction(1)
                nodes = [start + i * step for i in range(n)]
            elif trial % 3 == 1:  # k, k + rho, ... as the counting module samples
                k, rho = rng.randint(-5, 5), rng.randint(1, 9)
                nodes = list(range(k, k + n * rho, rho))
            else:
                nodes = []
                while len(nodes) < n:
                    t = rational()
                    if t not in nodes:
                        nodes.append(t)
            samples = [(t, rational()) for t in nodes]
            expected = brute_interpolate(samples)
            got = Polynomial.interpolate(iter(samples))
            assert got.coefficients == expected.coefficients
            assert all(got(t) == v for t, v in samples)

    def test_interpolate_repeated_node(self):
        samples = [(1, 2), (Fraction(2), 3), (1, 2)]
        for fit in (Polynomial.interpolate, brute_interpolate):
            with pytest.raises(ZeroDivisionError):
                fit(samples)

    def test_string_round_trip(self):
        p = poly(Fraction(-4, 3), 0, Fraction(4, 3))
        assert polynomial_from_strings(polynomial_to_strings(p)) == p

    def test_str(self):
        assert str(poly()) == "0"
        assert str(poly(1, Fraction(3, 2))) == "3/2*t + 1"


OCTA_F0 = poly(1, Fraction(8, 3), 2, Fraction(4, 3))


class TestQuasiPolynomial:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuasiPolynomial(0, ())
        with pytest.raises(ValueError):
            QuasiPolynomial(2, (poly(1),))

    def test_constituent_indexing(self):
        q = QuasiPolynomial(3, (poly(1), poly(2), poly(3)))
        assert q.constituent(1) == poly(1)
        assert q.constituent(3) == poly(3)
        assert q.constituent(0) == poly(3)
        assert q.constituent(4) == poly(1)
        assert q.constituent(-1) == poly(2)

    def test_evaluate_constant(self):
        q = QuasiPolynomial(1, (poly(5),))
        assert evaluate(q, 17) == 5
        with pytest.raises(ValueError):
            evaluate(q, 0)

    def test_evaluate_octahedron_integer_residue(self):
        # (4/3) 9^3 + 2 81 + (8/3) 9 + 1 = 1159, the octahedron count at t = 9
        q = QuasiPolynomial(9, tuple(poly(0) for _ in range(8)) + (OCTA_F0,))
        assert evaluate(q, 9) == 1159


class TestMinimalPeriod:
    def test_collapses_constant(self):
        q = QuasiPolynomial(6, tuple(poly(7) for _ in range(6)))
        assert minimal_period(q).period == 1

    def test_detects_true_subperiod(self):
        q = QuasiPolynomial(4, (poly(1), poly(2), poly(1), poly(2)))
        r = minimal_period(q)
        assert r.period == 2
        assert r.constituents == (poly(1), poly(2))

    def test_idempotent_and_divides(self):
        q = QuasiPolynomial(6, (poly(1), poly(2), poly(1), poly(1), poly(2), poly(1)))
        r = minimal_period(q)
        assert q.period % r.period == 0
        assert minimal_period(r) == r


class TestProperties:
    def test_symmetric_examples(self):
        sym = QuasiPolynomial(5, (poly(1), poly(2), poly(2), poly(1), poly(9)))
        assert is_symmetric(sym)
        asym = QuasiPolynomial(5, (poly(1), poly(2), poly(2), poly(3), poly(9)))
        assert not is_symmetric(asym)
        assert is_symmetric(QuasiPolynomial(1, (poly(3, 1),)))

    def test_gcd_property_examples(self):
        # period 4: classes {1,3}, {2}, {4}
        good = QuasiPolynomial(4, (poly(1), poly(2), poly(1), poly(3)))
        assert has_gcd_property(good)
        bad = QuasiPolynomial(4, (poly(1), poly(2), poly(5), poly(3)))
        assert not has_gcd_property(bad)

    def test_gcd_property_implies_symmetric(self):
        good = QuasiPolynomial(6, (poly(1), poly(2), poly(3), poly(2), poly(1), poly(4)))
        assert has_gcd_property(good)
        assert is_symmetric(good)

    def test_inflate_preserves_values(self):
        q = QuasiPolynomial(3, (poly(1), poly(2), poly(3)))
        r = inflate_period(q, 3)
        assert r.period == 9
        for t in range(1, 19):
            assert evaluate(q, t) == evaluate(r, t)

    def test_period_stability(self):
        good = QuasiPolynomial(4, (poly(1), poly(2), poly(1), poly(3)))
        bad = QuasiPolynomial(4, (poly(1), poly(2), poly(5), poly(3)))
        for k in (1, 2, 3):
            assert gcd_property_period_stability(good, k) == has_gcd_property(good)
            assert gcd_property_period_stability(bad, k) == has_gcd_property(bad)

    def test_violations_match_scan_oracles(self):
        # constituents drawn from a gcd-class or mirror-symmetric pattern,
        # then a few residues overwritten, so both verdicts occur
        rng = random.Random(23)
        pool = [poly(i) for i in range(4)]
        verdicts = set()
        for _ in range(600):
            rho = rng.randint(1, 30)
            if rng.random() < 0.5:
                by_gcd = {g: rng.choice(pool) for g in range(1, rho + 1)}
                cons = [by_gcd[math.gcd(rho, k)] for k in range(1, rho + 1)]
            else:
                cons = [rng.choice(pool) for _ in range(rho)]
                for k in range(1, rho // 2 + 1):
                    cons[rho - k - 1] = cons[k - 1]
            for _ in range(rng.choice((0, 0, 1, 2))):
                cons[rng.randrange(rho)] = rng.choice(pool)
            q = QuasiPolynomial(rho, cons)
            sym, gcd = symmetry_violation(q), gcd_violation(q)
            assert sym == brute_symmetry_violation(q), q
            assert gcd == brute_gcd_violation(q), q
            assert is_symmetric(q) == (sym is None)
            assert has_gcd_property(q) == (gcd is None)
            verdicts.add((sym is None, gcd is None))
        assert verdicts == {(True, True), (True, False), (False, False)}

    def test_property_invariance_under_reduction(self):
        q = QuasiPolynomial(4, (poly(1), poly(2), poly(1), poly(2)))
        r = minimal_period(q)
        assert is_symmetric(q) == is_symmetric(r)
        assert has_gcd_property(q) == has_gcd_property(r)


class TestJson:
    def test_round_trip(self):
        q = QuasiPolynomial(2, (poly(Fraction(1, 2), 1), poly(3)))
        doc = quasi_to_json_dict(q)
        assert doc == {"period": 2, "constituents": [["1/2", "1"], ["3"]]}
        assert quasi_from_json_dict(doc) == q
