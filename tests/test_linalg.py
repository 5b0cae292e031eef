import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from ehrkit.linalg import (
    DimensionMismatch,
    IntMatrix,
    RankDeficient,
    affine_lattice_nonempty,
    det,
    dot,
    gcd_maximal_minors,
    kernel_basis,
    lcm_denominators,
    primitive_vector,
    rational_rank,
    snf,
    solve_columns,
)


def matmul(A, B):
    """The product of two integer matrices."""
    return IntMatrix.from_rows([[dot(A.row(i), B.column(j)) for j in range(B.cols)] for i in range(A.rows)])


def determinant(rows):
    """Exact determinant via fraction Gaussian elimination."""
    n = len(rows)
    mat = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if mat[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        p = mat[col][col]
        for i in range(col + 1, n):
            if mat[i][col] != 0:
                f = mat[i][col] / p
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[col])]
    return det


def gcd_maximal_minors_direct(W):
    """Oracle for gcd_maximal_minors: enumerate every maximal minor and
    take the gcd."""
    k = W.cols
    if rational_rank([W.column(j) for j in range(k)]) < k:
        raise RankDeficient("matrix does not have full column rank")
    g = 0
    for rows in combinations(range(W.rows), k):
        g = math.gcd(g, int(determinant([[W.entry(i, j) for j in range(k)] for i in rows])))
    return g


def random_matrix(rng, max_dim=8, bound=20):
    n = rng.randint(1, max_dim)
    m = rng.randint(1, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)]
    )


class TestSnf:
    def test_identity(self):
        dec = snf(IntMatrix.identity(2))
        assert dec.D == IntMatrix.identity(2)
        assert dec.U == IntMatrix.identity(2)
        assert dec.V == IntMatrix.identity(2)

    def test_single_column(self):
        dec = snf(IntMatrix.from_columns([(2, 4)]))
        assert dec.invariant_factors == (2,)

    def test_two_columns_unimodular_lattice(self):
        dec = snf(IntMatrix.from_columns([(1, 1, 0), (0, 1, 1)]))
        assert dec.invariant_factors == (1, 1)

    def test_round_trip_random(self):
        rng = random.Random(101)
        for _ in range(60):
            W = random_matrix(rng)
            dec = snf(W)
            assert matmul(matmul(dec.U, W), dec.V) == dec.D
            assert abs(determinant(dec.U.row_lists())) == 1
            assert abs(determinant(dec.V.row_lists())) == 1
            assert matmul(dec.U, dec.U_inverse) == IntMatrix.identity(W.rows)
            diag = dec.D.diagonal()
            assert all(d >= 0 for d in diag)
            for a, b in zip(diag, diag[1:]):
                if b != 0:
                    assert a != 0 and b % a == 0
            # off-diagonal must vanish
            for i in range(dec.D.rows):
                for j in range(dec.D.cols):
                    if i != j:
                        assert dec.D.entry(i, j) == 0

    def test_deterministic(self):
        W = IntMatrix.from_rows([[4, 6, 2], [6, 3, 9]])
        assert snf(W) == snf(W)


class TestGcdMaximalMinors:
    def test_single_column(self):
        assert gcd_maximal_minors(IntMatrix.from_columns([(2, 4)])) == 2

    def test_unit_columns(self):
        W = IntMatrix.from_columns([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert gcd_maximal_minors(W) == 1

    def test_two_columns(self):
        assert gcd_maximal_minors(IntMatrix.from_columns([(1, 1, 0), (0, 1, 1)])) == 1

    def test_rank_deficient_raises(self):
        with pytest.raises(RankDeficient):
            gcd_maximal_minors(IntMatrix.from_columns([(1, 2), (2, 4)]))

    def test_matches_direct_enumeration(self):
        rng = random.Random(77)
        done = 0
        while done < 40:
            n = rng.randint(1, 5)
            k = rng.randint(1, n)
            W = IntMatrix.from_rows([[rng.randint(-6, 6) for _ in range(k)] for _ in range(n)])
            if rational_rank([W.column(j) for j in range(k)]) < k:
                continue
            assert gcd_maximal_minors(W) == gcd_maximal_minors_direct(W)
            done += 1


class TestAffineLatticeNonempty:
    def test_empty_span_integer_vector(self):
        W = IntMatrix.from_columns([], nrows=2)
        assert affine_lattice_nonempty(W, (1, 0))
        assert not affine_lattice_nonempty(W, (Fraction(1, 2), 0))

    def test_plane_absorbs_first_coordinates(self):
        W = IntMatrix.from_columns([(1, 0, 0), (0, 1, 0)])
        assert affine_lattice_nonempty(W, (Fraction(1, 3), Fraction(2, 3), 1))
        assert not affine_lattice_nonempty(W, (Fraction(1, 9), Fraction(2, 9), Fraction(1, 3)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            affine_lattice_nonempty(IntMatrix.from_columns([(1, 0)]), (1, 2, 3))

    def test_witness_point_is_sound(self):
        rng = random.Random(5)
        for _ in range(60):
            d = rng.randint(1, 3)
            k = rng.randint(1, 2)
            cols = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(k)]
            cols = [c for c in cols if any(c)]
            if not cols:
                continue
            W = IntMatrix.from_columns(cols)
            v = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(d))
            if affine_lattice_nonempty(W, v):
                # U^{-1} (0, y[r:]) with y = U v is an integer point of
                # v + span: it differs from v by U^{-1} (y[:r], 0)
                dec = snf(W)
                y = dec.U.apply(v)
                r = dec.rank
                z = dec.U_inverse.apply([0] * r + [int(x) for x in y[r:]])
                diff = [z[i] - v[i] for i in range(d)]
                rank_before = rational_rank([W.column(j) for j in range(W.cols)])
                rank_after = rational_rank([W.column(j) for j in range(W.cols)] + [diff])
                assert rank_before == rank_after

    def test_agrees_with_brute_force_lambda_grid(self):
        # small instances: scan lambda on a rational grid fine enough to
        # certify any integer point with bounded coordinates
        rng = random.Random(9)
        for _ in range(30):
            d = rng.randint(2, 3)
            k = rng.randint(1, 2)
            cols = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(k)]
            cols = [c for c in cols if any(c)]
            if not cols:
                continue
            W = IntMatrix.from_columns(cols)
            v = tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(d))
            found = False
            steps = [Fraction(n, 2) for n in range(-12, 13)]
            if k == 1:
                grid = [(s,) for s in steps]
            else:
                grid = [(s, u) for s in steps for u in steps]
            for lam in grid:
                pt = [v[i] + sum(lam[j] * cols[j][i] for j in range(len(cols))) for i in range(d)]
                if all(x.denominator == 1 for x in pt):
                    found = True
                    break
            if found:
                assert affine_lattice_nonempty(W, v)

    def test_integer_shift_invariance(self):
        rng = random.Random(13)
        for _ in range(40):
            d = rng.randint(1, 3)
            cols = [tuple(rng.randint(-3, 3) for _ in range(d))]
            if not any(cols[0]):
                continue
            W = IntMatrix.from_columns(cols)
            v = tuple(Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 4))) for _ in range(d))
            z = tuple(rng.randint(-4, 4) for _ in range(d))
            shifted = tuple(a + b for a, b in zip(v, z))
            assert affine_lattice_nonempty(W, v) == affine_lattice_nonempty(W, shifted)


class TestDet:
    def test_matches_fraction_elimination(self):
        rng = random.Random(71)
        for _ in range(300):
            n = rng.randint(0, 5)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if n and rng.random() < 0.3:
                # singular: one row a combination of the others
                coef = [rng.randint(-2, 2) for _ in range(n - 1)]
                rows[-1] = [sum(c * r[j] for c, r in zip(coef, rows)) for j in range(n)]
                rng.shuffle(rows)
            assert det(rows) == determinant(rows), rows

    def test_zero_pivot_and_empty(self):
        assert det([]) == 1
        assert det([[0, 1], [1, 0]]) == -1
        assert det([[0, 0, 1], [0, 2, 0], [3, 0, 0]]) == -6
        assert det([[1, 2], [2, 4]]) == 0


class TestHelpers:
    def test_primitive_vector(self):
        assert primitive_vector((2, 4)) == (1, 2)
        assert primitive_vector((Fraction(1, 2), Fraction(1, 3))) == (3, 2)
        assert primitive_vector((-2, 0), canonical_sign=True) == (1, 0)
        with pytest.raises(ValueError):
            primitive_vector((0, 0))

    def test_lcm_denominators(self):
        assert lcm_denominators(()) == 1
        assert lcm_denominators((Fraction(1, 4), Fraction(1, 6), 2)) == 12

    def test_kernel_basis(self):
        ker = kernel_basis([[1, 1, 0], [0, 1, 1]], 3)
        assert len(ker) == 1
        (v,) = ker
        # the kernel line is spanned by (1, -1, 1)
        assert v[0] != 0 and v[0] == -v[1] == v[2]

    def test_solve_columns(self):
        x = solve_columns([(1, 0), (1, 1)], (3, 2))
        assert x == (Fraction(1), Fraction(2))
        with pytest.raises(RankDeficient):
            solve_columns([(1, 2), (2, 4)], (1, 2))
