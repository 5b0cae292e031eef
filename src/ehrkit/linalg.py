"""Exact integer and rational linear algebra.

All arithmetic here is exact: arbitrary-precision ints and
``fractions.Fraction``.  There is no floating point anywhere in the
package, so every comparison downstream is a true equality test.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction


class RankDeficient(ValueError):
    """Raised when a matrix is rank deficient where full rank is required."""


class DimensionMismatch(ValueError):
    """Raised when vector/matrix dimensions are incompatible."""


class Record:
    """Base of the package's immutable value types.

    A subclass names its fields in ``__slots__`` and sets each one in its
    own ``__init__`` with ``object.__setattr__``.  ``==``, ``hash``,
    ``repr``, pickling and copying go by those fields in that order, as
    ``@dataclass(frozen=True)`` would give them: instances are equal only
    to instances of the same class with equal fields, the hash is that of
    the tuple of fields, and assigning or deleting a field raises
    ``AttributeError``.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Compiled once per class: straight-line field loads are as fast as
        # the code a dataclass generates, while a loop over the fields or an
        # ``attrgetter`` made ``Face ==`` 1.7-6x slower.
        mine = "".join(f"self.{f}," for f in cls.__slots__)
        theirs = "".join(f"other.{f}," for f in cls.__slots__)
        namespace = {}
        exec(
            "def __eq__(self, other):\n"
            "    if other.__class__ is self.__class__:\n"
            f"        return ({mine}) == ({theirs})\n"
            "    return NotImplemented\n"
            "def __hash__(self):\n"
            f"    return hash(({mine}))\n",
            namespace,
        )
        cls.__eq__ = namespace["__eq__"]
        cls.__hash__ = namespace["__hash__"]

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return tuple(getattr(self, f) for f in self.__slots__)

    def __setstate__(self, state):
        for f, value in zip(self.__slots__, state):
            object.__setattr__(self, f, value)


# ---------------------------------------------------------------------------
# vectors


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_neg(a):
    return tuple(-x for x in a)


def vec_scale(s, a):
    return tuple(s * x for x in a)


def is_integer_vector(v) -> bool:
    return all(x.denominator == 1 for x in map(Fraction, v))


def lcm_denominators(v) -> int:
    """lcm of the denominators of the entries of ``v`` (1 for the empty vector)."""
    return math.lcm(*(Fraction(x).denominator for x in v)) if len(v) else 1


def primitive_vector(v, canonical_sign: bool = False) -> tuple:
    """Scale a nonzero rational vector to a primitive integer vector.

    The direction is preserved unless ``canonical_sign`` is set, in which
    case the first nonzero entry is made positive.
    """
    fracs = [Fraction(x) for x in v]
    scale = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * scale) for f in fracs]
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    ints = [x // g for x in ints]
    if canonical_sign:
        lead = next(x for x in ints if x != 0)
        if lead < 0:
            ints = [-x for x in ints]
    return tuple(ints)


# ---------------------------------------------------------------------------
# matrices


class IntMatrix(Record):
    """Dense integer matrix, entries stored row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple):
        if len(entries) != rows * cols:
            raise DimensionMismatch(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = [tuple(int(x) for x in r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise DimensionMismatch("ragged rows")
        return cls(n, m, tuple(x for r in rows for x in r))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], nrows: int | None = None) -> "IntMatrix":
        columns = [tuple(int(x) for x in c) for c in columns]
        if columns:
            n = len(columns[0])
            if any(len(c) != n for c in columns):
                raise DimensionMismatch("ragged columns")
        else:
            if nrows is None:
                raise DimensionMismatch("empty column list needs an explicit row count")
            n = nrows
        m = len(columns)
        return cls(n, m, tuple(columns[j][i] for i in range(n) for j in range(m)))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_lists(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def apply(self, v: Sequence) -> tuple:
        """Matrix-vector product; accepts rational vectors."""
        if len(v) != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        return tuple(dot(self.row(i), v) for i in range(self.rows))

    def diagonal(self) -> tuple:
        return tuple(self.entry(i, i) for i in range(min(self.rows, self.cols)))


# ---------------------------------------------------------------------------
# rational elimination helpers


def rational_rank(vectors: Sequence[Sequence]) -> int:
    """Rank over Q of a list of vectors (rows)."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / pivot
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def kernel_basis(rows: Sequence[Sequence], ncols: int) -> list:
    """Deterministic basis of {x : R x = 0} over Q, as tuples of Fractions."""
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        p = mat[r][col]
        mat[r] = [x / p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc]
        basis.append(tuple(vec))
    return basis


def solve_columns(columns: Sequence[Sequence], target: Sequence) -> tuple:
    """Solve ``sum_j x_j * columns[j] = target`` exactly.

    Requires the columns to be linearly independent; raises
    ``RankDeficient`` otherwise and ``ValueError`` if inconsistent.
    """
    m = len(columns)
    if m == 0:
        if any(Fraction(t) != 0 for t in target):
            raise ValueError("inconsistent system")
        return ()
    d = len(columns[0])
    if len(target) != d:
        raise DimensionMismatch("target length does not match column length")
    aug = [[Fraction(columns[j][i]) for j in range(m)] + [Fraction(target[i])] for i in range(d)]
    r = 0
    pivots = []
    for col in range(m):
        piv = next((i for i in range(r, d) if aug[i][col] != 0), None)
        if piv is None:
            raise RankDeficient("columns are linearly dependent")
        aug[r], aug[piv] = aug[piv], aug[r]
        p = aug[r][col]
        aug[r] = [x / p for x in aug[r]]
        for i in range(d):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    for i in range(r, d):
        if aug[i][m] != 0:
            raise ValueError("inconsistent system")
    return tuple(aug[i][m] for i in range(m))


def det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss
    elimination: every division is exact, so all entries stay integers.
    The empty matrix has determinant 1."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot_row = a[k]
        p = pivot_row[k]
        for row in a[k + 1 :]:
            x = row[k]
            for j in range(k + 1, n):
                row[j] = (p * row[j] - x * pivot_row[j]) // prev
        prev = p
    return sign * a[-1][-1] if n else 1


# ---------------------------------------------------------------------------
# Smith normal form


class SnfDecomposition(Record):
    """U @ W @ V = D with U, V unimodular and D diagonal with d_1 | d_2 | ...

    ``U_inverse`` is carried along because lattice-basis extraction needs
    it and it falls out of the elimination for free.
    """

    __slots__ = ("U", "D", "V", "U_inverse")

    def __init__(self, U: IntMatrix, D: IntMatrix, V: IntMatrix, U_inverse: IntMatrix):
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "U_inverse", U_inverse)

    @property
    def invariant_factors(self) -> tuple:
        return tuple(d for d in self.D.diagonal() if d != 0)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


def snf(W: IntMatrix) -> SnfDecomposition:
    """Smith normal form with deterministic smallest-entry pivoting.

    Diagonal entries are nonnegative and satisfy the divisibility chain;
    the same input always produces the same decomposition.
    """
    n, m = W.rows, W.cols
    A = W.row_lists()
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    Uinv = [[int(i == j) for j in range(n)] for i in range(n)]
    V = [[int(i == j) for j in range(m)] for i in range(m)]

    def swap_rows(i, j):
        if i == j:
            return
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]
        for r in range(n):
            Uinv[r][i], Uinv[r][j] = Uinv[r][j], Uinv[r][i]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]
        for r in range(n):
            Uinv[r][i] = -Uinv[r][i]

    def addmul_row(i, j, q):
        # row_i -= q * row_j
        if q == 0:
            return
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]
        for r in range(n):
            Uinv[r][j] += q * Uinv[r][i]

    def swap_cols(i, j):
        if i == j:
            return
        for r in range(n):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(m):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    def addmul_col(i, j, q):
        # col_i -= q * col_j
        if q == 0:
            return
        for r in range(n):
            A[r][i] -= q * A[r][j]
        for r in range(m):
            V[r][i] -= q * V[r][j]

    k = 0
    while k < min(n, m):
        best = None
        for i in range(k, n):
            for j in range(k, m):
                a = A[i][j]
                if a != 0 and (best is None or abs(a) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(k, best[0])
        swap_cols(k, best[1])
        if A[k][k] < 0:
            negate_row(k)
        while True:
            dirty = False
            for i in range(n):
                if i != k and A[i][k] != 0:
                    addmul_row(i, k, A[i][k] // A[k][k])
                    if A[i][k] != 0:
                        swap_rows(i, k)
                        dirty = True
            if dirty:
                continue
            for j in range(m):
                if j != k and A[k][j] != 0:
                    addmul_col(j, k, A[k][j] // A[k][k])
                    if A[k][j] != 0:
                        swap_cols(j, k)
                        dirty = True
            if dirty:
                continue
            d = A[k][k]
            bad = None
            for i in range(k + 1, n):
                if any(A[i][j] % d != 0 for j in range(k + 1, m)):
                    bad = i
                    break
            if bad is None:
                break
            addmul_row(k, bad, -1)  # pull the offending row up, redo
        k += 1

    return SnfDecomposition(
        U=IntMatrix.from_rows(U),
        D=IntMatrix.from_rows(A),
        V=IntMatrix.from_rows(V),
        U_inverse=IntMatrix.from_rows(Uinv),
    )


def gcd_maximal_minors(W: IntMatrix) -> int:
    """gcd of all maximal (cols x cols) minors of a full-column-rank matrix.

    Equals the product of the SNF invariant factors; for linearly
    independent integer generators this is the relative volume of the
    zonotope they span.
    """
    dec = snf(W)
    if dec.rank < W.cols:
        raise RankDeficient("matrix does not have full column rank")
    return math.prod(dec.invariant_factors)


def affine_lattice_nonempty(W: IntMatrix, v: Sequence) -> bool:
    """Whether ``(v + span_Q(columns of W))`` contains an integer point.

    With v = t*c this is the chi_W(t) indicator of the zonotope
    constituent formula.
    """
    if len(v) != W.rows:
        raise DimensionMismatch("vector length does not match matrix row count")
    dec = snf(W)
    y = dec.U.apply([Fraction(x) for x in v])
    return all(y[i].denominator == 1 for i in range(dec.rank, W.rows))
