"""Exact polytope geometry: vertex and inequality representations, affine
hulls with their lattice bases, faces, relative volumes, and the two shape
classifiers (central symmetry, zonotope-by-2-faces).

Facets come from one exact integer double-description hull.  A polytope
object caches its facets and its inequality description.  Faces, facet
volumes, relative volumes and the zonotope test come from the facet
incidences: the face lattice is built once per call from the vertex sets
of the facets, and volumes are summed over a pulling triangulation with
integer determinants.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from .linalg import (
    DimensionMismatch,
    IntMatrix,
    Record,
    det,
    dot,
    kernel_basis,
    lcm_denominators,
    primitive_vector,
    snf,
    solve_columns,
    vec_sub,
)


class AffineHull(Record):
    """Affine hull of a lattice polytope.

    ``lattice_basis`` is an integer basis of aff_0(P) ∩ Z^d, so every
    lattice point of the hull is origin-translate plus an integer
    combination of the basis.
    """

    __slots__ = ("dim", "origin", "lattice_basis")

    def __init__(self, dim: int, origin: tuple, lattice_basis: tuple):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "lattice_basis", lattice_basis)


class Face(Record):
    __slots__ = ("vertex_indices", "dim")

    def __init__(self, vertex_indices: tuple, dim: int):
        object.__setattr__(self, "vertex_indices", vertex_indices)
        object.__setattr__(self, "dim", dim)


class HRep(Record):
    """Facet description: a·x <= b inequalities plus a·x = b equalities
    cutting out the affine hull when the polytope is lower dimensional.
    Normals are primitive integer vectors; the lists are sorted for
    reproducibility.
    """

    __slots__ = ("ambient_dim", "inequalities", "equalities")

    def __init__(self, ambient_dim: int, inequalities: tuple, equalities: tuple):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "inequalities", inequalities)
        object.__setattr__(self, "equalities", equalities)


def _lattice_coords(points: Sequence) -> tuple:
    """(dim, origin, basis, coords, U) for a list of integer points.

    ``basis`` spans the lattice aff_0 ∩ Z^d (not merely the Z-span of the
    point differences), so ``coords`` are integer and surjective onto the
    lattice points of the hull.  ``U`` is unimodular with
    U (x - origin) = (w, 0) for every x = origin + sum w_j basis_j of the
    affine hull, so it maps Z^d onto Z^d and the hull onto the first
    ``dim`` coordinates.
    """
    origin = points[0]
    diffs = [vec_sub(p, origin) for p in points[1:]]
    if not diffs:
        return 0, origin, (), [()] * len(points), IntMatrix.identity(len(origin))
    dec = snf(IntMatrix.from_columns(diffs))
    m = dec.rank
    basis = tuple(dec.U_inverse.column(j) for j in range(m))
    coords = [tuple(dec.U.apply(vec_sub(p, origin))[:m]) for p in points]
    return m, origin, basis, coords, dec.U


def _hyperplane_normal(diffs: Sequence, m: int) -> tuple | None:
    """Primitive integer normal of the hyperplane spanned by ``diffs`` in
    R^m, or None if they do not span a hyperplane."""
    ker = kernel_basis(diffs, m)
    if len(ker) != 1:
        return None
    return primitive_vector(ker[0])


def _affine_basis(points: Sequence, m: int) -> list:
    """Indices of m+1 affinely independent points of a full-dimensional
    list, each taken greedily in input order when it raises the rank."""
    p0 = points[0]
    chosen, rows = [0], []  # rows: (pivot column, reduced difference)
    for i, p in enumerate(points):
        v = vec_sub(p, p0)
        for c, r in rows:
            if v[c]:
                v = tuple(r[c] * x - v[c] * y for x, y in zip(v, r))
        pivot = next((c for c, x in enumerate(v) if x), None)
        if pivot is not None:
            rows.append((pivot, v))
            chosen.append(i)
            if len(rows) == m:
                break
    return chosen


def _adjacent(common: int, zero_sets: list) -> bool:
    """Whether exactly two of the rays' zero sets contain ``common``, the
    intersection of two of them: the combinatorial adjacency test."""
    hits = 0
    for z in zero_sets:
        if z & common == common:
            hits += 1
            if hits > 2:
                return False
    return True


def _facets_from_points(points: Sequence, m: int) -> list:
    """Facets of the convex hull of full-dimensional integer ``points`` in Z^m.

    Returns sorted (normal, offset, index frozenset) triples with outward
    primitive integer normals and every input index on the facet;
    redundant and repeated input points are harmless.

    Double description (Fukuda & Prodon 1996) on the cone of valid
    inequalities {(a, b) : a·p <= b for every point p}, whose extreme
    rays are the facets.  The cone starts from the simplex on m+1
    affinely independent points and takes the other points one at a
    time.  Each ray (a, b) carries its zero set, the bitmask of points
    taken so far with a·p = b.  A point cuts the rays it violates; every
    violated ray adjacent to a satisfied one yields their integer
    combination through the point.
    """
    simplex = _affine_basis(points, m)
    rays = []
    for j in simplex:
        face = [i for i in simplex if i != j]
        p0 = points[face[0]]
        a = _hyperplane_normal([vec_sub(points[i], p0) for i in face[1:]], m)
        b = dot(a, p0)
        if dot(a, points[j]) > b:
            a, b = tuple(-x for x in a), -b
        rays.append((a, b, sum(1 << i for i in face)))
    taken = set(simplex)
    for k, p in enumerate(points):
        if k in taken:
            continue
        bit = 1 << k
        inside, outside, nxt = [], [], []
        for a, b, z in rays:
            s = b - dot(a, p)
            if s > 0:
                inside.append((s, a, b, z))
                nxt.append((a, b, z))
            elif s == 0:
                nxt.append((a, b, z | bit))
            else:
                outside.append((s, a, b, z))
        if outside:
            zero_sets = [z for _, _, z in rays]
            for s_in, a_in, b_in, z_in in inside:
                for s_out, a_out, b_out, z_out in outside:
                    common = z_in & z_out
                    if common.bit_count() < m - 1 or not _adjacent(common, zero_sets):
                        continue
                    a = [s_in * x - s_out * y for x, y in zip(a_out, a_in)]
                    b = s_in * b_out - s_out * b_in
                    g = math.gcd(*a, b)
                    nxt.append((tuple(x // g for x in a), b // g, common | bit))
        rays = nxt
    members = range(len(points))
    return sorted((a, Fraction(b), frozenset(i for i in members if z >> i & 1)) for a, b, z in rays)


class LatticePolytope:
    """Convex hull of finitely many integer points.

    The input list may contain duplicates and non-vertices; construction
    canonicalizes to the irredundant, lexicographically sorted vertex set.
    Instances are immutable and hashable.
    """

    __slots__ = ("ambient_dim", "vertices", "__dict__")

    def __init__(self, points: Sequence):
        pts = set()
        for p in points:
            coords = []
            for x in p:
                f = Fraction(x)
                if f.denominator != 1:
                    raise ValueError(f"lattice polytope vertex has non-integer coordinate {x}")
                coords.append(int(f))
            pts.add(tuple(coords))
        if not pts:
            raise ValueError("a polytope needs at least one point")
        pts = sorted(pts)
        d = len(pts[0])
        if any(len(p) != d for p in pts):
            raise DimensionMismatch("points of mixed dimension")
        self.ambient_dim = d
        self.vertices = tuple(self._extract_vertices(pts))

    @staticmethod
    def _extract_vertices(pts: list) -> list:
        if len(pts) == 1:
            return pts
        m, _, _, coords, _ = _lattice_coords(pts)
        if m == 0:
            return pts[:1]
        facets = _facets_from_points(coords, m)
        keep = []
        for i, p in enumerate(pts):
            normals = [a for a, _, idx in facets if i in idx]
            if normals and len(kernel_basis(normals, m)) == 0:
                keep.append(p)
        return keep

    def __eq__(self, other):
        return isinstance(other, LatticePolytope) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"LatticePolytope({list(self.vertices)!r})"

    @cached_property
    def _hull_data(self):
        return _lattice_coords(self.vertices)

    @property
    def dim(self) -> int:
        return self._hull_data[0]

    @cached_property
    def coords(self) -> tuple:
        """Integer vertex coordinates in the lattice basis of the affine
        hull; their convex hull is full-dimensional in Z^dim."""
        return tuple(self._hull_data[3])

    @cached_property
    def coord_facets(self) -> tuple:
        if self.dim == 0:
            return ()
        return tuple(_facets_from_points(self.coords, self.dim))

    @cached_property
    def hrep(self) -> HRep:
        """Primitive integer inequalities a·x <= b, one per facet, and
        equalities cutting out the affine hull, both sorted."""
        d = self.ambient_dim
        m = self.dim
        hull = affine_hull(self)
        v0 = hull.origin
        equalities = []
        if m < d:
            if m == 0:
                normals = [tuple(int(i == j) for i in range(d)) for j in range(d)]
            else:
                normals = [
                    primitive_vector(k, canonical_sign=True)
                    for k in kernel_basis(hull.lattice_basis, d)
                ]
            equalities = sorted((a, Fraction(dot(a, v0))) for a in normals)
        inequalities = []
        if m >= 1:
            B = hull.lattice_basis
            gram = [[dot(bi, bj) for bj in B] for bi in B]
            for a_w, b_w, _ in self.coord_facets:
                # ambient normal a with a·B = a_w: a = B · Gram^{-1} · a_w
                y = solve_columns(gram, a_w)
                a_raw = tuple(sum(y[j] * B[j][i] for j in range(m)) for i in range(d))
                a = primitive_vector(a_raw)
                scale = Fraction(a[next(i for i in range(d) if a[i])], a_raw[next(i for i in range(d) if a[i])])
                b = scale * (Fraction(dot(a_raw, v0)) + Fraction(b_w))
                inequalities.append((a, b))
            inequalities.sort()
        return HRep(ambient_dim=d, inequalities=tuple(inequalities), equalities=tuple(equalities))


def affine_hull(P: LatticePolytope) -> AffineHull:
    m, origin, basis, _, _ = P._hull_data
    return AffineHull(dim=m, origin=origin, lattice_basis=basis)


def hrep(P: LatticePolytope) -> HRep:
    """The facet description of P, computed once per polytope object."""
    return P.hrep


def _face_lattice(P: LatticePolytope) -> dict:
    """{frozenset of vertex indices: dimension} for every nonempty face of P.

    The proper faces are the closure of the facet vertex sets under
    intersection (Ziegler, *Lectures on Polytopes*).  Visiting the
    sets from largest to smallest, a face's dimension is one less than the
    smallest dimension among the faces strictly containing it.
    """
    facet_sets = [idx for _, _, idx in P.coord_facets]
    closure = set(facet_sets)
    frontier = set(facet_sets)
    while frontier:
        new = set()
        for f in frontier:
            for g in facet_sets:
                h = f & g
                if h and h not in closure:
                    closure.add(h)
                    new.add(h)
        frontier = new
    lattice = {frozenset(range(len(P.vertices))): P.dim}
    for s in sorted(closure, key=len, reverse=True):
        lattice[s] = min(k for t, k in lattice.items() if s < t) - 1
    return lattice


def _faces(lattice: dict, j: int) -> list:
    """The j-faces of a face lattice, sorted by vertex indices."""
    faces = [Face(tuple(sorted(s)), j) for s, k in lattice.items() if k == j]
    faces.sort(key=lambda f: f.vertex_indices)
    return faces


def faces_of_dim(P: LatticePolytope, j: int) -> list:
    m = P.dim
    if not 0 <= j <= m:
        raise ValueError(f"face dimension {j} out of range 0..{m}")
    return _faces(_face_lattice(P), j)


def _pulling_triangulation(lattice: dict):
    """Function from a face of ``lattice`` to the simplices, as tuples of
    vertex indices, of its pulling triangulation: the face's smallest
    vertex joined to each simplex of each of its facets that miss that
    vertex (De Loera, Rambau & Santos, *Triangulations*).
    Triangulations of shared faces are computed once."""
    by_dim = {}
    for s, k in lattice.items():
        by_dim.setdefault(k, []).append(s)
    memo = {}

    def simplices(s):
        if s not in memo:
            v, k = min(s), lattice[s]
            if k == 0:
                memo[s] = [(v,)]
            else:
                facets = [f for f in by_dim[k - 1] if f < s and v not in f]
                memo[s] = [(v,) + t for f in facets for t in simplices(f)]
        return memo[s]

    return simplices


def _simplex_volumes(X, simplices) -> int:
    """Σ |det| of the edge vectors of each simplex, vertex i at X[i]."""
    total = 0
    for s in simplices:
        x0 = X[s[0]]
        total += abs(det([vec_sub(X[i], x0) for i in s[1:]]))
    return total


def relative_volume(P: LatticePolytope) -> Fraction:
    """Volume normalized so a fundamental cell of aff(P) ∩ Z^d has volume 1.

    Sum of the lattice volumes of a pulling triangulation; a point has
    relative volume 1 (empty-product convention)."""
    lattice = _face_lattice(P)
    whole = frozenset(range(len(P.vertices)))
    total = _simplex_volumes(P.coords, _pulling_triangulation(lattice)(whole))
    return Fraction(total, math.factorial(P.dim))


def _facet_volumes(P: LatticePolytope, lattice: dict) -> dict:
    """{primitive normal: relative volume} over the facets of P, whose
    face lattice is ``lattice``.

    The edge vectors of a facet's simplices lie in the lattice a^⊥ ∩ Z^m
    of its normal a.
    Dropping a coordinate i with a_i ≠ 0 maps that lattice onto a
    sublattice of Z^(m-1) of index |a_i|, because gcd(a) = 1.
    """
    m = P.dim
    simplices = _pulling_triangulation(lattice)
    vols = {}
    for a, _, idx in P.coord_facets:
        i = next(i for i, x in enumerate(a) if x)
        dropped = {j: P.coords[j][:i] + P.coords[j][i + 1 :] for j in idx}
        vols[a] = Fraction(_simplex_volumes(dropped, simplices(idx)), math.factorial(m - 1) * abs(a[i]))
    return vols


def _symmetry_center(points: Sequence) -> tuple | None:
    """The vector c with {c - p} = {p} over the distinct integer ``points``,
    if one exists, else None.

    The points of a centrally symmetric set come in antipodal pairs
    around their centroid, so the reflection test through the centroid
    is exact and sufficient.
    """
    n = len(points)
    c = tuple(Fraction(2 * sum(col), n) for col in zip(*points))
    point_set = {tuple(map(Fraction, p)) for p in points}
    reflected = {tuple(ci - pi for ci, pi in zip(c, p)) for p in points}
    return c if reflected == point_set else None


def is_centrally_symmetric(P: LatticePolytope) -> tuple | None:
    """The vector c with P = c + (-P) if one exists, else None."""
    return _symmetry_center(P.vertices)


def minkowski_facet_check(P: LatticePolytope) -> list:
    """Facets violating the Minkowski pairing: no parallel partner, or a
    parallel partner of different relative volume.  Empty exactly when the
    polytope is centrally symmetric.
    """
    if P.dim < 1:
        raise ValueError("facet check needs dim >= 1")
    return _minkowski_violations(P, _face_lattice(P))


def _minkowski_violations(P: LatticePolytope, lattice: dict) -> list:
    """``minkowski_facet_check`` on the face lattice of P; empty for a point."""
    vols = _facet_volumes(P, lattice)
    return [
        Face(tuple(sorted(idx)), P.dim - 1)
        for a, _, idx in P.coord_facets
        if vols.get(tuple(-x for x in a)) != vols[a]
    ]


def is_zonotope(P: LatticePolytope) -> tuple:
    """(verdict, witness): zonotope test via central symmetry of 2-faces.

    Dimension <= 1 is trivially a zonotope; in dimension 2 the polytope
    itself must be centrally symmetric; in dimension >= 3 every 2-face
    must be.  On failure the witness is a non-symmetric 2-face.
    """
    return _is_zonotope(P, _face_lattice(P))


def _is_zonotope(P: LatticePolytope, lattice: dict) -> tuple:
    """``is_zonotope`` on the face lattice of P.  Below dimension 2 the
    lattice has no 2-face; in dimension 2 its only 2-face is P."""
    for f in _faces(lattice, 2):
        if _symmetry_center([P.vertices[i] for i in f.vertex_indices]) is None:
            return False, f
    return True, None


class AlmostIntegralPolytope(Record):
    """A lattice polytope translated by a rational vector."""

    __slots__ = ("base", "translate")

    def __init__(self, base: LatticePolytope, translate: Sequence):
        t = tuple(Fraction(x) for x in translate)
        if len(t) != base.ambient_dim:
            raise DimensionMismatch("translate length does not match ambient dimension")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "translate", t)

    @property
    def denominator(self) -> int:
        """lcm of the coordinate denominators of the translation vector."""
        return lcm_denominators(self.translate)
