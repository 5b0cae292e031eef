"""Exact lattice-point counting in dilated translated polytopes, the
translated enumerator polynomial, Ehrhart quasi-polynomials by
interpolation, and the weighted-simplex counter.

Counting is enumeration over an integer bounding box, sliced along the
last coordinate so the inner work per slab is a handful of integer
comparisons.  That is the right tool at desk scale; nothing here aims at
Barvinok-style asymptotics.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Sequence

from .geometry import AlmostIntegralPolytope, LatticePolytope, affine_hull
from .linalg import (
    DimensionMismatch,
    IntMatrix,
    dot,
    integer_point_in_translated_span,
    is_integer_vector,
    lcm_denominators,
    solve_columns,
    vec_add,
    vec_scale,
    vec_sub,
)
from .qpoly import Polynomial, QuasiPolynomial


class InterpolationGuardFailed(RuntimeError):
    """An extra interpolation sample disagreed with the fitted polynomial.

    This signals an internal inconsistency (wrong degree bound or a
    counting bug), never bad user input.
    """


def _count_fulldim(P: LatticePolytope, c, t) -> int:
    """Count integer points of c + tP for full-dimensional P.

    ``t`` may be a positive Fraction (used by the rational-dilation
    path); the inequality bounds are floored to integers up front so the
    enumeration loop is pure integer arithmetic.
    """
    d = P.ambient_dim
    bounds = [(a, math.floor(t * b + dot(a, c))) for a, b in P.hrep.inequalities]
    pts = [vec_add(c, vec_scale(t, v)) for v in P.vertices]
    lo = [math.ceil(min(p[i] for p in pts)) for i in range(d)]
    hi = [math.floor(max(p[i] for p in pts)) for i in range(d)]
    if any(l > h for l, h in zip(lo, hi)):
        return 0
    if d == 1:
        l, h = lo[0], hi[0]
        for (a,), M in bounds:
            if a > 0:
                h = min(h, M // a)
            elif a < 0:
                l = max(l, -(M // -a))
        return max(0, h - l + 1)
    last = d - 1
    slabs = [(a[:last], a[last], M) for a, M in bounds]
    total = 0
    for prefix in product(*(range(lo[i], hi[i] + 1) for i in range(last))):
        l, h = lo[last], hi[last]
        feasible = True
        for ap, al, M in slabs:
            r = M - sum(x * y for x, y in zip(ap, prefix))
            if al > 0:
                q = r // al
                if q < h:
                    h = q
            elif al < 0:
                q = -(r // -al)
                if q > l:
                    l = q
            elif r < 0:
                feasible = False
                break
        if feasible and l <= h:
            total += h - l + 1
    return total


def count_points(P: LatticePolytope, c: Sequence, t) -> int:
    """Exact #((c + tP) ∩ Z^d) for a non-negative rational dilation t.

    Full-dimensional polytopes go through slab enumeration.  Lower
    dimensional ones are reduced: if the translated affine hull misses
    Z^d the count is 0, otherwise an integer point on it anchors a
    change of coordinates and the count recurses in the hull dimension.
    """
    d = P.ambient_dim
    if len(c) != d:
        raise DimensionMismatch("translate length does not match ambient dimension")
    c = tuple(Fraction(x) for x in c)
    if t < 0:
        raise ValueError("dilation must be non-negative")
    if t == 0:
        # c + 0*P = {c}
        return 1 if is_integer_vector(c) else 0
    m = P.dim
    if m == d:
        return _count_fulldim(P, c, t)
    hull = affine_hull(P)
    shift = vec_add(c, vec_scale(t, hull.origin))
    if m == 0:
        return 1 if is_integer_vector(shift) else 0
    B = IntMatrix.from_columns(hull.lattice_basis, nrows=d)
    z = integer_point_in_translated_span(B, shift)
    if z is None:
        return 0
    # every integer point of c + tP is z + B w with integer w, and the
    # membership condition becomes w in c~ + t * coord_polytope
    ctilde = solve_columns(hull.lattice_basis, vec_sub(shift, z))
    return count_points(P.coord_polytope, ctilde, t)


def _interpolate_guarded(count, ts) -> Polynomial:
    """The polynomial through (t, count(t)) for every t in ``ts`` but the
    last, checked against count at the last."""
    *fit, guard = ts
    poly = Polynomial.interpolate([(t, count(t)) for t in fit])
    if poly(guard) != count(guard):
        raise InterpolationGuardFailed(f"guard sample at t={guard} disagrees with the interpolant")
    return poly


def translated_enumerator(P: LatticePolytope, c: Sequence) -> Polynomial:
    """The polynomial t -> #((c + tP) ∩ Z^d), of degree at most dim P.

    Interpolated from t = 1..dim+1 and verified on one extra sample."""
    return _interpolate_guarded(lambda t: count_points(P, c, t), range(1, P.dim + 3))


def ehrhart_quasi(A: AlmostIntegralPolytope) -> QuasiPolynomial:
    """Ehrhart quasi-polynomial of c + P with period den(c).

    The residue-k constituent is the translated enumerator of (P, k c)."""
    rho = A.denominator
    cons = [translated_enumerator(A.base, vec_scale(k, A.translate)) for k in range(1, rho + 1)]
    return QuasiPolynomial(rho, cons)


# ---------------------------------------------------------------------------
# weighted simplices {x >= 0 : sum m_i x_i <= t}


def weighted_simplex_counts_upto(weights: Sequence[int], T: int) -> list:
    """counts[t] = #{x ∈ Z^d, x >= 0 : Σ m_i x_i <= t} for t = 0..T.

    Coin-counting dynamic programming followed by a cumulative sum;
    O(d T) big-integer additions.
    """
    if any(w < 1 for w in weights):
        raise ValueError("weights must be positive integers")
    dp = [1] + [0] * T
    for w in weights:
        for s in range(w, T + 1):
            dp[s] += dp[s - w]
    out = []
    acc = 0
    for v in dp:
        acc += v
        out.append(acc)
    return out


def count_weighted_simplex(weights: Sequence[int], t: int) -> int:
    return weighted_simplex_counts_upto(weights, t)[t]


def weighted_simplex_quasi(weights: Sequence[int]) -> QuasiPolynomial:
    """Ehrhart quasi-polynomial of the simplex {x >= 0 : Σ m_i x_i <= 1}.

    Period lcm(m); each constituent interpolated through deg+1 in-residue
    samples with one guard sample.
    """
    weights = [int(w) for w in weights]
    rho = math.lcm(*weights)
    stop = (len(weights) + 2) * rho
    counts = weighted_simplex_counts_upto(weights, stop)
    cons = [_interpolate_guarded(counts.__getitem__, range(k, k + stop, rho)) for k in range(1, rho + 1)]
    return QuasiPolynomial(rho, cons)


# ---------------------------------------------------------------------------
# rational dilation (fractional-vertex polytopes such as (1/9)[0,1]^3)


def _cleared(vertices: Sequence) -> tuple:
    """(P, D) with D the lcm of the vertex-coordinate denominators of Q and
    P = D Q, a full-dimensional lattice polytope."""
    verts = [tuple(Fraction(x) for x in v) for v in vertices]
    D = math.lcm(*(lcm_denominators(v) for v in verts))
    P = LatticePolytope([vec_scale(D, v) for v in verts])
    if P.dim != P.ambient_dim:
        raise ValueError("rational dilation counting needs a full-dimensional polytope")
    return P, D


def count_rational_dilate(vertices: Sequence, t: int) -> int:
    """#(tQ ∩ Z^d) for a full-dimensional polytope Q with rational vertices,
    counted as the fractional dilate (t/D) P of P = D Q."""
    P, D = _cleared(vertices)
    return count_points(P, (0,) * P.ambient_dim, Fraction(t, D))


def rational_dilation_quasi(vertices: Sequence) -> QuasiPolynomial:
    """Ehrhart quasi-polynomial of a full-dimensional rational polytope.

    The lcm D of vertex-coordinate denominators is a period; constituents
    are interpolated per residue class mod D with a guard sample.
    """
    P, D = _cleared(vertices)
    origin = (0,) * P.ambient_dim
    stop = (P.ambient_dim + 2) * D
    cons = [
        _interpolate_guarded(lambda t: count_points(P, origin, Fraction(t, D)), range(k, k + stop, D))
        for k in range(1, D + 1)
    ]
    return QuasiPolynomial(D, cons)


# ---------------------------------------------------------------------------
# lost and new points under translation


def lost_new_counts(P: LatticePolytope, c: Sequence, t: int):
    """(lost, new) point counts for the translation c at dilation t.

    lost = #(((tP + [0,c]) \\ (c + tP)) ∩ Z^d), the points swept over but
    absent from the translate; new = #(((tP + [0,c]) \\ tP) ∩ Z^d).  Both
    translates lie in the swept set tP + [0,c] = conv(tV ∪ (tV + c)), so
    each is a difference of counts; with D = den(c) the swept set is the
    1/D dilate of a lattice polytope.
    """
    d = P.ambient_dim
    if len(c) != d:
        raise DimensionMismatch("translate length does not match ambient dimension")
    c = tuple(Fraction(x) for x in c)
    D = lcm_denominators(c)
    base = [vec_scale(D * t, v) for v in P.vertices]
    shift = vec_scale(D, c)
    swept = count_points(LatticePolytope(base + [vec_add(v, shift) for v in base]), (0,) * d, Fraction(1, D))
    return swept - count_points(P, c, t), swept - count_points(P, (0,) * d, t)


def scan_scaled_translate(P: LatticePolytope, c: Sequence, xs: Sequence) -> list:
    """Sample x -> #((x c + P) ∩ Z^d) at the given rational points."""
    c = tuple(Fraction(v) for v in c)
    return [count_points(P, vec_scale(Fraction(x), c), 1) for x in xs]
