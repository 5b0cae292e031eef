"""Almost integral zonotopes: generator representation, the closed-form
quasi-polynomial over independent generator subsets, and conversion to
vertex form for cross-checks against direct counting.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .counting import count_points
from .geometry import AlmostIntegralPolytope, LatticePolytope
from .linalg import (
    DimensionMismatch,
    IntMatrix,
    Record,
    is_integer_vector,
    lcm_denominators,
    rational_rank,
    snf,
    vec_add,
)
from .qpoly import Polynomial, QuasiPolynomial

GENERATOR_LIMIT = 20


class TooManyGenerators(ValueError):
    """Subset/sign enumeration rejected beyond the generator guard."""


class ZonotopeSpec(Record):
    """Minkowski sum of segments [0, u_i], translated by a rational c.

    Duplicate generators are legal (the generator list is a multiset)."""

    __slots__ = ("ambient_dim", "generators", "translate")

    def __init__(self, generators: Sequence, translate: Sequence = None, ambient_dim: int = None):
        gens = [tuple(int(x) for x in g) for g in generators]
        if gens:
            d = len(gens[0])
        elif ambient_dim is not None:
            d = ambient_dim
        elif translate is not None:
            d = len(translate)
        else:
            raise DimensionMismatch("empty generator list needs an explicit dimension")
        if any(len(g) != d for g in gens):
            raise DimensionMismatch("generators of mixed dimension")
        if any(all(x == 0 for x in g) for g in gens):
            raise ValueError("zero generators are not allowed")
        c = tuple(Fraction(x) for x in (translate if translate is not None else (0,) * d))
        if len(c) != d:
            raise DimensionMismatch("translate length does not match ambient dimension")
        object.__setattr__(self, "ambient_dim", d)
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "translate", c)

    @property
    def denominator(self) -> int:
        return lcm_denominators(self.translate)


def _check_guard(Z: ZonotopeSpec):
    if len(Z.generators) > GENERATOR_LIMIT:
        raise TooManyGenerators(
            f"{len(Z.generators)} generators exceed the limit of {GENERATOR_LIMIT}"
        )


def _independent_subsets(gens: Sequence) -> list:
    """All linearly independent subsets (by index, ascending), empty included.

    Depth-first extension; a generator is only added when it leaves the
    current subset independent, which prunes everything above the rank.
    """
    out = []

    def extend(start, chosen):
        out.append(tuple(chosen))
        for i in range(start, len(gens)):
            trial = chosen + [i]
            if rational_rank([gens[j] for j in trial]) == len(trial):
                extend(i + 1, trial)

    extend(0, [])
    return out


def abm_quasi(Z: ZonotopeSpec) -> QuasiPolynomial:
    """Quasi-polynomial of c + Z(U) via the independent-subset formula.

    The residue-k constituent is sum over linearly independent W ⊆ U of
    relvol(Z(W)) t^|W|, kept iff the translated span k c + aff(W) meets
    Z^d.  The latter is a divisibility test: it holds exactly when l_W
    divides k, where l_W is the lcm of the denominators of the
    coordinates of U_snf c beyond the rank.
    """
    _check_guard(Z)
    d = Z.ambient_dim
    c = Z.translate
    rho = Z.denominator
    terms = []  # (divisor l_W, volume, degree |W|)
    for subset in _independent_subsets(Z.generators):
        W = IntMatrix.from_columns([Z.generators[i] for i in subset], nrows=d)
        dec = snf(W)
        y = dec.U.apply(c)
        l_w = math.lcm(*(y[i].denominator for i in range(dec.rank, d)), 1)
        vol = math.prod(dec.invariant_factors)
        terms.append((l_w, vol, len(subset)))
    cons = []
    for k in range(1, rho + 1):
        coeffs = [0] * (len(Z.generators) + 1)
        for l_w, vol, deg in terms:
            if k % l_w == 0:
                coeffs[deg] += vol
        cons.append(Polynomial(coeffs))
    return QuasiPolynomial(rho, cons)


def zonotope_vertices(Z: ZonotopeSpec) -> AlmostIntegralPolytope:
    """Vertex form of c + Z(U), via subset sums of the generators.

    Canonicalization in the polytope constructor discards the interior
    subset sums, leaving exactly the vertices.
    """
    _check_guard(Z)
    d = Z.ambient_dim
    sums = {(0,) * d}
    for g in Z.generators:
        sums |= {vec_add(s, g) for s in sums}
    return AlmostIntegralPolytope(LatticePolytope(sorted(sums)), Z.translate)


def zonotope_point_bound_check(Z: ZonotopeSpec):
    """(count_translated, count_base, verdict) at dilation 1.

    The verdict asserts #((c+Z) ∩ Z^d) <= #(Z ∩ Z^d) with equality
    exactly when c is integral."""
    P = zonotope_vertices(Z).base
    zero = (0,) * Z.ambient_dim
    count_translated = count_points(P, Z.translate, 1)
    count_base = count_points(P, zero, 1)
    integral = is_integer_vector(Z.translate)
    verdict = count_translated <= count_base and (count_translated == count_base) == integral
    return count_translated, count_base, verdict
