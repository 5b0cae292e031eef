"""Witness searches for translation vectors whose quasi-polynomials break
symmetry (non-centrally-symmetric base) or the gcd property of
constituents (non-zonotope base), plus the bundled classifier.

A witness is a rational translate c together with two residues whose
constituents provably differ.  Absence of a witness within the budget
proves nothing; the report says so explicitly.

A search interpolates one translated enumerator per class of c mod Z^d
that its candidates and their partners reach; nothing is kept between
searches or on the polytope.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from itertools import chain, count as icount, product

from .counting import ehrhart_quasi, translated_enumerator
from .geometry import (
    AlmostIntegralPolytope,
    LatticePolytope,
    _face_lattice,
    _is_zonotope,
    _minkowski_violations,
    is_centrally_symmetric,
)
from .linalg import Record, lcm_denominators, vec_neg, vec_scale, vec_sub

DEFAULT_BUDGET = 10000


class WitnessReport(Record):
    """Outcome of a witness search.

    When found, ``constituents[i]`` is the residue ``residues[i]``
    constituent of the quasi-polynomial of translate + base, and the two
    differ while their residues lie in the same symmetry or gcd class.
    """

    __slots__ = ("kind", "found", "translate", "residues", "constituents", "attempts", "budget_exhausted")

    def __init__(
        self,
        kind: str,  # "asymmetry" | "gcd_violation"
        found: bool,
        translate: tuple | None,
        residues: tuple | None,
        constituents: tuple | None,
        attempts: int,
        budget_exhausted: bool,
    ):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "found", found)
        object.__setattr__(self, "translate", translate)
        object.__setattr__(self, "residues", residues)
        object.__setattr__(self, "constituents", constituents)
        object.__setattr__(self, "attempts", attempts)
        object.__setattr__(self, "budget_exhausted", budget_exhausted)


def _reduce_mod_one(v) -> tuple:
    return tuple(Fraction(x) % 1 for x in v)


def _grid_candidates(d: int, qs: Iterable[int]):
    for q in qs:
        for tup in product(range(q), repeat=d):
            if any(tup):
                yield tuple(Fraction(a, q) for a in tup)


def _facet_direction_candidates(P: LatticePolytope):
    """Directions inside facets flagged by the parallel-volume check.

    When the facet pairing fails, translating along the offending facet
    is where asymmetric behaviour is expected first.  A point has no
    facets and yields none."""
    for face in _minkowski_violations(P, _face_lattice(P)):
        verts = [P.vertices[i] for i in face.vertex_indices]
        for v in verts[1:]:
            u = vec_sub(v, verts[0])
            for q in (3, 4, 5):
                yield _reduce_mod_one(vec_scale(Fraction(1, q), u))


def _scaling_candidates(P: LatticePolytope):
    """Odd-denominator scalings of simple integer directions."""
    d = P.ambient_dim
    dirs = [(1,) * d] + [tuple(int(i == j) for i in range(d)) for j in range(d)]
    for q in (3, 5, 7, 9):
        for u in dirs:
            yield _reduce_mod_one(vec_scale(Fraction(1, q), u))


def _search(P: LatticePolytope, kind: str, candidates, skip, partner, residues, budget: int) -> WitnessReport:
    """The attempt loop of both searches: the first candidate c, not zero,
    not seen and with ``skip(den(c))`` false, whose enumerator differs
    from that of ``partner(c)``.

    The enumerator depends only on c mod Z^d, and the grids revisit
    classes as partners, so each class is interpolated once per call.
    """
    enumerators = {}

    def enumerator(c):
        key = _reduce_mod_one(c)
        if key not in enumerators:
            enumerators[key] = translated_enumerator(P, key)
        return enumerators[key]

    attempts = 0
    seen = set()
    for c in candidates:
        if attempts >= budget:
            break
        if c in seen or not any(c) or skip(lcm_denominators(c)):
            continue
        seen.add(c)
        attempts += 1
        f, g = enumerator(c), enumerator(partner(c))
        if f != g:
            return WitnessReport(kind, True, c, residues(lcm_denominators(c)), (f, g), attempts, False)
    return WitnessReport(kind, False, None, None, None, attempts, True)


def asymmetry_witness(P: LatticePolytope, budget: int = DEFAULT_BUDGET) -> WitnessReport:
    """Search for c with L_{(P,c)} != L_{(P,-c)}.

    Such a c makes the quasi-polynomial of c + P asymmetric: its
    residue-1 and residue-(rho-1) constituents are exactly those two
    enumerators.  Candidates: facet-guided directions first, then grids
    (1/q) Z^d ∩ [0,1)^d for q = 2, 3, 4, ...  A denominator rho <= 2
    forces -c = c (mod Z^d), so those candidates are skipped.
    """
    candidates = chain(_facet_direction_candidates(P), _grid_candidates(P.ambient_dim, icount(2)))
    return _search(P, "asymmetry", candidates, lambda rho: rho <= 2, vec_neg, lambda rho: (1, rho - 1), budget)


def gcd_violation_witness(P: LatticePolytope, budget: int = DEFAULT_BUDGET) -> WitnessReport:
    """Search for c with odd den(c) and L_{(P,c)} != L_{(P,2c)}.

    With rho = den(c) odd, gcd(rho, 1) = gcd(rho, 2) = 1, so differing
    residue-1 and residue-2 constituents violate the gcd property.
    Candidates: odd scalings of coordinate directions, then odd-q grids.
    """
    candidates = chain(_scaling_candidates(P), _grid_candidates(P.ambient_dim, icount(3, 2)))
    return _search(
        P, "gcd_violation", candidates, lambda rho: rho % 2 == 0, lambda c: vec_scale(2, c), lambda rho: (1, 2), budget
    )


def verify_witness(P: LatticePolytope, report: WitnessReport) -> bool:
    """Re-derive the claimed constituents through the full quasi-polynomial."""
    if not report.found:
        return False
    rho = lcm_denominators(report.translate)
    k, l = report.residues
    if report.kind == "asymmetry":
        if (k + l) % rho != 0:
            return False
    elif report.kind == "gcd_violation":
        if math.gcd(rho, k) != math.gcd(rho, l):
            return False
    else:
        return False
    q = ehrhart_quasi(AlmostIntegralPolytope(P, report.translate))
    f_k, f_l = q.constituent(k), q.constituent(l)
    return f_k == report.constituents[0] and f_l == report.constituents[1] and f_k != f_l


def classify(P: LatticePolytope, witness: bool = False, budget: int = DEFAULT_BUDGET) -> dict:
    """One structured verdict: central symmetry, facet pairing, zonotope
    test, and (on request) the two witness searches.  The face lattice
    is built once for the facet pairing and the zonotope test."""
    center = is_centrally_symmetric(P)
    lattice = _face_lattice(P)
    violations = _minkowski_violations(P, lattice)
    zono, bad_face = _is_zonotope(P, lattice)
    report = {
        "centrally_symmetric": center is not None,
        "center": center,
        "minkowski_violations": violations,
        "zonotope": zono,
        "non_symmetric_2face": bad_face,
    }
    if witness:
        if center is None:
            report["asymmetry_witness"] = asymmetry_witness(P, budget)
        if not zono:
            report["gcd_violation_witness"] = gcd_violation_witness(P, budget)
    return report
