"""Named example polytopes used across the tests and the CLI.

Every recorded expectation here is re-derived from first principles by
the test suite; nothing is trusted as stored.  The one deliberately odd
entry is the shifted cube's middle constituent, where a commonly
tabulated closed form disagrees with direct enumeration; it is carried
with a ``disputed`` flag and reported as such, never silently adopted.
"""

from __future__ import annotations

from fractions import Fraction

from .counting import count_points
from .geometry import AlmostIntegralPolytope, LatticePolytope
from .linalg import Record


class UnknownName(KeyError):
    """Requested corpus entry does not exist."""


class BadParams(ValueError):
    """Corpus entry parameters outside their legal range."""


ALCOVE_WEIGHTS = {
    "E6": (1, 1, 2, 2, 2, 3),
    "E7": (1, 2, 2, 2, 3, 3, 4),
    "E8": (2, 2, 3, 3, 4, 4, 5, 6),
    "F4": (2, 2, 3, 4),
    "G2": (2, 3),
}

ALCOVE_PERIODS = {"E6": 6, "E7": 12, "E8": 60, "F4": 12, "G2": 6}


class CorpusEntry(Record):
    """A named polytope plus the quantities the suite re-derives for it.

    ``kind`` selects the computation path: almost_integral (vertex
    based), rational (fractional vertices, dilation path), or
    weighted_simplex (weights only).
    """

    __slots__ = ("name", "kind", "parameters", "polytope", "rational_vertices", "weights", "expected")

    def __init__(
        self,
        name: str,
        kind: str,
        parameters: dict | None = None,
        polytope: AlmostIntegralPolytope | None = None,
        rational_vertices: tuple | None = None,
        weights: tuple | None = None,
        expected: dict | None = None,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "parameters", {} if parameters is None else parameters)
        object.__setattr__(self, "polytope", polytope)
        object.__setattr__(self, "rational_vertices", rational_vertices)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "expected", {} if expected is None else expected)


def _unit_cube(d: int = 3) -> LatticePolytope:
    corners = [[(b >> i) & 1 for i in range(d)] for b in range(1 << d)]
    return LatticePolytope(corners)


def _cross_polytope(d: int = 3) -> LatticePolytope:
    pts = []
    for j in range(d):
        e = [0] * d
        e[j] = 1
        pts.append(tuple(e))
        pts.append(tuple(-x for x in e))
    return LatticePolytope(pts)


def _pentagon() -> LatticePolytope:
    return LatticePolytope([(1, 0), (0, 1), (0, 2), (1, 3), (2, 1)])


def counterexample_polytope(n: int) -> LatticePolytope:
    """The prism-like 7-vertex family over the n x n square, one slanted
    top vertex pulled down to height 1 - n.  Requires n > 7."""
    if n <= 7:
        raise BadParams(f"family needs n > 7, got {n}")
    return LatticePolytope(
        [
            (0, 0, 0),
            (n, 0, 0),
            (0, n, 0),
            (n, n, 0),
            (0, 0, 1),
            (0, n, 1),
            (0, 0, 1 - n),
        ]
    )


def counterexample_base_count(n: int) -> int:
    """Direct lattice-point count of the family member at dilation 1."""
    P = counterexample_polytope(n)
    return count_points(P, (0, 0, 0), 1)


def counterexample_base_count_closed_form(n: int) -> int:
    return (2 * n**3 + 3 * n**2 + 19 * n + 12) // 6


def counterexample_alpha(n: int, k: int) -> int:
    """#((c_k + P_n) ∩ Z³) - #(P_n ∩ Z³) with c_k = (k/n) e_3."""
    if not 0 < k < n:
        raise BadParams(f"need 0 < k < n, got k={k}, n={n}")
    P = counterexample_polytope(n)
    c = (Fraction(0), Fraction(0), Fraction(k, n))
    return count_points(P, c, 1) - count_points(P, (0, 0, 0), 1)


def counterexample_alpha_closed_form(n: int, k: int) -> int:
    return k * (n + 1) - k * k - 2 * n - 1


def _int_param(params: dict, key: str, default=None) -> int:
    """The parameter ``key``, which must be a positive integer."""
    value = params.get(key, default)
    if value is None:
        raise BadParams(f"needs parameter {key}")
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise BadParams(f"parameter {key} must be a positive integer, got {value!r}")
    return value


def build(name: str, /, **params) -> CorpusEntry:
    if name == "cube":
        d = _int_param(params, "dim", 3)
        return CorpusEntry(
            name,
            "almost_integral",
            {"dim": d},
            polytope=AlmostIntegralPolytope(_unit_cube(d), (0,) * d),
        )
    if name == "cross_polytope":
        d = _int_param(params, "dim", 3)
        return CorpusEntry(
            name,
            "almost_integral",
            {"dim": d},
            polytope=AlmostIntegralPolytope(_cross_polytope(d), (0,) * d),
        )
    if name == "pentagon_s3":
        return CorpusEntry(
            name,
            "almost_integral",
            polytope=AlmostIntegralPolytope(_pentagon(), (Fraction(3, 4), Fraction(3, 4))),
            expected={
                "translated_counts": (0, 5, 17),
                "base_counts": (1, 7, 20),
                "lost": (1, 4, 7),
                "new": (0, 2, 4),
                "translated_poly": ("0", "3/2", "7/2"),
                "base_poly": ("1", "5/2", "7/2"),
                "lost_poly": ("1", "3"),
                "new_poly": ("0", "2"),
            },
        )
    if name == "p1_ninth_cube":
        ninth = tuple(
            tuple(Fraction(x, 9) for x in corner) for corner in _unit_cube(3).vertices
        )
        return CorpusEntry(name, "rational", rational_vertices=ninth)
    if name == "p2_shifted_octahedron":
        c = (Fraction(5, 9), Fraction(5, 9), Fraction(2, 3))
        return CorpusEntry(name, "almost_integral", polytope=AlmostIntegralPolytope(_cross_polytope(3), c))
    if name == "p3_shifted_cube":
        c = (Fraction(1, 9), Fraction(2, 9), Fraction(1, 3))
        return CorpusEntry(
            name,
            "almost_integral",
            polytope=AlmostIntegralPolytope(_unit_cube(3), c),
            expected={
                # residues 3 and 6: direct enumeration gives t^3 + t^2,
                # while a published table lists t^3 + t; flagged, not chosen
                "disputed_constituent": {
                    "residues": (3, 6),
                    "recomputed": ("0", "0", "1", "1"),
                    "tabulated": ("0", "1", "0", "1"),
                },
            },
        )
    if name == "counterexample_pn":
        n = _int_param(params, "n")
        return CorpusEntry(
            name,
            "almost_integral",
            {"n": n},
            polytope=AlmostIntegralPolytope(counterexample_polytope(n), (0, 0, 0)),
        )
    if name == "alcove":
        which = params.get("type") or params.get("name")
        if not isinstance(which, str) or which not in ALCOVE_WEIGHTS:
            raise BadParams(f"unknown alcove {which!r}; choose from {sorted(ALCOVE_WEIGHTS)}")
        return CorpusEntry(
            name,
            "weighted_simplex",
            {"type": which},
            weights=ALCOVE_WEIGHTS[which],
        )
    raise UnknownName(name)


CORPUS_NAMES = (
    "cube",
    "cross_polytope",
    "pentagon_s3",
    "p1_ninth_cube",
    "p2_shifted_octahedron",
    "p3_shifted_cube",
    "counterexample_pn",
    "alcove",
)
