"""Polynomials and quasi-polynomials over Q, with the algebraic property
checks (symmetry, gcd-determined constituents, minimal period).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

# Small integral coefficients are shared: most constituents of counting
# results have a handful of such coefficients, and one Fraction each would
# dominate the memory a kept result takes.
_SMALL_LO, _SMALL_HI = -5, 256
_SMALL = tuple(Fraction(n) for n in range(_SMALL_LO, _SMALL_HI + 1))


def _coefficient(c) -> Fraction:
    f = Fraction(c)
    if f.denominator == 1 and _SMALL_LO <= f.numerator <= _SMALL_HI:
        return _SMALL[f.numerator - _SMALL_LO]
    return f


@dataclass(frozen=True, slots=True)
class Polynomial:
    """Polynomial with rational coefficients, ascending degree.

    Canonical form: no trailing zero coefficients; the zero polynomial is
    the empty tuple.  Equality is exact coefficient equality.
    """

    coefficients: tuple

    def __init__(self, coefficients: Iterable = ()):
        coeffs = [_coefficient(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        """Degree, with the convention deg(0) = -1."""
        return len(self.coefficients) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coefficients[-1] if self.coefficients else Fraction(0)

    def __call__(self, t) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * t + c
        return acc

    def __bool__(self) -> bool:
        return bool(self.coefficients)

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for i, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{i}")
        return " + ".join(reversed(parts))

    @classmethod
    def interpolate(cls, samples: Sequence) -> "Polynomial":
        """Lagrange interpolation through ``(t, value)`` pairs, exact over Q."""
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
        return cls(coeffs)


def polynomial_to_strings(p: Polynomial) -> list:
    return [str(c) for c in p.coefficients]


def polynomial_from_strings(items: Sequence) -> Polynomial:
    return Polynomial(Fraction(s) for s in items)


@dataclass(frozen=True, slots=True)
class QuasiPolynomial:
    """Quasi-polynomial with period rho and constituents f_1, ..., f_rho.

    ``constituents[k-1]`` governs arguments congruent to k mod rho; the
    entry at index rho-1 doubles as the 0-th constituent (f_rho = f_0).
    Equal constituents are stored as one object.
    """

    period: int
    constituents: tuple

    def __init__(self, period: int, constituents: Iterable):
        distinct = {}
        cons = tuple(distinct.setdefault(f, f) for f in constituents)
        if period < 1:
            raise ValueError("period must be >= 1")
        if len(cons) != period:
            raise ValueError("need exactly one constituent per residue")
        object.__setattr__(self, "period", int(period))
        object.__setattr__(self, "constituents", cons)

    def constituent(self, k: int) -> Polynomial:
        """The residue-k constituent; k is taken mod the period, 0 -> rho."""
        r = k % self.period
        return self.constituents[(r if r else self.period) - 1]

    def __call__(self, t: int) -> Fraction:
        return evaluate(self, t)


def evaluate(q: QuasiPolynomial, t: int) -> Fraction:
    """Evaluate at a positive integer by selecting the residue constituent."""
    if t < 1:
        raise ValueError("quasi-polynomials are evaluated at t >= 1")
    return q.constituent(t)(t)


def divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


def minimal_period(q: QuasiPolynomial) -> QuasiPolynomial:
    """Reduce to the smallest period; scans divisors in increasing order."""
    for p in divisors(q.period):
        if all(q.constituents[k - 1] == q.constituent(k % p if k % p else p) for k in range(1, q.period + 1)):
            return QuasiPolynomial(p, q.constituents[:p])
    return q  # unreachable: p == period always matches


def is_symmetric(q: QuasiPolynomial) -> bool:
    """f_k == f_{rho-k} for all residues (f_0 identified with f_rho)."""
    rho = q.period
    return all(q.constituent(k) == q.constituent(rho - k) for k in range(rho + 1))


def has_gcd_property(q: QuasiPolynomial) -> bool:
    """Constituents constant on residue classes with equal gcd(rho, k)."""
    rho = q.period
    by_gcd = {}
    for k in range(1, rho + 1):
        g = math.gcd(rho, k)
        ref = by_gcd.setdefault(g, q.constituent(k))
        if q.constituent(k) != ref:
            return False
    return True


def inflate_period(q: QuasiPolynomial, k: int) -> QuasiPolynomial:
    """Re-express with period k * rho (constituents repeated accordingly)."""
    if k < 1:
        raise ValueError("inflation factor must be >= 1")
    return QuasiPolynomial(k * q.period, tuple(q.constituent(i) for i in range(1, k * q.period + 1)))


def gcd_property_period_stability(q: QuasiPolynomial, k: int) -> bool:
    """gcd-property verdict after inflating the period by k.

    Must agree with ``has_gcd_property(q)``; used as a consistency harness.
    """
    return has_gcd_property(inflate_period(q, k))


def quasi_to_json_dict(q: QuasiPolynomial) -> dict:
    return {
        "period": q.period,
        "constituents": [polynomial_to_strings(c) for c in q.constituents],
    }


def quasi_from_json_dict(doc: dict) -> QuasiPolynomial:
    return QuasiPolynomial(
        int(doc["period"]),
        tuple(polynomial_from_strings(c) for c in doc["constituents"]),
    )
