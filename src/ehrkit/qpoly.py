"""Polynomials and quasi-polynomials over Q, with the algebraic property
checks (symmetry, gcd-determined constituents, minimal period).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .linalg import Record

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


class Polynomial(Record):
    """Polynomial with rational coefficients, ascending degree.

    Canonical form: no trailing zero coefficients; the zero polynomial is
    the empty tuple.  Equality is exact coefficient equality.
    """

    __slots__ = ("coefficients",)

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
        """The polynomial of degree < n through n ``(t, value)`` pairs with
        distinct nodes t, exact over Q.

        Newton divided differences give the form
        d_0 + d_1 (t - t_0) + ... + d_{n-1} (t - t_0)...(t - t_{n-2}),
        which Horner's rule expands to monomial coefficients; both steps
        take O(n^2) operations.
        """
        ts, d = [], []
        for t, v in samples:
            ts.append(Fraction(t))
            d.append(Fraction(v))
        n = len(d)
        for j in range(1, n):
            for i in range(n - 1, j - 1, -1):
                d[i] = (d[i] - d[i - 1]) / (ts[i] - ts[i - j])
        coeffs = d[-1:]
        for k in range(n - 2, -1, -1):
            # coeffs := coeffs * (t - t_k) + d_k, in place from the top down
            tk = ts[k]
            coeffs.append(coeffs[-1])
            for m in range(len(coeffs) - 2, 0, -1):
                coeffs[m] = coeffs[m - 1] - tk * coeffs[m]
            coeffs[0] = d[k] - tk * coeffs[0]
        return cls(coeffs)


def polynomial_to_strings(p: Polynomial) -> list:
    return [str(c) for c in p.coefficients]


class QuasiPolynomial(Record):
    """Quasi-polynomial with period rho and constituents f_1, ..., f_rho.

    ``constituents[k-1]`` governs arguments congruent to k mod rho; the
    entry at index rho-1 doubles as the 0-th constituent (f_rho = f_0).
    Equal constituents are stored as one object.
    """

    __slots__ = ("period", "constituents")

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


def symmetry_violation(q: QuasiPolynomial) -> tuple | None:
    """The first residue pair (k, rho - k) with f_k != f_{rho-k}, or None."""
    rho = q.period
    return next(((k, rho - k) for k in range(1, rho) if q.constituent(k) != q.constituent(rho - k)), None)


def is_symmetric(q: QuasiPolynomial) -> bool:
    """f_k == f_{rho-k} for all residues (f_0 identified with f_rho)."""
    return symmetry_violation(q) is None


def gcd_violation(q: QuasiPolynomial) -> tuple | None:
    """The lexicographically first residue pair k < l with gcd(rho, k) =
    gcd(rho, l) and f_k != f_l, or None.

    If (k, l) violates and some f with gcd(rho, f) = gcd(rho, k) precedes
    k, then (f, k) or (f, l) violates too; so the first pair starts at the
    first residue of its gcd class, and one pass finds it.
    """
    rho = q.period
    first = {}
    pairs = []
    for l in range(1, rho + 1):
        k = first.setdefault(math.gcd(rho, l), l)
        if q.constituent(k) != q.constituent(l):
            pairs.append((k, l))
    return min(pairs, default=None)


def has_gcd_property(q: QuasiPolynomial) -> bool:
    """Constituents constant on residue classes with equal gcd(rho, k)."""
    return gcd_violation(q) is None


def inflate_period(q: QuasiPolynomial, k: int) -> QuasiPolynomial:
    """Re-express with period k * rho (constituents repeated accordingly)."""
    if k < 1:
        raise ValueError("inflation factor must be >= 1")
    return QuasiPolynomial(k * q.period, tuple(q.constituent(i) for i in range(1, k * q.period + 1)))


def quasi_to_json_dict(q: QuasiPolynomial) -> dict:
    return {
        "period": q.period,
        "constituents": [polynomial_to_strings(c) for c in q.constituents],
    }
