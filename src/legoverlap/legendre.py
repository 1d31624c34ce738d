"""Exact Legendre polynomials over rational coefficients.

Polynomials are stored densely: ``coeffs[p]`` multiplies ``x**p``.  All
coefficients are ``fractions.Fraction`` instances, so evaluation,
differentiation, and products are exact; nothing in this module rounds.
P_n is written down from its explicit coefficient sum (DLMF 18.5), so this
module shares no recurrence with the quadrature route.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable

from ._checks import check_indices

__all__ = ["Polynomial", "legendre"]

LEGENDRE_CACHE_SIZE = 512

Scalar = int | Fraction


class Polynomial:
    """Dense polynomial with exact rational coefficients.

    Immutable; trailing zero coefficients are stripped on construction so
    the zero polynomial is always the empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int | None:
        """Degree of the polynomial, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coeffs]})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polynomial is immutable")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, Polynomial):
            if not self.coeffs or not other.coeffs:
                return Polynomial()
            # Naive convolution; quadratic but exact and easy to audit.
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        return Polynomial([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def differentiate(self, k: int = 1) -> "Polynomial":
        """k-fold derivative; the zero polynomial once k exceeds the degree."""
        check_indices(k)
        cs = self.coeffs
        for _ in range(k):
            if len(cs) <= 1:
                return Polynomial()
            cs = tuple(p * cs[p] for p in range(1, len(cs)))
        return Polynomial(cs)

    def __call__(self, x: Scalar) -> Fraction:
        """Exact evaluation at x by Horner's scheme."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


@lru_cache(maxsize=LEGENDRE_CACHE_SIZE, typed=True)
def legendre(n: int) -> Polynomial:
    """Legendre polynomial P_n with exact rational coefficients.

    Filled from the explicit sum

        P_n(x) = 2^-n sum_{j <= n/2} (-1)^j C(n, j) C(2n-2j, n) x^(n-2j),

    which is normalized so that P_n(1) = 1.  The key is typed, so a float or
    bool degree misses the cache and is rejected even after P_n is cached.
    """
    check_indices(n)
    coeffs = [0] * (n + 1)
    for j in range(n // 2 + 1):
        coeffs[n - 2 * j] = Fraction((-1) ** j * comb(n, j) * comb(2 * n - 2 * j, n), 1 << n)
    return Polynomial(coeffs)
