"""Brute-force symbolic ground truth for the closed-form overlaps.

Everything here works directly on exact coefficient vectors: expand,
differentiate, multiply, integrate term by term.  It deliberately never
imports the closed-form module, so the two evaluation paths only meet in
the test suite and the verification sweep.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ._checks import check_indices
from .legendre import Polynomial, legendre

__all__ = ["integrate_over_interval", "overlap_oracle"]

DERIVATIVE_CACHE_SIZE = 1024


def integrate_over_interval(p: Polynomial) -> Fraction:
    """Definite integral of p over [-1, 1]: term-wise 2/(p+1) for even powers."""
    total = Fraction(0)
    for power, c in enumerate(p.coeffs):
        if power % 2 == 0 and c:
            total += c * Fraction(2, power + 1)
    return total


@lru_cache(maxsize=DERIVATIVE_CACHE_SIZE)
def _legendre_derivative(n: int, order: int) -> Polynomial:
    return legendre(n).differentiate(order)


def overlap_oracle(n: int, m: int, q: int, k: int) -> Fraction:
    """Integral of P_n^(q) P_m^(k) over [-1, 1] by literal expansion."""
    check_indices(n, m, q, k)
    return _overlap_oracle(n, m, q, k)


# Unbounded on purpose: a sweep reuses the values it computed, and a bound
# gives every entry a recency-list node (about 1 MB more over the
# 17689-tuple acceptance grid) without ever evicting one there.
@lru_cache(maxsize=None)
def _overlap_oracle(n: int, m: int, q: int, k: int) -> Fraction:
    return integrate_over_interval(_legendre_derivative(n, q) * _legendre_derivative(m, k))
