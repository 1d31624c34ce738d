"""Endpoint values P_n^(k)(1) by three independent methods.

The three routes (factorial closed form, triangular recurrence iteration,
generating-function Taylor coefficients) share nothing but integer
arithmetic, which makes their agreement a genuine cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from ._checks import check_indices

__all__ = [
    "boundary_factorial",
    "boundary_recurrence",
    "boundary_genfunc",
    "double_factorial",
]


def boundary_factorial(n: int, k: int) -> Fraction:
    """P_n^(k)(1) from the closed form (n+k)! / (2^k k! (n-k)!).

    Exactly 0 for k > n, where the denominator factorial would have a
    negative argument.
    """
    check_indices(n, k)
    if k > n:
        return Fraction(0)
    return Fraction(factorial(n + k), (1 << k) * factorial(k) * factorial(n - k))


def boundary_recurrence(n: int, k: int) -> Fraction:
    """P_n^(k)(1) by iterating P_i^(j)(1) = P_{i-1}^(j)(1) + (i+j-1) P_{i-1}^(j-1)(1).

    Fills the triangular table {0 <= j <= i <= n} row by row from the base
    conditions (row j = 0 is all ones, entries with j > i are zero); no
    closed form is used anywhere.
    """
    check_indices(n, k)
    if k > n:
        return Fraction(0)
    row = [1]  # i = 0
    for i in range(1, n + 1):
        prev = row
        row = [1]
        for j in range(1, min(i, k) + 1):
            above = prev[j] if j < len(prev) else 0  # zero when j exceeds i-1
            row.append(above + (i + j - 1) * prev[j - 1])
    return Fraction(row[k])


def boundary_genfunc(n: int, k: int) -> Fraction:
    """P_n^(k)(1) via the generating function (1 - 2xt + t^2)^(-1/2).

    Differentiating the generating function k times in x and setting x = 1
    leaves (2k-1)!! t^k / |t-1|^(2k+1); Taylor-expanding the pole term gives
    the coefficient (2k+j)! / (j! (2k)!) at order j = n - k.
    """
    check_indices(n, k)
    if k > n:
        return Fraction(0)
    j = n - k
    taylor = Fraction(factorial(2 * k + j), factorial(j) * factorial(2 * k))
    return double_factorial(2 * k - 1) * taylor


def double_factorial(j: int) -> int:
    """j!! = j (j-2) (j-4) ... 1 for positive odd j; the empty product 1 for j = -1."""
    if isinstance(j, bool) or not isinstance(j, int):
        raise TypeError(f"j must be int, got {type(j).__name__}")
    if j < -1 or j % 2 == 0:
        raise ValueError(f"double factorial is defined here for -1 or positive odd j, got {j}")
    out = 1
    for f in range(j, 1, -2):
        out *= f
    return out
