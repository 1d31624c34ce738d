"""Floating-point Gauss-Legendre quadrature as a numerical cross-check.

The rule construction finds the positive roots of P_N by Newton iteration
(evaluating P_N and P_N' with the stable three-term recurrence) and mirrors
them, so the grid is symmetric to the bit.  Integrand values come from the
differentiated three-term recurrence, which is exactly antisymmetric under
x -> -x in IEEE arithmetic; together with fsum accumulation this makes
parity-odd integrands cancel exactly instead of to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from ._checks import check_indices

__all__ = ["QuadratureRule", "gauss_legendre_rule", "overlap_quadrature"]

MAX_ORDER = 128
_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of an N-point rule, exact for degree <= 2N-1."""

    order: int
    nodes: tuple[float, ...]
    weights: tuple[float, ...]


def _legendre_pair(order: int, x: float) -> tuple[float, float]:
    """(P_N(x), P_N'(x)) by the three-term recurrence; stable for N <= 128."""
    p_prev, p = 1.0, x
    for j in range(2, order + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, order * (x * p - p_prev) / (x * x - 1.0)


@lru_cache(maxsize=None)
def gauss_legendre_rule(order: int) -> QuadratureRule:
    """Gauss-Legendre rule of the given order (1 <= order <= 128).

    Positive roots are found by Newton iteration from the Chebyshev initial
    guesses cos(pi (4i-1) / (4N+2)) and mirrored; weights are
    2 / ((1-x^2) P_N'(x)^2).
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}, got {order}")
    positive: list[tuple[float, float]] = []  # (node, weight), descending nodes
    for i in range(1, order // 2 + 1):
        x = math.cos(math.pi * (4 * i - 1) / (4 * order + 2))
        for _ in range(_NEWTON_MAX_ITER):
            p, dp = _legendre_pair(order, x)
            step = p / dp
            x -= step
            if abs(step) <= _NEWTON_TOL:
                break
        else:
            raise ArithmeticError(f"Newton iteration for root {i} of order {order} did not converge")
        _, dp = _legendre_pair(order, x)
        positive.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    nodes = [-x for x, _ in positive]
    weights = [w for _, w in positive]
    if order % 2:
        _, dp0 = _legendre_pair(order, 0.0)
        nodes.append(0.0)
        weights.append(2.0 / (dp0 * dp0))
    nodes.extend(x for x, _ in reversed(positive))
    weights.extend(w for _, w in reversed(positive))
    return QuadratureRule(order, tuple(nodes), tuple(weights))


def legendre_derivative_value(n: int, q: int, x: float) -> float:
    """P_n^(q)(x) in floating point, by the differentiated Bonnet recurrence.

    Differentiating (i+1) P_{i+1} = (2i+1) x P_i - i P_{i-1} a total of j
    times gives

        (i+1) P_{i+1}^(j) = (2i+1) (x P_i^(j) + j P_i^(j-1)) - i P_{i-1}^(j),

    which is evaluated on a value table in j = 0..q.  Unlike Horner on the
    monomial coefficients this does not cancel catastrophically for larger
    n, and it is exactly antisymmetric under x -> -x.
    """
    cur = [0.0] * (q + 1)
    cur[0] = 1.0  # P_0 and its derivatives
    if n == 0:
        return cur[q]
    nxt = [0.0] * (q + 1)
    nxt[0] = x
    if q >= 1:
        nxt[1] = 1.0  # P_1 = x
    for i in range(1, n):
        new = [0.0] * (q + 1)
        for j in range(q + 1):
            term = x * nxt[j] + (j * nxt[j - 1] if j else 0.0)
            new[j] = ((2 * i + 1) * term - i * cur[j]) / (i + 1)
        cur, nxt = nxt, new
    return nxt[q]


def overlap_quadrature(n: int, m: int, q: int, k: int, order: int) -> float:
    """Quadrature approximation of the overlap of P_n^(q) and P_m^(k).

    Requires 2*order - 1 >= (n-q) + (m-k), so the rule is exact for the
    integrand up to float rounding.
    """
    check_indices(n, m, q, k)
    if 2 * order - 1 < (n - q) + (m - k):
        raise ValueError(
            f"order-{order} rule is not exact for integrand degree {(n - q) + (m - k)}"
        )
    rule = gauss_legendre_rule(order)
    return math.fsum(
        w * legendre_derivative_value(n, q, x) * legendre_derivative_value(m, k, x)
        for x, w in zip(rule.nodes, rule.weights)
    )
