"""Gauss-Legendre quadrature in extended precision as a numerical cross-check.

The rule construction finds the positive roots of P_N by Newton iteration
in stdlib ``decimal`` at a fixed working precision of ``_DIGITS`` digits
(evaluating P_N and P_N' with the three-term recurrence) and mirrors them,
so the grid is symmetric to the last digit.  Integrand values come from the
differentiated three-term recurrence in the same precision.  Decimal
rounding is symmetric under negation, so the recurrence keeps the parity
P_n^(q)(-x) = (-1)^(n+q) P_n^(q)(x) exactly: each mirrored node reuses the
value at its positive twin, and summing the pair together makes
parity-odd integrands cancel to exactly ``0.0``.  Everything runs
inside ``decimal.localcontext()``: the caller's decimal context is neither
read nor changed.  Results are rounded to ``float`` only at the end, so an
N-point rule, exact for degree <= 2N-1, returns the exact integral up to one
float rounding plus a decimal rounding residual (about 1e-29 at exact zeros
for n, m <= 64 and q, k <= 4).
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, field
from decimal import Decimal
from functools import lru_cache

from ._checks import check_indices

__all__ = ["QuadratureRule", "gauss_legendre_rule", "overlap_quadrature"]

MAX_ORDER = 128
_DIGITS = 40
_NEWTON_TOL = Decimal("1e-34")
_NEWTON_MAX_ITER = 100


# Entered through decimal.localcontext(), which works on a copy and restores
# the caller's context on exit.
_CONTEXT = decimal.Context(
    prec=_DIGITS,
    rounding=decimal.ROUND_HALF_EVEN,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow],
)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of an N-point rule, exact for degree <= 2N-1.

    ``nodes`` and ``weights`` are the extended-precision values rounded to
    float; ``decimal_half`` keeps the extended-precision (node, weight)
    pairs with node >= 0, in ascending order, for ``overlap_quadrature``.
    """

    order: int
    nodes: tuple[float, ...]
    weights: tuple[float, ...]
    decimal_half: tuple[tuple[Decimal, Decimal], ...] = field(repr=False, compare=False)


def _legendre_pair(order: int, x: Decimal) -> tuple[Decimal, Decimal]:
    """(P_N(x), P_N'(x)) for |x| < 1 by the three-term recurrence, in the current context."""
    p_prev, p = Decimal(1), x
    for j in range(2, order + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, order * (x * p - p_prev) / (x * x - 1)


@lru_cache(maxsize=MAX_ORDER, typed=True)
def gauss_legendre_rule(order: int) -> QuadratureRule:
    """Gauss-Legendre rule of the given order (1 <= order <= 128).

    Positive roots are found by Newton iteration in ``_DIGITS``-digit
    decimal arithmetic, from the Chebyshev initial guesses
    cos(pi (4i-1) / (4N+2)), until the step is at most 1e-34; weights are
    2 / ((1-x^2) P_N'(x)^2) in the same precision.  Negative nodes are the
    exact mirrors of the positive ones.  The cache key is typed, so a bool
    or float order is rejected even when its int twin is cached.
    """
    check_indices(order)
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}, got {order}")
    half: list[tuple[Decimal, Decimal]] = []  # (node, weight), descending nodes
    with decimal.localcontext(_CONTEXT):
        for i in range(1, order // 2 + 1):
            x = Decimal(math.cos(math.pi * (4 * i - 1) / (4 * order + 2)))
            for _ in range(_NEWTON_MAX_ITER):
                p, dp = _legendre_pair(order, x)
                step = p / dp
                x -= step
                if abs(step) <= _NEWTON_TOL:
                    break
            else:
                raise ArithmeticError(
                    f"Newton iteration for root {i} of order {order} did not converge"
                )
            _, dp = _legendre_pair(order, x)
            half.append((x, 2 / ((1 - x * x) * dp * dp)))
        if order % 2:
            _, dp0 = _legendre_pair(order, Decimal(0))
            half.append((Decimal(0), 2 / (dp0 * dp0)))
    half.reverse()
    rounded = [(float(x), float(w)) for x, w in half]
    grid = [(-x, w) for x, w in reversed(rounded) if x] + rounded
    return QuadratureRule(
        order, tuple(x for x, _ in grid), tuple(w for _, w in grid), tuple(half)
    )


def _derivative_value(n: int, q: int, x: Decimal) -> Decimal:
    """P_n^(q)(x) by the differentiated Bonnet recurrence, in the current context.

    Differentiating (i+1) P_{i+1} = (2i+1) x P_i - i P_{i-1} a total of j
    times gives

        (i+1) P_{i+1}^(j) = (2i+1) (x P_i^(j) + j P_i^(j-1)) - i P_{i-1}^(j),

    which is evaluated on a value table in j = 0..q.  Unlike Horner on the
    monomial coefficients this does not cancel catastrophically for larger
    n, and it keeps the parity (-1)^(n+q) under x -> -x exactly.
    """
    zero = Decimal(0)
    cur = [Decimal(1)] + [zero] * q  # P_0 and its derivatives
    if n == 0:
        return cur[q]
    nxt = [x] + [zero] * q
    if q >= 1:
        nxt[1] = Decimal(1)  # P_1 = x
    for i in range(1, n):
        new = [zero] * (q + 1)
        for j in range(q + 1):
            term = x * nxt[j] + (j * nxt[j - 1] if j else zero)
            new[j] = ((2 * i + 1) * term - i * cur[j]) / (i + 1)
        cur, nxt = nxt, new
    return nxt[q]


def overlap_quadrature(n: int, m: int, q: int, k: int, order: int) -> float:
    """Quadrature approximation of the overlap of P_n^(q) and P_m^(k).

    Requires 2*order - 1 >= (n-q) + (m-k), so the rule is exact for the
    integrand; rule, integrand and sum are all in extended precision, and
    the result is rounded to float once.
    """
    check_indices(n, m, q, k, order)
    if 2 * order - 1 < (n - q) + (m - k):
        raise ValueError(
            f"order-{order} rule is not exact for integrand degree {(n - q) + (m - k)}"
        )
    rule = gauss_legendre_rule(order)
    odd = (n + q + m + k) % 2
    with decimal.localcontext(_CONTEXT):
        total = Decimal(0)
        for x, w in rule.decimal_half:
            value = _derivative_value(n, q, x) * _derivative_value(m, k, x)
            if x:
                # P_n^(q)(-x) = (-1)^(n+q) P_n^(q)(x), exactly in the recurrence
                value += -value if odd else value
            total += w * value
        return float(total)
