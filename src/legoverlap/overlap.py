"""Closed-form overlap integrals of differentiated Legendre polynomials.

Evaluates the integral over [-1, 1] of P_n^(q)(x) P_m^(k)(x) without ever
expanding a polynomial: repeated integration by parts reduces everything
to parity filters, step-function degree gates, and alternating sums of
endpoint values P^(d)(1) = (d+N)! / (2^d d! (N-d)!).  All of those sums
run on one ladder kernel that steps the endpoint values by their ratio, so
an overlap costs O(q+k) big-integer steps and no factorials.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from ._checks import check_indices

__all__ = [
    "OverlapResult",
    "VanishingReason",
    "theta",
    "parity_filter",
    "classify_vanishing",
    "overlap_p_dp",
    "overlap_p_ddp",
    "overlap_p_dk",
    "overlap_dp_dp",
    "overlap_general",
    "boundary_term_sum",
]


def theta(x: int) -> int:
    """Right-continuous step function: 1 for x > 0, 0 for x <= 0."""
    return 1 if x > 0 else 0


def parity_filter(s: int) -> int:
    """1 - (-1)**s: equals 2 for odd s and 0 for even s."""
    return 2 if s % 2 else 0


class VanishingReason(enum.Enum):
    """Why an overlap integral is zero (NONE for nonzero values)."""

    NONE = "none"
    PARITY = "parity"
    DEGREE_CONSTRAINT = "degree_constraint"
    DERIVATIVE_ANNIHILATION = "derivative_annihilation"


@dataclass(frozen=True)
class OverlapResult:
    value: Fraction
    vanishing_reason: VanishingReason


def classify_vanishing(n: int, m: int, q: int, k: int, value: Fraction) -> VanishingReason:
    """Attribute a zero value to its structural cause.

    When several causes apply the ranking is annihilation > parity >
    degree constraint; a nonzero value is always NONE.
    """
    if q > n or k > m:
        return VanishingReason.DERIVATIVE_ANNIHILATION
    if (n + m + q + k) % 2:
        return VanishingReason.PARITY
    if value == 0:
        return VanishingReason.DEGREE_CONSTRAINT
    return VanishingReason.NONE


def _endpoints(deg: int, count: int) -> list[int]:
    """E(d, deg) = (deg+d)! / (d! (deg-d)!), i.e. 2^d P_deg^(d)(1), for d < count.

    Each step multiplies by (deg+d+1)(deg-d)/(d+1), an exact division.  The
    factor deg-d makes every entry past d = deg exactly zero, which is the
    zero-for-negative-factorial convention of the closed forms.
    """
    out, e = [], 1
    for d in range(count):
        out.append(e)
        e = e * (deg + d + 1) * (deg - d) // (d + 1)
    return out


def _signed_endpoints(n: int, s: int) -> list[int]:
    """The row factors (-1)^d E(d, n) of the ladder, d = 0..s."""
    return [-e if d % 2 else e for d, e in enumerate(_endpoints(n, s + 1))]


def _reversed_endpoints(m: int, s: int) -> list[int]:
    """The column factors E(s-d, m) of the ladder, d = 0..s."""
    return _endpoints(m, s + 1)[::-1]


def _ladder(left: list[int], right: list[int], lo: int, hi: int) -> int:
    """The endpoint ladder sum_{d=lo..hi-1} (-1)^d E(d, n) E(s-d, m).

    left and right are _signed_endpoints(n, s) and _reversed_endpoints(m, s).
    """
    return sum(map(int.__mul__, left[lo:hi], right[lo:hi]))


def _gated_ladder(left: list[int], right: list[int], n: int, m: int, q: int, s: int) -> Fraction:
    """overlap_general's value at an entry with odd n+m+s, from its ladder factors.

    When the degree gate theta((m-s)-n) is closed only the boundary ladder
    over d < q remains, with sign (-1)^(q+1).  When it is open the boundary
    ladder cancels the first q terms of the tail, leaving the single range
    q <= d <= s with sign (-1)^q.  The parity filter 2 over 2^s is applied
    as an exact shift whenever it divides.
    """
    if m - s - n > 0:
        ladder = _ladder(left, right, q, s + 1)
    else:
        ladder = -_ladder(left, right, 0, q)
    num = -2 * ladder if q % 2 else 2 * ladder
    if num & ((1 << s) - 1):
        return Fraction(num, 1 << s)
    return Fraction(num >> s)


def _gram_entries(q: int, k: int, n_max: int, m_max: int) -> tuple[tuple[Fraction, ...], ...]:
    """Rows of overlap_general(n, m, q, k).value for n <= n_max and m <= m_max.

    This is _gated_ladder inlined over a whole block.  The ladder factors
    are built once per degree, O((n_max+m_max)(q+k)) integers, and split
    once into their gate-closed part (d < q) and gate-open part
    (q <= d <= s).  An odd-parity entry at m = n+s+1 or beyond has its gate
    open; below that it is closed, and with q = 0 its ladder is empty, so
    it stays zero.  Each other odd-parity entry is one dot product, and
    one Fraction is made per distinct numerator.  For q == k the matrix is
    symmetric (swap symmetry), so the part of row n left of the diagonal is
    copied from the earlier rows wherever column n exists.
    """
    zero = Fraction(0)
    if q == 0 and k == 0:
        return tuple(
            tuple(Fraction(2, 2 * n + 1) if m == n else zero for m in range(m_max + 1))
            for n in range(n_max + 1)
        )
    s = k + q - 1
    sign, mask = (-2 if q % 2 else 2), (1 << s) - 1
    columns = [_reversed_endpoints(m, s) for m in range(m_max + 1)]
    closed_columns = [column[:q] for column in columns]
    open_columns = [column[q:] for column in columns]
    values: dict[int, Fraction] = {}
    rows: list[tuple[Fraction, ...]] = []
    for n in range(n_max + 1):
        mirrored = q == k and n <= m_max
        lo = n if mirrored else 0
        row = [r[n] for r in rows] if mirrored else []
        row += [zero] * (m_max + 1 - lo)
        left = _signed_endpoints(n, s)
        gate = n + s + 1  # the first gate-open column; n+gate+s is odd
        blocks = [(range(gate, m_max + 1, 2), sign, left[q:], open_columns)]
        if q:
            closed = range(lo + (lo + gate) % 2, min(gate, m_max + 1), 2)
            blocks.append((closed, -sign, left[:q], closed_columns))
        for ms, scale, factors, block in blocks:
            for m in ms:
                num = scale * sum(map(int.__mul__, factors, block[m]))
                value = values.get(num)
                if value is None:
                    value = values[num] = Fraction(num, 1 << s) if num & mask else Fraction(num >> s)
                row[m] = value
        rows.append(tuple(row))
    return tuple(rows)


def _orthogonality(n: int, m: int) -> OverlapResult:
    value = Fraction(2, 2 * n + 1) if n == m else Fraction(0)
    return OverlapResult(value, classify_vanishing(n, m, 0, 0, value))


def overlap_p_dp(n: int, m: int) -> OverlapResult:
    """Integral of P_n P'_m: 2 when n+m is odd and n < m, otherwise 0."""
    check_indices(n, m, 0, 1)
    value = Fraction(theta(m - n) * parity_filter(n + m))
    return OverlapResult(value, classify_vanishing(n, m, 0, 1, value))


def overlap_p_ddp(n: int, m: int) -> OverlapResult:
    """Integral of P_n P''_m: m(m+1) - n(n+1) when n+m is even and n < m-1, else 0."""
    check_indices(n, m, 0, 2)
    gate = theta((m - 1) - n) * parity_filter(n + m + 1)
    value = gate * (Fraction(m * (m + 1), 2) - Fraction(n * (n + 1), 2))
    return OverlapResult(value, classify_vanishing(n, m, 0, 2, value))


def overlap_p_dk(n: int, m: int, k: int) -> OverlapResult:
    """Integral of P_n P_m^(k) for any k >= 1.

    The value is the alternating endpoint-ladder sum

        theta((m-(k-1)) - n) [1 - (-1)^(n+m+k-1)] / 2^(k-1)
            * sum_{j=1..k} (-1)^(j-1) 2^(j-1) P_n^(j-1)(1) 2^(k-j) P_m^(k-j)(1)

    which stays valid verbatim on degenerate inputs thanks to the
    zero-for-negative-factorial convention in the endpoint terms.
    k = 0 falls back to plain orthogonality.  This is overlap_general with
    q = 0, where the boundary ladder is empty.
    """
    return overlap_general(n, m, 0, k)


def overlap_dp_dp(n: int, m: int) -> OverlapResult:
    """Integral of P'_n P'_m: min(n,m)(min(n,m)+1) when n+m is even, else 0."""
    check_indices(n, m, 1, 1)
    gate = theta((m - 1) - n)
    value = parity_filter(n + m + 1) * (
        Fraction(m * (m + 1), 2) * (1 - gate) + Fraction(n * (n + 1), 2) * gate
    )
    return OverlapResult(value, classify_vanishing(n, m, 1, 1, value))


def overlap_general(n: int, m: int, q: int, k: int) -> OverlapResult:
    """Integral of P_n^(q) P_m^(k) for arbitrary non-negative indices.

    Shifting all q derivatives off the first factor leaves an endpoint
    ladder plus (-1)^q times the single-sided integral of P_n P_m^(k+q),
    itself an endpoint ladder behind a degree gate:

        [1 - (-1)^(n+m+k+q-1)] / 2^(k+q-1) * (
            sum_{j=1..q}   (-1)^(j-1) E(q-j, n) E(k+j-1, m)
          + (-1)^q theta((m-(k+q-1)) - n)
            sum_{j=1..k+q} (-1)^(j-1) E(j-1, n) E(k+q-j, m) )

    with E(d, N) = (d+N)!/(d! (N-d)!).  With s = k+q-1 both sums are the
    ladder sum_d (-1)^d E(d, n) E(s-d, m): the first over d < q with sign
    (-1)^(q-1), the second over d <= s.  When the gate is open the first
    cancels the head of the second, so each entry is one ladder: over d < q
    or over q <= d <= s.  Degenerate q > n or k > m inputs
    come out zero through the same convention.  The pure orthogonality
    case q = k = 0 is dispatched separately (2/(2n+1) times delta_nm);
    the derivative-transfer expansion needs at least one differentiation.
    """
    check_indices(n, m, q, k)
    if q == 0 and k == 0:
        return _orthogonality(n, m)
    s = k + q - 1
    value = Fraction(0)
    if parity_filter(n + m + s):
        value = _gated_ladder(_signed_endpoints(n, s), _reversed_endpoints(m, s), n, m, q, s)
    return OverlapResult(value, classify_vanishing(n, m, q, k, value))


def boundary_term_sum(n: int, m: int, q: int, k: int) -> Fraction:
    """Evaluated endpoint ladder from shifting q derivatives across the product.

    This is the first summand of the braces in overlap_general including the
    shared parity/2-power prefactor; it vanishes whenever n+m+q+k is odd.
    Meaningful for q >= 1 (an empty ladder, hence 0, for q = 0).
    """
    check_indices(n, m, q, k)
    s = k + q - 1
    pf = parity_filter(n + m + s)
    if not pf:
        return Fraction(0)
    ladder = pf * _ladder(_signed_endpoints(n, s), _reversed_endpoints(m, s), 0, q)
    return Fraction(ladder if q % 2 else -ladder, 1 << max(s, 0))
