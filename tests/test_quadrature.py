"""Gauss-Legendre rules and the floating-point overlap cross-check."""

import decimal
import math
from fractions import Fraction

import pytest

from legoverlap import gauss_legendre_rule, legendre, overlap_general, overlap_quadrature
from legoverlap.quadrature import _CONTEXT, _derivative_value


def test_one_point_rule():
    rule = gauss_legendre_rule(1)
    assert rule.nodes == (0.0,)
    assert rule.weights == (2.0,)


def test_two_point_rule():
    rule = gauss_legendre_rule(2)
    root = 1 / math.sqrt(3)
    assert rule.nodes[0] == pytest.approx(-root, abs=1e-15)
    assert rule.nodes[1] == pytest.approx(root, abs=1e-15)
    assert rule.weights[0] == pytest.approx(1.0, abs=1e-14)
    assert rule.weights[1] == pytest.approx(1.0, abs=1e-14)


def test_weights_sum_to_two():
    for order in range(1, 41):
        total = math.fsum(gauss_legendre_rule(order).weights)
        assert abs(total - 2.0) <= 1e-12, order


def test_nodes_increasing_symmetric_interior():
    for order in (1, 2, 3, 7, 16, 33, 128):
        rule = gauss_legendre_rule(order)
        assert len(rule.nodes) == order
        assert all(a < b for a, b in zip(rule.nodes, rule.nodes[1:]))
        assert all(x == -y for x, y in zip(rule.nodes, reversed(rule.nodes)))
        assert all(u == v for u, v in zip(rule.weights, reversed(rule.weights)))
        assert all(-1.0 < x < 1.0 for x in rule.nodes)
        assert all(w > 0 for w in rule.weights)


def test_monomial_exactness():
    """Exact (to rounding) for every monomial of degree <= 2N-1."""
    for order in range(1, 21):
        rule = gauss_legendre_rule(order)
        for p in range(2 * order):
            got = math.fsum(w * x**p for x, w in zip(rule.nodes, rule.weights))
            want = 2.0 / (p + 1) if p % 2 == 0 else 0.0
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (order, p)


def test_order_bounds():
    with pytest.raises(ValueError):
        gauss_legendre_rule(0)
    with pytest.raises(ValueError):
        gauss_legendre_rule(129)


def test_bool_order_rejected_even_when_cached():
    gauss_legendre_rule(1)
    with pytest.raises(TypeError):
        gauss_legendre_rule(True)
    assert gauss_legendre_rule(1).order == 1


def test_overlap_quadrature_rejects_float_order():
    with pytest.raises(TypeError):
        overlap_quadrature(2, 2, 0, 0, 2.0)


def test_float_derivative_values_match_exact_evaluation():
    for n in range(13):
        for q in range(5):
            p = legendre(n).differentiate(q)
            for x in (-0.875, -0.25, 0.0, 0.3125, 0.96875):
                exact = float(p(Fraction(x)))
                with decimal.localcontext(_CONTEXT):
                    got = float(_derivative_value(n, q, decimal.Decimal(x)))
                assert got == pytest.approx(exact, rel=1e-12, abs=1e-12), (n, q, x)


def test_overlap_quadrature_examples():
    assert overlap_quadrature(0, 1, 0, 1, 2) == pytest.approx(2.0, abs=1e-12)
    assert overlap_quadrature(1, 2, 0, 0, 3) == pytest.approx(0.0, abs=1e-12)
    assert overlap_quadrature(2, 4, 1, 1, 4) == pytest.approx(6.0, rel=1e-9)


def test_rejects_rule_too_small_for_integrand():
    with pytest.raises(ValueError):
        overlap_quadrature(6, 6, 0, 0, 3)


@pytest.mark.parametrize("args", [(-1, 2, 0, 0, 3), (3, 2, -1, 0, 4)])
def test_rejects_negative_indices(args):
    with pytest.raises(ValueError):
        overlap_quadrature(*args)


def test_parity_odd_integrands_cancel_exactly():
    """Bit-symmetric nodes make odd integrands sum to exactly 0.0."""
    for n in range(10):
        for m in range(10):
            for q in range(min(3, n) + 1):
                for k in range(min(3, m) + 1):
                    if (n + m + q + k) % 2:
                        assert overlap_quadrature(n, m, q, k, max(1, n + m)) == 0.0


def test_concordance_envelope():
    """|quadrature - exact| <= 1e-9 max(1, |exact|) over the check grid."""
    for n in range(13):
        for m in range(13):
            for q in range(min(4, n) + 1):
                for k in range(min(4, m) + 1):
                    exact = float(overlap_general(n, m, q, k).value)
                    approx = overlap_quadrature(n, m, q, k, max(1, n + m))
                    assert abs(approx - exact) <= 1e-9 * max(1.0, abs(exact)), (n, m, q, k)


def test_recurrence_keeps_parity_exactly():
    """overlap_quadrature reuses the value at x for the mirrored node -x.

    That is exact only because the recurrence gives
    P_n^(q)(-x) = (-1)^(n+q) P_n^(q)(x) to the last decimal digit.
    """
    with decimal.localcontext(_CONTEXT):
        for order in (5, 12, 25):
            for x, _ in gauss_legendre_rule(order).decimal_half:
                for n in range(17):
                    for q in range(5):
                        value = _derivative_value(n, q, x)
                        mirrored = -value if (n + q) % 2 else value
                        assert _derivative_value(n, q, -x) == mirrored, (order, x, n, q)
