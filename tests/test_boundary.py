"""Endpoint values P_n^(k)(1): three methods, cross-identities, domain errors."""

from fractions import Fraction
from math import factorial

import pytest

from legoverlap import (
    boundary_factorial,
    boundary_genfunc,
    boundary_recurrence,
    double_factorial,
    legendre,
)


@pytest.mark.parametrize(
    "n, k, expected",
    [
        (5, 0, 1),
        (3, 1, 6),
        (2, 2, 3),
        (2, 5, 0),
        (0, 0, 1),
        (1, 1, 1),
        (2, 1, 3),
        (3, 3, 15),
        (4, 0, 1),
    ],
)
def test_known_endpoint_values(n, k, expected):
    assert boundary_factorial(n, k) == expected
    assert boundary_recurrence(n, k) == expected
    assert boundary_genfunc(n, k) == expected


def test_three_way_agreement():
    for n in range(41):
        for k in range(n + 4):
            a = boundary_factorial(n, k)
            b = boundary_recurrence(n, k)
            c = boundary_genfunc(n, k)
            assert a == b == c, (n, k)


def test_agreement_with_direct_differentiation():
    for n in range(26):
        for k in range(n + 3):
            assert legendre(n).differentiate(k)(1) == boundary_factorial(n, k), (n, k)


def test_factorial_form_satisfies_the_recurrence():
    for n in range(1, 41):
        for k in range(1, n + 1):
            lhs = boundary_factorial(n, k)
            rhs = boundary_factorial(n - 1, k) + (n + k - 1) * boundary_factorial(n - 1, k - 1)
            assert lhs == rhs, (n, k)


def test_double_factorial_identity():
    """(2k-1)!! 2^k k! = (2k)!"""
    for k in range(41):
        assert double_factorial(2 * k - 1) * (1 << k) * factorial(k) == factorial(2 * k)


def test_double_factorial_examples():
    assert double_factorial(5) == 15
    assert double_factorial(-1) == 1
    assert double_factorial(7) == 105


@pytest.mark.parametrize("bad", [0, 4, -2, -3])
def test_double_factorial_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        double_factorial(bad)


@pytest.mark.parametrize("bad", [True, -1.0])
def test_double_factorial_rejects_non_int(bad):
    with pytest.raises(TypeError):
        double_factorial(bad)


def test_values_at_minus_one():
    """P_n^(k)(-1) = (-1)^(n+k) P_n^(k)(1)."""
    for n in range(16):
        for k in range(n + 2):
            val = legendre(n).differentiate(k)(-1)
            assert val == (-1) ** (n + k) * boundary_factorial(n, k), (n, k)


def test_results_are_exact_rationals():
    assert isinstance(boundary_factorial(7, 3), Fraction)
    assert isinstance(boundary_recurrence(7, 3), Fraction)
    assert isinstance(boundary_genfunc(7, 3), Fraction)


def test_negative_indices_rejected():
    for fn in (boundary_factorial, boundary_recurrence, boundary_genfunc):
        with pytest.raises(ValueError):
            fn(-1, 0)
        with pytest.raises(ValueError):
            fn(0, -1)


@pytest.mark.parametrize("bad", [2.0, True])
def test_non_int_indices_rejected(bad):
    for fn in (boundary_factorial, boundary_recurrence, boundary_genfunc):
        with pytest.raises(TypeError):
            fn(bad, 0)
        with pytest.raises(TypeError):
            fn(3, bad)
