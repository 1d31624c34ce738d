"""Brute-force integration path and its input checks."""

from fractions import Fraction

import pytest

from legoverlap import Polynomial, integrate_over_interval, overlap_oracle


def test_integrate_monomials():
    assert integrate_over_interval(Polynomial([1])) == 2
    assert integrate_over_interval(Polynomial([0, 1])) == 0
    assert integrate_over_interval(Polynomial([0, 0, 1])) == Fraction(2, 3)
    assert integrate_over_interval(Polynomial()) == 0


def test_oracle_reproduces_reference_values():
    assert overlap_oracle(0, 1, 0, 1) == 2
    assert overlap_oracle(0, 2, 0, 2) == 6
    assert overlap_oracle(10, 3, 10, 3) == 19641872250


def test_oracle_orthogonality():
    for n in range(19):
        for m in range(19):
            expected = Fraction(2, 2 * n + 1) if n == m else 0
            assert overlap_oracle(n, m, 0, 0) == expected, (n, m)


def test_oracle_integrand_parity():
    """Odd total parity integrates to zero, straight from the expansion."""
    for n in range(10):
        for m in range(10):
            for q in range(3):
                for k in range(3):
                    if (n + m + q + k) % 2:
                        assert overlap_oracle(n, m, q, k) == 0, (n, m, q, k)


def test_float_index_rejected_after_int_twin_is_cached():
    assert overlap_oracle(2, 4, 0, 1) == 0
    with pytest.raises(TypeError):
        overlap_oracle(2.0, 4, 0, 1)


def test_bool_index_rejected():
    with pytest.raises(TypeError):
        overlap_oracle(True, 2, 0, 1)


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        overlap_oracle(2, 2, -1, 0)
