"""Exact polynomial layer: construction, differentiation, evaluation, parity, caches."""

from fractions import Fraction

import pytest

from legoverlap import Polynomial, gauss_legendre_rule, legendre
from legoverlap.oracle import _legendre_derivative

N_TEST = 40


def test_first_legendre_polynomials():
    assert legendre(0).coeffs == (Fraction(1),)
    assert legendre(1).coeffs == (Fraction(0), Fraction(1))
    assert legendre(2).coeffs == (Fraction(-1, 2), Fraction(0), Fraction(3, 2))


def test_degree_of_zero_polynomial_is_none():
    assert Polynomial().degree is None
    assert Polynomial([0, 0]).degree is None
    assert Polynomial([5]).degree == 0
    assert Polynomial([0, 0, 1]).degree == 2


def test_differentiate_examples():
    assert Polynomial([0, 1]).differentiate() == Polynomial([1])
    assert legendre(2).differentiate(2) == Polynomial([3])
    assert Polynomial([1]).differentiate() == Polynomial()
    assert legendre(3).differentiate(9) == Polynomial()


def test_eval_examples():
    p3 = legendre(3)
    assert p3(1) == 1
    assert p3(-1) == -1
    assert Polynomial()(5) == 0


def test_eval_is_exact():
    value = legendre(4)(Fraction(1, 3))
    assert isinstance(value, Fraction)
    # P_4 = (35 x^4 - 30 x^2 + 3)/8 at x = 1/3
    assert value == Fraction(35 - 30 * 9 + 3 * 81, 8 * 81)


def test_endpoint_normalization():
    for n in range(N_TEST + 1):
        p = legendre(n)
        assert p(1) == 1
        assert p(-1) == (-1) ** n


def test_derivative_recurrence_identity():
    """P'_n = n P_{n-1} + x P'_{n-1} holds as an exact polynomial identity."""
    x = Polynomial([0, 1])
    for n in range(1, N_TEST + 1):
        lhs = legendre(n).differentiate()
        rhs = n * legendre(n - 1) + x * legendre(n - 1).differentiate()
        assert lhs == rhs, n


def test_coefficient_parity_structure():
    """P_n^(k) only has powers of the same parity as n+k."""
    for n in range(N_TEST + 1):
        for k in (0, 1, 2, 3):
            for p, c in enumerate(legendre(n).differentiate(k).coeffs):
                if (p - (n + k)) % 2:
                    assert c == 0, (n, k, p)


def test_bonnet_recurrence_holds_exactly():
    """The explicit coefficient sum satisfies (j+1) P_{j+1} + j P_{j-1} = (2j+1) x P_j."""
    x = Polynomial([0, 1])
    for j in range(1, 61):
        lhs = (j + 1) * legendre(j + 1) + j * legendre(j - 1)
        assert lhs == (2 * j + 1) * (x * legendre(j)), j


def test_parity_sign_matches_evaluation():
    xs = [Fraction(1, 3), Fraction(2, 5), Fraction(7, 9)]
    for n in range(8):
        for k in range(4):
            dp = legendre(n).differentiate(k)
            for x in xs:
                assert dp(-x) == (-1) ** (n + k) * dp(x)


def test_derivative_degree():
    for n in range(12):
        for k in range(n + 3):
            d = legendre(n).differentiate(k)
            assert d.degree == (n - k if k <= n else None)


def test_polynomial_is_immutable_and_hashable():
    p = legendre(5)
    with pytest.raises(AttributeError):
        p.coeffs = ()
    assert hash(p) == hash(Polynomial(p.coeffs))
    assert legendre(5) == Polynomial(p.coeffs)


def test_adding_a_non_polynomial_raises_type_error():
    with pytest.raises(TypeError):
        legendre(2) + 1


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        legendre(-1)
    with pytest.raises(ValueError):
        legendre(3).differentiate(-2)


def test_non_int_inputs_rejected_even_when_cached():
    legendre(2)
    legendre(1)
    for bad in (2.0, True):
        with pytest.raises(TypeError):
            legendre(bad)
    with pytest.raises(TypeError):
        legendre(3).differentiate(1.0)
    with pytest.raises(TypeError):
        legendre(3).differentiate(True)


@pytest.mark.parametrize("cache", [legendre, _legendre_derivative, gauss_legendre_rule])
def test_caches_are_bounded(cache):
    assert cache.cache_info().maxsize is not None
