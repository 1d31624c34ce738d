"""Closed-form overlaps: case tables, reductions, degenerate inputs, reasons."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import legoverlap
from legoverlap import (
    VanishingReason,
    boundary_factorial,
    boundary_term_sum,
    classify_vanishing,
    overlap_dp_dp,
    overlap_general,
    overlap_oracle,
    overlap_p_ddp,
    overlap_p_dk,
    overlap_p_dp,
    parity_filter,
    theta,
)


def test_theta_is_right_continuous():
    assert theta(1) == 1
    assert theta(0) == 0
    assert theta(-3) == 0


def test_parity_filter():
    assert parity_filter(3) == 2
    assert parity_filter(4) == 0
    assert parity_filter(0) == 0


class TestFirstDerivative:
    def test_case_table(self):
        assert overlap_p_dp(0, 1).value == 2
        assert overlap_p_dp(1, 3).value == 0  # n+m even
        assert overlap_p_dp(4, 1).value == 0  # n+m odd, m < n

    def test_matches_oracle(self):
        for n in range(11):
            for m in range(11):
                assert overlap_p_dp(n, m).value == overlap_oracle(n, m, 0, 1), (n, m)


class TestSecondDerivative:
    def test_case_table(self):
        assert overlap_p_ddp(0, 2).value == 6
        assert overlap_p_ddp(1, 2).value == 0  # n+m odd
        assert overlap_p_ddp(2, 2).value == 0  # n >= m-1

    def test_matches_oracle(self):
        for n in range(11):
            for m in range(11):
                assert overlap_p_ddp(n, m).value == overlap_oracle(n, m, 0, 2), (n, m)


class TestKthDerivative:
    def test_reduces_to_lower_orders(self):
        assert overlap_p_dk(0, 1, 1).value == 2
        assert overlap_p_dk(0, 2, 2).value == 6
        for n in range(9):
            for m in range(9):
                assert overlap_p_dk(n, m, 1) == overlap_p_dp(n, m)
                assert overlap_p_dk(n, m, 2) == overlap_p_ddp(n, m)

    def test_value_frozen_from_oracle(self):
        # P_4''' = 105 x, so the overlap with P_1 is 105 * 2/3
        assert overlap_p_dk(1, 4, 3).value == 70
        assert overlap_oracle(1, 4, 0, 3) == 70

    def test_k_zero_is_orthogonality(self):
        for n in range(7):
            for m in range(7):
                want = Fraction(2, 2 * n + 1) if n == m else 0
                assert overlap_p_dk(n, m, 0).value == want

    def test_reexpansion_constraint(self):
        """Zero whenever n >= m - (k-1), for k >= 1."""
        for k in range(1, 5):
            for n in range(12):
                for m in range(12):
                    if n >= m - (k - 1):
                        assert overlap_p_dk(n, m, k).value == 0, (n, m, k)


class TestTwoFirstDerivatives:
    def test_known_values(self):
        assert overlap_dp_dp(1, 1).value == 2
        assert overlap_dp_dp(2, 4).value == 6
        assert overlap_dp_dp(1, 2).value == 0

    def test_min_formula_and_oracle(self):
        for n in range(11):
            for m in range(11):
                got = overlap_dp_dp(n, m).value
                if (n + m) % 2 == 0:
                    low = min(n, m)
                    assert got == low * (low + 1), (n, m)
                else:
                    assert got == 0
                assert got == overlap_oracle(n, m, 1, 1), (n, m)


class TestGeneralOverlap:
    def test_large_reference_values(self):
        assert overlap_general(10, 3, 10, 3).value == 19641872250
        assert overlap_general(10, 5, 10, 3).value == 137493105750
        assert overlap_general(11, 4, 10, 3).value == 962451740250

    def test_value_frozen_from_oracle(self):
        # expand P_2' * P_7'' by hand: integral is 1296/8
        assert overlap_general(2, 7, 1, 2).value == 162
        assert overlap_oracle(2, 7, 1, 2) == 162

    def test_orthogonality_dispatch(self):
        for n in range(8):
            assert overlap_general(n, n, 0, 0).value == Fraction(2, 2 * n + 1)
        assert overlap_general(2, 4, 0, 0).value == 0

    def test_specializations_agree(self):
        for n in range(10):
            for m in range(10):
                assert overlap_general(n, m, 0, 1) == overlap_p_dp(n, m)
                assert overlap_general(n, m, 0, 2) == overlap_p_ddp(n, m)
                assert overlap_general(n, m, 1, 1) == overlap_dp_dp(n, m)
                for k in range(5):
                    assert overlap_general(n, m, 0, k) == overlap_p_dk(n, m, k)

    def test_swap_symmetry(self):
        for n in range(9):
            for m in range(9):
                for q in range(4):
                    for k in range(4):
                        assert (
                            overlap_general(n, m, q, k).value
                            == overlap_general(m, n, k, q).value
                        ), (n, m, q, k)

    def test_degenerate_orders_annihilate(self):
        for q in range(2, 6):
            res = overlap_general(1, 8, q, 2)
            assert res.value == 0
            assert res.vanishing_reason is VanishingReason.DERIVATIVE_ANNIHILATION
        res = overlap_general(5, 2, 1, 4)  # k > m
        assert res.value == 0
        assert res.vanishing_reason is VanishingReason.DERIVATIVE_ANNIHILATION

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            overlap_general(-1, 0, 0, 0)
        with pytest.raises(ValueError):
            overlap_p_dk(0, 1, -1)

    def test_non_int_indices_rejected(self):
        # odd n+m+q+k: without the check this returns a parity zero
        with pytest.raises(TypeError):
            overlap_general(2.0, 4, 0, 1)
        with pytest.raises(TypeError):
            overlap_general(2.0, 4, 1, 1)
        with pytest.raises(TypeError):
            boundary_term_sum(2, 4, Fraction(1), 1)

    def test_bool_indices_rejected(self):
        with pytest.raises(TypeError):
            overlap_general(True, 2, 0, 1)
        with pytest.raises(TypeError):
            overlap_p_dk(0, 3, False)


def _docstring_formula(n, m, q, k):
    """The overlap_general docstring sum, term by term from boundary_factorial."""
    def e(d, deg):
        return boundary_factorial(deg, d) * (1 << d)

    s = k + q - 1
    ladder = sum((-1) ** (j - 1) * e(q - j, n) * e(k + j - 1, m) for j in range(1, q + 1))
    if (m - s) - n > 0:
        tail = sum((-1) ** (j - 1) * e(j - 1, n) * e(k + q - j, m) for j in range(1, k + q + 1))
        ladder += (-1) ** q * tail
    return Fraction(1 - (-1) ** (n + m + s), 1 << s) * ladder


class TestLadderKernel:
    """High-degree values against the independent factorial endpoint route."""

    POINTS = [
        (5000, 4998, 30, 10),  # boundary ladder only, gate closed
        (2000, 2100, 0, 40),  # gated tail only
        (300, 421, 12, 9),  # both ladders
        (3, 60, 5, 4),  # q > n with parity and gate open: annihilated
    ]

    @pytest.mark.parametrize("n,m,q,k", POINTS)
    def test_matches_factorial_route(self, n, m, q, k):
        value = overlap_general(n, m, q, k).value
        assert value == _docstring_formula(n, m, q, k)
        assert value == overlap_general(m, n, k, q).value
        assert (value == 0) == (q > n or k > m)


def _imported_modules(path):
    """Absolute names of every module a legoverlap source file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "legoverlap" if node.level else ""
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("route", ["oracle", "boundary"])
def test_route_never_imports_closed_forms(route):
    path = Path(legoverlap.__file__).with_name(f"{route}.py")
    assert "legoverlap.overlap" not in _imported_modules(path)


@pytest.mark.parametrize(
    "route, forbidden",
    [
        ("gram", "oracle"),  # Gram matrices come from the closed form alone
        ("quadrature", "overlap"),  # quadrature shares nothing exact with the other routes
        ("quadrature", "boundary"),
        ("quadrature", "oracle"),
        ("quadrature", "legendre"),
    ],
)
def test_route_import_graph(route, forbidden):
    path = Path(legoverlap.__file__).with_name(f"{route}.py")
    assert f"legoverlap.{forbidden}" not in _imported_modules(path)


class TestVanishingReason:
    def test_parity(self):
        assert overlap_p_dp(1, 3).vanishing_reason is VanishingReason.PARITY

    def test_degree_constraint(self):
        assert overlap_p_dp(4, 1).vanishing_reason is VanishingReason.DEGREE_CONSTRAINT
        assert overlap_general(2, 4, 0, 0).vanishing_reason is VanishingReason.DEGREE_CONSTRAINT

    def test_annihilation_takes_priority(self):
        # q > n together with odd total parity still reports annihilation
        assert (
            overlap_general(0, 1, 1, 1).vanishing_reason
            is VanishingReason.DERIVATIVE_ANNIHILATION
        )

    def test_nonzero_is_none(self):
        assert overlap_general(0, 1, 0, 1).vanishing_reason is VanishingReason.NONE

    def test_reason_implies_zero_value(self):
        for n in range(9):
            for m in range(9):
                for q in range(4):
                    for k in range(4):
                        res = overlap_general(n, m, q, k)
                        if res.vanishing_reason is not VanishingReason.NONE:
                            assert res.value == 0
                        else:
                            assert res.value != 0

    def test_classify_matches_results(self):
        res = overlap_general(6, 8, 0, 4)
        assert res.vanishing_reason is classify_vanishing(6, 8, 0, 4, res.value)


class TestBoundaryTermSum:
    def test_single_ladder_step(self):
        assert boundary_term_sum(0, 1, 1, 0) == 2

    def test_matches_full_integral_when_tail_gate_closes(self):
        # for n = m = 2, q = k = 1 the residual integral term vanishes,
        # so the ladder alone reproduces the overlap of P_2' with itself
        assert boundary_term_sum(2, 2, 1, 1) == 6
        assert overlap_general(2, 2, 1, 1).value == 6

    def test_odd_total_parity_vanishes(self):
        assert boundary_term_sum(1, 2, 1, 1) == 0
        for n in range(7):
            for m in range(7):
                for q in range(1, 4):
                    for k in range(4):
                        if (n + m + q + k) % 2:
                            assert boundary_term_sum(n, m, q, k) == 0

    def test_empty_ladder_is_zero(self):
        assert boundary_term_sum(3, 5, 0, 2) == 0
