"""Exact overlap integrals of differentiated Legendre polynomials.

Closed forms for the integral over [-1, 1] of P_n^(q) P_m^(k) built from
endpoint-value ladders, endpoint values P_n^(k)(1) by three independent
methods, a brute-force symbolic oracle that validates every closed form,
extended-precision Gauss-Legendre cross-checks, and Gram-matrix assembly with
JSON/CSV serialization.
"""

from .legendre import Polynomial, legendre
from .boundary import (
    boundary_factorial,
    boundary_genfunc,
    boundary_recurrence,
    double_factorial,
)
from .overlap import (
    OverlapResult,
    VanishingReason,
    boundary_term_sum,
    classify_vanishing,
    overlap_dp_dp,
    overlap_general,
    overlap_p_ddp,
    overlap_p_dk,
    overlap_p_dp,
    parity_filter,
    theta,
)
from .oracle import integrate_over_interval, overlap_oracle
from .quadrature import QuadratureRule, gauss_legendre_rule, overlap_quadrature
from .gram import GramMatrix, build_gram_matrix, format_exact, parse_exact

__version__ = "0.1.0"

__all__ = [
    "Polynomial",
    "legendre",
    "boundary_factorial",
    "boundary_genfunc",
    "boundary_recurrence",
    "double_factorial",
    "OverlapResult",
    "VanishingReason",
    "boundary_term_sum",
    "classify_vanishing",
    "overlap_dp_dp",
    "overlap_general",
    "overlap_p_ddp",
    "overlap_p_dk",
    "overlap_p_dp",
    "parity_filter",
    "theta",
    "integrate_over_interval",
    "overlap_oracle",
    "QuadratureRule",
    "gauss_legendre_rule",
    "overlap_quadrature",
    "GramMatrix",
    "build_gram_matrix",
    "format_exact",
    "parse_exact",
]
