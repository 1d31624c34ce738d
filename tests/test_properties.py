"""Property tests of the block Gram path against the brute-force oracle."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from legoverlap import GramMatrix, build_gram_matrix, overlap_oracle  # noqa: E402

orders = st.integers(min_value=0, max_value=4)
bounds = st.integers(min_value=0, max_value=14)


@st.composite
def gram_queries(draw):
    """(q, k, n_max, m_max) with q == k in about half the draws, for the mirrored fill."""
    q = draw(orders)
    k = q if draw(st.booleans()) else draw(orders)
    return q, k, draw(bounds), draw(bounds)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(gram_queries())
def test_gram_matrix_matches_oracle_and_round_trips(query):
    q, k, n_max, m_max = query
    gm = build_gram_matrix(q, k, n_max, m_max)
    expected = tuple(
        tuple(overlap_oracle(n, m, q, k) for m in range(m_max + 1)) for n in range(n_max + 1)
    )
    assert gm.entries == expected
    assert GramMatrix.from_json(gm.to_json()) == gm
