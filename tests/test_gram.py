"""Gram matrix assembly and JSON/CSV serialization."""

import json
from fractions import Fraction

import pytest

from legoverlap import (
    GramMatrix,
    build_gram_matrix,
    format_exact,
    overlap_general,
    overlap_oracle,
    parse_exact,
)


def test_orthogonality_matrix():
    gm = build_gram_matrix(0, 0, 2, 2)
    assert [format_exact(gm.entries[n][n]) for n in range(3)] == ["2", "2/3", "2/5"]
    assert all(gm.entries[n][m] == 0 for n in range(3) for m in range(3) if n != m)


def test_first_derivative_diagonal():
    gm = build_gram_matrix(1, 1, 3, 3)
    assert [format_exact(gm.entries[n][n]) for n in range(4)] == ["0", "2", "6", "12"]
    assert all(v == 0 for v in gm.entries[0])


def test_p_dp_matrix():
    gm = build_gram_matrix(0, 1, 2, 2)
    for n in range(3):
        for m in range(3):
            expected = "2" if (n, m) in {(0, 1), (1, 2)} else "0"
            assert format_exact(gm.entries[n][m]) == expected, (n, m)


def test_json_round_trip():
    gm = build_gram_matrix(2, 3, 6, 5)
    again = GramMatrix.from_json(gm.to_json())
    assert again == gm


def test_csv_and_json_cells_identical():
    gm = build_gram_matrix(1, 2, 4, 4)
    json_cells = json.loads(gm.to_json())["entries"]
    lines = gm.to_csv().strip().splitlines()
    assert lines[0] == "n\\m,0,1,2,3,4"
    for n, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert cells[0] == str(n)
        assert cells[1:] == json_cells[n]


def test_json_schema_fields():
    data = json.loads(build_gram_matrix(1, 0, 2, 3).to_json())
    assert data == {
        "q": 1,
        "k": 0,
        "n_max": 2,
        "m_max": 3,
        "entries": data["entries"],
    }
    assert len(data["entries"]) == 3
    assert all(len(row) == 4 for row in data["entries"])
    assert all(isinstance(cell, str) for row in data["entries"] for cell in row)


def test_transpose_matches_swapped_query():
    a = build_gram_matrix(2, 1, 4, 6)
    b = build_gram_matrix(1, 2, 6, 4)
    assert a.entries == tuple(zip(*b.entries))


def test_odd_parity_entries_are_zero():
    gm = build_gram_matrix(1, 2, 5, 5)
    for n in range(6):
        for m in range(6):
            if (n + m + 3) % 2:
                assert gm.entries[n][m] == 0


@pytest.mark.parametrize(
    "value",
    [Fraction(0), Fraction(7), Fraction(-19641872250), Fraction(2, 3), Fraction(-5, 8)],
)
def test_format_parse_round_trip(value):
    assert parse_exact(format_exact(value)) == value


@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("bad, error", [(2.0, TypeError), (True, TypeError), (-1, ValueError)])
def test_rejects_bad_indices_and_bounds(position, bad, error):
    args = [1, 1, 3, 3]
    args[position] = bad
    with pytest.raises(error):
        build_gram_matrix(*args)


class TestBlockAssembly:
    """The per-degree block path against the per-entry closed form and the oracle."""

    def test_matches_per_entry_path_on_rectangles(self):
        for q in range(9):
            for k in range(9):
                full = [[overlap_general(n, m, q, k).value for m in range(71)] for n in range(71)]
                wide = build_gram_matrix(q, k, 60, 70).entries
                tall = build_gram_matrix(q, k, 70, 60).entries
                assert wide == tuple(tuple(row) for row in full[:61]), (q, k)
                assert tall == tuple(tuple(row[:61]) for row in full), (q, k)

    @pytest.mark.parametrize("q, k, n_max, m_max", [(2, 3, 0, 0), (0, 0, 0, 0), (1, 2, 0, 5), (0, 4, 5, 0), (6, 1, 3, 9), (7, 7, 4, 4)])
    def test_matches_per_entry_path_on_tiny_and_degenerate_bounds(self, q, k, n_max, m_max):
        expected = tuple(
            tuple(overlap_general(n, m, q, k).value for m in range(m_max + 1))
            for n in range(n_max + 1)
        )
        assert build_gram_matrix(q, k, n_max, m_max).entries == expected

    @pytest.mark.parametrize(
        "q, n_max, m_max",
        [(1, 0, 0), (2, 0, 0), (4, 0, 0)]  # 1 x 1
        + [(3, 2, 2), (4, 1, 6), (5, 3, 0), (6, 4, 9)]  # n_max < q
        + [(q, 4, 39) for q in range(1, 5)]  # 5 x 40
        + [(q, 39, 4) for q in range(1, 5)],  # 40 x 5
    )
    def test_mirrored_q_equals_k_matches_per_entry_path(self, q, n_max, m_max):
        expected = tuple(
            tuple(overlap_general(n, m, q, q).value for m in range(m_max + 1))
            for n in range(n_max + 1)
        )
        assert build_gram_matrix(q, q, n_max, m_max).entries == expected

    def test_matches_oracle(self):
        for q in range(4):
            for k in range(4):
                expected = tuple(
                    tuple(overlap_oracle(n, m, q, k) for m in range(13)) for n in range(13)
                )
                assert build_gram_matrix(q, k, 12, 12).entries == expected, (q, k)


class TestGramIdentities:
    """Identities of the block-assembled matrices alone, with no second route.

    Integrating (2m+1) P_m^(k) = P_{m+1}^(k+1) - P_{m-1}^(k+1) (the k-th
    derivative of a DLMF 18.9 relation) against P_n^(q) ties column m of
    G(q, k) to columns m +- 1 of G(q, k+1); swapping the factors transposes G.
    """

    N = 60

    @pytest.fixture(scope="class")
    def grams(self):
        return {
            (q, k): build_gram_matrix(q, k, self.N, self.N + 1).entries
            for q in range(5)
            for k in range(6)
        }

    def test_derivative_ladder_identity(self, grams):
        for q in range(5):
            for k in range(5):
                g, up = grams[q, k], grams[q, k + 1]
                for n in range(self.N + 1):
                    for m in range(self.N + 1):
                        below = up[n][m - 1] if m else 0
                        assert (2 * m + 1) * g[n][m] + below == up[n][m + 1], (q, k, n, m)

    def test_swap_symmetry(self, grams):
        for q in range(5):
            for k in range(5):
                g, swapped = grams[q, k], grams[k, q]
                for n in range(self.N + 1):
                    for m in range(self.N + 1):
                        assert g[n][m] == swapped[m][n], (q, k, n, m)


def _gram_json(**changes):
    data = json.loads(build_gram_matrix(1, 2, 3, 4).to_json())
    data.update(changes)
    return data


class TestFromJsonShape:
    @pytest.mark.parametrize("key", ["q", "k", "n_max", "m_max", "entries"])
    def test_missing_key(self, key):
        data = _gram_json()
        del data[key]
        with pytest.raises(ValueError):
            GramMatrix.from_json(json.dumps(data))

    def test_not_an_object(self):
        with pytest.raises(ValueError):
            GramMatrix.from_json("[1, 2]")

    @pytest.mark.parametrize("key", ["q", "k", "n_max", "m_max"])
    @pytest.mark.parametrize("bad", [-1, 1.0, True, "1", None])
    def test_bad_index(self, key, bad):
        with pytest.raises(ValueError):
            GramMatrix.from_json(json.dumps(_gram_json(**{key: bad})))

    def test_older_file_with_method_key_still_loads(self):
        text = json.dumps(_gram_json(method="oracle"))
        assert GramMatrix.from_json(text) == build_gram_matrix(1, 2, 3, 4)

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda rows: rows[:-1],  # a row short
            lambda rows: rows + [rows[0]],  # a row over
            lambda rows: [rows[0][:-1]] + rows[1:],  # ragged: one short row
            lambda rows: [rows[0] + ["0"]] + rows[1:],  # ragged: one long row
            lambda rows: [",".join(rows[0])] + rows[1:],  # a row that is no list
            lambda rows: {"0": rows},  # entries that are no list
            lambda rows: [[0] + rows[0][1:]] + rows[1:],  # a number, not a string
            lambda rows: [["1.5"] + rows[0][1:]] + rows[1:],  # a string format_exact never writes
        ],
    )
    def test_bad_entries(self, mangle):
        data = _gram_json()
        data["entries"] = mangle(data["entries"])
        with pytest.raises(ValueError):
            GramMatrix.from_json(json.dumps(data))


    @pytest.mark.parametrize(
        "positions, bad",
        [
            ([(0, 0)], "2/4"),
            ([(4, 4)], "007"),
            ([(2, 4)], "06"),  # a malformed 6 after the valid "6" at (2, 2)
            ([(2, 4)], "12/2"),
            ([(3, 3)], "12 "),  # a trailing space
            ([(1, 1), (3, 1)], "2.0"),  # the same malformed string twice
        ],
    )
    def test_malformed_cell_raises_wherever_it_sits(self, positions, bad):
        data = json.loads(build_gram_matrix(1, 1, 4, 4).to_json())
        assert data["entries"][2][2] == data["entries"][2][4] == "6"
        for n, m in positions:
            data["entries"][n][m] = bad
        with pytest.raises(ValueError):
            GramMatrix.from_json(json.dumps(data))

    def test_repeated_strings_read_back_equal(self):
        gm = build_gram_matrix(1, 1, 30, 30)
        cells = json.loads(gm.to_json())["entries"]
        assert sum(row.count("6") for row in cells) > 2  # "6" recurs across rows
        assert GramMatrix.from_json(gm.to_json()) == gm

    def test_calls_share_no_state(self):
        from legoverlap import gram

        def containers():
            return {
                name: len(value)
                for name, value in vars(gram).items()
                if isinstance(value, (dict, set, list))
            }

        before = containers()
        text = build_gram_matrix(2, 2, 8, 8).to_json()
        first, second = GramMatrix.from_json(text), GramMatrix.from_json(text)
        assert first == second
        assert containers() == before
        nonzero = [(n, m) for n in range(9) for m in range(9) if first.entries[n][m]]
        assert nonzero
        assert all(first.entries[n][m] is not second.entries[n][m] for n, m in nonzero)


class TestParseExact:
    @pytest.mark.parametrize(
        "text",
        ["1.5", "1e400", "2/4", "3/1", "-0", "0/1", " 3", "+3", "1_0", "1/-2", ""]
        + ["3 ", "3\n", "/2", "1/", "0/5", "007", "\u0663"],
    )
    def test_rejects_what_format_exact_never_writes(self, text):
        with pytest.raises(ValueError):
            parse_exact(text)

    @pytest.mark.parametrize("value", [3, 3.0, None, Fraction(3), b"3"])
    def test_rejects_non_str(self, value):
        with pytest.raises(TypeError):
            parse_exact(value)

    def test_exact_inverse_of_format_exact(self):
        for q, k in [(0, 0), (0, 1), (2, 3), (5, 4)]:
            for row in json.loads(build_gram_matrix(q, k, 20, 20).to_json())["entries"]:
                for text in row:
                    assert format_exact(parse_exact(text)) == text
