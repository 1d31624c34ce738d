"""Gram matrices of derivative overlaps, with JSON and CSV serialization.

Entry [n][m] holds the exact integral of P_n^(q) P_m^(k) over [-1, 1],
filled from the closed form alone.  Values serialize as strings ("p/q",
or a plain decimal integer when the denominator is 1) because they
routinely exceed both 64-bit integers and double precision.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from fractions import Fraction

from ._checks import check_indices
from .overlap import _gram_entries

__all__ = ["GramMatrix", "build_gram_matrix", "format_exact", "parse_exact"]

_ZERO = Fraction(0)
_EXACT = re.compile(r"(0|-?[1-9][0-9]*)(?:/([1-9][0-9]*))?")
_FIELDS = ("q", "k", "n_max", "m_max", "entries")


def format_exact(value: Fraction) -> str:
    """Render exactly: decimal integer when the denominator is 1, else 'p/q'."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_exact(text: str) -> Fraction:
    """Exact inverse of format_exact: accepts only the strings it writes.

    Those are a decimal integer (an optional "-", no leading zero, no "+",
    "_" or spaces) or "p/q" in lowest terms with q > 1.  Anything else
    raises ValueError, and a non-str raises TypeError.
    """
    if text == "0":
        return _ZERO
    if not isinstance(text, str):
        raise TypeError(f"exact values are str, got {type(text).__name__}")
    match = _EXACT.fullmatch(text)
    if match is None:
        raise ValueError(f"not an exact value: {text!r}")
    numerator, denominator = match.groups()
    if denominator is None:
        return Fraction(int(numerator))
    den = int(denominator)
    value = Fraction(int(numerator), den)
    if den == 1 or value.denominator != den:
        raise ValueError(f"not in lowest terms with denominator > 1: {text!r}")
    return value


@dataclass(frozen=True)
class GramMatrix:
    q: int
    k: int
    n_max: int
    m_max: int
    entries: tuple[tuple[Fraction, ...], ...]

    def to_json(self) -> str:
        # str(Fraction) is format_exact's text, without its two property reads per cell.
        return json.dumps(
            {
                "q": self.q,
                "k": self.k,
                "n_max": self.n_max,
                "m_max": self.m_max,
                "entries": [list(map(str, row)) for row in self.entries],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "GramMatrix":
        """Read to_json output back; ValueError on anything of another shape.

        Extra keys, such as the "method" older files carry, are ignored.
        Each distinct cell string is checked by parse_exact once, and every
        cell holding it shares the resulting Fraction.
        """
        data = json.loads(text)
        if not isinstance(data, dict) or any(key not in data for key in _FIELDS):
            raise ValueError(f"a Gram matrix object needs the keys {_FIELDS}")
        q, k, n_max, m_max, rows = (data[key] for key in _FIELDS)
        if any(type(index) is not int or index < 0 for index in (q, k, n_max, m_max)):
            raise ValueError("q, k, n_max and m_max must be non-negative integers")
        if (
            type(rows) is not list
            or len(rows) != n_max + 1
            or any(type(row) is not list or len(row) != m_max + 1 for row in rows)
        ):
            raise ValueError(f"entries must be {n_max + 1} rows of {m_max + 1} strings")
        try:
            parsed = {text: parse_exact(text) for text in set().union(*rows)}
        except TypeError:
            raise ValueError("entries must be strings") from None
        entries = tuple(tuple(map(parsed.__getitem__, row)) for row in rows)
        return cls(q, k, n_max, m_max, entries)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["n\\m"] + [str(m) for m in range(self.m_max + 1)])
        for n, row in enumerate(self.entries):
            writer.writerow([str(n), *map(str, row)])
        return out.getvalue()


def build_gram_matrix(q: int, k: int, n_max: int, m_max: int) -> GramMatrix:
    """Assemble the (n_max+1) x (m_max+1) matrix of overlaps for fixed (q, k).

    The closed form is assembled per degree from endpoint ladder vectors in
    O((n_max+m_max)(q+k)) integers and at most one dot product per
    nonzero-parity entry.  For q == k the matrix is symmetric, and one
    triangle is copied from the other.
    """
    check_indices(q, k, n_max, m_max)
    return GramMatrix(q, k, n_max, m_max, _gram_entries(q, k, n_max, m_max))
