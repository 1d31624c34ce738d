"""Argument checks shared by the evaluation routes; no formula lives here."""


def check_indices(*indices: int) -> None:
    """Accept only non-negative ints as degrees and derivative orders; bool is no degree."""
    for index in indices:
        if isinstance(index, bool) or not isinstance(index, int):
            raise TypeError(f"indices must be int, got {type(index).__name__}")
        if index < 0:
            raise ValueError("all indices must be non-negative")
