"""Internal kernel: mixed-radix indexing of G^d and vectorized word maps.

Tuples (g_1, ..., g_d) over a group of order n are flattened to the index
g_1 * n^(d-1) + ... + g_d, so the LAST coordinate varies fastest.  Both the
census code and the homomorphism code build on these helpers.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceededError
from .freeword import Word
from .group import GroupTable, element_power, power_table

DEFAULT_TABLE_BUDGET = 100_000_000  # entries, not bytes


def radices(n: int, d: int) -> list[int]:
    """Place values per coordinate: [n^(d-1), ..., n, 1]."""
    return [n ** (d - 1 - i) for i in range(d)]


def coordinate_columns(n: int, d: int) -> list[np.ndarray]:
    """Column i holds coordinate i+1 of every index of G^d, in index order."""
    idx = np.arange(n ** d, dtype=np.int64)
    return [(idx // (n ** (d - 1 - i))) % n for i in range(d)]


def check_table_budget(entries: int, budget: int) -> None:
    if entries > budget:
        raise BudgetExceededError(
            f"table of {entries} entries exceeds the budget of {budget}"
        )


def word_values(w: Word, G: GroupTable, d: int,
                budget: int = DEFAULT_TABLE_BUDGET) -> np.ndarray:
    """Evaluate w on every tuple of G^d; returns an array of n^d element ids."""
    if w.arity > d:
        raise ValueError(f"word uses x{w.arity} but d = {d}")
    if d < 0:
        raise ValueError("d must be >= 0")
    n = G.n
    size = n ** d
    check_table_budget(size, budget)
    return evaluate_columns(w, G, coordinate_columns(n, d), size)


def evaluate_columns(w: Word, G: GroupTable, cols, size: int) -> np.ndarray:
    """Evaluate w at ``size`` assignments at once; cols[i] holds the values
    of x_{i+1}, one per assignment."""
    vals = np.zeros(size, dtype=np.int64)
    for var, exp in w.syllables:
        vals = G.mul[vals, power_table(G, exp)[cols[var - 1]]]
    return vals


def evaluate_word(w: Word, G: GroupTable, assignment) -> int:
    """Scalar evaluation of w at one assignment (ids, 1-based variables)."""
    if w.arity > len(assignment):
        raise ValueError("assignment shorter than word arity")
    acc = 0
    for var, exp in w.syllables:
        acc = G.mul.item(acc, element_power(G, assignment[var - 1], exp))
    return acc
