"""Internal kernel: mixed-radix indexing of G^d and vectorized word maps.

Tuples (g_1, ..., g_d) over a group of order n are flattened to the index
g_1 * n^(d-1) + ... + g_d, so the LAST coordinate varies fastest.  Both the
census code and the homomorphism code build on these helpers; the exact
census and the pair/triple step ``census.translate_counts`` share one product
kernel, ``product_index``.
"""

from __future__ import annotations

import numpy as np

from .errors import DEFAULT_TABLE_BUDGET, check_budget
from .freeword import Word
from .group import GroupTable, power_table


def coordinate_columns(n: int, d: int, idx=None) -> list[np.ndarray]:
    """Column i holds coordinate i+1 of every index in ``idx`` (default:
    every index of G^d, in index order)."""
    if idx is None:
        idx = np.arange(n ** d, dtype=np.int64)
    return [(idx // n ** (d - 1 - i)) % n for i in range(d)]


def product_index(G: GroupTable, d: int, left, right) -> np.ndarray:
    """Index of the componentwise product a b for every a in ``left`` and
    b in ``right`` (index arrays into G^d), shape (len(left), len(right))."""
    out = np.zeros((len(left), len(right)), dtype=np.int64)
    for a, b in zip(coordinate_columns(G.n, d, left),
                    coordinate_columns(G.n, d, right)):
        out *= G.n
        out += G.mul[a[:, None], b[None, :]]
    return out


def inverse_index(G: GroupTable, d: int) -> np.ndarray:
    """Index of the inverse of every tuple of G^d, in index order."""
    out = np.zeros(G.n ** d, dtype=np.int64)
    for c in coordinate_columns(G.n, d):
        out *= G.n
        out += G.inv[c]
    return out


def word_values(w: Word, G: GroupTable, d: int,
                budget: int = DEFAULT_TABLE_BUDGET) -> np.ndarray:
    """Evaluate w on every tuple of G^d; returns an array of n^d element ids."""
    if w.arity > d:
        raise ValueError(f"word uses x{w.arity} but d = {d}")
    if d < 0:
        raise ValueError("d must be >= 0")
    n = G.n
    size = n ** d
    check_budget(size, budget, "word table")
    return evaluate_columns(w, G, coordinate_columns(n, d), size)


def evaluate_columns(w: Word, G: GroupTable, cols, size: int) -> np.ndarray:
    """Evaluate w at ``size`` assignments at once; cols[i] holds the values
    of x_{i+1}, one per assignment."""
    vals = np.zeros(size, dtype=np.int64)
    for var, exp in w.syllables:
        vals = G.mul[vals, power_table(G, exp)[cols[var - 1]]]
    return vals

