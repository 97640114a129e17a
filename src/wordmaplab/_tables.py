"""Internal kernel: mixed-radix indexing of G^d and vectorized word maps.

Tuples (g_1, ..., g_d) over a group of order n are flattened to the index
g_1 * n^(d-1) + ... + g_d, so the LAST coordinate varies fastest; only
``coordinate_column`` and ``tuple_index`` convert between the two forms,
one column at a time.  The exact census and the pair/triple step
``census.translate_counts`` share one product kernel, ``product_index``.
"""

from __future__ import annotations

import numpy as np

from .errors import DEFAULT_TABLE_BUDGET, check_power
from .freeword import Word
from .group import GroupTable, power_table


def coordinate_column(n: int, d: int, i: int, idx=None) -> np.ndarray:
    """Coordinate i+1 of every index in ``idx`` (default: every index of
    G^d, in index order)."""
    if idx is None:
        # Each value repeats n^(d-1-i) times, and the run repeats n^i times.
        ids = np.arange(n, dtype=np.int64)[:, None]
        return np.broadcast_to(ids, (n ** i, n, n ** (d - 1 - i))).ravel()
    return idx // n ** (d - 1 - i) % n


def coordinate_columns(n: int, d: int, idx=None):
    """The d columns of ``coordinate_column``, built one at a time."""
    return (coordinate_column(n, d, i, idx) for i in range(d))


def tuple_index(n: int, cols) -> np.ndarray:
    """Index of the tuples with coordinate i+1 in cols[i] ([0] at d = 0);
    ``cols`` may yield its arrays one at a time, to hold one at once."""
    cols = iter(cols)
    out = np.array(next(cols, [0]), dtype=np.int64)
    for c in cols:
        out *= n
        out += c
        del c  # freed before the next column is built
    return out


def product_index(G: GroupTable, d: int, left, right) -> np.ndarray:
    """Index of the componentwise product a b for every a in ``left`` and
    b in ``right`` (index arrays into G^d), shape (len(left), len(right))."""
    return tuple_index(G.n, (
        G.mul[a[:, None], b[None, :]]
        for a, b in zip(coordinate_columns(G.n, d, left),
                        coordinate_columns(G.n, d, right))))


def word_values(w: Word, G: GroupTable, d: int,
                budget: int = DEFAULT_TABLE_BUDGET) -> np.ndarray:
    """Evaluate w on every tuple of G^d; returns an array of n^d element ids."""
    if w.arity > d:
        raise ValueError(f"word uses x{w.arity} but d = {d}")
    size = check_power(G.n, d, budget, "word table")
    return evaluate_columns(w, G, lambda i: coordinate_column(G.n, d, i), size)


def evaluate_columns(w: Word, G: GroupTable, column, size: int) -> np.ndarray:
    """Evaluate w at ``size`` assignments at once; column(i) builds the
    values of x_{i+1}, one per assignment, for each syllable that reads it."""
    vals = np.zeros(size, dtype=np.int64)
    for var, exp in w.syllables:
        vals *= G.n  # flat index a*n + b into mul, faster than mul[a, b]
        vals += power_table(G, exp)[column(var - 1)]
        vals = G.mul.ravel()[vals]
    return vals
