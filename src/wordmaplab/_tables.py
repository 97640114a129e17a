"""Internal kernel: mixed-radix indexing of G^d and vectorized word maps.

Tuples (g_1, ..., g_d) over a group of order n are flattened to the index
g_1 * n^(d-1) + ... + g_d, so the LAST coordinate varies fastest; only
``coordinate_column`` and ``tuple_index`` convert between the two forms,
one column of given indices at a time.  The exact census and the
pair/triple step ``census.translate_counts`` share one product kernel,
``product_index``.  The word table over all of G^d builds no column: viewed
as an (n^i, n, n^(d-1-i)) array its middle axis is coordinate i+1, so a
syllable's power values broadcast into it.
"""

from __future__ import annotations

import numpy as np

from .errors import DEFAULT_TABLE_BUDGET, check_power
from .freeword import Word
from .group import GroupTable, power_table


def coordinate_column(n: int, d: int, i: int, idx) -> np.ndarray:
    """Coordinate i+1 of every index in ``idx``."""
    return idx // n ** (d - 1 - i) % n


def coordinate_columns(n: int, d: int, idx):
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
    n = G.n
    size = check_power(n, d, budget, "word table")
    # Viewed as (n^i, n, n^(d-1-i)), the table's middle axis is coordinate
    # i+1, so a value per element broadcasts along the other two.
    ids = np.arange(n)[:, None]
    return evaluate_columns(w, G, lambda i: ids, size,
                            lambda i: (n ** i, n, n ** (d - 1 - i)))


def evaluate_columns(w: Word, G: GroupTable, column, size: int,
                     shape=None) -> np.ndarray:
    """Evaluate w at ``size`` assignments at once.  column(i) holds the
    values of x_{i+1}, one per assignment, for each syllable that reads it;
    with ``shape``, it broadcasts against the assignments viewed as
    shape(i) instead."""
    vals = np.zeros(size, dtype=np.int64)
    for k, (var, exp) in enumerate(w.syllables):
        view = vals if shape is None else vals.reshape(shape(var - 1))
        powers = power_table(G, exp)[column(var - 1)]
        if k == 0:  # the identity times x is x: no product to look up
            view[...] = powers
            continue
        vals *= G.n  # flat index a*n + b into mul, faster than mul[a, b]
        view += powers
        vals = G.mul.take(vals)  # take reads mul flat
    return vals
