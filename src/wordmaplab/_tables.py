"""Internal kernel: mixed-radix indexing of G^d and vectorized word maps.

Tuples (g_1, ..., g_d) over a group of order n are flattened to the index
g_1 * n^(d-1) + ... + g_d, so the LAST coordinate varies fastest; only
``coordinate_column`` and ``tuple_index`` convert between the two forms,
one column of given indices at a time.  The exact census and the
pair/triple step ``census.translate_counts`` share one product kernel,
``product_index``.  The word table builds no column: viewed as an
(n^i, n, n^(d-1-i)) array its middle axis is coordinate i+1, so a
syllable's power values broadcast into it.  ``word_values`` builds the
table over all of G^d or the block of it whose first coordinates lie in
[lo, hi), and writes each product lookup back in place a row block at a
time, so it holds one table and one block of ``errors.BLOCK_CELLS`` cells.
"""

from __future__ import annotations

import numpy as np

from .errors import DEFAULT_TABLE_BUDGET, check_budget, check_power, row_blocks
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
                budget: int = DEFAULT_TABLE_BUDGET,
                lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Evaluate w on the tuples of G^d whose first coordinate lies in
    [lo, hi), all of G^d by default; returns their element ids in index
    order.  G^0's one tuple is one row.  A caller that passes ``hi`` has
    gated n^(d-1) already."""
    if w.arity > d:
        raise ValueError(f"word uses x{w.arity} but d = {d}")
    n = G.n
    if hi is None:  # the whole table: n^d is refused before it is formed
        check_power(n, d, budget, "word table")
        hi = n if d else 1
    rows, width = hi - lo, n ** max(d - 1, 0)
    size = rows * width
    check_budget(size, budget, "word table")
    # Viewed as (rows n^(i-1), n, n^(d-1-i)), the block's middle axis is
    # coordinate i+1 (for i = 0, (1, rows, n^(d-1)) and its rows lo..hi-1),
    # so a value per element broadcasts along the other two.
    ids = np.arange(n)[:, None]
    return evaluate_columns(
        w, G, lambda i: ids[lo:hi] if i == 0 else ids, size,
        lambda i: ((1, rows, width) if i == 0
                   else (rows * n ** (i - 1), n, n ** (d - 1 - i))))


def evaluate_columns(w: Word, G: GroupTable, column, size: int,
                     shape=None) -> np.ndarray:
    """Evaluate w at ``size`` assignments at once.  column(i) holds the
    values of x_{i+1}, one per assignment, for each syllable that reads it;
    with ``shape``, it broadcasts against the assignments viewed as
    shape(i) instead.  Each product lookup is written back in place a block
    at a time, so the step holds one table of ``size`` cells and a block."""
    vals = np.zeros(size, dtype=np.int64)
    blocks = list(row_blocks(size, 1))  # the first is the largest
    scratch = np.empty(blocks[0][1] if len(w.syllables) > 1 else 0,
                       dtype=np.int64)  # held only for a product lookup
    for k, (var, exp) in enumerate(w.syllables):
        view = vals if shape is None else vals.reshape(shape(var - 1))
        powers = power_table(G, exp)[column(var - 1)]
        if k == 0:  # the identity times x is x: no product to look up
            view[...] = powers
            continue
        vals *= G.n  # flat index a*n + b into mul, faster than mul[a, b]
        view += powers
        for lo, hi in blocks:
            # take reads mul flat; "clip" writes straight into ``out``
            # (the default buffers it), and every index is in range.
            out = scratch[:hi - lo]
            np.take(G.mul, vals[lo:hi], out=out, mode="clip")
            vals[lo:hi] = out
    return vals
