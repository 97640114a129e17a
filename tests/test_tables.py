"""The G^d tuple format of ``_tables`` against plain-loop oracles."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from wordmaplab._tables import (coordinate_columns, product_index,
                                tuple_index, word_values)
from wordmaplab.census import CHUNK, estimate_solutions, translate_counts
from wordmaplab.errors import BudgetExceededError
from wordmaplab.freeword import parse_word

from conftest import loop_tuple_tables


@pytest.mark.parametrize("n,d", [(1, 3), (2, 1), (6, 2), (5, 3), (24, 2),
                                 (3, 5)])
def test_tuple_index_round_trip(n, d):
    rng = np.random.default_rng(n * 10 + d)
    idx = rng.integers(0, n ** d, size=50)
    cols = list(coordinate_columns(n, d, idx))
    assert all(((c >= 0) & (c < n)).all() for c in cols)
    assert np.array_equal(tuple_index(n, cols), idx)
    # A generator of columns and a 2-D array of rows give the same index.
    assert np.array_equal(tuple_index(n, (c for c in cols)), idx)
    rows = rng.integers(0, n, size=(d, 4, 7))
    back = coordinate_columns(n, d, tuple_index(n, rows))
    assert all(np.array_equal(a, b) for a, b in zip(back, rows))
    # Every index of G^d, in index order.
    assert np.array_equal(tuple_index(n, coordinate_columns(n, d)),
                          np.arange(n ** d))


def test_tuple_index_leaves_columns_alone():
    cols = np.array([[1, 2], [3, 4]])
    assert tuple_index(5, cols).tolist() == [8, 14]
    assert cols.tolist() == [[1, 2], [3, 4]]


def test_tuple_index_d0():
    # G^0 has one tuple, index 0.
    assert tuple_index(7, []).tolist() == [0]


@pytest.mark.parametrize("spec,d", [("S3", 1), ("S3", 2), ("Q8", 2),
                                    ("D4", 2), ("C2xC2", 3), ("C3", 3)])
def test_product_and_inverse_vs_loop_oracle(spec, d, groups):
    G = groups[spec]
    product, inverse = loop_tuple_tables(G, d)
    every = np.arange(G.n ** d)
    assert product_index(G, d, every, every).tolist() == product
    # The inversion that translate_counts runs on its members.
    inverses = tuple_index(G.n, (G.inv[c]
                                 for c in coordinate_columns(G.n, d, every)))
    assert inverses.tolist() == inverse
    # Index subsets in any order, as the pair/triple step passes them.
    rng = np.random.default_rng(d)
    left = rng.permutation(every)[:5]
    right = rng.permutation(every)[:3]
    got = product_index(G, d, left, right)
    assert got.tolist() == [[product[a][b] for b in right] for a in left]


def test_product_index_holds_two_tables(groups):
    # The pair/triple step's gate counts 2 |S|^2 cells: the index and one
    # gather.  At d = 3 a column kept alive while the next one is built
    # would make it three.
    members = np.repeat(np.arange(27), 20)
    cells = len(members) ** 2
    peak = traced_peak(lambda: product_index(groups["C3"], 3, members,
                                             members))
    assert peak < 2.5 * cells * 8, peak / (cells * 8)


def traced_peak(call) -> int:
    """Peak bytes that tracemalloc sees while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d", [8, 12, 16])
def test_tables_over_g_d_hold_one_column_at_a_time(d, groups):
    # The word table's gate counts one table of 2^d cells; building all d
    # coordinate columns at once would hold d + 1 of them.
    C2, table = groups["C2"], 8 * 2 ** d
    peak = traced_peak(lambda: word_values(parse_word("x1"), C2, d))
    assert peak <= 6 * table, peak / table


@pytest.mark.parametrize("d,samples", [(100, 1000), (40, 10000)])
def test_estimator_holds_its_gated_chunk(d, samples, groups):
    # The estimator's gate counts 9d cells per sample of a chunk: its three
    # (3d, chunk) draw buffers.  Over C1 nothing else bounds d.
    cells = 9 * d * min(CHUNK, samples)
    peak = traced_peak(lambda: estimate_solutions(
        parse_word("x1"), groups["C1"], samples, 0, d, cells))
    assert peak <= 2 * 8 * cells, peak / (8 * cells)
    with pytest.raises(BudgetExceededError, match="sampled census chunk"):
        estimate_solutions(parse_word("x1"), groups["C1"], samples, 0, d,
                           cells - 1)


def test_translate_counts_inverts_members_only(groups):
    # The step holds its two quotient histograms over G^d, two tables of
    # 2^16 cells; inverting every tuple of G^d would add a third.
    d, table = 16, 8 * 2 ** 16
    flags = np.zeros(2 ** d, dtype=bool)
    flags[::2 ** d // 64] = True
    peak = traced_peak(lambda: translate_counts(flags, groups["C2"], d,
                                                Fraction(1, 2)))
    assert peak <= 2.5 * table, peak / table
