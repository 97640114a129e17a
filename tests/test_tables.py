"""The G^d tuple format of ``_tables`` against plain-loop oracles."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from wordmaplab import errors
from wordmaplab._tables import (coordinate_columns, product_index,
                                tuple_index, word_values)
from wordmaplab.census import (CHUNK, count_solutions_exact,
                               estimate_solutions, fiber_stats,
                               translate_counts)
from wordmaplab.errors import BudgetExceededError, row_blocks
from wordmaplab.freeword import parse_word
from wordmaplab.group import build

from conftest import evaluate_word, loop_tuple_tables, traced_peak


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
    every = np.arange(n ** d)
    assert np.array_equal(tuple_index(n, coordinate_columns(n, d, every)),
                          every)


def test_tuple_index_leaves_columns_alone():
    cols = np.array([[1, 2], [3, 4]])
    assert tuple_index(5, cols).tolist() == [8, 14]
    assert cols.tolist() == [[1, 2], [3, 4]]


def test_tuple_index_d0():
    # G^0 has one tuple, index 0.
    assert tuple_index(7, []).tolist() == [0]


@pytest.mark.parametrize("spec,d", [("S3", 0), ("S3", 1), ("S3", 2),
                                    ("Q8", 2), ("D4", 2), ("C2xC2", 3),
                                    ("C3", 3)])
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


# Words whose first syllable is not x1, that reuse or skip a variable, whose
# syllables cancel to nothing ("x1^3*x1^-3" leaves x2) or whose exponent is a
# multiple of the group's exponent (x1^4 is 1 on all but C1 of these).
ORACLE_WORDS = [("x2*x1", 2), ("x2*x1*x2^-1", 2), ("x3^2", 3),
                ("x2*x1^3*x1^-3", 2), ("x1^-2*x2^-1", 2), ("x1^4*x2^5", 2),
                ("x3^-1*x1*x2^2*x1^-1*x3", 3), ("x1", 1), ("1", 0), ("1", 2)]


@pytest.mark.parametrize("spec", ["S3", "Q8", "D4", "C2xC2", "C1"])
@pytest.mark.parametrize("text,d", ORACLE_WORDS)
def test_word_values_vs_scalar_oracle(spec, text, d, groups):
    G, w = groups[spec], parse_word(text)
    want = [evaluate_word(w, G, t)
            for t in itertools.product(range(G.n), repeat=d)]
    assert word_values(w, G, d).tolist() == want


def test_word_values_at_large_d(groups):
    # C1^64 has one tuple; a view of rank d would exceed numpy's rank limit.
    w = parse_word("x64^-1*x1^2")
    assert word_values(w, groups["C1"], 64).tolist() == [0]
    assert word_values(w, groups["C1"], 64, lo=0, hi=1).tolist() == [0]


BLOCK_WORDS = ["1", "x1", "x1^-2*x2^-1", "x2*x1*x2^-1",
               "x3^-1*x1*x2^2*x1^-1*x3"]


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("spec", ["S3", "Q8", "D4", "C2xC2", "C1"])
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_word_value_blocks_join_into_the_table(d, spec, rows, groups,
                                               monkeypatch):
    # Blocks of one and seven first coordinates, the latter leaving a short
    # last block (or one block for the whole table), joined in order.  The
    # patched block size also splits each product lookup's write-back.
    G = groups[spec]
    width = G.n ** max(d - 1, 0)
    monkeypatch.setattr(errors, "BLOCK_CELLS", rows * width)
    tuples = list(itertools.product(range(G.n), repeat=d))
    for w in map(parse_word, BLOCK_WORDS):
        if w.arity > d:
            continue
        blocks = [word_values(w, G, d, lo=lo, hi=hi)
                  for lo, hi in row_blocks(len(tuples) // width, width)]
        full = np.concatenate(blocks)
        assert np.array_equal(full, word_values(w, G, d)), (spec, w, d)
        assert full.tolist() == [evaluate_word(w, G, t) for t in tuples]


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("spec,text,d", [
    ("S3", "x1^2", 1), ("S3", "x2*x1*x2^-1*x1^-1", 2), ("Q8", "x1^2*x3", 3),
    ("D4", "x2^-1*x1^3", 2), ("C2xC2", "x1*x2", 2), ("C1", "x3", 3),
    ("S3", "1", 0)])
def test_fiber_stats_vs_per_tuple_histogram(spec, text, d, rows, groups,
                                            monkeypatch):
    G, w = groups[spec], parse_word(text)
    monkeypatch.setattr(errors, "BLOCK_CELLS", rows * G.n ** max(d - 1, 0))
    counts = [0] * G.n
    for t in itertools.product(range(G.n), repeat=d):
        counts[evaluate_word(w, G, t)] += 1
    st = fiber_stats(w, G, d)
    assert st.counts == tuple(counts)
    assert st.histogram == {c: counts.count(c) for c in counts}
    assert st.max_fiber == Fraction(max(counts), G.n ** d)


@pytest.mark.parametrize("spec,d", [("C2", 20), ("C16", 5)])
def test_fiber_stats_holds_one_block(spec, d, extended_groups):
    # The table of 2^20 cells is binned a block of first coordinates at a
    # time: over C2 one coordinate, 2^19 cells (four BLOCK_CELLS), and over
    # C16 two coordinates of 16^4 cells.  Each product lookup adds one
    # scratch block of BLOCK_CELLS; the whole table is never held.
    G = extended_groups[spec]
    block = max(errors.BLOCK_CELLS, G.n ** (d - 1))
    peak = traced_peak(lambda: fiber_stats(parse_word("x3*x1^-1*x2"), G, d))
    assert peak <= 1.05 * 8 * (block + errors.BLOCK_CELLS), \
        peak / (8 * errors.BLOCK_CELLS)
    with pytest.raises(BudgetExceededError, match="word table"):
        fiber_stats(parse_word("x1"), G, d, table_budget=block - 1)
    with pytest.raises(BudgetExceededError, match="fiber census"):
        fiber_stats(parse_word("x1"), G, d, iter_budget=2 ** 20 - 1)


def word_table_peak(text, d, groups):
    """Peak of the C2 word table at d, in tables of 2^d cells, beyond the
    peak of the same call over C1, whose table is one cell."""
    w, table = parse_word(text), 8 * 2 ** d
    peak = [traced_peak(lambda: word_values(w, groups[spec], d))
            for spec in ("C1", "C2")]
    return (peak[1] - peak[0]) / table


@pytest.mark.parametrize("d", [8, 12, 16])
def test_tables_over_g_d_hold_one_column_at_a_time(d, groups):
    # The word table's gate counts one table of 2^d cells, and x1 holds only
    # that.  A full coordinate column per syllable would hold a second one,
    # and all d columns at once d + 1 of them.
    peak = word_table_peak("x1", d, groups)
    assert peak <= 1.2, peak


@pytest.mark.parametrize("d", [20, 21, 22])
def test_word_table_holds_one_table_and_a_block(d, groups):
    # Each product lookup is written back into the table a block at a time,
    # so it holds the table and one block of BLOCK_CELLS.  At d <= 17 one
    # block is the whole table, so the bound is measured above that.
    peak = word_table_peak("x3*x1^-1*x2", d, groups)
    assert peak <= 1.02 + errors.BLOCK_CELLS / 2 ** d, peak


@pytest.mark.parametrize("name,text,d", [("S3xS3", "x1*x2", 2),
                                         ("D501", "x1^2", 1)])
def test_exact_census_holds_its_tables(name, text, d):
    # Beside the given word table, the census holds the word values w(ab)
    # and one histogram's keys, n^(2d) cells each, with their gather
    # temporary, and its two histograms of n^(d+1) cells.
    G, w = build(name), parse_word(text)
    wv = word_values(w, G, d)
    peak = traced_peak(lambda: count_solutions_exact(
        w, G, d, iter_budget=10 ** 10, wv=wv))
    cells = 3 * G.n ** (2 * d) + 2 * G.n ** (d + 1)
    assert peak <= 1.1 * 8 * cells, peak / (8 * G.n ** (2 * d))


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


def test_estimator_holds_no_quotient_table():
    # Quotients a^-1 b are read from the product table through rows of
    # inverses, so the estimator holds its chunk buffers and no second n^2
    # table beside the group's.
    G = build("D501")
    peak = traced_peak(lambda: estimate_solutions(
        parse_word("x1^2"), G, 100_000, 0, 1))
    assert peak <= 8 * G.n ** 2 / 4, peak / (8 * G.n ** 2)


@pytest.mark.parametrize("name,d", [("D501", 2), ("C2", 20)])
def test_estimator_holds_no_word_sized_table(name, d):
    # At d >= 2 the word table has n^d cells, as many as the product table
    # or far more; w(s)^-1 is read per sample, so beside the given word
    # table the estimator holds its gated chunk buffers and no table of
    # that size.
    G, w, samples = build(name), parse_word("x1^2"), 1_000
    wv = word_values(w, G, d)
    peak = traced_peak(lambda: estimate_solutions(w, G, samples, 0, d,
                                                  wv=wv))
    chunk = 8 * 9 * d * samples
    assert peak <= chunk + wv.nbytes / 4, (peak - chunk) / wv.nbytes


def test_translate_counts_inverts_members_only(groups):
    # The step holds its two quotient histograms over G^d, two tables of
    # 2^16 cells; inverting every tuple of G^d would add a third.
    d, table = 16, 8 * 2 ** 16
    flags = np.zeros(2 ** d, dtype=bool)
    flags[::2 ** d // 64] = True
    peak = traced_peak(lambda: translate_counts(flags, groups["C2"], d,
                                                Fraction(1, 2)))
    assert peak <= 2.5 * table, peak / table


def test_translate_counts_holds_one_block():
    # C24 x1*x2 agrees with a hom everywhere on C24^2, so |S| = 576.  The
    # whole product index and its gather would be 2 |S|^2 cells; binning a
    # block of rows of S at a time holds two blocks of at most BLOCK_CELLS.
    G, d = build("C24"), 2
    m = G.n ** d
    flags = np.ones(m, dtype=bool)
    peak = traced_peak(lambda: translate_counts(flags, G, d, Fraction(1, 2)))
    assert m * m > 2 * errors.BLOCK_CELLS
    assert peak <= 1.2 * 8 * 2 * errors.BLOCK_CELLS, peak / (8 * m * m)
