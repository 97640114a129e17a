import numpy as np
import pytest

from wordmaplab import build, rng
from wordmaplab.census import estimate_solutions, verify_commuting_corollary
from wordmaplab.familycheck import fuzz_instances
from wordmaplab.freeword import parse_word
from wordmaplab.rng import (
    GOLDEN,
    MASK64,
    SplitMix64,
    derive_seed,
    mix64,
    randbelow_chunks,
    randbelow_rows,
    u64_block,
)

from conftest import fisher_yates_sample, seed_with_raw, unmix64


def test_mix64_reference_values():
    # Reference outputs computed once with an independent implementation of
    # the same finalizer (and cross-checked against the vectorized path).
    assert mix64(0) == 0
    assert mix64(1) == 0x5692161D100B05E5
    assert mix64(GOLDEN) == 0xE220A8397B1DCDAF


def test_scalar_stream_matches_block():
    seed = 0xDEADBEEF
    gen = SplitMix64(seed)
    scalar = [gen.next_u64() for _ in range(1000)]
    block = u64_block(seed, 1000)
    assert scalar == list(block)
    # A shorter block is a prefix of the same counter stream.
    assert list(u64_block(seed, 40)) == scalar[:40]


def test_randbelow_matches_block():
    # 2**62 + 1 rejects about a quarter of all raw values.
    for n in (1, 2, 6, 7, 256, 10**9, 2**32, 2**62 + 1, 2**63):
        gen = SplitMix64(42)
        scalar = [gen.randbelow(n) for _ in range(500)]
        block = randbelow_rows(42, [n], 500).reshape(-1)
        assert scalar == list(block)
        assert all(0 <= v < n for v in scalar)


def test_randbelow_power_of_two_modulus():
    # n = 2**63 divides 2**64, so nothing is ever rejected.
    vals = randbelow_rows(7, [2**63], 10).reshape(-1)
    assert list(vals) == [int(v) % 2**63 for v in u64_block(7, 10)]
    with pytest.raises(ValueError):
        randbelow_rows(7, [2**64], 10)


def test_derive_seed_decorrelates():
    seeds = {derive_seed(123, i) for i in range(10_000)}
    assert len(seeds) == 10_000
    assert derive_seed(123, 0) != derive_seed(124, 0)


def test_unmix64_inverts_mix64():
    for z in (0, 1, GOLDEN, MASK64, 0x0123456789ABCDEF):
        assert unmix64(mix64(z)) == z
        assert mix64(unmix64(z)) == z
    seed = seed_with_raw(MASK64, 5)
    assert u64_block(seed, 6)[5] == MASK64


def test_randbelow_forced_rejection():
    # The raw draw at ``position`` is 2**64 - 1, above the limit 2**64 - 16
    # for n=24, so the block is rejected and the scalar walk returned.
    for position in (0, 1, 4095, 20_000):
        seed = seed_with_raw(MASK64, position)
        gen = SplitMix64(seed)
        scalar = [gen.randbelow(24) for _ in range(30_000)]
        assert list(randbelow_rows(seed, [24], 30_000).reshape(-1)) == \
            scalar, position


def test_randbelow_rows_matches_scalar():
    cases = [([100, 99, 98], 7, 5), ([10] * 4, 10, 0), ([1], 3, 9),
             ([7, 2**32 + 1, 2**63, 10**9], 50, 2), ([5, 4], 0, 3),
             ([], 4, 1),
             # Limits far apart: many raw values exceed one limit only.
             ([2**62 + 1, 3 * 2**61 + 7, 5, 2**63], 300, 3)]
    for moduli, rows, seed in cases:
        gen = SplitMix64(seed)
        want = [[gen.randbelow(m) for m in moduli] for _ in range(rows)]
        got = randbelow_rows(seed, moduli, rows)
        assert got.shape == (rows, len(moduli))
        assert got.tolist() == want, (moduli, rows, seed)


def test_randbelow_rows_forced_rejection():
    # A raw draw of 2**64 - 1 is rejected by every modulus that does not
    # divide 2**64, and every later entry moves by one counter position.
    moduli = [10, 9, 8, 7, 6]
    for position in (0, 37, 299):
        seed = seed_with_raw(MASK64, position)
        gen = SplitMix64(seed)
        want = [[gen.randbelow(m) for m in moduli] for _ in range(60)]
        assert randbelow_rows(seed, moduli, 60).tolist() == want, position
    # Modulus 8 divides 2**64 and accepts the same raw value.
    seed = seed_with_raw(MASK64, 2)
    assert randbelow_rows(seed, moduli, 1)[0, 2] == MASK64 % 8


def test_randbelow_rows_layout():
    # w draws below n per row over m rows are the first m * w draws below n,
    # row by row, also when the block holds a rejected raw value (position
    # p < m * w).  Both callers of the (w, m) coordinate-major layout,
    # verify_commuting_corollary and randbelow_chunks' fallback, rely on it.
    for p in (0, 1, 5, 99, 4095):
        seed = seed_with_raw(MASK64, p)
        for n, w, m in ((24, 6, 1000), (60, 9, 20), (2000, 6, 700),
                        (3 * 2**61, 6, 30), (7, 1, 5000)):
            flat = randbelow_rows(seed, [n], m * w)
            assert np.array_equal(randbelow_rows(seed, [n] * w, m),
                                  flat.reshape(m, w)), (p, n, w, m)


def test_production_draws_stay_vectorized(monkeypatch):
    # The scalar walk is the result only for a block holding a rejected raw
    # value; no draw of the fuzz grid, the estimator or the commuting check
    # at these seeds holds one.  familycheck binds its own SplitMix64 for
    # fuzz_instances' scalar stream, which this patch leaves alone.
    def walk(seed):
        raise AssertionError(f"scalar walk taken for seed {seed}")

    monkeypatch.setattr(rng, "SplitMix64", walk)
    for seed in (0, 7, MASK64):
        assert len(list(fuzz_instances(200, seed))) == 200
    S4 = build("S4")
    for seed in (0, 1, MASK64):
        assert estimate_solutions(parse_word("x1*x2"), S4, 10**5,
                                  seed, 2).samples == 10**5
        assert verify_commuting_corollary(S4, seed=seed).equation_consistent


def test_randbelow_chunks_match_blocks(monkeypatch):
    # Chunk i is the first m * width draws below n of the stream seeded
    # with derive_seed(seed, i), laid out coordinate-major, the last chunk
    # partial (or the only one).  3 * 2**61 rejects a quarter of all raw
    # values, so its chunks fall back to randbelow_rows; the yielded buffers
    # are reused, so each chunk is copied as it comes.
    fallbacks = []

    def counted(seed, moduli, rows):
        fallbacks.append(moduli[0])
        return randbelow_rows(seed, moduli, rows)

    monkeypatch.setattr(rng, "randbelow_rows", counted)
    for n, width, total, chunk in ((24, 6, 1000, 256), (3 * 2**61, 6, 100, 16),
                                   (2**63, 3, 50, 8), (1, 2, 10, 4),
                                   (7, 9, 2 * 64 + 5, 64), (24, 6, 5, 16)):
        for seed in (0, 1, 12345, MASK64):
            got = [c.copy() for c in
                   randbelow_chunks(seed, n, width, total, chunk)]
            sizes = [min(chunk, total - lo) for lo in range(0, total, chunk)]
            want = [randbelow_rows(derive_seed(seed, i), [n], m * width)
                    .reshape(m, width).T for i, m in enumerate(sizes)]
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == np.int64 and np.array_equal(a, b), (n, seed)
    assert fallbacks.count(3 * 2**61) == 4 * 7
    assert set(fallbacks) == {3 * 2**61}


def test_sample_without_replacement():
    picked = fisher_yates_sample(SplitMix64(5), 100, 30)
    assert len(picked) == 30
    assert len(set(picked)) == 30
    assert all(0 <= v < 100 for v in picked)
    assert fisher_yates_sample(SplitMix64(5), 100, 30) == picked
    assert sorted(fisher_yates_sample(SplitMix64(5), 4, 4)) == [0, 1, 2, 3]


def test_sample_domain_errors():
    with pytest.raises(ValueError):
        fisher_yates_sample(SplitMix64(0), 3, 4)
    with pytest.raises(ValueError):
        SplitMix64(0).randbelow(0)
    for moduli in ([3, 0], [2**63 + 1], [-1]):
        with pytest.raises(ValueError):
            randbelow_rows(0, moduli, 1)


def test_block_dtype_and_determinism():
    a = u64_block(9, 64)
    b = u64_block(9, 64)
    assert a.dtype == np.uint64
    assert np.array_equal(a, b)


def test_randbelow_rough_uniformity():
    # Coarse sanity check, not a statistical test: each residue class of a
    # small modulus should appear with frequency near 1/n.
    n = 5
    vals = randbelow_rows(2024, [n], 50_000).reshape(-1)
    counts = np.bincount(vals.astype(np.int64), minlength=n)
    assert counts.min() > 50_000 / n * 0.9
    assert counts.max() < 50_000 / n * 1.1
