"""Deterministic 64-bit PRNG used by every sampling code path.

The generator is SplitMix64 in counter mode: output k of a stream with seed
``s`` is ``mix64((s + (k+1) * GOLDEN) mod 2**64)`` where ``mix64`` is the
standard SplitMix64 finalizer.  Counter mode makes scalar and vectorized
generation produce identical streams, which keeps sampled results bit-for-bit
reproducible across platforms.  Nothing here depends on the stdlib
``random`` module or on floating point.

``SplitMix64`` walks the stream one value at a time and is the definition
of every draw.  ``u64_block`` draws raw values in bulk.  The vectorized
samplers, ``randbelow_rows`` (a cycle of moduli, as partial Fisher-Yates
needs) and ``randbelow_chunks`` (one chunk of a sampled census at a time),
share one rule: a block with no raw value above its modulus' rejection
limit is reduced as drawn, and any other block is the scalar walk itself.
A raw value is rejected with probability below m / 2**64 for modulus m, so
the walk is all but never taken for the moduli in use.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective mixing of a 64-bit value."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, index: int) -> int:
    """Seed for the ``index``-th child stream (used for per-chunk streams)."""
    return mix64((master + (index + 1) * GOLDEN) & MASK64)


class SplitMix64:
    """Scalar view of the stream: successive calls walk the counter."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return mix64(self._state)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by unbiased rejection sampling."""
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        limit = MASK64 + 1 - ((MASK64 + 1) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n


def _mix_in_place(z: np.ndarray, t: np.ndarray) -> None:
    """The SplitMix64 finalizer ``mix64`` applied to every entry of the
    uint64 array ``z``, in place; ``t``, of z's shape, holds the shifts."""
    np.right_shift(z, np.uint64(30), out=t)
    z ^= t
    z *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= np.uint64(0x94D049BB133111EB)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t


def _reduce(raw: np.ndarray, steps, out: np.ndarray) -> np.ndarray:
    """``raw % steps`` into the uint64 array ``out``, returned as int64.
    ``v - (v // m) * m`` is exact and about three times faster than numpy's
    uint64 ``%``."""
    np.floor_divide(raw, steps, out=out)
    out *= steps
    np.subtract(raw, out, out=out)
    return out.view(np.int64)


def u64_block(seed: int, count: int) -> np.ndarray:
    """The first ``count`` values of the stream, vectorized."""
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(GOLDEN)
    z += np.uint64(seed)
    _mix_in_place(z, np.empty_like(z))
    return z


def randbelow_rows(seed: int, moduli, rows: int) -> np.ndarray:
    """``rows`` rounds of one draw below each of ``moduli``, vectorized, as
    a (rows, k) int64 array for k moduli.

    Entry (r, j) is what the (r*k + j)-th of consecutive
    ``SplitMix64(seed).randbelow`` calls returns when call number i is made
    with ``moduli[i % k]``: the block as drawn and reduced, or the scalar
    walk itself if any raw value is above its modulus' rejection limit.
    """
    if not all(1 <= m <= 1 << 63 for m in moduli):
        raise ValueError("randbelow supports moduli in [1, 2**63]")
    k = len(moduli)
    # Largest accepted raw value per modulus; 2**64 - 1 when the modulus
    # divides 2**64 and every value is accepted.
    top = np.array([MASK64 - (MASK64 + 1) % m for m in moduli],
                   dtype=np.uint64)
    raw = u64_block(seed, rows * k).reshape(rows, k)
    if (raw > top).any():
        gen = SplitMix64(seed)
        walk = [[gen.randbelow(m) for m in moduli] for _ in range(rows)]
        return np.array(walk, dtype=np.int64).reshape(rows, k)
    return _reduce(raw, np.array(moduli, dtype=np.uint64),
                   np.empty_like(raw))


def randbelow_chunks(seed: int, n: int, width: int, total: int,
                     chunk: int):
    """For each chunk i of ``total`` rows (``chunk`` rows each, the last
    possibly fewer), the (width, m) int64 array of m rows' draws:
    ``randbelow_rows(derive_seed(seed, i), [n] * width, m).T``.

    The counter offsets are laid out coordinate-major once, and each chunk
    is mixed and reduced in two buffers reused from chunk to chunk, so a
    yielded array is valid only until the next one is drawn.
    """
    if not 1 <= n <= 1 << 63:
        raise ValueError("randbelow supports moduli in [1, 2**63]")
    top = np.uint64(MASK64 - (MASK64 + 1) % n)
    step = np.uint64(n)
    # offsets[j, r] = (r * width + j + 1) * GOLDEN: the counter of draw j of
    # row r, less the seed.
    rows = min(chunk, total)
    offsets = np.arange(1, rows * width + 1, dtype=np.uint64)
    offsets *= np.uint64(GOLDEN)
    offsets = offsets.reshape(rows, width).T.copy()
    z = np.empty_like(offsets)
    t = np.empty_like(offsets)
    for i, lo in enumerate(range(0, total, chunk)):
        m = min(chunk, total - lo)
        zi, ti = z[:, :m], t[:, :m]
        child = derive_seed(seed, i)
        np.add(offsets[:, :m], np.uint64(child), out=zi)
        _mix_in_place(zi, ti)
        if zi.max() > top:
            yield randbelow_rows(child, [n] * width, m).T
        else:
            yield _reduce(zi, step, ti)
