"""Deterministic 64-bit PRNG used by every sampling code path.

The generator is SplitMix64 in counter mode: output k of a stream with seed
``s`` is ``mix64((s + (k+1) * GOLDEN) mod 2**64)`` where ``mix64`` is the
standard SplitMix64 finalizer.  Counter mode makes scalar and vectorized
generation produce identical streams, which keeps sampled results bit-for-bit
reproducible across platforms.  Nothing here depends on the stdlib
``random`` module or on floating point.

``SplitMix64`` walks the stream one value at a time; ``u64_block`` draws
raw blocks, and ``randbelow_rows`` (a cycle of moduli, as partial
Fisher-Yates needs) and ``randbelow_block`` (one modulus) return exactly
what the scalar ``randbelow`` calls would, from one vectorized draw loop.
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


def u64_block(seed: int, start: int, count: int) -> np.ndarray:
    """Counter positions start..start+count-1 of the stream, vectorized.

    The mix runs in place on the counter array, with one scratch array for
    the shifts.
    """
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(GOLDEN)
    z += np.uint64(seed)
    t = z >> np.uint64(30)
    z ^= t
    z *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= np.uint64(0x94D049BB133111EB)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def randbelow_rows(seed: int, moduli, rows: int) -> np.ndarray:
    """``rows`` rounds of one draw below each of ``moduli``, vectorized, as
    a (rows, k) int64 array for k moduli.

    Entry (r, j) is what the (r*k + j)-th of consecutive
    ``SplitMix64(seed).randbelow`` calls returns when call number i is made
    with ``moduli[i % k]``.  Each modulus has its own rejection limit.  A
    block whose largest raw value is below every limit, which is almost
    every block, is reduced as drawn.  Otherwise the first value above the
    limit of the modulus it meets is dropped, every later value moves on to
    the next modulus and a new draw fills the last entry, exactly as in the
    scalar walk.  Each rejection costs a pass over the rest of the block,
    which is cheap for moduli far below 2**64: a draw is rejected with
    probability below m / 2**64.  The reduction ``v - (v // m) * m`` is
    exact, equals ``v % m``, and is about three times faster than numpy's
    uint64 ``%``.
    """
    if not all(1 <= m <= 1 << 63 for m in moduli):
        raise ValueError("randbelow supports moduli in [1, 2**63]")
    steps = np.array(moduli, dtype=np.uint64)
    k = len(steps)
    # Largest accepted raw value per modulus; 2**64 - 1 when the modulus
    # divides 2**64 and every value is accepted.
    top = np.array([MASK64 - (MASK64 + 1) % m for m in moduli],
                   dtype=np.uint64)
    total = rows * k
    raw = u64_block(seed, 0, total)
    got = 0      # raw[:got] is accepted; raw[got:] is drawn but unchecked
    pos = total  # next counter position
    while got < total and raw[got:].max() > top.min():
        over = np.flatnonzero(raw[got:] > top[np.arange(got, total) % k])
        if not over.size:
            break
        got += over[0]
        raw[got:-1] = raw[got + 1:]
        raw[-1] = u64_block(seed, pos, 1)[0]
        pos += 1
    out = np.empty((rows, k), dtype=np.uint64)
    np.floor_divide(raw.reshape(rows, k), steps, out=out)
    out *= steps
    np.subtract(raw.reshape(rows, k), out, out=out)
    return out.view(np.int64)


def randbelow_block(seed: int, n: int, count: int) -> np.ndarray:
    """The first ``count`` values of ``SplitMix64(seed).randbelow(n)``, as a
    flat int64 array: ``randbelow_rows`` with the single modulus n."""
    return randbelow_rows(seed, [n], count).reshape(-1)
