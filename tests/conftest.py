"""Shared fixtures and independent oracle helpers.

The oracles here deliberately avoid the library's vectorized code paths:
they re-derive expected values with plain loops so the tests pin behaviour
from a second, slower direction.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from wordmaplab import build
from wordmaplab._tables import coordinate_columns, radices, word_values
from wordmaplab.census import CHUNK
from wordmaplab.rng import GOLDEN, MASK64, SplitMix64, derive_seed

# The verification battery: every group spec used by the acceptance suite.
BATTERY_SPECS = [
    "C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8",
    "C2xC2", "C2xC4", "S3", "D4", "Q8", "A4",
]
EXTENDED_SPECS = BATTERY_SPECS + ["D8", "C16", "C4xC4", "C2xC2xC2xC2"]


@pytest.fixture(scope="session")
def groups():
    """One shared table per battery spec (construction is deterministic)."""
    return {spec: build(spec) for spec in BATTERY_SPECS}


@pytest.fixture(scope="session")
def extended_groups(groups):
    out = dict(groups)
    for spec in EXTENDED_SPECS:
        if spec not in out:
            out[spec] = build(spec)
    return out


def evaluate_loops(w, mul, inv, tup):
    """w at the assignment ``tup``, one multiplication at a time, over the
    list tables ``mul`` and ``inv``."""
    acc = 0
    for var, exp in w.syllables:
        x = tup[var - 1] if exp > 0 else inv[tup[var - 1]]
        for _ in range(abs(exp)):
            acc = mul[acc][x]
    return acc


def naive_census(w, G, d):
    """Solution count of the triple equation by direct double evaluation."""
    n = G.n
    mul, inv = G.mul.tolist(), G.inv.tolist()

    count = 0
    domain = list(itertools.product(range(n), repeat=d))
    for s in domain:
        s_inv = [inv[x] for x in s]
        ws = evaluate_loops(w, mul, inv, s)
        for t in domain:
            st = [mul[s_inv[i]][t[i]] for i in range(d)]
            wt = evaluate_loops(w, mul, inv, t)
            prefix = mul[inv[ws]][wt]
            for u in domain:
                arg = [mul[st[i]][u[i]] for i in range(d)]
                lhs = evaluate_loops(w, mul, inv, arg)
                rhs = mul[prefix][evaluate_loops(w, mul, inv, u)]
                count += lhs == rhs
    return count


def plane_census(w, G, d):
    """Solution count of the triple equation, one u at a time with the whole
    (s, t) plane evaluated at once: |G|^{3d} work, fast enough for the d = 2
    and d = 3 cases that ``naive_census`` cannot reach."""
    n = G.n
    size = n ** d
    M, inv = G.mul, G.inv
    wv = word_values(w, G, d)
    cols = coordinate_columns(n, d)
    rads = radices(n, d)
    # Per-coordinate planes of s^-1 t over (s, t).
    planes = [M[inv[c][:, None], c[None, :]] for c in cols]
    winv_w = M[inv[wv][:, None], wv[None, :]]  # w(s)^-1 w(t)
    count = 0
    for u in range(size):
        idx = np.zeros((size, size), dtype=np.int64)
        for i in range(d):
            idx += M[planes[i], cols[i][u]] * rads[i]
        count += int((wv[idx] == M[winv_w, wv[u]]).sum())
    return count


def brute_force_endos(G):
    """Every function G -> G that is a homomorphism, by raw enumeration."""
    n = G.n
    mul = G.mul.tolist()
    out = []
    for vals in itertools.product(range(n), repeat=n):
        if all(
            vals[mul[a][b]] == mul[vals[a]][vals[b]]
            for a in range(n) for b in range(n)
        ):
            out.append(vals)
    return out


def hom_value_table(G, comps):
    """Values of the hom G^d -> G with component tables ``comps`` (d lists
    of n ids) on every tuple of G^d, in index order, by plain loops."""
    mul = G.mul.tolist()
    out = []
    for tup in itertools.product(range(G.n), repeat=len(comps)):
        acc = 0
        for c, g in zip(comps, tup):
            acc = mul[acc][c[g]]
        out.append(acc)
    return tuple(out)


def fisher_yates_sample(gen, population, k):
    """k distinct integers from [0, population) by partial Fisher-Yates,
    drawing from the scalar generator ``gen`` one step at a time."""
    if not 0 <= k <= population:
        raise ValueError(f"cannot sample {k} from {population}")
    swapped = {}
    out = []
    for i in range(k):
        j = i + gen.randbelow(population - i)
        out.append(swapped.get(j, j))
        swapped[j] = swapped.get(i, i)
    return out


def family_oracle(x_size, i_size, set_size, seed):
    """Membership matrix of ``random_family``: i_size consecutive scalar
    samples of set_size members from one ``SplitMix64(seed)`` stream."""
    gen = SplitMix64(seed)
    sets = np.zeros((i_size, x_size), dtype=bool)
    for i in range(i_size):
        sets[i, fisher_yates_sample(gen, x_size, set_size)] = True
    return sets


def estimator_hits(w, G, samples, seed, d):
    """Hit count of the sampled census, one sample at a time: chunk i draws
    its samples' 3d coordinates (s, then t, then u) from the scalar stream
    ``SplitMix64(derive_seed(seed, i))`` and evaluates both sides of the
    triple equation with plain loops."""
    n = G.n
    mul, inv = G.mul.tolist(), G.inv.tolist()

    hits = 0
    for lo in range(0, samples, CHUNK):
        gen = SplitMix64(derive_seed(seed, lo // CHUNK))
        for _ in range(min(CHUNK, samples - lo)):
            c = [gen.randbelow(n) for _ in range(3 * d)]
            s, t, u = c[:d], c[d:2 * d], c[2 * d:]
            stu = [mul[mul[inv[s[i]]][t[i]]][u[i]] for i in range(d)]
            ws, wt, wu = (evaluate_loops(w, mul, inv, x) for x in (s, t, u))
            rhs = mul[mul[inv[ws]][wt]][wu]
            hits += evaluate_loops(w, mul, inv, stu) == rhs
    return hits


C1 = 0xBF58476D1CE4E5B9
C2 = 0x94D049BB133111EB


def unxorshift(y: int, shift: int) -> int:
    """x with x ^ (x >> shift) == y."""
    x = y
    for _ in range(64 // shift):
        x = y ^ (x >> shift)
    return x


def unmix64(z: int) -> int:
    """Inverse of mix64: undo each xorshift and multiply by the inverses of
    the two odd constants mod 2**64."""
    z = unxorshift(z, 31)
    z = unxorshift(z * pow(C2, -1, 1 << 64) & MASK64, 27)
    return unxorshift(z * pow(C1, -1, 1 << 64) & MASK64, 30)


def seed_with_raw(value: int, position: int) -> int:
    """A seed whose raw draw at counter position ``position`` is ``value``."""
    return (unmix64(value) - (position + 1) * GOLDEN) & MASK64
