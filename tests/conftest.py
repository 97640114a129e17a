"""Shared fixtures and independent oracle helpers.

The oracles here deliberately avoid the library's vectorized code paths:
they re-derive expected values with plain loops so the tests pin behaviour
from a second, slower direction.
"""

from __future__ import annotations

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from wordmaplab import build
from wordmaplab._tables import coordinate_columns, word_values
from wordmaplab.bounds import rat_str
from wordmaplab.census import CHUNK
from wordmaplab.freeword import Word, reduce
from wordmaplab.homset import endomorphisms
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


def element_power(G, g: int, e: int) -> int:
    """g^e by square-and-multiply; negative exponents via the inverse."""
    if e < 0:
        return element_power(G, G.inv.item(g), -e)
    acc, base = 0, g
    while e:
        if e & 1:
            acc = G.mul.item(acc, base)
        base = G.mul.item(base, base)
        e >>= 1
    return acc


def element_orders(G) -> np.ndarray:
    """Order of every element, by stepping all powers g^k at once."""
    orders = np.ones(G.n, dtype=np.int64)
    live = np.flatnonzero(np.arange(G.n))
    acc = live.copy()  # acc[i] = live[i]^orders[live[i]]
    while live.size:
        acc = G.mul[acc, live]
        orders[live] += 1
        keep = acc != 0
        live, acc = live[keep], acc[keep]
    return orders


def is_abelian(G) -> bool:
    return bool((G.mul == G.mul.T).all())


def conjugacy_classes(G) -> int:
    """Class count by orbits, one gather per class: the class of g is
    {a g a^-1 : a in G}."""
    seen = np.zeros(G.n, dtype=bool)
    count = 0
    for g in range(G.n):
        if not seen[g]:
            count += 1
            seen[G.mul[G.mul[:, g], G.inv]] = True
    return count


def evaluate_word(w: Word, G, assignment) -> int:
    """Scalar evaluation of w at one assignment (ids, 1-based variables)."""
    if w.arity > len(assignment):
        raise ValueError("assignment shorter than word arity")
    acc = 0
    for var, exp in w.syllables:
        acc = G.mul.item(acc, element_power(G, assignment[var - 1], exp))
    return acc


def random_reduced_word(rng: SplitMix64, length: int, num_vars: int) -> Word:
    """Uniform-ish reduced word of exactly ``length`` letters.

    Each letter is a (variable, sign) pair chosen so it never cancels the
    previous letter; used by fuzz suites, deterministic via ``rng``.
    """
    if length < 0 or num_vars < 1:
        raise ValueError("need length >= 0 and num_vars >= 1")
    raw: list[tuple[int, int]] = []
    prev: tuple[int, int] | None = None
    for _ in range(length):
        while True:
            var = 1 + rng.randbelow(num_vars)
            sign = 1 if rng.randbelow(2) == 0 else -1
            if prev is None or (var, sign) != (prev[0], -prev[1]):
                break
        raw.append((var, sign))
        prev = (var, sign)
    w = reduce(raw)
    assert w.length == length
    return w


def expressions(G) -> tuple[list[int], list[tuple[int, ...]]]:
    """Greedy generators of G and a word in them for every element, by a
    plain queue walk: adjoin the smallest element not yet reached, then
    right-multiply every reached element by each generator in turn.  The
    words are tuples of generator indices."""
    mul = G.mul.tolist()
    words: dict[int, tuple[int, ...]] = {0: ()}
    gens: list[int] = []
    while len(words) < G.n:
        gens.append(min(set(range(G.n)) - set(words)))
        queue = list(words)
        for e in queue:  # the queue grows as the walk meets new elements
            for j, g in enumerate(gens):
                if mul[e][g] not in words:
                    words[mul[e][g]] = words[e] + (j,)
                    queue.append(mul[e][g])
    return gens, [words[e] for e in range(G.n)]


def validate_table(G) -> None:
    """Check the group axioms of ``G``'s tables; raise ValueError on the
    first failure.

    Associativity is decided exactly by Light's test (Clifford and Preston,
    *Algebraic Theory of Semigroups*, vol. 1, section 1.2).  Let T be the set
    of t with (x t) y = x (t y) for all x and y.  T holds the identity and is
    closed under the product: for s, t in T,

        (x (s t)) y = ((x s) t) y = (x s) (t y) = x (s (t y)) = x ((s t) y).

    So it is enough to test a set of elements from which right
    multiplication reaches every element, starting at 0.  This walk adjoins
    the smallest element not yet reached and closes the reached set under
    right multiplication by every element adjoined so far, whole frontiers
    at a time; it assumes nothing the test has yet to prove.
    """
    n = G.n
    if n < 1:
        raise ValueError("group order must be >= 1")
    M, inv = G.mul, G.inv
    if M.shape != (n, n):
        raise ValueError("mul table must be square")
    if inv.shape != (n,):
        raise ValueError("inv must have length n")
    if M.min() < 0 or M.max() >= n:
        raise ValueError("mul entries out of range")
    ids = np.arange(n)
    for lines, table in (("rows", M), ("columns", M.T)):
        if not (np.sort(table, axis=1) == ids).all():
            raise ValueError(f"mul table is not a Latin square ({lines})")
    if not (M[0] == ids).all() or not (M[:, 0] == ids).all():
        raise ValueError("element 0 is not the identity")
    if not (M[ids, inv] == 0).all() or not (M[inv, ids] == 0).all():
        raise ValueError("inv table is wrong")
    reached = ids == 0
    gens: list[int] = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        frontier = np.flatnonzero(reached)
        while frontier.size:
            prods = M[np.ix_(frontier, gens)].ravel()
            frontier = np.unique(prods[~reached[prods]])
            reached[frontier] = True
    for g in gens:
        # row x, column y: (x g) y against x (g y)
        if not (M.take(M[:, g], axis=0) == M.take(M[g], axis=1)).all():
            raise ValueError("multiplication is not associative")


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
    cols = list(coordinate_columns(n, d, np.arange(size)))
    rads = [n ** (d - 1 - i) for i in range(d)]  # place values
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


def image_pair_table(G, rows):
    """ok[i, j] of ``homset._commuting_pairs`` from the definition: every
    element of the image of row i commutes with every element of the image
    of row j.  Each pair of distinct images is checked element pair by
    element pair, with plain loops."""
    mul = G.mul.tolist()
    images = [frozenset(r) for r in rows.tolist()]
    distinct = list(dict.fromkeys(images))
    table = np.array([[all(mul[a][b] == mul[b][a] for a in A for b in B)
                       for B in distinct] for A in distinct], dtype=bool)
    ids = [distinct.index(im) for im in images]
    return table[np.ix_(ids, ids)]


def traced_peak(call) -> int:
    """Peak bytes that tracemalloc sees while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


def agreement_set(w, G, comps) -> np.ndarray:
    """Flags over G^d, in index order, marking the tuples where w agrees
    with the hom whose component tables are ``comps``, by plain loops."""
    tuples = itertools.product(range(G.n), repeat=len(comps))
    return np.array([h == evaluate_word(w, G, t)
                     for h, t in zip(hom_value_table(G, comps), tuples)],
                    dtype=bool)


def power_agreement_profile(G, e: int, automorphisms_only: bool = False):
    """Best agreement proportion of the e-th power map with a single
    endomorphism (or automorphism: a bijective one) of G, one element at a
    time."""
    power = [element_power(G, g, e) for g in range(G.n)]
    pool = endomorphisms(G).tolist()
    if automorphisms_only:
        pool = [row for row in pool if len(set(row)) == G.n]
    return Fraction(max(sum(a == b for a, b in zip(row, power))
                        for row in pool), G.n)


def loop_tuple_tables(G, d):
    """(product, inverse) index tables of G^d by plain loops: the tuples in
    itertools.product order, which is index order, multiplied and inverted
    one coordinate at a time.  product[i][j] is the index of tuple i times
    tuple j."""
    tuples = list(itertools.product(range(G.n), repeat=d))
    index = {t: i for i, t in enumerate(tuples)}
    mul, inv = G.mul.tolist(), G.inv.tolist()
    product = [[index[tuple(mul[x][y] for x, y in zip(a, b))]
                for b in tuples] for a in tuples]
    inverse = [index[tuple(inv[x] for x in a)] for a in tuples]
    return product, inverse


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


def family_text(inst) -> str:
    """``inst`` in the family file format that ``load_family`` and
    ``verify-lemma --file`` read: the header 'X=<n> I=<m> rho=<num>/<den>',
    then one line of sorted 0-based member indices per set."""
    lines = [f"X={inst.x_size} I={inst.i_size} rho={rat_str(inst.rho)}"]
    lines += [" ".join(str(i) for i in np.nonzero(row)[0])
              for row in inst.sets]
    return "\n".join(lines) + "\n"


def save_family(inst, path) -> None:
    """Write ``family_text(inst)`` to ``path``, in the default encoding that
    ``load_family`` opens it with."""
    with open(path, "w") as fh:
        fh.write(family_text(inst))


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
