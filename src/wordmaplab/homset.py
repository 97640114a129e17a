"""Endomorphisms of G and homomorphisms G^d -> G, with agreement counts.

Homomorphisms out of a direct power are stored componentwise: a d-tuple of
endomorphisms whose images commute elementwise.  Every homomorphism
G^d -> G arises from exactly one such tuple (restrict to the d embedded
copies of G), so enumerating these tuples enumerates the whole hom set.

Agreement counts compare a homomorphism with the evaluation map of a word w
over G^d; ``best_agreement`` maximises the agreement proportion over the full
hom set, breaking ties by enumeration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _tables
from .errors import BudgetExceededError
from .freeword import Word, reduce
from .group import GroupTable, greedy_generators

DEFAULT_CANDIDATE_BUDGET = 10_000_000

# Array cells per block of endomorphism candidates, pair-table rows or
# scored homs, so that working memory stays flat as the search grows.
BLOCK_CELLS = 1 << 17


@dataclass(frozen=True)
class Endo:
    """An endomorphism as its full value table (index = argument id)."""

    values: tuple[int, ...]

    def __call__(self, g: int) -> int:
        return self.values[g]

    def is_bijective(self) -> bool:
        return len(set(self.values)) == len(self.values)

    def image(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.values)))


@dataclass(frozen=True)
class Hom:
    """A homomorphism G^d -> G as d componentwise endomorphisms."""

    d: int
    components: tuple[Endo, ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if len(self.components) != self.d:
            raise ValueError("need exactly d components")

    def __call__(self, G: GroupTable, tup) -> int:
        acc = 0
        for i in range(self.d):
            acc = G.mul.item(acc, self.components[i](tup[i]))
        return acc


@dataclass(frozen=True)
class GeneratingSequence:
    """Greedy generators plus a BFS spanning structure for extension.

    ``order`` lists all element ids with every element appearing after its
    parent; element e != 0 satisfies e = parent_elem[e] * gens[parent_gen[e]].
    """

    generators: tuple[int, ...]
    order: tuple[int, ...]
    parent_elem: tuple[int, ...]
    parent_gen: tuple[int, ...]

    @property
    def expressions(self) -> list[tuple[int, ...]]:
        """Per-element words in the generators (tuples of generator indices)."""
        exprs: dict[int, tuple[int, ...]] = {0: ()}
        for e in self.order:
            if e != 0:
                exprs[e] = exprs[self.parent_elem[e]] + (self.parent_gen[e],)
        return [exprs[e] for e in range(len(self.order))]


def generating_sequence(G: GroupTable) -> GeneratingSequence:
    """Greedy generating sequence (``group.greedy_generators``: repeatedly
    adjoin the smallest element id outside the subgroup generated so far),
    closed breadth-first."""
    n = G.n
    gens = greedy_generators(G)
    right = G.mul[:, gens].tolist()  # right[e][gi] = e * gens[gi]
    order = [0]
    parent_elem = [0] * n
    parent_gen = [0] * n
    known = {0}
    pos = 0
    while pos < len(order):
        e = order[pos]
        pos += 1
        for gi, h in enumerate(right[e]):
            if h not in known:
                known.add(h)
                parent_elem[h] = e
                parent_gen[h] = gi
                order.append(h)
    return GeneratingSequence(
        generators=tuple(gens),
        order=tuple(order),
        parent_elem=tuple(parent_elem),
        parent_gen=tuple(parent_gen),
    )


def _full_hom_check(M: np.ndarray, values: np.ndarray) -> bool:
    """values[a*b] == values[a]*values[b] for every pair, vectorized."""
    return np.array_equal(values[M], M[values[:, None], values[None, :]])


def endomorphisms(
    G: GroupTable, budget: int = DEFAULT_CANDIDATE_BUDGET
) -> list[Endo]:
    """All endomorphisms, in candidate-image order.

    Candidates assign images to the greedy generators g_1, ..., g_k in
    itertools.product order over element ids (g_1's image most significant).
    Each block of candidates is decoded, extended along the BFS spanning
    structure, and kept only if phi(e g_j) = phi(e) phi(g_j) for every
    element e and every generator g_j.  That check is exact: phi(1) = 1 by
    construction, and every b in a finite group is a positive word
    g_j1 ... g_jm in the generators (an inverse is a positive power), so
    induction on m gives phi(ab) = phi(a) phi(g_j1) ... phi(g_jm)
    = phi(a) phi(b) for every a.
    """
    n = G.n
    gs = generating_sequence(G)
    k = len(gs.generators)
    total = n ** k
    if total > budget:
        raise BudgetExceededError(
            f"endomorphism search needs {total} candidates, budget {budget}"
        )
    M = G.mul
    right = M[:, list(gs.generators)]  # right[e, j] = e * g_j
    body = [e for e in gs.order if e != 0]
    pe = gs.parent_elem
    pg = gs.parent_gen
    step = max(1, BLOCK_CELLS // n)
    out = []
    for lo in range(0, total, step):
        idx = np.arange(lo, min(lo + step, total), dtype=np.int64)
        images = np.empty((k, len(idx)), dtype=np.int64)
        for j in reversed(range(k)):
            idx, images[j] = np.divmod(idx, n)
        # vals[e, c] = phi_c(e) for candidate c of the block.
        vals = np.zeros((n, images.shape[1]), dtype=np.int64)
        for e in body:
            vals[e] = M[vals[pe[e]], images[pg[e]]]
        for j in range(k):
            ok = (vals[right[:, j]] == M[vals, images[j]]).all(axis=0)
            vals, images = vals[:, ok], images[:, ok]
        out.extend(Endo(values=tuple(row)) for row in vals.T.tolist())
    return out


def automorphisms(
    G: GroupTable, budget: int = DEFAULT_CANDIDATE_BUDGET
) -> list[Endo]:
    return [e for e in endomorphisms(G, budget) if e.is_bijective()]


def homs_power(
    G: GroupTable, d: int, budget: int = DEFAULT_CANDIDATE_BUDGET
) -> list[Hom]:
    """All homomorphisms G^d -> G, as commuting d-tuples of endomorphisms,
    in itertools.product order over the endomorphism list."""
    if d < 1:
        raise ValueError("d must be >= 1")
    endos = endomorphisms(G, budget)
    k = len(endos)
    if k ** d > budget:
        raise BudgetExceededError(
            f"hom enumeration needs {k ** d} tuples, budget {budget}"
        )
    if d == 1:
        return [Hom(d=1, components=(e,)) for e in endos]
    # pair_ok[i, j]: the images of endos i and j commute elementwise, that
    # is, no non-commuting pair (a, b) lies in im_i x im_j.  The matmul counts
    # such pairs over 0/1 image indicators; every count is an integer of at
    # most n^2, so float64 arithmetic is exact.
    M = G.mul
    table = np.array([e.values for e in endos], dtype=np.int64)
    ind = np.zeros((k, G.n))
    np.put_along_axis(ind, table, 1.0, axis=1)
    left = ind @ (M != M.T).astype(np.float64)
    pair_ok = np.empty((k, k), dtype=bool)
    step = max(1, BLOCK_CELLS // k)
    for lo in range(0, k, step):
        pair_ok[lo:lo + step] = left[lo:lo + step] @ ind.T == 0
    # Row-major order of the admissible prefixes, extended one column at a
    # time, is the product order of the admissible d-tuples.
    tuples = np.argwhere(pair_ok)
    for c in range(2, d):
        m = len(tuples)
        if m * k * (c + 1) > budget:
            raise BudgetExceededError(
                f"hom enumeration extends {m} tuples by {k} endomorphisms "
                f"into up to {m * k * (c + 1)} ids, budget {budget}"
            )
        ok = pair_ok[tuples[:, 0]]
        for i in range(1, c):
            ok &= pair_ok[tuples[:, i]]
        rows, nxt = np.nonzero(ok)
        tuples = np.column_stack([tuples[rows], nxt])
    return [Hom(d=d, components=tuple(endos[i] for i in row))
            for row in tuples.tolist()]


def _hom_values(M: np.ndarray, homs: list[Hom]) -> np.ndarray:
    """Values of each hom on every tuple of G^d: shape (len(homs), n^d),
    each row in index order.

    One broadcast gather per coordinate serves the whole block: after j
    coordinates, vals[b, g_1, ..., g_j] = c_1(g_1) ... c_j(g_j) for the
    components c_1, ..., c_j of hom b.
    """
    comps = np.array([[c.values for c in phi.components] for phi in homs],
                     dtype=np.int64)
    h, d, n = comps.shape
    vals = comps[:, 0]
    for i in range(1, d):
        vals = M[vals[..., None],
                 comps[:, i].reshape((h,) + (1,) * i + (n,))]
    return vals.reshape(h, n ** d)


def agreement_set(
    w: Word, G: GroupTable, phi: Hom,
    budget: int = _tables.DEFAULT_TABLE_BUDGET,
    wv: np.ndarray | None = None,
) -> np.ndarray:
    """Boolean flags over G^d marking tuples where phi and w agree.  ``wv``
    is the word table ``_tables.word_values(w, G, phi.d)`` when the caller
    already has it."""
    if w.arity > phi.d:
        raise ValueError(f"word uses x{w.arity} but hom has d = {phi.d}")
    if wv is None:
        wv = _tables.word_values(w, G, phi.d, budget)
    return _hom_values(G.mul, [phi])[0] == wv


def agreement_count(
    w: Word, G: GroupTable, phi: Hom,
    budget: int = _tables.DEFAULT_TABLE_BUDGET,
) -> int:
    return int(agreement_set(w, G, phi, budget).sum())


def best_agreement(
    w: Word, G: GroupTable, d: int,
    hom_budget: int = DEFAULT_CANDIDATE_BUDGET,
    iter_budget: int = _tables.DEFAULT_TABLE_BUDGET,
    wv: np.ndarray | None = None,
) -> tuple[Fraction, Hom]:
    """Maximum agreement proportion over all homs G^d -> G, with a witness.

    Ties go to the earliest hom in enumeration order, so the witness is
    deterministic.  Scoring compares every hom with w on all of G^d, and
    that many cells must fit ``iter_budget``.  ``wv`` is as in
    ``agreement_set``.
    """
    if w.arity > d:
        raise ValueError(f"word uses x{w.arity} but d = {d}")
    homs = homs_power(G, d, hom_budget)
    size = G.n ** d
    _tables.check_table_budget(len(homs) * size, iter_budget)
    if wv is None:
        wv = _tables.word_values(w, G, d, iter_budget)
    M = G.mul
    step = max(1, BLOCK_CELLS // size)
    counts = np.concatenate([
        (_hom_values(M, homs[lo:lo + step]) == wv).sum(axis=1)
        for lo in range(0, len(homs), step)
    ])
    best = int(np.argmax(counts))  # argmax returns the first of any ties
    return Fraction(int(counts[best]), size), homs[best]


def power_agreement_profile(
    G: GroupTable, e: int, automorphisms_only: bool = False,
    budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> Fraction:
    """Best agreement proportion of the e-th power map with a single
    endomorphism (or automorphism) of G."""
    w = reduce([(1, e)])
    wv = _tables.word_values(w, G, 1)
    pool = automorphisms(G, budget) if automorphisms_only \
        else endomorphisms(G, budget)
    best = 0
    for endo in pool:
        c = int((np.asarray(endo.values, dtype=np.int64) == wv).sum())
        best = max(best, c)
    return Fraction(best, G.n)
