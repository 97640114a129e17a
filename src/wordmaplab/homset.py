"""Endomorphisms of G and homomorphisms G^d -> G, with agreement counts.

An endomorphism is its value table, a row of n element ids indexed by
argument id; ``endomorphisms`` returns them as one (k, n) int64 array.  The
search assigns images to the greedy generators one at a time, along the
chain of subgroups they span, and keeps a candidate when it respects the
relations of the coset walk in ``group.greedy_generators``.
Homomorphisms out of a direct power are stored componentwise: a d-tuple of
endomorphisms whose images commute elementwise, held as d row indices into
that array.  Every homomorphism G^d -> G arises from exactly one such tuple
(restrict to the d embedded copies of G), so enumerating these tuples
enumerates the whole hom set.  A single hom is its (d, n) component table.

Agreement counts compare a homomorphism with the evaluation map of a word w
over G^d; ``best_agreement`` maximises the agreement proportion over the full
hom set, breaking ties by enumeration order.  It gathers every hom's values
over G^d, except for a word x1^p x2^q or x2^q x1^p at d = 2, which it
scores from two fiber histograms (``_separated_counts``).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import _tables
from .errors import (DEFAULT_CANDIDATE_BUDGET, DEFAULT_TABLE_BUDGET,
                     check_budget, row_blocks)
from .freeword import Word
from .group import CosetWalk, GroupTable, greedy_generators, power_table


def _respects_generators(G: GroupTable, gens: list[int],
                         vals: np.ndarray) -> np.ndarray:
    """The columns phi of the (n, c) value block ``vals`` with phi(e g) =
    phi(e) phi(g) for all elements e and generators g of G: exactly the
    endomorphisms, as e = 1 gives phi(1) = 1 and induction on a positive word
    b = g_1 ... g_m gives phi(ab) = phi(a) phi(g_1) ... phi(g_m)."""
    for g in gens:
        ok = vals[G.mul[:, g]] == G.mul.ravel()[vals * G.n + vals[g]]
        vals = vals[:, ok.all(axis=0)]
    return vals


def _rep_values(G: GroupTable, walk: CosetWalk,
                img: np.ndarray) -> np.ndarray:
    """Values phi(t) at the coset reps of ``walk``, one column per
    candidate, given the images ``img`` of the generators, read along the
    walk's tree."""
    vals = np.zeros((len(walk.reps), img.shape[1]), dtype=np.int64)
    r = 1
    for parents, gen_idx in walk.tree:
        vals[r:r + len(parents)] = G.mul.ravel()[vals[parents] * G.n
                                                 + img[gen_idx]]
        r += len(parents)
    return vals


def _extend(G: GroupTable, walk: CosetWalk, table: np.ndarray,
            c: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """Value columns on H_j of the kept candidates ``c`` of the stage of
    ``walk``, with values ``reps`` at its coset reps: prefix c // n of
    ``table``, extended by phi(h t) = phi(h) phi(t) for h in H_{j-1}."""
    n = G.n
    vals = np.take(table, c // n, axis=1)
    vals[walk.elems] = G.mul.ravel()[vals[walk.h] * n + reps[walk.rep]]
    return vals


def endomorphisms(
    G: GroupTable, budget: int = DEFAULT_CANDIDATE_BUDGET,
    table_budget: int = DEFAULT_TABLE_BUDGET,
    walk: tuple[list[int], list[CosetWalk]] | None = None,
) -> np.ndarray:
    """All endomorphisms as a read-only (k, n) table of value rows, in
    itertools.product order over the images of the greedy generators
    g_1, ..., g_k (g_1's image most significant).

    The search goes by stages along the chain H_1 < ... < H_k = G with
    H_j = <g_1, ..., g_j>, as ``greedy_generators(G)`` walks it (``walk``,
    when the caller already has it).  Stage j extends each prefix, a hom
    H_{j-1} -> G, by each image of g_j, in (prefix, image) row-major order,
    and puts phi(h t) = phi(h) phi(t) for h in H_{j-1} and each coset rep
    t, with phi(t) read along the walk's tree.  This phi is a hom exactly
    when it respects every relation t g = h' t' of the walk: then
    phi(h t g) = phi(h h') phi(t') = phi(h) phi(t) phi(g) = phi(h t) phi(g)
    for every element h t of H_j and generator g, and the induction of
    ``_respects_generators`` applies.  So a stage keeps a candidate on its
    relations alone and fills in its values on H_j afterwards.

    Each stage's candidates count against ``budget``.  Its prefix table
    and the table of its kept rows, n cells a row, count against
    ``table_budget`` as the kept rows grow, a block at a time; until the
    stage ends a kept row holds only its values at the coset reps.
    """
    n = G.n
    gens, walks = greedy_generators(G) if walk is None else walk
    gens = np.array(gens, dtype=np.int64)
    # table[e, c]: the value at e of prefix c, 0 off H_{j-1}.  H_0 = 1.
    table = np.zeros((n, 1), dtype=np.int64)
    for j, stage in enumerate(walks):
        p = table.shape[1]
        check_budget(p * n, budget, "endomorphism search")
        a, gen_idx, h, b = stage.relations
        # A candidate reads its prefix at g_1, ..., g_{j-1} and at each h,
        # and holds about a cell per rep and three per relation.
        known = table[np.concatenate([gens[:j], h])]
        keep, kept_reps, kept = [], [], 0
        for lo, hi in row_blocks(p * n, len(stage.reps) + 3 * len(a)):
            c = np.arange(lo, hi, dtype=np.int64)
            vals = np.take(known, c // n, axis=1)
            img = np.vstack([vals[:j], c % n])
            reps = _rep_values(G, stage, img)
            ok = ((G.mul.ravel()[reps[a] * n + img[gen_idx]]
                   == G.mul.ravel()[vals[j:] * n + reps[b]]).all(axis=0))
            keep.append(c[ok])
            kept_reps.append(reps[:, ok])
            kept += len(keep[-1])
            check_budget((p + kept) * n, table_budget, "endomorphism table")
        keep = np.concatenate(keep)
        reps = np.concatenate(kept_reps, axis=1)
        table = np.concatenate([
            _extend(G, stage, table, keep[lo:hi], reps[:, lo:hi])
            for lo, hi in row_blocks(len(keep), n)], axis=1)
    table = np.ascontiguousarray(table.T)
    table.flags.writeable = False
    return table


def check_hom(G: GroupTable, phi) -> np.ndarray:
    """``phi`` as an int64 array if it is the (d, n) component table of a
    hom G^d -> G (d >= 1), else ValueError."""
    phi = np.asarray(phi, dtype=np.int64)
    if (phi.ndim != 2 or len(phi) < 1 or phi.shape[1] != G.n
            or ((phi < 0) | (phi >= G.n)).any()):
        raise ValueError(f"hom must be a (d, {G.n}) table of ids, d >= 1")
    gens, _ = greedy_generators(G)
    if _respects_generators(G, gens, phi.T).shape[1] < len(phi):
        raise ValueError("component table is not an endomorphism")
    if len(phi) == 1:  # no pair to check
        return phi
    # The first pair i < j in row-major order whose images do not commute.
    bad = np.argwhere(np.triu(~_commuting_pairs(G, phi[:, gens]), 1))
    if len(bad):
        i, j = bad[0]
        raise ValueError(f"components {i} and {j} have non-commuting images")
    return phi


def _commuting_pairs(G: GroupTable, vals: np.ndarray) -> np.ndarray:
    """ok[i, j]: the images of endomorphisms i and j commute, given the
    (k, g) table ``vals`` of their values at the greedy generators.  Those
    values generate each image, so cent[i] marks the centralizer of image i,
    and ok[i, j] asks that it holds row j's values.  Both tables are built a
    block of rows at a time, the commute table on the distinct values only."""
    ids, pos = np.unique(vals, return_inverse=True)
    commute = np.empty((len(ids), G.n), dtype=bool)
    for lo, hi in row_blocks(len(ids), G.n):
        commute[lo:hi] = G.mul[ids[lo:hi]] == G.mul[:, ids[lo:hi]].T
    cent = commute[pos.reshape(vals.shape)].all(axis=1)
    ok = np.empty((len(vals), len(vals)), dtype=bool)
    for lo, hi in row_blocks(len(vals), len(vals)):
        ok[lo:hi] = cent[lo:hi, vals.T].all(axis=1)
    return ok


def _bijective(endos: np.ndarray) -> np.ndarray:
    """Row mask of the automorphisms in an endomorphism table.  An
    endomorphism of a finite group is bijective exactly when its kernel is
    trivial, that is, when 0 is the only element it sends to 0."""
    return (endos == 0).sum(axis=1) == 1


def homs_power(
    G: GroupTable, d: int, budget: int = DEFAULT_CANDIDATE_BUDGET,
    table_budget: int = DEFAULT_TABLE_BUDGET,
) -> tuple[np.ndarray, np.ndarray]:
    """All homomorphisms G^d -> G, as commuting d-tuples of endomorphisms.

    Returns ``(endos, tuples)``: the table of ``endomorphisms(G)`` and an
    (m, d) int64 array of row indices into it, one row per hom, in
    itertools.product order over the rows of ``endos``.  Hom i is the (d, n)
    component table ``endos[tuples[i]]``.  Each prefix carries ok, the AND
    of its components' pair-table rows, which marks its admissible next
    columns; a prefix extended by column j carries its parent's ok & row j.
    A step keeps only its new column and each row's parent prefix; the
    tuples are read back along the parents once, at the end.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    walk = greedy_generators(G)
    endos = endomorphisms(G, budget, table_budget, walk)
    k = len(endos)
    if d == 1:
        return endos, np.arange(k, dtype=np.int64)[:, None]
    check_budget(k * k, budget, "hom enumeration")
    pair_ok = _commuting_pairs(G, endos[:, walk[0]])
    # Row-major order of the admissible prefixes, extended one column at a
    # time, is the product order of the admissible d-tuples.  The length-1
    # prefixes are the endomorphisms themselves, so at d = 2 the parents
    # are column 0.
    ok = pair_ok
    rows, last = np.nonzero(pair_ok)
    steps = [(rows, last)]
    for c in range(2, d):
        check_budget(len(last) * k * (c + 1), budget, "hom extension")
        ok = ok[rows] & pair_ok[last]
        rows, last = np.nonzero(ok)
        steps.append((rows, last))
    tuples = np.empty((len(last), d), dtype=np.int64)
    idx = np.arange(len(last))
    for c in range(d - 1, 0, -1):
        rows, last = steps[c - 1]
        tuples[:, c] = last[idx]
        idx = rows[idx]
    tuples[:, 0] = idx
    return endos, tuples


def _hom_values(M: np.ndarray, comps: np.ndarray) -> np.ndarray:
    """Values on every tuple of G^d of each hom in an (h, d, n) block of
    component tables: shape (h, n^d), each row in index order.

    One gather per coordinate serves the whole block: after j coordinates,
    vals[b] is the flat table over G^j, in index order, of c_1(g_1) ...
    c_j(g_j) for the components c_i of hom b, so it has rank 2 at any d.
    """
    h = len(comps)
    vals = comps[:, 0]
    for i in range(1, comps.shape[1]):
        vals = M[vals[:, :, None], comps[:, i, None, :]].reshape(h, -1)
    return vals


def agreement_flags(G: GroupTable, phi: np.ndarray,
                    wv: np.ndarray) -> np.ndarray:
    """Boolean flags over G^d marking the tuples where the hom ``phi``, a
    (d, n) table that ``check_hom`` has accepted, agrees with the word
    table ``wv``."""
    return _hom_values(G.mul, phi[None])[0] == wv


def _separated_counts(w: Word, G: GroupTable, endos: np.ndarray,
                      tuples: np.ndarray) -> np.ndarray:
    """Agreement counts over G^2 of the homs ``endos[tuples]`` with a word
    x1^p x2^q or x2^q x1^p, where p or q may be 0.

    The images of a hom (phi_1, phi_2) commute, so it agrees with x1^p x2^q
    at (a, b) when a^p b^q = phi_1(a) phi_2(b), that is, when
    phi_1(a)^-1 a^p = phi_2(b) b^-q.  Its count is therefore the dot product
    of K[phi_1] and H[phi_2], where K[psi](y) = #{a : psi(a)^-1 a^p = y} and
    H[psi](y) = #{b : psi(b) b^-q = y} are built for every endomorphism psi
    at once, one bincount each.  Inverting the equation maps the agreement
    set of x2^q x1^p at (a, b) onto that of x1^p x2^q at (a^-1, b^-1), so
    both words have the same counts.
    """
    n, k = G.n, len(endos)
    exps = dict(w.syllables)
    offsets = np.arange(0, k * n, n, dtype=np.int64)[:, None]

    def histograms(keys: np.ndarray) -> np.ndarray:
        keys += offsets
        return np.bincount(keys.ravel(), minlength=k * n).reshape(k, n)

    K = histograms(G.mul[G.inv[endos], power_table(G, exps.get(1, 0))])
    H = histograms(G.mul[endos, power_table(G, -exps.get(2, 0))])
    return np.concatenate([
        np.einsum("hy,hy->h", K[tuples[lo:hi, 0]], H[tuples[lo:hi, 1]])
        for lo, hi in row_blocks(len(tuples), n)
    ])


def best_agreement(
    w: Word, G: GroupTable, d: int,
    hom_budget: int = DEFAULT_CANDIDATE_BUDGET,
    table_budget: int = DEFAULT_TABLE_BUDGET,
    wv: np.ndarray | None = None,
    homs: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[Fraction, np.ndarray]:
    """Maximum agreement proportion over all homs G^d -> G, with a witness:
    the (d, n) component table of the earliest hom that attains it.

    Ties go to the earliest hom in enumeration order, so the witness is
    deterministic.  At d = 2 a word with at most one syllable per variable
    is scored by ``_separated_counts``, which is gated for its two (k, n)
    histograms and n cells per hom; any other word is compared with every
    hom on all of G^d, n^d cells per hom.  Either route's cells must fit
    ``table_budget``.  ``wv`` is ``_tables.word_values(w, G, d)`` and
    ``homs`` is ``homs_power(G, d, hom_budget, table_budget)`` when the
    caller already has them.
    """
    if w.arity > d:
        raise ValueError(f"word uses x{w.arity} but d = {d}")
    if homs is None:
        homs = homs_power(G, d, hom_budget, table_budget)
    endos, tuples = homs
    size = G.n ** d
    if d == 2 and len(w.syllables) <= 2:
        check_budget((len(tuples) + 2 * len(endos)) * G.n, table_budget,
                     "hom scoring")
        counts = _separated_counts(w, G, endos, tuples)
    else:
        check_budget(len(tuples) * size, table_budget, "hom scoring")
        if wv is None:
            wv = _tables.word_values(w, G, d, table_budget)
        counts = np.concatenate([
            (_hom_values(G.mul, endos[tuples[lo:hi]]) == wv).sum(axis=1)
            for lo, hi in row_blocks(len(tuples), size)
        ])
    best = int(np.argmax(counts))  # argmax returns the first of any ties
    return Fraction(int(counts[best]), size), endos[tuples[best]]
