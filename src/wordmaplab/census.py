"""Solution censuses for derived word equations, and the verifiers built on
them.

For a word w of arity <= d over a group G, the census counts triples
(s, t, u) in (G^d)^3 satisfying

    w(s^-1 t u) = w(s)^-1 w(t) w(u)      (componentwise products inside w),

either exactly (two histograms over x = s^-1 t, |G|^{2d} work) or by seeded
uniform sampling.  ``verify_theorem`` glues everything together: it measures
the best agreement proportion rho* between w and a homomorphism, the census
and the intermediate pair/triple counts, and its report checks them against
the exact rational floor f(rho*) |G|^{3d}.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _tables
from .bounds import BoundTriple, commuting_bound, f as bound_triple
from .errors import (DEFAULT_CANDIDATE_BUDGET, DEFAULT_ITER_BUDGET,
                     DEFAULT_TABLE_BUDGET, BudgetExceededError, check_budget,
                     check_power, row_blocks)
from .freeword import Word, derived_word, parse_word
from .group import GroupTable, commuting_probability, power_table
from .homset import agreement_flags, best_agreement, check_hom
from .rng import randbelow_chunks, randbelow_rows

MIN_SAMPLES = 1_000

# Fixed estimator chunk size.  The chunk layout, and hence every sampled
# result, depends only on (seed, samples).
CHUNK = 8192

# Sampled assignments of the identity in ``verify_commuting_corollary``.
EQUATION_SAMPLES = 1000

# 95% two-sided normal quantile as an exact rational, 1.96 = 49/25.
Z95 = Fraction(49, 25)
_SQRT_DIGITS = 12


def _sqrt_fraction(q: Fraction) -> Fraction:
    """Deterministic rational sqrt to 12 decimal digits, via integer isqrt."""
    scale = 10 ** (2 * _SQRT_DIGITS)
    return Fraction(
        math.isqrt(q.numerator * scale // q.denominator), 10 ** _SQRT_DIGITS
    )


@dataclass(frozen=True)
class FiberStats:
    """Distribution of word-map values over G^d."""

    d: int
    n: int
    counts: tuple[int, ...]        # per target element id

    @property
    def domain_size(self) -> int:
        return self.n ** self.d

    @property
    def histogram(self) -> dict[int, int]:
        """Fiber size -> number of target elements."""
        return dict(Counter(self.counts))

    @property
    def max_fiber(self) -> Fraction:
        return Fraction(max(self.counts), self.domain_size)


def fiber_stats(
    w: Word, G: GroupTable, d: int,
    iter_budget: int = DEFAULT_ITER_BUDGET,
    table_budget: int = DEFAULT_TABLE_BUDGET,
) -> FiberStats:
    """Fiber sizes of w over G^d.

    ``iter_budget`` bounds the n^d evaluations.  The word table is built a
    block of first coordinates at a time, each block binned and dropped, so
    ``table_budget`` bounds one block: at most max(BLOCK_CELLS, n^(d-1))
    cells, gated by ``word_values`` before its first block is built."""
    n = G.n
    size = check_power(n, d, iter_budget, "fiber census")
    width = size // n if d else 1
    counts = np.zeros(n, dtype=np.int64)
    for lo, hi in row_blocks(size // width, width):
        counts += np.bincount(
            _tables.word_values(w, G, d, table_budget, lo, hi), minlength=n)
    return FiberStats(d=d, n=n, counts=tuple(counts.tolist()))


@dataclass(frozen=True)
class CensusResult:
    """Outcome of a solution census, exact or sampled."""

    mode: str                      # "exact" | "estimate"
    space_size: int                # |G|^{3d}
    count: int | None = None       # exact mode
    estimate_mean: Fraction | None = None
    samples: int | None = None
    seed: int | None = None

    @property
    def proportion(self) -> Fraction:
        """Solution density: exact count / |G|^{3d}, or the sampled mean."""
        if self.mode == "exact":
            return Fraction(self.count, self.space_size)
        return self.estimate_mean

    @property
    def ci_half_width(self) -> Fraction | None:
        """The sampled mean's 95% half-width (49/25) sqrt(p(1-p)/samples)."""
        if self.mode == "exact":
            return None
        p = self.estimate_mean
        return Z95 * _sqrt_fraction(p * (1 - p) / self.samples)


def _exact_census_gates(n: int, d: int, iter_budget: int,
                        table_budget: int) -> int:
    """Refuse an exact census over G^d, |G| = n, that is over budget;
    return the |G|^{3d} triples it covers."""
    space = check_power(n, 3 * d, iter_budget, "exact census")
    check_budget(3 * n ** (2 * d), table_budget, "exact census table")
    return space


def count_solutions_exact(
    w: Word, G: GroupTable, d: int,
    iter_budget: int = DEFAULT_ITER_BUDGET,
    table_budget: int = DEFAULT_TABLE_BUDGET,
    wv: np.ndarray | None = None,
) -> CensusResult:
    """Exact census of the triple equation over (G^d)^3.

    Put x = s^-1 t.  The map (s, t) -> (s, x) is a bijection of (G^d)^2,
    and the equation becomes w(xu) w(u)^-1 = w(s)^-1 w(sx), whose left side
    depends only on (x, u) and whose right side only on (x, s).  With
    A[x, y] = #{s : w(s)^-1 w(sx) = y} and B[x, y] = #{u : w(xu) w(u)^-1 = y}
    the count is the sum of A[x, y] B[x, y], so the work is |G|^{2d}.
    ``iter_budget`` still bounds the |G|^{3d} triples covered, which keeps
    the refusal point where the benchmark's refused D16 case expects it;
    ``table_budget`` bounds the 3 |G|^{2d} cells held at once: the word
    values w(ab) and the keys of both histograms.
    ``wv`` is the word table ``_tables.word_values(w, G, d)`` when the
    caller already has it.
    """
    n = G.n
    space = _exact_census_gates(n, d, iter_budget, table_budget)
    size = n ** d
    if wv is None:
        wv = _tables.word_values(w, G, d, table_budget)
    M = G.mul
    every = np.arange(size, dtype=np.int64)
    wp = wv[_tables.product_index(G, d, every, every)]  # wp[a, b] = w(ab)
    winv = G.inv[wv]
    xn = every * n
    # Both histograms are keyed x * n + y; wp[s, x] = w(sx), wp[x, u] = w(xu).
    keys = M[winv[:, None], wp]
    keys += xn[None, :]
    A = np.bincount(keys.ravel(), minlength=size * n)
    keys = M[wp, winv[None, :]]
    keys += xn[:, None]
    B = np.bincount(keys.ravel(), minlength=size * n)
    # A @ B <= size^3 fits in int64 unless the tables above exceed 2^42 cells.
    return CensusResult(mode="exact", space_size=space, count=int(A @ B))


def estimate_solutions(
    w: Word, G: GroupTable, samples: int, seed: int, d: int,
    table_budget: int = DEFAULT_TABLE_BUDGET,
    wv: np.ndarray | None = None,
) -> CensusResult:
    """Sampled census: uniform i.i.d. triples from (G^d)^3.

    Sample j of chunk i uses draws 3dj..3dj+3d-1 of the SplitMix64 stream
    seeded with derive_seed(seed, i); chunks have the fixed size CHUNK.  The
    mean is the exact hit fraction, and the result derives its half-width
    from it, so identical (seed, samples) reproduce the result bit for bit
    on any platform.  ``wv`` is as in
    ``count_solutions_exact``.  A chunk's draws are held in three (3d, CHUNK)
    buffers, 9d cells per sample, which count against ``table_budget``.
    """
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {samples}")
    n = G.n
    if wv is None:
        wv = _tables.word_values(w, G, d, table_budget)
    check_budget(9 * d * min(CHUNK, samples), table_budget,
                 "sampled census chunk")
    index = _tables.tuple_index
    # In the flat table mul[a*n + b] = ab, a^-1 b is mul[inv_row[a] + b]:
    # beside the word table, no table of n^2 or n^d cells is built.
    mul = G.mul.ravel()
    inv_row = G.inv * n
    hits = 0
    # Row j of a chunk holds coordinate j of every sample.
    for cols in randbelow_chunks(seed, n, 3 * d, samples, CHUNK):
        s, t, u = cols[:d], cols[d:2 * d], cols[2 * d:]
        # s^-1 t u, one coordinate per row.
        stu = inv_row.take(s)
        stu += t
        stu = mul[stu]
        stu *= n
        stu += u
        lhs = wv[index(n, mul[stu])]
        rhs = inv_row.take(wv.take(index(n, s)))
        rhs += wv[index(n, t)]
        rhs = mul[rhs]
        rhs *= n
        rhs += wv[index(n, u)]
        hits += int(np.count_nonzero(lhs == mul[rhs]))
    return CensusResult(mode="estimate", space_size=len(wv) ** 3,
                        estimate_mean=Fraction(hits, samples),
                        samples=samples, seed=seed)


# -- membership-set statistics over X = G^d ----------------------------------

def translate_counts(
    S, G: GroupTable, d: int, threshold: Fraction,
    iter_budget: int = DEFAULT_ITER_BUDGET,
    table_budget: int = DEFAULT_TABLE_BUDGET,
) -> tuple[int, int]:
    """The pair and triple steps over S in G^d, as (pairs, triples).

    pairs counts the ordered (s, t) in S^2 whose translate overlap
    |sS ∩ tS| reaches threshold * |G|^d; triples counts the ordered
    (s, t, u) in S^3 with s^-1 t u in S.  Both read two quotient
    histograms over S^2, for every g in G^d:

        c(g) = #{(z, y) in S^2 : y z^-1 = g} = |S ∩ gS|,
        p(g) = #{(s, t) in S^2 : s^-1 t = g} = |S ∩ Sg^-1|.

    The overlap of the pairs with quotient g is c(g).  For fixed (s, t) the
    valid u form S ∩ (t^-1 s) S, of size c((s^-1 t)^-1), and swapping y and
    z shows c(g^-1) = c(g), so triples is the dot product p . c.
    ``iter_budget`` bounds the |S|^2 pairs and ``table_budget`` the 2 |S|^2
    cells held at once: a product index and its gather temporary.
    """
    size = G.n ** d
    flags = np.asarray(S, dtype=bool)
    if flags.shape != (size,):
        raise ValueError(f"membership flags must have length {size}")
    members = np.nonzero(flags)[0]
    m = len(members)
    if not m:
        raise ValueError("S must be nonempty")
    check_budget(m * m, iter_budget, "pair and triple step")
    check_budget(2 * m * m, table_budget, "translate table")
    inverses = _tables.tuple_index(G.n, (
        G.inv[c] for c in _tables.coordinate_columns(G.n, d, members)))
    c = np.bincount(_tables.product_index(G, d, members, inverses).ravel(),
                    minlength=size)
    p = np.bincount(_tables.product_index(G, d, inverses, members).ravel(),
                    minlength=size)
    # Overlaps are integers, so one reaches threshold * |G|^d exactly when
    # it reaches the ceiling of that bound.
    pairs = int(p[c >= math.ceil(Fraction(threshold) * size)].sum())
    return pairs, int(p @ c)


# -- verifiers ----------------------------------------------------------------

@dataclass(frozen=True)
class TheoremReport:
    """What verify_theorem measured, the pair and triple counts None when
    that step was refused; the bounds, floors and pass flags derive from it."""

    group: str
    word: str
    d: int
    order: int
    s_size: int
    solutions: CensusResult
    qualifying_pairs: int | None = None
    triples: int | None = None

    @cached_property
    def rho(self) -> Fraction:
        return Fraction(self.s_size, self.order ** self.d)

    @cached_property
    def bounds(self) -> BoundTriple:
        return bound_triple(self.rho)

    @property
    def required(self) -> Fraction:
        """f(rho) |G|^{3d}, the floor of solutions and of triples."""
        return self.bounds.f * self.order ** (3 * self.d)

    required_triples = required

    @property
    def pair_threshold(self) -> Fraction:
        return self.bounds.f2 * self.order ** self.d

    @property
    def required_pairs(self) -> Fraction:
        return self.bounds.f1 * self.order ** (2 * self.d)

    @property
    def pass_solutions(self) -> bool:
        # count >= f |G|^{3d} exactly when count / |G|^{3d} >= f, so one
        # comparison of the proportion judges either census.
        return self.solutions.proportion >= self.bounds.f

    @property
    def pass_pairs(self) -> bool | None:
        q = self.qualifying_pairs
        return None if q is None else q >= self.required_pairs

    @property
    def pass_triples(self) -> bool | None:
        return None if self.triples is None else self.triples >= self.required

    @property
    def pass_chain(self) -> bool | None:  # exact mode only
        exact = self.triples is not None and self.solutions.mode == "exact"
        return self.solutions.count >= self.triples if exact else None

    @property
    def checks_run(self) -> tuple[str, ...]:
        steps = () if self.triples is None else ("pairs", "triples")
        chain = () if self.pass_chain is None else ("chain",)
        return (f"census-{self.solutions.mode}",) + steps + chain

    @property
    def passed(self) -> bool:
        flags = [self.pass_solutions, self.pass_pairs, self.pass_triples,
                 self.pass_chain]
        return all(f for f in flags if f is not None)


def verify_theorem(
    w: Word, G: GroupTable, d: int, *,
    samples: int | None = None, seed: int = 0,
    hom_budget: int = DEFAULT_CANDIDATE_BUDGET,
    iter_budget: int = DEFAULT_ITER_BUDGET,
    table_budget: int = DEFAULT_TABLE_BUDGET,
    hom: np.ndarray | None = None,
) -> TheoremReport:
    """Measure rho*, the census, and the pair and triple counts; the report
    checks them against the bound.

    With ``samples=None`` the census is exact (a budget overrun is an error);
    otherwise it is sampled and the report's census mode says so.  Either
    census passes when its proportion reaches f(rho*).  ``hom``, a (d, n)
    component table, skips the hom-set search and scores that homomorphism
    instead; a table that is not a hom G^d -> G raises ValueError.
    """
    if hom is not None:
        hom = check_hom(G, hom)
        if len(hom) != d:
            raise ValueError(f"hom has d = {len(hom)}, expected {d}")
    # One word table serves the hom scoring, the agreement set and the census.
    wv = _tables.word_values(w, G, d, table_budget)
    n = G.n
    if samples is None:
        # The census's gates read only n and d: refuse before the search.
        _exact_census_gates(n, d, iter_budget, table_budget)
    if hom is None:
        _, hom = best_agreement(w, G, d, hom_budget, table_budget, wv=wv)
    flags = agreement_flags(G, hom, wv)
    census = (count_solutions_exact(w, G, d, iter_budget, table_budget, wv=wv)
              if samples is None else
              estimate_solutions(w, G, samples, seed, d, table_budget, wv=wv))
    rep = TheoremReport(group=G.name or f"order-{n}", word=str(w), d=d,
                        order=n, s_size=int(flags.sum()), solutions=census)
    try:
        qual, triples = translate_counts(flags, G, d, rep.bounds.f2,
                                         iter_budget, table_budget)
    except BudgetExceededError:
        return rep  # over budget: the report leaves both steps out
    out = replace(rep, qualifying_pairs=qual, triples=triples)
    out.__dict__["bounds"] = rep.bounds  # replace drops the cached f(rho)
    return out


def power_equation_count(
    e: int, G: GroupTable, iter_budget: int = DEFAULT_ITER_BUDGET
) -> int:
    """|{(x, y, z) in G^3 : (xyz)^e = x^e y^e z^e}|, by direct iteration."""
    n = G.n
    check_budget(n ** 3, iter_budget, "power equation census")
    M = G.mul
    pe = power_table(G, e)
    pow_prod = M[pe[:, None], pe[None, :]]  # x^e y^e
    total = 0
    for z in range(n):
        lhs = pe[M[M, z]]
        rhs = M[pow_prod, pe[z]]
        total += int((lhs == rhs).sum())
    return total


@dataclass(frozen=True)
class CommutingReport:
    """Commuting-probability floor check for one group."""

    group: str
    rho: Fraction
    commuting_probability: Fraction
    equation_samples: int
    equation_consistent: bool

    @cached_property
    def bound(self) -> Fraction:
        """The floor eps/(2 - eps) at eps = f(rho)."""
        return commuting_bound(self.rho)

    @property
    def pass_bound(self) -> bool:
        return self.commuting_probability >= self.bound

    @property
    def passed(self) -> bool:
        return self.pass_bound and self.equation_consistent


def verify_commuting_corollary(
    G: GroupTable, *,
    seed: int = 0,
    hom_budget: int = DEFAULT_CANDIDATE_BUDGET,
    table_budget: int = DEFAULT_TABLE_BUDGET,
) -> CommutingReport:
    """Check cp(G) >= eps/(2 - eps) at eps = f(rho*) for w = x1 x2, and
    sample-check that the five-variable commutation identity

        s1 s2 s1^-1 = t1 t2 u1 t2^-1 s2 u1^-1 t1^-1

    holds exactly when (s1,s2,t1,t2,u1,u2) solves the derived equation of
    x1 x2 (the last coordinate cancels, so u2 is free)."""
    w = Word(((1, 1), (2, 1)))
    rho, _ = best_agreement(w, G, 2, hom_budget, table_budget)
    m = EQUATION_SAMPLES
    # Columns 1 to 6 hold s1, s2, t1, t2, u1, u2.
    cols = randbelow_rows(seed, [G.n] * 6, m).T
    lhs, rhs, v = (
        _tables.evaluate_columns(word, G, cols.__getitem__, m)
        for word in (parse_word("x1*x2*x1^-1"),
                     parse_word("x3*x4*x5*x4^-1*x2*x5^-1*x3^-1"),
                     derived_word(w)))
    ok = bool(((lhs == rhs) == (v == 0)).all())
    return CommutingReport(
        group=G.name or f"order-{G.n}", rho=rho,
        commuting_probability=commuting_probability(G),
        equation_samples=m, equation_consistent=ok)
