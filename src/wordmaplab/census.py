"""Solution censuses for derived word equations, and the verifiers built on
them.

For a word w of arity <= d over a group G, the census counts triples
(s, t, u) in (G^d)^3 satisfying

    w(s^-1 t u) = w(s)^-1 w(t) w(u)      (componentwise products inside w),

either exactly (two histograms over x = s^-1 t, |G|^{2d} work) or by seeded
uniform sampling.  ``verify_theorem`` glues everything together: it measures
the best agreement proportion rho* between w and a homomorphism, evaluates
the exact rational floor f(rho*) |G|^{3d}, and checks the census and the
intermediate pair/triple counts against it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _tables
from .bounds import BoundTriple, commuting_bound, f as bound_triple
from .errors import BudgetExceededError
from .freeword import Word, derived_word, reduce
from .group import GroupTable, commuting_probability, power_table
from .homset import agreement_set, best_agreement
from .rng import derive_seed, randbelow_block

DEFAULT_ITER_BUDGET = 1_000_000_000
DEFAULT_TABLE_BUDGET = _tables.DEFAULT_TABLE_BUDGET
MIN_SAMPLES = 1_000

# Fixed estimator chunk size.  The chunk layout, and hence every sampled
# result, depends only on (seed, samples).
CHUNK = 8192

# 95% two-sided normal quantile as an exact rational, 1.96 = 49/25.
Z95 = Fraction(49, 25)
_SQRT_DIGITS = 12


def _sqrt_fraction(q: Fraction) -> Fraction:
    """Deterministic rational sqrt to 12 decimal digits, via integer isqrt."""
    if q < 0:
        raise ValueError("sqrt of negative rational")
    scale = 10 ** (2 * _SQRT_DIGITS)
    return Fraction(
        math.isqrt(q.numerator * scale // q.denominator), 10 ** _SQRT_DIGITS
    )


@dataclass(frozen=True)
class WordMapTable:
    """Word map over G^d, flattened mixed-radix (last coordinate fastest)."""

    d: int
    n: int
    values: np.ndarray = field(compare=False)

    def __post_init__(self):
        if len(self.values) != self.n ** self.d:
            raise ValueError("table length must be n^d")


def word_map_table(
    w: Word, G: GroupTable, d: int | None = None,
    budget: int = DEFAULT_TABLE_BUDGET,
) -> WordMapTable:
    """Evaluate w over all of G^d (d defaults to the word's arity)."""
    if d is None:
        d = max(w.arity, 1)
    vals = _tables.word_values(w, G, d, budget)
    return WordMapTable(d=d, n=G.n, values=vals)


WMT_MAGIC = b"WMT1"


def dump_word_map_table(table: WordMapTable, path) -> None:
    """Binary dump: 8-byte header (magic, d, n as little-endian u16), then
    values as little-endian 32-bit ids in index order."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sHH", WMT_MAGIC, table.d, table.n))
        fh.write(np.ascontiguousarray(table.values, dtype="<i4").tobytes())


def load_word_map_table(path) -> WordMapTable:
    with open(path, "rb") as fh:
        magic, d, n = struct.unpack("<4sHH", fh.read(8))
        if magic != WMT_MAGIC:
            raise ValueError("not a word map table dump")
        vals = np.frombuffer(fh.read(), dtype="<i4").astype(np.int64)
    return WordMapTable(d=d, n=n, values=vals)


@dataclass(frozen=True)
class FiberStats:
    """Distribution of word-map values over G^d."""

    d: int
    n: int
    counts: tuple[int, ...]        # per target element id
    histogram: dict[int, int]      # fiber size -> number of target elements
    max_fiber: Fraction            # largest fiber / |G|^d

    @property
    def domain_size(self) -> int:
        return self.n ** self.d


def fiber_stats(
    w: Word, G: GroupTable, d: int | None = None,
    budget: int = DEFAULT_TABLE_BUDGET,
) -> FiberStats:
    t = word_map_table(w, G, d, budget)
    counts = np.bincount(t.values, minlength=G.n)
    hist: dict[int, int] = {}
    for c in counts.tolist():
        hist[c] = hist.get(c, 0) + 1
    return FiberStats(
        d=t.d,
        n=G.n,
        counts=tuple(int(c) for c in counts),
        histogram=hist,
        max_fiber=Fraction(int(counts.max()), G.n ** t.d),
    )


@dataclass(frozen=True)
class CensusResult:
    """Outcome of a solution census, exact or sampled."""

    mode: str                      # "exact" | "estimate"
    space_size: int                # |G|^{3d}
    count: int | None = None       # exact mode
    estimate_mean: Fraction | None = None
    ci_half_width: Fraction | None = None
    samples: int | None = None
    seed: int | None = None

    @property
    def proportion(self) -> Fraction:
        """Solution density: exact count / |G|^{3d}, or the sampled mean."""
        if self.mode == "exact":
            return Fraction(self.count, self.space_size)
        return self.estimate_mean


def count_solutions_exact(
    w: Word, G: GroupTable, d: int | None = None,
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
    the refusal point where the benchmark's refused D16 case expects it.
    ``wv`` is the word table ``_tables.word_values(w, G, d)`` when the
    caller already has it.
    """
    if d is None:
        d = max(w.arity, 1)
    n = G.n
    size = n ** d
    space = size ** 3
    if space > iter_budget:
        raise BudgetExceededError(
            f"exact census covers {space} triples, budget {iter_budget}"
        )
    _tables.check_table_budget(size * size * (d + 1), table_budget)
    if wv is None:
        wv = _tables.word_values(w, G, d, table_budget)
    M = G.mul
    # wp[a, b] = w(ab): first the index of the componentwise product ab in
    # G^d, then the word's value there (one n^{2d} array, not two).
    wp = np.zeros((size, size), dtype=np.int64)
    for c, r in zip(_tables.coordinate_columns(n, d), _tables.radices(n, d)):
        wp += M[c[:, None], c[None, :]] * r
    wp = wv[wp]
    winv = G.inv[wv]
    xn = np.arange(size, dtype=np.int64) * n
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
    w: Word, G: GroupTable, samples: int, seed: int,
    d: int | None = None,
    table_budget: int = DEFAULT_TABLE_BUDGET,
    wv: np.ndarray | None = None,
) -> CensusResult:
    """Sampled census: uniform i.i.d. triples from (G^d)^3.

    Sample j of chunk i uses draws 3dj..3dj+3d-1 of the SplitMix64 stream
    seeded with derive_seed(seed, i); chunks have the fixed size CHUNK.  The
    mean is the exact hit fraction; the half-width is the 95% normal
    approximation z * sqrt(p(1-p)/samples) with z = 49/25 and the square root
    taken by integer arithmetic, so identical (seed, samples) reproduce the
    result bit for bit on any platform.  ``wv`` is as in
    ``count_solutions_exact``.
    """
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {samples}")
    if d is None:
        d = max(w.arity, 1)
    n = G.n
    size = n ** d
    if wv is None:
        wv = _tables.word_values(w, G, d, table_budget)
    # Flat tables: mul[a*n + b] = ab and quot[a*n + b] = a^-1 b.
    mul = G.mul.ravel()
    quot = G.mul[G.inv].ravel()

    def index(coords: np.ndarray) -> np.ndarray:
        """Mixed-radix index of the tuples whose coordinates are the rows."""
        out = coords[0]
        for c in coords[1:]:
            out = out * n
            out += c
        return out

    hits = 0
    for lo in range(0, samples, CHUNK):
        m = min(CHUNK, samples - lo)
        draws = randbelow_block(derive_seed(seed, lo // CHUNK), n, m * 3 * d)
        # Row j holds coordinate j of every sample, contiguously.
        cols = draws.reshape(m, 3 * d).T.copy()
        s, t, u = cols[:d], cols[d:2 * d], cols[2 * d:]
        # s^-1 t u, one coordinate per row.
        stu = quot[s * n + t]
        stu *= n
        stu += u
        lhs = wv[index(mul[stu])]
        rhs = quot[wv[index(s)] * n + wv[index(t)]]
        rhs *= n
        rhs += wv[index(u)]
        hits += int(np.count_nonzero(lhs == mul[rhs]))
    mean = Fraction(hits, samples)
    hw = Z95 * _sqrt_fraction(mean * (1 - mean) / samples)
    return CensusResult(
        mode="estimate",
        space_size=size ** 3,
        estimate_mean=mean,
        ci_half_width=hw,
        samples=samples,
        seed=seed,
    )


# -- membership-set statistics over X = G^d ----------------------------------

def _as_flags(S, size: int) -> np.ndarray:
    flags = np.asarray(S, dtype=bool)
    if flags.shape != (size,):
        raise ValueError(f"membership flags must have length {size}")
    if not flags.any():
        raise ValueError("S must be nonempty")
    return flags


def _translate_tables(S, G: GroupTable, d: int, table_budget: int):
    """c(g) = |S ∩ gS| and p(g) = |S ∩ Sg^-1| for every g in G^d.

    p(g) also counts the ordered pairs (s, t) in S^2 with s^-1 t = g, which
    is what makes both the pair count and the triple count linear scans.
    """
    n = G.n
    size = n ** d
    flags = _as_flags(S, size)
    members = np.nonzero(flags)[0]
    m = len(members)
    _tables.check_table_budget(size * m * (d + 1), table_budget)
    M, inv = G.mul, G.inv
    rads = _tables.radices(n, d)
    gcols = _tables.coordinate_columns(n, d)
    mcols = [c[members] for c in gcols]

    left = np.zeros((size, m), dtype=np.int64)   # g^-1 * member
    right = np.zeros((m, size), dtype=np.int64)  # member * g
    for i in range(d):
        left += M[inv[gcols[i]][:, None], mcols[i][None, :]] * rads[i]
        right += M[mcols[i][:, None], gcols[i][None, :]] * rads[i]
    # y in S ∩ gS  <=>  y in S and g^-1 y in S; sum over y in S.
    c = flags[left].sum(axis=1, dtype=np.int64)
    # y in S ∩ Sg^-1  <=>  y in S and y g in S.
    p = flags[right].sum(axis=0, dtype=np.int64)

    inv_index = np.zeros(size, dtype=np.int64)
    for i in range(d):
        inv_index += inv[gcols[i]] * rads[i]
    return c, p, inv_index


def translate_pair_count(
    S, G: GroupTable, d: int, threshold: Fraction,
    table_budget: int = DEFAULT_TABLE_BUDGET,
) -> int:
    """Ordered pairs (s, t) in S^2 whose translate overlap |sS ∩ tS| reaches
    threshold * |G|^d.  The overlap depends only on g = s^-1 t, and the pairs
    with a given quotient g number |S ∩ Sg^-1|."""
    thr = Fraction(threshold)
    size = G.n ** d
    c, p, _ = _translate_tables(S, G, d, table_budget)
    qualifying = c * thr.denominator >= thr.numerator * size
    return int(p[qualifying].sum())


def triple_count(
    S, G: GroupTable, d: int,
    iter_budget: int = DEFAULT_ITER_BUDGET,
    table_budget: int = DEFAULT_TABLE_BUDGET,
) -> int:
    """Ordered triples (s, t, u) in S^3 with s^-1 t u in S.

    For fixed (s, t) the valid u form S ∩ (t^-1 s) S, of size c((s^-1 t)^-1);
    grouping pairs by their quotient gives sum over g of p(g) c(g^-1).
    """
    flags = _as_flags(S, G.n ** d)
    m = int(flags.sum())
    if m * m > iter_budget:
        raise BudgetExceededError(
            f"triple count needs {m * m} pair iterations, budget {iter_budget}"
        )
    c, p, inv_index = _translate_tables(S, G, d, table_budget)
    return int((p * c[inv_index]).sum())


# -- verifiers ----------------------------------------------------------------

@dataclass(frozen=True)
class TheoremReport:
    """Everything verify_theorem measured, with individual pass flags."""

    group: str
    word: str
    d: int
    order: int
    s_size: int
    rho: Fraction
    bounds: BoundTriple
    required: Fraction             # f(rho) |G|^{3d}
    solutions: CensusResult
    pair_threshold: Fraction       # f2(rho) |G|^d
    required_pairs: Fraction       # f1(rho) |G|^{2d}
    qualifying_pairs: int | None
    triples: int | None
    required_triples: Fraction     # f1 f2 |G|^{3d}
    pass_solutions: bool
    pass_pairs: bool | None
    pass_triples: bool | None
    pass_chain: bool | None        # solutions >= triples (exact mode only)
    checks_run: tuple[str, ...]

    @property
    def passed(self) -> bool:
        flags = [self.pass_solutions, self.pass_pairs, self.pass_triples,
                 self.pass_chain]
        return all(f for f in flags if f is not None)


def verify_theorem(
    w: Word, G: GroupTable, d: int | None = None, *,
    samples: int | None = None, seed: int = 0,
    hom_budget: int = 10_000_000,
    iter_budget: int = DEFAULT_ITER_BUDGET,
    table_budget: int = DEFAULT_TABLE_BUDGET,
    hom: np.ndarray | None = None,
) -> TheoremReport:
    """Measure rho*, evaluate the bound, and check the census against it.

    With ``samples=None`` the census is exact (a budget overrun is an error);
    otherwise the sampled mean is compared against the required density and
    the report's census mode says so.  ``hom``, a (d, n) component table,
    skips the hom-set search and scores that homomorphism instead.
    """
    if d is None:
        d = max(w.arity, 1)
    n = G.n
    size = n ** d
    space = size ** 3
    if hom is not None and len(hom) != d:
        raise ValueError(f"hom has d = {len(hom)}, expected {d}")
    # One word table serves the hom scoring, the agreement set and the census.
    wv = _tables.word_values(w, G, d, table_budget)
    if hom is not None:
        phi = hom
        flags = agreement_set(w, G, phi, table_budget, wv=wv)
        rho = Fraction(int(flags.sum()), size)
    else:
        rho, phi = best_agreement(w, G, d, hom_budget, table_budget, wv=wv)
        flags = agreement_set(w, G, phi, table_budget, wv=wv)
    s_size = int(flags.sum())
    bt = bound_triple(rho)
    required = bt.f * space
    checks = []

    if samples is None:
        census = count_solutions_exact(
            w, G, d, iter_budget, table_budget, wv=wv
        )
        pass_solutions = Fraction(census.count) >= required
        checks.append("census-exact")
    else:
        census = estimate_solutions(
            w, G, samples, seed, d, table_budget, wv=wv
        )
        pass_solutions = census.estimate_mean >= bt.f
        checks.append("census-estimate")

    pair_threshold = bt.f2 * size
    required_pairs = bt.f1 * size * size
    required_triples = bt.f1 * bt.f2 * space
    qual = triples = None
    pass_pairs = pass_triples = pass_chain = None
    if size * s_size * (d + 1) <= table_budget and \
            s_size * s_size <= iter_budget:
        qual = translate_pair_count(flags, G, d, bt.f2, table_budget)
        pass_pairs = Fraction(qual) >= required_pairs
        triples = triple_count(flags, G, d, iter_budget, table_budget)
        pass_triples = Fraction(triples) >= required_triples
        checks.append("pairs")
        checks.append("triples")
        if census.mode == "exact":
            pass_chain = census.count >= triples
            checks.append("chain")

    return TheoremReport(
        group=G.name or f"order-{n}",
        word=str(w),
        d=d,
        order=n,
        s_size=s_size,
        rho=rho,
        bounds=bt,
        required=required,
        solutions=census,
        pair_threshold=pair_threshold,
        required_pairs=required_pairs,
        qualifying_pairs=qual,
        triples=triples,
        required_triples=required_triples,
        pass_solutions=pass_solutions,
        pass_pairs=pass_pairs,
        pass_triples=pass_triples,
        pass_chain=pass_chain,
        checks_run=tuple(checks),
    )


def power_equation_count(
    e: int, G: GroupTable, iter_budget: int = DEFAULT_ITER_BUDGET
) -> int:
    """|{(x, y, z) in G^3 : (xyz)^e = x^e y^e z^e}|, by direct iteration."""
    n = G.n
    if n ** 3 > iter_budget:
        raise BudgetExceededError(
            f"power equation census needs {n ** 3} iterations, "
            f"budget {iter_budget}"
        )
    M = G.mul
    pe = power_table(G, e)
    pow_prod = M[pe[:, None], pe[None, :]]  # x^e y^e
    total = 0
    for z in range(n):
        lhs = pe[M[M, z]]
        rhs = M[pow_prod, pe[z]]
        total += int((lhs == rhs).sum())
    return total


def verify_mann_equivalence(
    e: int, G: GroupTable, iter_budget: int = DEFAULT_ITER_BUDGET
) -> bool:
    """Does the substitution x -> x^-1 identity hold on G?  Compares the
    direct count of (xyz)^e = x^e y^e z^e with the derived census of x1^e."""
    direct = power_equation_count(e, G, iter_budget)
    derived = count_solutions_exact(
        reduce([(1, e)]), G, 1, iter_budget
    ).count
    return direct == derived


@dataclass(frozen=True)
class CommutingReport:
    """Commuting-probability floor check for one group."""

    group: str
    rho: Fraction
    commuting_probability: Fraction
    bound: Fraction
    equation_samples: int
    equation_consistent: bool
    pass_bound: bool

    @property
    def passed(self) -> bool:
        return self.pass_bound and self.equation_consistent


def verify_commuting_corollary(
    G: GroupTable, *,
    equation_samples: int = 1000, seed: int = 0,
    hom_budget: int = 10_000_000,
    table_budget: int = DEFAULT_TABLE_BUDGET,
) -> CommutingReport:
    """Check cp(G) >= eps/(2 - eps) at eps = f(rho*) for w = x1 x2, and
    sample-check that the five-variable commutation identity

        s1 s2 s1^-1 = t1 t2 u1 t2^-1 s2 u1^-1 t1^-1

    holds exactly when (s1,s2,t1,t2,u1,u2) solves the derived equation of
    x1 x2 (the last coordinate cancels, so u2 is free)."""
    w = Word(((1, 1), (2, 1)))
    rho, _ = best_agreement(w, G, 2, hom_budget, table_budget)
    cp = commuting_probability(G)
    bound = commuting_bound(rho)
    v = derived_word(w)
    M, inv = G.mul, G.inv
    m = equation_samples
    cols = randbelow_block(seed, G.n, m * 6).reshape(m, 6).T
    s1, s2, t1, t2, u1, _ = cols
    lhs = M[M[s1, s2], inv[s1]]
    rhs = t1
    for x in (t2, u1, inv[t2], s2, inv[u1], inv[t1]):
        rhs = M[rhs, x]
    solves = _tables.evaluate_columns(v, G, cols, m) == 0
    ok = bool(((lhs == rhs) == solves).all())
    return CommutingReport(
        group=G.name or f"order-{G.n}",
        rho=rho,
        commuting_probability=cp,
        bound=bound,
        equation_samples=equation_samples,
        equation_consistent=ok,
        pass_bound=cp >= bound,
    )
