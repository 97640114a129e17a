import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordmaplab import build, census, homset
from wordmaplab.bounds import commuting_bound, f as bound_triple
from wordmaplab.census import (
    CHUNK,
    count_solutions_exact,
    estimate_solutions,
    fiber_stats,
    power_equation_count,
    translate_counts,
    verify_commuting_corollary,
    verify_theorem,
)
from wordmaplab.errors import BudgetExceededError
from wordmaplab.freeword import EMPTY, derived_word, parse_word, reduce
from wordmaplab.group import GroupTable
from wordmaplab.homset import best_agreement, endomorphisms
from wordmaplab.rng import SplitMix64
from wordmaplab._tables import word_values

from conftest import (BATTERY_SPECS, agreement_set, element_power,
                      estimator_hits, evaluate_word, naive_census,
                      plane_census)

COMMUTATOR = "x1*x2*x1^-1*x2^-1"


def test_word_map_table_pinned(groups):
    assert list(word_values(parse_word("x1^2"), groups["C3"], 1)) == [0, 2, 1]

    ident = word_values(parse_word("x1"), groups["S3"], 1)
    assert list(ident) == list(range(6))

    empty = word_values(EMPTY, groups["C4"], 2)
    assert not empty.any()
    assert len(empty) == 16


def test_word_map_table_matches_scalar_evaluation(groups):
    gen = SplitMix64(2718)
    for spec, d in (("S3", 2), ("Q8", 2), ("A4", 1)):
        G = groups[spec]
        w = parse_word("x1*x2^-1*x1" if d == 2 else "x1^3")
        values = word_values(w, G, d)
        for _ in range(250):
            tup = tuple(gen.randbelow(G.n) for _ in range(d))
            idx = 0
            for g in tup:
                idx = idx * G.n + g
            assert values[idx] == evaluate_word(w, G, tup)


def test_fiber_stats_pinned(groups):
    st = fiber_stats(parse_word("x1^2"), groups["C4"], 1)
    assert st.counts == (2, 0, 2, 0)
    assert st.histogram == {2: 2, 0: 2}
    assert st.max_fiber == Fraction(1, 2)

    ident = fiber_stats(parse_word("x1"), groups["Q8"], 1)
    assert ident.histogram == {1: 8}
    assert ident.max_fiber == Fraction(1, 8)


def test_fiber_stats_total(groups):
    for spec, text, d in (("S3", COMMUTATOR, 2), ("D4", "x1^2", 1)):
        st = fiber_stats(parse_word(text), groups[spec], d)
        assert sum(st.counts) == st.domain_size


# Counts confirmed against naive_census (independent scalar double
# evaluation) in the oracle test below before pinning here.
EXACT_PINNED = [
    ("S3", "x1^2", 1, 108),
    ("S3", "x1*x2", 2, 17496),
    ("C4", "x1*x2", 2, 4096),
    ("Q8", "x1^3", 1, 320),
    ("C2xC2", COMMUTATOR, 2, 4096),
    ("S3", "1", 0, 1),
]


@pytest.mark.parametrize("spec,text,d,expected", EXACT_PINNED)
def test_exact_census_pinned_and_oracle(spec, text, d, expected, groups):
    G = groups[spec]
    w = parse_word(text)
    res = count_solutions_exact(w, G, d)
    assert res.count == expected
    assert res.space_size == G.n ** (3 * d)
    assert res.count == naive_census(w, G, d)
    assert res.proportion == Fraction(expected, G.n ** (3 * d))


# Past the naive oracle's reach: up to 256^3 triples, or 216^3 at d = 3.
@pytest.mark.parametrize("spec,text,d", [
    ("A4", "x1^2*x2^3", 2),
    ("D8", "x1^2*x2", 2),
    ("S3", "x1*x2^-1*x3^2", 3),
    ("C4xC4", "x1*x2", 2),
    ("Q8", COMMUTATOR, 2),
])
def test_exact_census_matches_plane_oracle(spec, text, d, extended_groups):
    G = extended_groups[spec]
    w = parse_word(text)
    assert count_solutions_exact(w, G, d).count == plane_census(w, G, d)


def test_dihedral_square_census_closed_form():
    # For odd n, the triple equation of x1^2 on D_n at d = 1 has 2n^2(n+3)
    # solutions: n^3 with no reflection among s, t, u, 3n^2 with one, 3n^2
    # with two and n^3 with three.
    w = parse_word("x1^2")
    for n in range(3, 106, 2):
        assert count_solutions_exact(w, build(f"D{n}"), 1).count == \
            2 * n * n * (n + 3), n


def relabelled(G, perm):
    """G with element g renamed perm[g]; perm[0] == 0 keeps the identity."""
    p = np.asarray(perm, dtype=np.int64)
    mul = np.empty_like(G.mul)
    mul[np.ix_(p, p)] = p[G.mul]
    inv = np.empty_like(G.inv)
    inv[p] = p[G.inv]
    return GroupTable(mul=mul, inv=inv, name=G.name)


@settings(max_examples=30, deadline=None)
@given(spec=st.sampled_from(BATTERY_SPECS), d=st.sampled_from([1, 2]),
       data=st.data())
def test_relabelling_invariance(groups, spec, d, data):
    G = groups[spec]
    H = relabelled(G, [0] + data.draw(st.permutations(range(1, G.n))))
    # reduce drops zero exponents and cancels, so w may come out empty.
    w = reduce(data.draw(st.lists(
        st.tuples(st.integers(1, d), st.integers(-3, 3)), max_size=4)))
    assert count_solutions_exact(w, H, d) == count_solutions_exact(w, G, d)
    assert best_agreement(w, H, d)[0] == best_agreement(w, G, d)[0]
    assert fiber_stats(w, H, d).histogram == fiber_stats(w, G, d).histogram


def test_exact_census_repeatable(groups):
    w = parse_word("x1*x2")
    a = count_solutions_exact(w, groups["S3"], 2)
    b = count_solutions_exact(w, groups["S3"], 2)
    assert a == b


def test_exact_census_matches_derived_word_values(groups):
    # The census equation and the derived word must agree tuple by tuple:
    # same total count, and the same verdict on random spot checks.
    gen = SplitMix64(515)
    for spec in ("C1", "C2", "C3", "C4", "C5", "C6", "S3"):
        G = groups[spec]
        for text, d in (("x1^2", 1), ("x1*x2", 2), (COMMUTATOR, 2)):
            w = parse_word(text)
            v = derived_word(w)
            vals = word_values(v, G, 3 * d)
            count = int((vals == 0).sum())
            assert count == count_solutions_exact(w, G, d).count
            for _ in range(20):
                tup = tuple(gen.randbelow(G.n) for _ in range(3 * d))
                s, t, u = tup[:d], tup[d:2 * d], tup[2 * d:]
                arg = [
                    G.mul[G.mul[G.inv[s[i]]][t[i]]][u[i]] for i in range(d)
                ]
                lhs = evaluate_word(w, G, arg)
                rhs = G.mul[
                    G.mul[G.inv[evaluate_word(w, G, s)]][
                        evaluate_word(w, G, t)
                    ]
                ][evaluate_word(w, G, u)]
                assert (evaluate_word(v, G, tup) == 0) == (lhs == rhs)


def test_exact_census_budget(groups):
    with pytest.raises(BudgetExceededError):
        count_solutions_exact(parse_word("x1*x2"), groups["S3"], 2,
                              iter_budget=1000)
    # 32^6 triples exceed the default budget; the benchmark's refused D16
    # case depends on this refusal point.
    with pytest.raises(BudgetExceededError):
        count_solutions_exact(parse_word("x1*x2"), build("D16"), 2)


def test_estimator_deterministic(groups):
    w = parse_word("x1^2")
    a = estimate_solutions(w, groups["S3"], 10_000, 0, 1)
    b = estimate_solutions(w, groups["S3"], 10_000, 0, 1)
    assert a == b
    assert a.estimate_mean == Fraction(633, 1250)
    assert a.mode == "estimate" and a.seed == 0 and a.samples == 10_000


def test_estimator_pinned_d2():
    est = estimate_solutions(parse_word("x1*x2"), build("S4"), 20_000, 0, 2)
    assert est.estimate_mean == Fraction(523, 5000)
    assert est.ci_half_width == Fraction(26509130193, 6250000000000)


@pytest.mark.parametrize("spec,text,d", [
    ("S3", "x1^2", 1),
    ("S4", "x1*x2", 2),
    ("A4", "x1*x2^-1*x3^2", 3),
])
def test_estimator_matches_scalar_oracle(spec, text, d, groups):
    # Sample counts that end in a partial chunk; d sets 3d draws a sample.
    G = groups[spec] if spec in groups else build(spec)
    w = parse_word(text)
    for samples, seed in ((8193, 1), (20_000, 7)):
        est = estimate_solutions(w, G, samples, seed, d)
        hits = estimator_hits(w, G, samples, seed, d)
        assert est.estimate_mean == Fraction(hits, samples), samples


def test_estimator_covers_true_value(groups):
    # Deterministic given the pinned seed; the interval contains p = 1/2.
    est = estimate_solutions(parse_word("x1^2"), groups["S3"], 10_000, 0, 1)
    assert abs(est.estimate_mean - Fraction(1, 2)) <= est.ci_half_width


def test_estimator_saturated_and_degenerate(groups):
    est = estimate_solutions(parse_word("x1*x2"), groups["C4"], 1500, 9, 2)
    assert est.estimate_mean == 1
    assert est.ci_half_width == 0

    one = estimate_solutions(parse_word("x1^2"), groups["C1"], 1000, 5, 1)
    assert one.estimate_mean == 1


def test_estimator_needs_min_samples(groups):
    with pytest.raises(ValueError):
        estimate_solutions(parse_word("x1^2"), groups["S3"], 999, 0, 1)


def test_estimator_chunking_is_stable(groups):
    # More than one chunk; a second run with the same seed repeats it.
    w = parse_word("x1^2")
    m = CHUNK + 123
    a = estimate_solutions(w, groups["S3"], m, 3, 1)
    b = estimate_solutions(w, groups["S3"], m, 3, 1)
    assert a == b


def flags_for(G, members):
    flags = np.zeros(G.n, dtype=bool)
    flags[list(members)] = True
    return flags


def pairs_of(S, G, d, threshold):
    return translate_counts(S, G, d, threshold)[0]


def triples_of(S, G, d, **budgets):
    return translate_counts(S, G, d, Fraction(0), **budgets)[1]


def test_translate_pair_partition_identity(groups):
    # At threshold 0 every pair qualifies, so the count is |S|^2 exactly.
    G = groups["S3"]
    gen = SplitMix64(88)
    for _ in range(20):
        members = {gen.randbelow(G.n) for _ in range(1 + gen.randbelow(5))}
        S = flags_for(G, members)
        assert pairs_of(S, G, 1, Fraction(0)) == len(members) ** 2


def test_translate_pair_count_extremes(groups):
    G = groups["C6"]
    full = np.ones(6, dtype=bool)
    assert pairs_of(full, G, 1, Fraction(1)) == 36
    half = flags_for(G, {0, 1, 2})
    assert pairs_of(half, G, 1, Fraction(1)) == 0
    single = flags_for(G, {0})
    assert pairs_of(single, G, 1, Fraction(1, 6)) == 1


def test_triple_count_closed_sets(groups):
    G = groups["C6"]
    assert triples_of(np.ones(6, dtype=bool), G, 1) == 216
    sub = flags_for(G, {0, 3})  # a subgroup: closed under the equation
    assert triples_of(sub, G, 1) == 8


def tuple_ops(G, d):
    """Componentwise product and inverse of G^d indices, one coordinate at a
    time, with the index order of ``itertools.product`` (last fastest)."""
    tuples = list(itertools.product(range(G.n), repeat=d))
    index = {t: i for i, t in enumerate(tuples)}

    def mul(a, b):
        return index[tuple(int(G.mul[x, y])
                           for x, y in zip(tuples[a], tuples[b]))]

    def inv(a):
        return index[tuple(int(G.inv[x]) for x in tuples[a])]

    return mul, inv


def random_members(gen, size, count):
    """A random nonempty member list of at most ``count`` indices."""
    draws = 1 + gen.randbelow(count)
    return sorted({gen.randbelow(size) for _ in range(draws)})


def test_triple_count_oracle(groups):
    gen = SplitMix64(4242)
    for spec, d, count, rounds in (("S3", 1, 4, 15), ("S3", 2, 14, 6),
                                   ("Q8", 2, 20, 6)):
        G = groups[spec]
        size = G.n ** d
        mul, inv = tuple_ops(G, d)
        for _ in range(rounds):
            members = random_members(gen, size, count)
            S = np.zeros(size, dtype=bool)
            S[members] = True
            brute = sum(
                S[mul(mul(inv(s), t), u)]
                for s, t, u in itertools.product(members, repeat=3)
            )
            assert triples_of(S, G, d) == brute, (spec, d, members)


def test_translate_pair_count_oracle(groups):
    # |sS ∩ tS| taken literally, as the intersection of the two translates.
    gen = SplitMix64(977)
    for spec, d, count in (("S3", 1, 6), ("S3", 2, 40), ("Q8", 2, 70)):
        G = groups[spec]
        size = G.n ** d
        mul, _ = tuple_ops(G, d)
        draws = [random_members(gen, size, count) for _ in range(6)]
        for members in draws + [list(range(size))]:
            S = np.zeros(size, dtype=bool)
            S[members] = True
            translates = {s: {mul(s, x) for x in members} for s in members}
            for thr in (Fraction(0), Fraction(1, 7), Fraction(1, 2),
                        Fraction(1)):
                brute = sum(
                    len(translates[s] & translates[t]) >= thr * size
                    for s, t in itertools.product(members, repeat=2)
                )
                assert pairs_of(S, G, d, thr) == brute, \
                    (spec, d, members, thr)


def test_triple_count_budget(groups):
    with pytest.raises(BudgetExceededError):
        triples_of(np.ones(6, dtype=bool), groups["C6"], 1, iter_budget=10)


def test_translate_gate_boundary(groups):
    # The pair/triple step holds 2 |S|^2 cells at once.  The hom is given,
    # so hom scoring does not bind, and the census is sampled, holding
    # 9 * 2 * 1000 cells of draws, fewer than 2 |S|^2: the step runs at
    # 2 |S|^2 and is left out one below.  Here S is x1^2 = 1 in S4^2, where
    # x2 x1^2 agrees with the hom (1, id), so |S| = 24 * 10.
    G = build("S4")
    w = parse_word("x2*x1^2")
    phi = np.stack([np.zeros(G.n, dtype=np.int64), np.arange(G.n)])
    S = agreement_set(w, G, phi)
    m = int(S.sum())
    assert m == 240 and 2 * m * m - 1 >= 9 * 2 * 1000
    f2 = bound_triple(Fraction(m, G.n ** 2)).f2
    rep = verify_theorem(w, G, 2, hom=phi, samples=1000,
                         table_budget=2 * m * m)
    assert rep.checks_run == ("census-estimate", "pairs", "triples")
    assert (rep.qualifying_pairs, rep.triples) == translate_counts(
        S, G, 2, f2, table_budget=2 * m * m)
    rep = verify_theorem(w, G, 2, hom=phi, samples=1000,
                         table_budget=2 * m * m - 1)
    assert rep.qualifying_pairs is None and rep.triples is None
    assert rep.pass_pairs is None and rep.pass_triples is None
    assert rep.checks_run == ("census-estimate",)
    with pytest.raises(BudgetExceededError):
        translate_counts(S, G, 2, f2, table_budget=2 * m * m - 1)
    # The |S|^2 iteration gate skips the step the same way.
    rep = verify_theorem(w, G, 2, hom=phi, samples=1000,
                         iter_budget=m * m - 1)
    assert rep.checks_run == ("census-estimate",)
    # Over S3, 2 |S|^2 = 288 cells cannot hold the sampled census's draws.
    S3 = groups["S3"]
    with pytest.raises(BudgetExceededError,
                       match="^sampled census chunk needs 18000, budget 288$"):
        verify_theorem(w, S3, 2, hom=endomorphisms(S3)[[0, 1]],
                       samples=1000, table_budget=288)


@pytest.mark.parametrize("iter_budget", [None, 10])
def test_verify_theorem_computes_bound_once(groups, monkeypatch,
                                            iter_budget):
    # The report's f(rho) serves the pair step and every floor and verdict
    # read after it, whether that step runs or is refused.
    calls = []

    def counted(rho):
        calls.append(rho)
        return bound_triple(rho)

    monkeypatch.setattr(census, "bound_triple", counted)
    budgets = {} if iter_budget is None else {"iter_budget": iter_budget}
    G = groups["S3"]
    rep = verify_theorem(parse_word("x1^2"), G, 1,
                         hom=endomorphisms(G)[[0]], samples=1000, **budgets)
    assert (rep.triples is None) == (iter_budget is not None)
    rep.passed, rep.required, rep.pair_threshold, rep.required_pairs
    assert len(calls) == 1


def test_exact_census_table_gate(groups):
    # The census holds three |G|^{2d} tables at once: 3 * 36 = 108 at d = 1.
    w = parse_word("x1^2")
    with pytest.raises(BudgetExceededError):
        count_solutions_exact(w, groups["S3"], 1, table_budget=107)
    assert count_solutions_exact(w, groups["S3"], 1,
                                 table_budget=108).count == 108


def test_empty_set_rejected(groups):
    with pytest.raises(ValueError):
        triples_of(np.zeros(6, dtype=bool), groups["C6"], 1)


def test_flag_length_checked(groups):
    with pytest.raises(ValueError, match="must have length 36"):
        triples_of(np.ones(6, dtype=bool), groups["C6"], 2)


def test_verify_theorem_s3_square(groups):
    rep = verify_theorem(parse_word("x1^2"), groups["S3"], 1)
    assert rep.rho == Fraction(2, 3)
    assert rep.s_size == 4
    assert rep.solutions.count == 108
    assert rep.required == Fraction(4, 27)
    assert rep.qualifying_pairs == 16
    assert rep.triples == 46
    assert rep.checks_run == ("census-exact", "pairs", "triples", "chain")
    assert rep.passed
    # chain direction: census dominates the triple count
    assert rep.solutions.count >= rep.triples

    # independent recount of the triple figure over the agreement set,
    # which here is exactly the square roots of the identity
    G = groups["S3"]
    members = [g for g in range(6) if G.mul[g][g] == 0]
    assert len(members) == rep.s_size
    brute = sum(
        G.mul[G.mul[G.inv[s]][t]][u] in members
        for s, t, u in itertools.product(members, repeat=3)
    )
    assert brute == rep.triples


def test_verify_theorem_counts_match_public_functions(groups):
    # verify_theorem's pair and triple figures are those of translate_counts
    # at the f2 threshold.  Here S is not closed under inverses, so the two
    # quotient histograms differ, and swapping them would change both
    # figures.
    G = groups["S3"]
    w = parse_word("x2*x1^2")
    phi = endomorphisms(G)[[0, 1]]
    rep = verify_theorem(w, G, 2, hom=phi)
    assert rep.checks_run == ("census-exact", "pairs", "triples", "chain")
    S = agreement_set(w, G, phi)
    assert int(S.sum()) == rep.s_size == 12
    assert (rep.qualifying_pairs, rep.triples) == translate_counts(
        S, G, 2, rep.bounds.f2)
    assert rep.qualifying_pairs == 140


def test_verify_theorem_abelian_saturation(groups):
    rep = verify_theorem(parse_word("x1*x2"), groups["C4"], 2)
    assert rep.rho == 1
    assert rep.solutions.count == rep.solutions.space_size == 4096
    assert rep.passed


def test_verify_theorem_trivial_group(groups):
    rep = verify_theorem(parse_word("x1^2"), groups["C1"], 1)
    assert rep.rho == 1
    assert rep.solutions.count == 1
    assert rep.passed


def test_verify_theorem_estimate_mode(groups):
    rep = verify_theorem(parse_word("x1^2"), groups["S3"], 1, samples=2000,
                         seed=1)
    assert rep.solutions.mode == "estimate"
    assert "census-estimate" in rep.checks_run
    assert rep.pass_chain is None
    assert rep.passed


def test_verify_theorem_with_given_hom(groups):
    G = groups["C4"]
    ident = [0, 1, 2, 3]
    rep = verify_theorem(parse_word("x1*x2"), G, 2,
                         hom=np.array([ident, ident]))
    assert rep.rho == 1
    with pytest.raises(ValueError):
        verify_theorem(parse_word("x1*x2"), G, 2, hom=np.array([ident]))


def test_verify_theorem_rejects_non_homs(groups):
    # A given table is checked before it is scored: the first component
    # below swaps the images of 1 and 2, so it is not an endomorphism of C4,
    # and scoring it would report rho = 1/2 and a pass.
    C4, ident = groups["C4"], [0, 1, 2, 3]
    w = parse_word("x1*x2")
    with pytest.raises(ValueError, match="not an endomorphism"):
        verify_theorem(w, C4, 2, hom=np.array([[0, 2, 1, 3], ident]))
    with pytest.raises(ValueError, match="table of ids"):
        verify_theorem(w, C4, 2, hom=np.array([[0, 1, 2, -1], ident]))
    with pytest.raises(ValueError, match="table of ids"):
        verify_theorem(w, C4, 2, hom=[[0, 1, 2], [0, 1, 2]])
    S3 = groups["S3"]
    with pytest.raises(ValueError, match="components 0 and 1"):
        verify_theorem(w, S3, 2, hom=[list(range(6))] * 2)


def test_verify_theorem_checks_a_hom_once(groups, monkeypatch):
    # A given table is checked once, before the word table is built; a
    # searched hom is built from checked endomorphisms and not re-checked.
    calls = []
    check_hom = homset.check_hom

    def counted(*args):
        calls.append(args)
        return check_hom(*args)

    monkeypatch.setattr(homset, "check_hom", counted)
    monkeypatch.setattr(census, "check_hom", counted)
    C4, ident = groups["C4"], [0, 1, 2, 3]
    w = parse_word("x1*x2")
    rep = verify_theorem(w, C4, 2, hom=np.array([ident, ident]))
    assert rep.rho == 1 and len(calls) == 1
    calls.clear()
    rep = verify_theorem(w, C4, 2)
    assert rep.rho == 1 and calls == []


def test_power_equation_count_oracle(groups):
    G = groups["S3"]
    for e in (-1, 2, 3):
        brute = 0
        for x, y, z in itertools.product(range(6), repeat=3):
            lhs = element_power(G, G.mul[G.mul[x][y]][z], e)
            rhs = G.mul[
                G.mul[element_power(G, x, e)][element_power(G, y, e)]
            ][element_power(G, z, e)]
            brute += lhs == rhs
        assert power_equation_count(e, G) == brute


def test_verify_mann(groups):
    def mann_holds(e, G):
        derived = count_solutions_exact(reduce([(1, e)]), G, 1).count
        return power_equation_count(e, G) == derived

    for spec in ("S3", "C6"):
        for e in (-1, 2, 3):
            assert mann_holds(e, groups[spec])
    # e = 1 degenerates to a tautology on both sides
    assert mann_holds(1, groups["Q8"])


def test_verify_commuting_corollary_nonabelian(groups):
    for spec, cp in (("S3", Fraction(1, 2)), ("Q8", Fraction(5, 8))):
        rep = verify_commuting_corollary(groups[spec], seed=3)
        assert rep.commuting_probability == cp
        assert rep.bound == commuting_bound(rep.rho)
        assert rep.equation_consistent
        assert rep.passed


def test_verify_commuting_corollary_abelian(groups):
    rep = verify_commuting_corollary(groups["C6"])
    assert rep.rho == 1
    assert rep.bound == Fraction(1, 287)
    assert rep.commuting_probability == 1
    assert rep.passed


def test_required_quantities_consistent(groups):
    rep = verify_theorem(parse_word("x1^3"), groups["Q8"], 1)
    bt = bound_triple(rep.rho)
    n, d = rep.order, rep.d
    assert rep.required == bt.f * n ** (3 * d)
    assert rep.required_pairs == bt.f1 * n ** (2 * d)
    assert rep.required_triples == bt.f1 * bt.f2 * n ** (3 * d)
    assert rep.pair_threshold == bt.f2 * n ** d


def test_theorem_on_every_short_word(groups):
    # Every reduced word of at most 4 letters in at most 2 variables, on
    # every battery group of order <= 8: the theorem holds, the chain check
    # runs, and the diagonal triples (s, s, u) give count >= |G|^{2d}.  On
    # the groups of order <= 7 the census meets an independent count, taken
    # once per word table, since the census equation reads w only through
    # its values on G^d.
    letters = [(var, sign) for var in (1, 2) for sign in (1, -1)]
    words = {}
    for length in range(5):
        for raw in itertools.product(letters, repeat=length):
            w = reduce(raw)
            if w.length == length:  # no adjacent x_i x_i^-1 cancelled
                words[str(w)] = w
    assert len(words) == 1 + 4 + 4 * 3 + 4 * 9 + 4 * 27
    cases = 0
    for spec, G in groups.items():
        if G.n > 8:
            continue
        oracle = {}
        for w in words.values():
            d = max(w.arity, 1)
            rep = verify_theorem(w, G, d)
            assert rep.passed and "chain" in rep.checks_run, (spec, str(w))
            count = rep.solutions.count
            assert count >= G.n ** (2 * d), (spec, str(w))
            if G.n <= 7:
                key = (d, word_values(w, G, d).tobytes())
                if key not in oracle:
                    oracle[key] = plane_census(w, G, d)
                assert count == oracle[key], (spec, str(w))
            cases += 1
    assert cases == 13 * 161
