import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordmaplab import build
from wordmaplab.bounds import commuting_bound, f as bound_triple
from wordmaplab.census import (
    CHUNK,
    WordMapTable,
    count_solutions_exact,
    dump_word_map_table,
    estimate_solutions,
    fiber_stats,
    load_word_map_table,
    power_equation_count,
    translate_pair_count,
    triple_count,
    verify_commuting_corollary,
    verify_mann_equivalence,
    verify_theorem,
    word_map_table,
)
from wordmaplab.errors import BudgetExceededError
from wordmaplab.freeword import EMPTY, derived_word, parse_word, reduce
from wordmaplab.group import GroupTable
from wordmaplab.homset import best_agreement
from wordmaplab.rng import SplitMix64
from wordmaplab._tables import evaluate_word, word_values

from conftest import BATTERY_SPECS, estimator_hits, naive_census, plane_census

COMMUTATOR = "x1*x2*x1^-1*x2^-1"


def test_word_map_table_pinned(groups):
    t = word_map_table(parse_word("x1^2"), groups["C3"])
    assert list(t.values) == [0, 2, 1]
    assert (t.d, t.n) == (1, 3)

    ident = word_map_table(parse_word("x1"), groups["S3"])
    assert list(ident.values) == list(range(6))

    empty = word_map_table(EMPTY, groups["C4"], d=2)
    assert not empty.values.any()
    assert len(empty.values) == 16


def test_word_map_table_matches_scalar_evaluation(groups):
    gen = SplitMix64(2718)
    for spec, d in (("S3", 2), ("Q8", 2), ("A4", 1)):
        G = groups[spec]
        w = parse_word("x1*x2^-1*x1" if d == 2 else "x1^3")
        t = word_map_table(w, G, d)
        for _ in range(250):
            tup = tuple(gen.randbelow(G.n) for _ in range(d))
            idx = 0
            for g in tup:
                idx = idx * G.n + g
            assert t.values[idx] == evaluate_word(w, G, tup)


def test_word_map_table_validation():
    with pytest.raises(ValueError):
        WordMapTable(d=2, n=3, values=np.zeros(8, dtype=np.int64))


def test_dump_load_round_trip(tmp_path, groups):
    t = word_map_table(parse_word(COMMUTATOR), groups["S3"], 2)
    path = tmp_path / "table.wmt"
    dump_word_map_table(t, path)
    back = load_word_map_table(path)
    assert (back.d, back.n) == (t.d, t.n)
    assert np.array_equal(back.values, t.values)
    assert path.read_bytes()[:4] == b"WMT1"

    bad = tmp_path / "bad.wmt"
    bad.write_bytes(b"NOPE" + bytes(8))
    with pytest.raises(ValueError):
        load_word_map_table(bad)


def test_fiber_stats_pinned(groups):
    st = fiber_stats(parse_word("x1^2"), groups["C4"])
    assert st.counts == (2, 0, 2, 0)
    assert st.histogram == {2: 2, 0: 2}
    assert st.max_fiber == Fraction(1, 2)

    ident = fiber_stats(parse_word("x1"), groups["Q8"])
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


def relabelled(G, perm):
    """G with element g renamed perm[g]; perm[0] == 0 keeps the identity."""
    p = np.asarray(perm, dtype=np.int64)
    mul = np.empty_like(G.mul)
    mul[np.ix_(p, p)] = p[G.mul]
    inv = np.empty_like(G.inv)
    inv[p] = p[G.inv]
    labels = [G.labels[g] for g in np.argsort(p)]
    return GroupTable(n=G.n, mul=mul, inv=inv, labels=labels, name=G.name)


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
    a = estimate_solutions(w, groups["S3"], 10_000, 0)
    b = estimate_solutions(w, groups["S3"], 10_000, 0)
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
    est = estimate_solutions(parse_word("x1^2"), groups["S3"], 10_000, 0)
    assert abs(est.estimate_mean - Fraction(1, 2)) <= est.ci_half_width


def test_estimator_saturated_and_degenerate(groups):
    est = estimate_solutions(parse_word("x1*x2"), groups["C4"], 1500, 9)
    assert est.estimate_mean == 1
    assert est.ci_half_width == 0

    one = estimate_solutions(parse_word("x1^2"), groups["C1"], 1000, 5)
    assert one.estimate_mean == 1


def test_estimator_needs_min_samples(groups):
    with pytest.raises(ValueError):
        estimate_solutions(parse_word("x1^2"), groups["S3"], 999, 0)


def test_estimator_chunking_is_stable(groups):
    # More than one chunk; a second run with the same seed repeats it.
    w = parse_word("x1^2")
    m = CHUNK + 123
    a = estimate_solutions(w, groups["S3"], m, 3)
    b = estimate_solutions(w, groups["S3"], m, 3)
    assert a == b


def flags_for(G, members):
    flags = np.zeros(G.n, dtype=bool)
    flags[list(members)] = True
    return flags


def test_translate_pair_partition_identity(groups):
    # At threshold 0 every pair qualifies, so the count is |S|^2 exactly.
    G = groups["S3"]
    gen = SplitMix64(88)
    for _ in range(20):
        members = {gen.randbelow(G.n) for _ in range(1 + gen.randbelow(5))}
        S = flags_for(G, members)
        assert translate_pair_count(S, G, 1, Fraction(0)) == len(members) ** 2


def test_translate_pair_count_extremes(groups):
    G = groups["C6"]
    full = np.ones(6, dtype=bool)
    assert translate_pair_count(full, G, 1, Fraction(1)) == 36
    half = flags_for(G, {0, 1, 2})
    assert translate_pair_count(half, G, 1, Fraction(1)) == 0
    single = flags_for(G, {0})
    assert translate_pair_count(single, G, 1, Fraction(1, 6)) == 1


def test_triple_count_closed_sets(groups):
    G = groups["C6"]
    assert triple_count(np.ones(6, dtype=bool), G, 1) == 216
    sub = flags_for(G, {0, 3})  # a subgroup: closed under the equation
    assert triple_count(sub, G, 1) == 8


def test_triple_count_oracle(groups):
    G = groups["S3"]
    gen = SplitMix64(4242)
    for _ in range(15):
        members = sorted({gen.randbelow(6) for _ in range(1 + gen.randbelow(4))})
        S = flags_for(G, members)
        brute = sum(
            S[G.mul[G.mul[G.inv[s]][t]][u]]
            for s, t, u in itertools.product(members, repeat=3)
        )
        assert triple_count(S, G, 1) == brute


def test_triple_count_budget(groups):
    with pytest.raises(BudgetExceededError):
        triple_count(np.ones(6, dtype=bool), groups["C6"], 1, iter_budget=10)


def test_empty_set_rejected(groups):
    with pytest.raises(ValueError):
        triple_count(np.zeros(6, dtype=bool), groups["C6"], 1)


def test_verify_theorem_s3_square(groups):
    rep = verify_theorem(parse_word("x1^2"), groups["S3"])
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


def test_verify_theorem_abelian_saturation(groups):
    rep = verify_theorem(parse_word("x1*x2"), groups["C4"])
    assert rep.rho == 1
    assert rep.solutions.count == rep.solutions.space_size == 4096
    assert rep.passed


def test_verify_theorem_trivial_group(groups):
    rep = verify_theorem(parse_word("x1^2"), groups["C1"])
    assert rep.rho == 1
    assert rep.solutions.count == 1
    assert rep.passed


def test_verify_theorem_estimate_mode(groups):
    rep = verify_theorem(parse_word("x1^2"), groups["S3"], samples=2000,
                         seed=1)
    assert rep.solutions.mode == "estimate"
    assert "census-estimate" in rep.checks_run
    assert rep.pass_chain is None
    assert rep.passed


def test_verify_theorem_with_given_hom(groups):
    G = groups["C4"]
    ident = [0, 1, 2, 3]
    rep = verify_theorem(parse_word("x1*x2"), G,
                         hom=np.array([ident, ident]))
    assert rep.rho == 1
    with pytest.raises(ValueError):
        verify_theorem(parse_word("x1*x2"), G, hom=np.array([ident]))


def test_power_equation_count_oracle(groups):
    from wordmaplab.group import element_power

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
    for spec in ("S3", "C6"):
        for e in (-1, 2, 3):
            assert verify_mann_equivalence(e, groups[spec])
    # e = 1 degenerates to a tautology on both sides
    assert verify_mann_equivalence(1, groups["Q8"])


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
    rep = verify_theorem(parse_word("x1^3"), groups["Q8"])
    bt = bound_triple(rep.rho)
    n, d = rep.order, rep.d
    assert rep.required == bt.f * n ** (3 * d)
    assert rep.required_pairs == bt.f1 * n ** (2 * d)
    assert rep.required_triples == bt.f1 * bt.f2 * n ** (3 * d)
    assert rep.pair_threshold == bt.f2 * n ** d
