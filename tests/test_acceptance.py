"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v tests/test_acceptance.py`` (test names carry the
criterion numbers) or with ``-s`` to see the printed summaries.
"""

import itertools
import math
import time
from fractions import Fraction

from wordmaplab.bounds import commuting_bound, f as bound_triple
from wordmaplab.census import (
    count_solutions_exact,
    estimate_solutions,
    power_equation_count,
    verify_commuting_corollary,
    verify_theorem,
)
from wordmaplab.familycheck import adversarial_families, fuzz_instances, verify_lemma
from wordmaplab.freeword import derived_word, parse_word
from wordmaplab.group import commuting_probability
from wordmaplab.homset import homs_power
from wordmaplab.rng import SplitMix64

from conftest import (BATTERY_SPECS, EXTENDED_SPECS, hom_value_table,
                      is_abelian, naive_census, power_agreement_profile,
                      random_reduced_word)

WORDS = ["x1^2", "x1^3", "x1^-1", "x1^5", "x1*x2", "x1*x2*x1^-1*x2^-1"]


def battery_cases(groups):
    """(group, word, d) with d = 2 cases restricted to |G| <= 8."""
    for spec in BATTERY_SPECS:
        G = groups[spec]
        for text in WORDS:
            w = parse_word(text)
            d = max(w.arity, 1)
            if d == 2 and G.n > 8:
                continue
            yield spec, G, w, d


def report(line):
    print(line, flush=True)


def test_c01_bound_table():
    expected = {
        Fraction(1): ("1/24", "1/6", "1/144"),
        Fraction(1, 2): ("1/192", "1/40", "1/7680"),
        Fraction(1, 3): ("1/648", "1/126", "1/81648"),
    }
    for rho, (e1, e2, ef) in expected.items():
        t = bound_triple(rho)
        assert (t.f1, t.f2, t.f) == (
            Fraction(e1), Fraction(e2), Fraction(ef)
        ), rho
        # independent cross-check in floating point
        c = math.ceil(2 / rho)
        f1 = min(float(rho) ** 2 / (12 * c), float(rho) ** 3 / (4 * c))
        assert abs(f1 - t.f1) < 1e-12
    assert commuting_bound(Fraction(1)) == Fraction(1, 287)
    assert commuting_bound(Fraction(1, 2)) == Fraction(1, 15359)
    report("criterion 1: PASS - bound table exact at rho = 1, 1/2, 1/3")


def test_c02_theorem_battery(groups):
    t0 = time.perf_counter()
    n_cases = 0
    for spec, G, w, d in battery_cases(groups):
        rep = verify_theorem(w, G, d)
        assert rep.pass_solutions, (spec, str(w))
        assert Fraction(rep.solutions.count) >= rep.required, (spec, str(w))
        # full proof chain wherever the pair/triple scan ran
        assert rep.qualifying_pairs is not None, (spec, str(w))
        assert rep.pass_pairs and rep.pass_triples and rep.pass_chain, \
            (spec, str(w))
        assert rep.solutions.count >= rep.triples >= rep.required_triples, \
            (spec, str(w))
        assert rep.passed, (spec, str(w))
        n_cases += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"battery took {elapsed:.1f}s, target < 5 minutes"
    report(f"criterion 2: PASS - {n_cases} battery cases verified in "
           f"{elapsed:.1f}s")


def test_c03_mann_specialization(groups):
    checked = 0
    for spec in ("S3", "D4", "Q8", "C6"):
        G = groups[spec]
        for e in (-1, 2, 3):
            direct = power_equation_count(e, G)
            derived = count_solutions_exact(
                parse_word(f"x1^{e}"), G, 1
            ).count
            assert direct == derived, (spec, e)
            checked += 1
    report(f"criterion 3: PASS - {checked} power-equation counts match the "
           "derived census")


def test_c04_abelian_saturation(groups):
    checked = 0
    for spec, G, w, d in battery_cases(groups):
        if not is_abelian(G):
            continue
        rep = verify_theorem(w, G, d)
        assert rep.rho == 1, (spec, str(w))
        assert rep.solutions.count == G.n ** (3 * d), (spec, str(w))
        checked += 1
    report(f"criterion 4: PASS - {checked} abelian cases saturate the census")


def test_c05_commuting_probabilities(groups):
    pinned = {"S3": Fraction(1, 2), "D4": Fraction(5, 8),
              "Q8": Fraction(5, 8), "A4": Fraction(1, 3)}
    for spec, want in pinned.items():
        assert commuting_probability(groups[spec]) == want, spec
    for spec in BATTERY_SPECS:
        rep = verify_commuting_corollary(groups[spec])
        assert rep.commuting_probability >= rep.bound, spec
        assert rep.equation_consistent, spec
        assert rep.passed, spec
    report("criterion 5: PASS - exact commuting probabilities and the bound "
           f"hold on all {len(BATTERY_SPECS)} battery groups")


def test_c06_lemma_fuzz():
    instances = adversarial_families() + list(fuzz_instances(1000, seed=0))
    failures = [i.label for i in instances if not verify_lemma(i).passed]
    assert failures == []
    report(f"criterion 6: PASS - {len(instances)} family instances, "
           "zero violations")


def test_c07_derived_nontriviality():
    gen = SplitMix64(7777)
    for k in range(500):
        length = 2 + (k % 19)  # cycles through 2..20
        w = random_reduced_word(gen, length, 1 + gen.randbelow(4))
        assert derived_word(w), str(w)
    assert not derived_word(parse_word("x1"))
    report("criterion 7: PASS - 500 random reduced words (lengths 2-20) "
           "have nonempty derived words; x1 does not")


def test_c08_threshold_sanity(extended_groups):
    limits = {-1: Fraction(3, 4), 2: Fraction(1, 2), 3: Fraction(3, 4)}
    checked = []
    for spec in EXTENDED_SPECS:
        G = extended_groups[spec]
        if G.n > 16 or is_abelian(G):
            continue
        for e, lim in limits.items():
            got = power_agreement_profile(G, e, automorphisms_only=True)
            assert got <= lim, (spec, e, got)
        checked.append(spec)
    assert checked  # the sweep must actually cover nonabelian groups
    report(f"criterion 8: PASS - automorphism agreement capped at 3/4, 1/2, "
           f"3/4 on {', '.join(checked)}")


def test_c09_estimator_calibration(groups):
    G = groups["S3"]
    w = parse_word("x1*x2")
    exact = count_solutions_exact(w, G, 2)
    p = exact.proportion
    covered = 0
    for seed in range(100):
        est = estimate_solutions(w, G, 100_000, seed, 2)
        covered += abs(est.estimate_mean - p) <= est.ci_half_width
    assert covered >= 90, covered
    a = estimate_solutions(w, G, 100_000, 0, 2)
    b = estimate_solutions(w, G, 100_000, 0, 2)
    assert a == b
    report(f"criterion 9: PASS - CI covered the exact proportion {p} in "
           f"{covered}/100 runs; identical seeds reproduce bit-for-bit")


def test_c10_oracle_equivalence(groups):
    census_cases = 0
    for spec, G, w, d in battery_cases(groups):
        if G.n ** (3 * d) > 100_000:
            continue
        assert count_solutions_exact(w, G, d).count == naive_census(w, G, d), \
            (spec, str(w))
        census_cases += 1

    hom_cases = []
    for spec, d in (("C2", 1), ("C2", 2), ("C3", 1), ("C3", 2), ("C4", 1),
                    ("C2xC2", 1)):
        G = groups[spec]
        endos, tuples = homs_power(G, d)
        got = {hom_value_table(G, endos[t].tolist()) for t in tuples}
        want = brute_force_homs(G, d)
        assert got == want, (spec, d)
        hom_cases.append(f"({spec},d={d})")
    report(f"criterion 10: PASS - census matches the naive oracle on "
           f"{census_cases} cases; hom sets match brute force at "
           f"{', '.join(hom_cases)}")


def brute_force_homs(G, d):
    from wordmaplab.group import direct_product

    P = G
    for _ in range(d - 1):
        P = direct_product(P, G)
    pmul, mul = P.mul.tolist(), G.mul.tolist()
    out = set()
    for vals in itertools.product(range(G.n), repeat=P.n):
        if all(
            vals[pmul[a][b]] == mul[vals[a]][vals[b]]
            for a in range(P.n) for b in range(P.n)
        ):
            out.add(vals)
    return out
