import hashlib
import itertools
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from wordmaplab import cli, errors, homset
from wordmaplab._tables import word_values
from wordmaplab.census import verify_theorem
from wordmaplab.errors import BudgetExceededError
from wordmaplab.freeword import parse_word
from wordmaplab.group import (build, closure, direct_product,
                              greedy_generators, parse_cycles)
from wordmaplab.homset import (
    _bijective,
    _commuting_pairs,
    _hom_values,
    _separated_counts,
    agreement_flags,
    best_agreement,
    check_hom,
    endomorphisms,
    homs_power,
)

from conftest import (BATTERY_SPECS, agreement_set, brute_force_endos,
                      expressions, hom_value_table, image_pair_table,
                      power_agreement_profile)


def assert_walk(G):
    """The levels of ``greedy_generators`` cover every element but 0 once,
    each parent lies in an earlier level, and parent * gen is the element.
    Returns the generators."""
    gens, levels = greedy_generators(G)
    seen = np.zeros(G.n, dtype=bool)
    seen[0] = True
    for elems, parents, gen_idx in levels:
        assert seen[parents].all()
        assert not seen[elems].any() and np.unique(elems).size == elems.size
        assert (G.mul[parents, np.array(gens)[gen_idx]] == elems).all()
        seen[elems] = True
    assert seen.all()
    return gens


def test_greedy_walk_levels(extended_groups):
    groups = dict(extended_groups)
    for spec in ("S6", "A5", "perm:(1 2 3)(4 5),(1 4)"):
        groups[spec] = build(spec)
    for G in groups.values():
        # the same generators as the oracle's plain queue walk, whose words
        # multiply out to their elements
        gens, words = expressions(G)
        assert assert_walk(G) == gens
        for g, word in enumerate(words):
            acc = 0
            for j in word:
                acc = G.mul.item(acc, gens[j])
            assert acc == g


def test_greedy_walk_sizes(groups):
    assert assert_walk(groups["C5"]) == [1]
    assert assert_walk(groups["C2xC2"]) == [1, 2]
    assert len(assert_walk(groups["S3"])) == 2
    assert assert_walk(groups["C1"]) == []


# Counts verified against the all-functions oracle below before pinning.
ENDO_COUNTS = {"C1": 1, "C2": 2, "C3": 3, "C4": 4, "C6": 6, "S3": 10,
               "C2xC2": 16}
AUTO_COUNTS = {"C1": 1, "C2": 1, "C5": 4, "S3": 6, "C2xC2": 6}


@pytest.mark.parametrize("spec", sorted(ENDO_COUNTS))
def test_endomorphism_counts_vs_oracle(spec, groups):
    G = groups[spec]
    got = endomorphisms(G)
    expected = brute_force_endos(G)
    assert got.shape == (ENDO_COUNTS[spec], G.n)
    assert not got.flags.writeable
    assert len(got) == len(expected)
    assert {tuple(e) for e in got.tolist()} == set(expected)


@pytest.mark.parametrize("spec", sorted(AUTO_COUNTS))
def test_automorphism_counts(spec, groups):
    # The kernel criterion that hom-search counts |Aut| by, against the
    # bijective rows of the endomorphism table.
    G = groups[spec]
    endos = endomorphisms(G)
    mask = _bijective(endos)
    assert mask.tolist() == [len(set(e)) == G.n for e in endos.tolist()]
    assert int(mask.sum()) == AUTO_COUNTS[spec]
    assert list(range(G.n)) in endos[mask].tolist()


def test_endos_form_a_monoid(groups):
    # Independent structural check for the order-8 groups, where the
    # all-functions oracle is too slow: End(G) is closed under composition
    # and contains the identity and trivial maps.
    for spec in ("D4", "Q8", "C2xC4", "C8"):
        G = groups[spec]
        endos = {tuple(e) for e in endomorphisms(G).tolist()}
        assert tuple(range(G.n)) in endos
        assert tuple([0] * G.n) in endos
        for a, b in itertools.product(endos, repeat=2):
            assert tuple(a[b[g]] for g in range(G.n)) in endos


def test_every_endo_satisfies_pairwise_condition(groups):
    for spec in ("S3", "D4", "Q8", "A4"):
        G = groups[spec]
        mul = G.mul.tolist()
        for v in endomorphisms(G).tolist():
            assert all(
                v[mul[a][b]] == mul[v[a]][v[b]]
                for a in range(G.n) for b in range(G.n)
            )
            assert v[0] == 0


def loop_endomorphisms(G):
    """Endomorphism value tables in search order, by plain loops:
    itertools.product over images of the greedy generators, each element's
    value the product of the images along its word from ``expressions``,
    and the full pairwise condition."""
    gens, words = expressions(G)
    mul = G.mul.tolist()
    out = []
    for images in itertools.product(range(G.n), repeat=len(gens)):
        vals = []
        for word in words:
            acc = 0
            for j in word:
                acc = mul[acc][images[j]]
            vals.append(acc)
        if all(
            vals[mul[a][b]] == mul[vals[a]][vals[b]]
            for a in range(G.n) for b in range(G.n)
        ):
            out.append(tuple(vals))
    return out


def loop_homs_power(G, d):
    """Commuting d-tuples of endomorphism tables in product order."""
    mul = G.mul.tolist()
    out = []
    for combo in itertools.product(loop_endomorphisms(G), repeat=d):
        if all(
            mul[a][b] == mul[b][a]
            for i in range(d) for j in range(i + 1, d)
            for a in combo[i] for b in combo[j]
        ):
            out.append(combo)
    return out


# SHA-256 of endomorphisms(G).tobytes(), recorded before the search moved
# to the level-at-a-time extension: best_agreement breaks ties by this
# order, so it is a contract.
ENDO_DIGESTS = {
    "C2xC2xC2xC2":
        "c459db33407a1b4e37a36c365dd8f70e32b01a9b0fc955d10145bb72a85c3fa6",
    "Q8": "bb3e7ebd011c81762798808e95acfa27e82c2ed23b59ebf45d196c80fc64a0db",
    "A4": "355249629016c2158c369205cd62991f39e3109bfd1242f0a27b0cee4fd34c16",
    "S4": "41a5abb554f7b20f1e8ef134ea98811a8536435df563b6e7efea100e43e4d561",
    "D16": "47ab81fbd2692b8671db259e168e42529d3a72939c09712dbbcc53892985c4aa",
    "D20": "250b0e86276c7c66714edb876883ab057f185bbac9f1b42e89001846049d1d43",
    "C6xS3":
        "692f2361cd8f3b0e971e98fac4442dc23776d1b24319cbeee5581d9ef6cdaaa6",
    "perm:(1 2 3)(4 5),(1 4)":
        "b4a4a22a31c56cf7d1a21aa600eff400527020c2ae557ffb568f014273c6c560",
}


def test_endomorphism_digests_pinned():
    for spec, digest in ENDO_DIGESTS.items():
        got = hashlib.sha256(endomorphisms(build(spec)).tobytes()).hexdigest()
        assert got == digest, spec


@pytest.mark.parametrize("spec", ["S3", "D4", "Q8", "A4", "C2xC4"])
def test_endomorphism_order_vs_loop_oracle(spec, groups):
    # best_agreement breaks ties by this order, so it is pinned, not just
    # the set.
    G = groups[spec]
    got = [tuple(e) for e in endomorphisms(G).tolist()]
    assert got == loop_endomorphisms(G)


# From d = 4 on, each prefix carries its pair-table mask over from the prefix
# it extends, through more than one step.
@pytest.mark.parametrize("spec,d", [("S3", 2), ("D4", 2), ("S3", 3),
                                    ("C2xC2", 3), ("S3", 4), ("S3", 5),
                                    ("C2xC2", 4)])
def test_homs_power_order_vs_loop_oracle(spec, d, groups):
    G = groups[spec]
    endos, tuples = homs_power(G, d)
    assert tuples.dtype == np.int64 and tuples.shape[1] == d
    got = [tuple(map(tuple, endos[t].tolist())) for t in tuples]
    assert got == loop_homs_power(G, d)


def test_homs_power_d1_builds_no_pair_table():
    # All 2^16 endomorphisms of C2^4, each a hom G -> G.  A pair table over
    # them would take about 2 * 10^9 image-pair checks.
    G = build("C2xC2xC2xC2")
    t0 = time.perf_counter()
    endos, tuples = homs_power(G, 1)
    elapsed = time.perf_counter() - t0
    assert tuples.shape == (65_536, 1)
    assert (tuples[:, 0] == np.arange(len(endos))).all()
    assert elapsed < 5.0


def brute_force_homs_power(G, d):
    """All functions G^d -> G that are homs, via the explicit product group."""
    P = G
    for _ in range(d - 1):
        P = direct_product(P, G)
    N = P.n
    pmul, mul = P.mul.tolist(), G.mul.tolist()
    out = set()
    for vals in itertools.product(range(G.n), repeat=N):
        if all(
            vals[pmul[a][b]] == mul[vals[a]][vals[b]]
            for a in range(N) for b in range(N)
        ):
            out.add(vals)
    return out


@pytest.mark.parametrize("spec,d", [("C2", 1), ("C2", 2), ("C3", 1),
                                    ("C3", 2), ("C4", 1), ("C2xC2", 1)])
def test_homs_power_vs_oracle(spec, d, groups):
    G = groups[spec]
    endos, tuples = homs_power(G, d)
    tables = {hom_value_table(G, endos[t].tolist()) for t in tuples}
    assert len(tables) == len(tuples)  # no duplicates
    assert tables == brute_force_homs_power(G, d)


def test_homs_power_nonabelian_pair_oracle(groups):
    # Count commuting pairs of endomorphism images directly from the
    # definition and compare with the enumerated hom set for d = 2.
    G = groups["S3"]
    endos = brute_force_endos(G)
    mul = G.mul.tolist()
    pairs = 0
    for v1, v2 in itertools.product(endos, repeat=2):
        if all(
            mul[v1[g]][v2[h]] == mul[v2[h]][v1[g]]
            for g in range(G.n) for h in range(G.n)
        ):
            pairs += 1
    assert len(homs_power(G, 2)[1]) == pairs


# Groups whose greedy generator count the pair-table test pins: none, three
# and four generators.
GENERATOR_COUNTS = {"C1": 0, "Q8": 3, "C2xC2xC2": 3, "S3xS3": 4}


@pytest.mark.parametrize(
    "spec", BATTERY_SPECS + ["D20", "C6xS3", "S3xS3", "C2xC2xC2"])
def test_commuting_pairs_vs_image_oracle(spec):
    G = build(spec)
    if spec in GENERATOR_COUNTS:
        assert len(greedy_generators(G)[0]) == GENERATOR_COUNTS[spec]
    endos = endomorphisms(G)
    gens = greedy_generators(G)[0]
    assert np.array_equal(_commuting_pairs(G, endos[:, gens]),
                          image_pair_table(G, endos))
    # check_hom names the first pair i < j, in row-major order, whose
    # images do not commute: here among four spread-out endomorphisms and
    # the identity.
    phi = np.vstack([endos[::max(1, len(endos) // 4)][:4], np.arange(G.n)])
    ok = image_pair_table(G, phi)
    bad = [(i, j) for i, j in itertools.combinations(range(len(phi)), 2)
           if not ok[i, j]]
    if bad:
        with pytest.raises(ValueError, match="^components %d and %d have "
                           "non-commuting images$" % bad[0]):
            check_hom(G, phi)
    else:
        assert np.array_equal(check_hom(G, phi), phi)


def test_check_hom_walks_the_group_once(monkeypatch):
    walks = []

    def counted(G):
        walks.append(G)
        return greedy_generators(G)

    monkeypatch.setattr(homset, "greedy_generators", counted)
    G = build("S3")
    # The identity and two trivial components: a hom S3^3 -> S3.
    phi = np.zeros((3, G.n), dtype=np.int64)
    phi[0] = np.arange(G.n)
    assert np.array_equal(check_hom(G, phi), phi)
    assert len(walks) == 1


def test_hom_enumeration_leaves_no_thread_spinning():
    # Everything runs on one thread.  A BLAS call would leave its worker
    # threads spinning after it returns, charging CPU time to this process
    # while it sleeps; on a one-core machine there are no workers to spin.
    homs_power(build("D20"), 2)
    t0 = time.process_time()
    time.sleep(0.2)
    assert time.process_time() - t0 < 0.03


def test_homs_power_abelian_is_full_product(groups):
    for spec in ("C4", "C6", "C2xC2"):
        G = groups[spec]
        k = len(endomorphisms(G))
        assert len(homs_power(G, 2)[1]) == k * k


def test_agreement_counts(groups):
    C4 = groups["C4"]
    phi = np.array([[0, 1, 2, 3], [0, 1, 2, 3]])
    w = parse_word("x1*x2")
    flags = agreement_flags(C4, phi, word_values(w, C4, 2))
    assert flags.all() and flags.shape == (16,)
    assert np.array_equal(flags, agreement_set(w, C4, phi))

    S3 = groups["S3"]
    trivial = np.zeros((1, 6), dtype=np.int64)
    w = parse_word("x1^2")
    flags = agreement_flags(S3, trivial, word_values(w, S3, 1))
    assert int(flags.sum()) == 4
    assert np.array_equal(flags, agreement_set(w, S3, trivial))
    # A hom that is not the identity on either coordinate.
    phi = endomorphisms(S3)[[0, 1]]
    w = parse_word("x2*x1^2")
    flags = agreement_flags(S3, phi, word_values(w, S3, 2))
    assert np.array_equal(flags, agreement_set(w, S3, phi))


def test_agreement_arity_check(groups):
    phi = np.array([[0, 1]])
    with pytest.raises(ValueError, match="word uses x2"):
        verify_theorem(parse_word("x1*x2"), groups["C2"], 1, hom=phi)


def test_best_agreement_arity_check(groups):
    with pytest.raises(ValueError, match="word uses x2 but d = 1"):
        best_agreement(parse_word("x1*x2"), groups["S3"], 1)


def test_best_agreement_pinned(groups):
    # Oracle-verified: max agreement of squaring on S3 is 4 of 6 tuples,
    # first reached by the trivial endomorphism in enumeration order.
    value, phi = best_agreement(parse_word("x1^2"), groups["S3"], 1)
    assert value == Fraction(2, 3)
    assert phi.tolist() == [[0] * 6]

    value, phi = best_agreement(parse_word("x1*x2"), groups["C4"], 2)
    assert value == 1
    assert phi.tolist() == [[0, 1, 2, 3], [0, 1, 2, 3]]


def test_best_agreement_deterministic(groups):
    a = best_agreement(parse_word("x1^3"), groups["Q8"], 1)
    b = best_agreement(parse_word("x1^3"), groups["Q8"], 1)
    assert a[0] == b[0]
    assert a[1].tolist() == b[1].tolist()


def test_best_agreement_relabeling_invariant():
    a = closure([parse_cycles("(1 2 3)"), parse_cycles("(1 2)")])
    b = closure([parse_cycles("(1 2)"), parse_cycles("(1 2 3)")])
    for text in ("x1^2", "x1^3", "x1^-1"):
        w = parse_word(text)
        assert best_agreement(w, a, 1)[0] == best_agreement(w, b, 1)[0]


SEPARATED = ("x1*x2", "x2*x1", "x1^2*x2^-1", "x2^3*x1^-2", "x1^2", "x2^-1",
             "1")


@pytest.mark.parametrize("spec", BATTERY_SPECS + ["D8"])
def test_separated_counts_vs_gather(spec, extended_groups):
    # At d = 2 the fiber-histogram counts of every hom equal the gathered
    # ones, for words in either variable order and with a missing variable.
    G = extended_groups[spec]
    endos, tuples = homs_power(G, 2)
    gathered = _hom_values(G.mul, endos[tuples])
    for text in SEPARATED:
        w = parse_word(text)
        want = (gathered == word_values(w, G, 2)).sum(axis=1)
        assert np.array_equal(_separated_counts(w, G, endos, tuples), want)


def test_route_choice(groups, monkeypatch):
    # Separated words at d = 2 take the histogram route; the commutator,
    # and any word at d != 2, take the gather route.
    calls = []

    def counted(w, *args):
        calls.append(str(w))
        return _separated_counts(w, *args)

    monkeypatch.setattr(homset, "_separated_counts", counted)
    G = groups["S3"]
    best_agreement(parse_word("x1*x2*x1^-1*x2^-1"), G, 2)
    best_agreement(parse_word("x1*x2"), G, 3)
    best_agreement(parse_word("x1^2"), G, 1)
    assert calls == []
    best_agreement(parse_word("x2*x1"), G, 2)
    assert calls == ["x2*x1"]


# All six verified against the all-functions oracle before pinning.
PROFILES_S3 = {
    (-1, False): Fraction(2, 3), (-1, True): Fraction(2, 3),
    (2, False): Fraction(2, 3), (2, True): Fraction(1, 2),
    (3, False): Fraction(2, 3), (3, True): Fraction(2, 3),
}


@pytest.mark.parametrize("e,autos", sorted(PROFILES_S3, key=str))
def test_power_agreement_profile_pinned(e, autos, groups):
    got = power_agreement_profile(groups["S3"], e, automorphisms_only=autos)
    assert got == PROFILES_S3[(e, autos)]


def test_power_agreement_profile_abelian(groups):
    # On abelian groups the power map is itself an endomorphism.
    for spec in ("C4", "C6", "C2xC2"):
        for e in (-1, 2, 3):
            assert power_agreement_profile(groups[spec], e) == 1


def test_budgets():
    G = build("C2xC2xC2xC2")
    with pytest.raises(BudgetExceededError):
        endomorphisms(G, budget=100)
    with pytest.raises(BudgetExceededError):
        homs_power(build("C2"), 30, budget=10**6)


def test_hom_extension_budget(groups, capsys):
    # C2xC2 has 16 endomorphisms, all with commuting images, so d = 3 tries
    # 16^3 = 4096 tuples but extends 256 pairs into 256 * 16 rows of 3 ids.
    G = groups["C2xC2"]
    assert len(homs_power(G, 3, budget=256 * 16 * 3)[1]) == 4096
    with pytest.raises(BudgetExceededError):
        homs_power(G, 3, budget=256 * 16 * 3 - 1)
    assert cli.run(["hom-search", "--group", "C2xC2", "--d", "3",
                    "--budget-hom", "5000"]) == 3
    assert capsys.readouterr().err == \
        "budget exceeded: hom extension needs 12288, budget 5000\n"


def test_scoring_budget(groups, capsys):
    # Scoring the 10 endomorphisms of S3 against x1^2 on 6 tuples needs 60
    # cells; the word table alone needs 6.
    w = parse_word("x1^2")
    assert best_agreement(w, groups["S3"], 1, table_budget=60)[0] == \
        Fraction(2, 3)
    with pytest.raises(BudgetExceededError):
        best_agreement(w, groups["S3"], 1, table_budget=59)
    assert cli.run(["hom-search", "--group", "S3", "--word", "x1^2",
                    "--budget-table", "59"]) == 3
    assert capsys.readouterr().err == \
        "budget exceeded: hom scoring needs 60, budget 59\n"


def test_separated_scoring_budget(capsys):
    # D20 (order 40) has 484 endomorphisms and 5296 homs at d = 2, so the
    # histogram route holds (5296 + 2 * 484) * 40 = 250560 cells.
    argv = ["hom-search", "--group", "D20", "--word", "x1*x2", "--d", "2",
            "--budget-table"]
    assert cli.run(argv + ["250560"]) == 0
    capsys.readouterr()
    assert cli.run(argv + ["250559"]) == 3
    assert capsys.readouterr().err == \
        "budget exceeded: hom scoring needs 250560, budget 250559\n"


@pytest.mark.parametrize("spec", ["S3", "D4", "A4"])
def test_block_boundaries(spec, groups, monkeypatch, tmp_path, capsys):
    # Blocks of 1 and 7 rows in each blocked loop give the same tables as
    # the default blocks.  A row holds n cells in the candidate search, k
    # (endomorphisms) in the pair table, n^2 in the d = 2 gather scoring of
    # the commutator, n in the histogram scoring of x1^2*x2 and d in the
    # commuting-pair check of a hom file.
    G = groups[spec]
    cases = [(G.n ** 2, parse_word("x1*x2*x1^-1*x2^-1")),
             (G.n, parse_word("x1^2*x2"))]
    endos = endomorphisms(G)
    homs = homs_power(G, 2)
    best = [best_agreement(w, G, 2) for _, w in cases]
    # Components 1 and 2 are the identity of a nonabelian group; component
    # 0 is trivial, so only the last pair of the check fails.
    hom = tmp_path / "hom.json"
    hom.write_text(json.dumps({"components": [[0] * G.n, list(range(G.n)),
                                              list(range(G.n))]}))
    argv = ["verify-theorem", "--group", spec, "--word", "x1", "--d", "3",
            "--hom", str(hom)]
    for rows in (1, 7):
        monkeypatch.setattr(errors, "BLOCK_CELLS", rows * G.n)
        assert np.array_equal(endomorphisms(G), endos)
        monkeypatch.setattr(errors, "BLOCK_CELLS", rows * len(endos))
        got = homs_power(G, 2)
        assert all(np.array_equal(a, b) for a, b in zip(got, homs))
        for (cells, w), (rho, phi) in zip(cases, best):
            monkeypatch.setattr(errors, "BLOCK_CELLS", rows * cells)
            got_rho, got_phi = best_agreement(w, G, 2, homs=homs)
            assert got_rho == rho and np.array_equal(got_phi, phi)
        monkeypatch.setattr(errors, "BLOCK_CELLS", rows * 3)
        assert cli.run(argv) == 2
        assert capsys.readouterr().err == \
            "error: components 1 and 2 have non-commuting images\n"


def test_hom_validation(groups):
    # A hom is a (d, n) component table with d >= 1.
    w, C2 = parse_word("x1"), groups["C2"]
    for bad in (np.zeros((0, 2), dtype=np.int64), np.array([[0, 1, 0]]),
                np.array([0, 1])):
        with pytest.raises(ValueError, match="hom must be"):
            check_hom(C2, bad)
        with pytest.raises(ValueError, match="hom must be"):
            verify_theorem(w, C2, 1, hom=bad)
