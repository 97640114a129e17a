import hashlib
import json
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordmaplab import cli
from wordmaplab.errors import BudgetExceededError
from wordmaplab.group import (
    GroupSpecError,
    GroupTable,
    alternating,
    build,
    closure,
    commuting_probability,
    cyclic,
    dihedral,
    direct_product,
    parse_cycles,
    power_table,
    quaternion,
    symmetric,
)

from conftest import (EXTENDED_SPECS, conjugacy_classes, element_orders,
                      element_power, is_abelian, traced_peak, validate_table)

ORDERS = {
    "C1": 1, "C2": 2, "C6": 6, "C8": 8, "C2xC2": 4, "C2xC4": 8,
    "S3": 6, "D4": 8, "Q8": 8, "A4": 12, "S4": 24, "A5": 60, "D8": 16,
}


@pytest.mark.parametrize("spec,n", sorted(ORDERS.items()))
def test_orders(spec, n):
    G = build(spec)
    assert G.n == n
    assert G.name == spec


def test_identity_is_zero(groups):
    for G in groups.values():
        assert all(G.mul[0][g] == g == G.mul[g][0] for g in range(G.n))
        assert G.inv[0] == 0


def test_abelianness(groups):
    for spec, G in groups.items():
        expected = spec not in {"S3", "D4", "Q8", "A4"}
        assert is_abelian(G) == expected


def test_quaternion_relations():
    G = quaternion()
    # id 2u + s is (-1)^s times unit u of 1, i, j, k
    minus_one, i, j, k, minus_k = 1, 2, 4, 6, 7
    assert G.mul[i][j] == k
    assert G.mul[j][i] == minus_k
    assert G.mul[i][i] == minus_one
    orders = element_orders(G)
    assert orders[minus_one] == 2
    assert orders[i] == orders[j] == orders[k] == 4


def test_dihedral_relations():
    G = dihedral(4)
    # s r s = r^-1, with r = id 1 and s = id 4 in the fixed layout.
    r, s = 1, 4
    assert G.mul[G.mul[s][r]][s] == G.inv[r]
    assert element_orders(G)[r] == 4
    assert element_orders(G)[s] == 2


def test_closure_and_parse_cycles():
    swap = parse_cycles("(1 2)")
    assert swap == (1, 0)
    assert parse_cycles("(1 2 3)(4 5)") == (1, 2, 0, 4, 3)
    G = closure([swap])
    assert G.n == 2
    H = closure([parse_cycles("(1 2 3 4)"), parse_cycles("(1 3)")])
    assert H.n == 8  # dihedral of the square
    assert not is_abelian(H)


def test_closure_order_is_generator_dependent_but_valid():
    a = closure([parse_cycles("(1 2 3)"), parse_cycles("(1 2)")])
    b = closure([parse_cycles("(1 2)"), parse_cycles("(1 2 3)")])
    assert a.n == b.n == 6
    validate_table(a)
    validate_table(b)


def test_perm_compose_order():
    # in a product of cycles the leftmost one acts first
    assert parse_cycles("(2 3)(1 2)") == parse_cycles("(1 2 3)")


def test_perm_spec():
    G = build("perm:(1 2)(3 4),(1 3)(2 4)")
    assert G.n == 4
    assert is_abelian(G)
    assert sorted(element_orders(G)[g] for g in range(4)) == [1, 2, 2, 2]


def test_bad_specs():
    for bad in ("", "Z5", "C0", "D0", "S9", "A9", "S1x", "xC2", "perm:",
                "perm:(1 2", "perm:(1 13)", "perm:(1 1)", "Q16"):
        with pytest.raises(GroupSpecError):
            build(bad)


def test_table_budget():
    # The budget counts the n^2 cells of the table, inclusively.
    assert build("C10", 100).n == 10
    for spec, budget in (("C10", 99), ("Q8", 63)):
        with pytest.raises(BudgetExceededError):
            build(spec, budget)
    # Closure refuses at the BFS level that takes the table over budget,
    # and a product before it forms the product table.
    for spec, line in (
        ("S8", "closure of S8 needs 100761444, budget 100000000"),
        ("C101xC100", "building C101xC100 needs 102010000, budget 100000000"),
    ):
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceededError) as exc:
            build(spec)
        assert time.perf_counter() - t0 < 1.0
        assert str(exc.value) == line


@pytest.mark.parametrize("spec,n", [
    ("C2000", 2000), ("D1000", 2000), ("C40xC50", 2000), ("S6", 720),
    ("A6", 360), ("perm:(1 2 3 4 5 6),(1 2)(7 8)", 1440),
])
def test_build_holds_its_gated_table(spec, n):
    # Building at a budget of exactly n^2 cells writes the n x n table in
    # place, beside at most one block of scratch: a closure's largest is
    # A6's 91-row level, 0.25 of its table.  One cell less refuses before
    # anything is allocated.
    peak = traced_peak(lambda: build(spec, n * n))
    assert peak <= 1.5 * 8 * n * n, peak / (8 * n * n)
    with pytest.raises(BudgetExceededError):
        build(spec, n * n - 1)


def test_direct_product_layout():
    G = direct_product(cyclic(2), cyclic(3))
    assert G.n == 6
    # (a, b) -> a * |B| + b
    assert G.mul[1 * 3 + 1][1 * 3 + 2] == ((1 + 1) % 2) * 3 + (1 + 2) % 3
    assert sorted(element_orders(G)[g] for g in range(6)) == [1, 2, 3, 3, 6, 6]


def test_validation_catches_corruption():
    G = cyclic(4)
    mul = G.mul.copy()
    mul[1, 2] = 1  # duplicates inside a row
    bad = GroupTable(mul=mul, inv=G.inv)
    with pytest.raises(ValueError, match=r"Latin square \(rows\)"):
        validate_table(bad)
    # Swapping two entries of a row keeps every row a permutation and
    # breaks exactly the two columns they sit in.
    mul = G.mul.copy()
    mul[1, [2, 3]] = mul[1, [3, 2]]
    with pytest.raises(ValueError, match=r"Latin square \(columns\)"):
        validate_table(GroupTable(mul=mul, inv=G.inv))

    inv = G.inv.copy()
    inv[1] = 1
    bad = GroupTable(mul=G.mul, inv=inv)
    with pytest.raises(ValueError, match="inv"):
        validate_table(bad)

    with pytest.raises(ValueError, match="square"):
        validate_table(GroupTable(mul=G.mul[:, :3], inv=G.inv))
    with pytest.raises(ValueError, match="inv must have length"):
        validate_table(GroupTable(mul=G.mul, inv=G.inv[:3]))

    # A Latin square with an identity that is not associative: swap two
    # non-identity rows of C4's table and repair columns by relabeling.
    q = GroupTable(
        mul=[
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ],
        inv=[0, 1, 2, 3, 4],
    )
    with pytest.raises(ValueError, match="associative"):
        validate_table(q)


def test_validation_catches_bad_entries():
    with pytest.raises(ValueError, match="order must be >= 1"):
        validate_table(GroupTable(mul=np.zeros((0, 0)), inv=[]))
    mul = cyclic(4).mul.copy()
    mul[2, 3] = 4
    with pytest.raises(ValueError, match="out of range"):
        validate_table(GroupTable(mul=mul, inv=[0, 3, 2, 1]))
    # C4's table shifted by one: a Latin square whose row 0 is not 0 1 2 3.
    shifted = (np.add.outer(np.arange(4), np.arange(4)) + 1) % 4
    with pytest.raises(ValueError, match="not the identity"):
        validate_table(GroupTable(mul=shifted, inv=[0, 3, 2, 1]))


def test_element_power():
    G = symmetric(3)
    for g in range(G.n):
        acc = 0
        for e in range(1, 8):
            acc = G.mul[acc][g]
            assert element_power(G, g, e) == acc
        assert element_power(G, g, 0) == 0
        assert element_power(G, g, -1) == G.inv[g]
        assert element_power(G, g, -2) == G.inv[element_power(G, g, 2)]
    for e in (-3, -1, 0, 1, 2, 5):
        assert power_table(G, e).tolist() == [
            element_power(G, g, e) for g in range(G.n)
        ]


COMMUTING = {
    "S3": Fraction(1, 2),
    "D4": Fraction(5, 8),
    "Q8": Fraction(5, 8),
    "A4": Fraction(1, 3),
    "C6": Fraction(1),
}
CLASS_COUNTS = {"S3": 3, "D4": 5, "Q8": 5, "A4": 4, "C6": 6}


@pytest.mark.parametrize("spec", sorted(COMMUTING))
def test_commuting_probability_pinned(spec, groups):
    G = groups[spec]
    assert commuting_probability(G) == COMMUTING[spec]
    assert conjugacy_classes(G) == CLASS_COUNTS[spec]


def test_commuting_probability_oracle(groups, capsys):
    for spec, G in groups.items():
        pairs = sum(
            G.mul[a][b] == G.mul[b][a] for a in range(G.n) for b in range(G.n)
        )
        assert commuting_probability(G) == Fraction(pairs, G.n**2)
        # The CLI's class count, |G| cp(G) by Burnside, against the orbits.
        assert cli.run(["commuting-probability", "--group", spec]) == 0
        out = json.loads(capsys.readouterr().out)
        classes = out["results"]["commuting_probability"]["conjugacy_classes"]
        assert classes == conjugacy_classes(G), spec


def test_alternating_small():
    assert alternating(2).n == 1
    assert alternating(3).n == 3
    assert alternating(4).n == 12


def test_spec_tolerates_spaces():
    G = build("C2x C2")
    assert G.n == 4
    assert G.name == "C2xC2"


# -- the array constructors against plain-loop oracles ------------------------

def _queue_closure(generators):
    """Queue BFS closure of permutation tuples: ids in discovery order, each
    element right-multiplied by every generator in turn, (p q)[i] = p[q[i]]."""
    elems, index = _queue_elements(generators)
    mul = [[index[tuple(map(a.__getitem__, b))] for b in elems]
           for a in elems]
    return elems, mul


def _queue_elements(generators):
    """The elements of ``_queue_closure`` in id order, and their ids."""
    degree = max((len(g) for g in generators), default=1)
    gens = [tuple(g) + tuple(range(len(g), degree)) for g in generators]
    elems = [tuple(range(degree))]
    index = {elems[0]: 0}
    pos = 0
    while pos < len(elems):
        e = elems[pos]
        pos += 1
        for g in gens:
            h = tuple(map(e.__getitem__, g))
            if h not in index:
                index[h] = len(elems)
                elems.append(h)
    return elems, index


def _loop_inverses(mul):
    return [row.index(0) for row in mul]


def _loop_product(A, B):
    """Nested-loop direct product table, id of (a, b) is a * B.n + b."""
    am, bm = A.mul.tolist(), B.mul.tolist()
    return [[am[a1][a2] * B.n + bm[b1][b2]
             for a2 in range(A.n) for b2 in range(B.n)]
            for a1 in range(A.n) for b1 in range(B.n)]


CLOSURE_ORACLE = {
    "S4": ["(1 2)", "(1 2 3 4)"],
    "A5": ["(1 2 3)", "(2 3 4)", "(3 4 5)"],
    "S6": ["(1 2)", "(1 2 3 4 5 6)"],
    "perm:(1 2 3)(4 5),(1 4)": ["(1 2 3)(4 5)", "(1 4)"],
    # the BFS stops at its first level
    "perm:(1)": ["(1)"],
    # generators of three degrees, padded to the largest
    "perm:(1 2),(3 4 5),(6 7 8 9)": ["(1 2)", "(3 4 5)", "(6 7 8 9)"],
    # degree 12, whose codes come near 12^12
    "perm:(1 2 3 4 5 6 7 8 9 10 11 12)": ["(1 2 3 4 5 6 7 8 9 10 11 12)"],
}


@pytest.mark.parametrize("spec", sorted(CLOSURE_ORACLE))
def test_closure_matches_queue_oracle(spec):
    G = build(spec)
    elems, mul = _queue_closure(
        [parse_cycles(c) for c in CLOSURE_ORACLE[spec]]
    )
    assert G.n == len(elems)
    assert G.mul.tolist() == mul
    assert G.inv.tolist() == _loop_inverses(mul)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 6).flatmap(
    lambda k: st.permutations(list(range(k)))), min_size=1, max_size=3))
def test_closure_of_random_generators_is_a_group(generators):
    # Whatever the generators, the closure is a group, and the queue
    # oracle finds the same table and inverses.
    G = closure([tuple(g) for g in generators])
    validate_table(G)
    mul = _queue_closure(generators)[1]
    assert G.mul.tolist() == mul
    assert G.inv.tolist() == _loop_inverses(mul)


# Every constructor over a sweep of sizes, and every spec that the
# acceptance battery or the benchmark builds, against the axiom oracle.
ORACLE_SPECS = sorted(
    {f"{kind}{n}" for kind in "CD" for n in range(1, 65)}
    | {"C1000", "D500", "Q8", "D4" + "xC2" * 8}
    | {f"{kind}{n}" for kind in "SA" for n in range(1, 7)}
    | set(EXTENDED_SPECS)
    | {"C6xS3", "D20", "D16", "S6", "C30xC30", "S4", "C24"}
)


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_constructors_pass_the_group_oracle(spec):
    validate_table(build(spec))


def test_direct_product_matches_loop_oracle():
    A, B = cyclic(6), symmetric(3)
    G = build("C6xS3")
    mul = _loop_product(A, B)
    assert G.mul.tolist() == mul
    assert G.inv.tolist() == _loop_inverses(mul)


def test_light_test_rejects_large_loop():
    # The order-5 loop of test_validation_catches_corruption times C16: a
    # non-associative Latin square of order 80 with identity and inverses.
    loop = np.array([
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ])
    C = cyclic(16)
    mul = loop[:, None, :, None] * 16 + C.mul[None, :, None, :]
    mul = mul.reshape(80, 80)
    q = GroupTable(mul=mul, inv=np.argmax(mul == 0, axis=1))
    with pytest.raises(ValueError, match="associative"):
        validate_table(q)
    validate_table(build("C5xC16"))


def test_tables_are_read_only():
    G = build("S3")
    assert not G.mul.flags.writeable
    assert not G.inv.flags.writeable
    with pytest.raises(ValueError):
        G.mul[0, 0] = 1


# SHA-256 of mul.tobytes() + inv.tobytes(), recorded before element names
# were dropped: a change to any constructor must not move an id.
TABLE_DIGESTS = {
    "C1": "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
    "C2": "02a646589b206f5660fbfbbc090b83de1c9ec9eea17d5fa7b3cc696f8ec84e5e",
    "C3": "c8ae02cbf8d34465d73d3224212c3c756378249eae742090cacc9f5842595a45",
    "C4": "ca04e20eb87b896e8ea803e02f14632afffd1b1f7b43e96bd01fcc969c4c3808",
    "C5": "46ac4f5620793c341022f3d44e3dcb6d8720262e2a52401b661f8bc5fc7e0b19",
    "C6": "4e465fdf074638078c535400af9c23d836192992bb2b8869aa81cf3860a667c9",
    "C7": "1accb1350a54c5a5826a488fe73c5d1f5c519f4abebf757323fb2ef6d07845f1",
    "C8": "86860feb8bbd50b18a93a5dc363f01e0f4cc45b030f4ad60d9e06e84ae21224d",
    "C2xC2":
        "aeb0338f3b1f9998371ec0149412dc45b48a912f02d7bbddb4934e7b5318a14d",
    "C2xC4":
        "7e13218e11e30197afde729f593286d76ae884eee9e08c0976a7a80eb9290bcf",
    "S3": "c49f7fc2c8d2ae7e1a498730ffa58264ce466aad717aa72c83ac60e0af04ab6d",
    "D4": "be23f633426167a06bab215526699700dc8e4c21b5667f6362ae2e032a5ff1ce",
    "Q8": "e7b11dddadc54528928a72a75304d2daee0eeefbf93507da16c93ff627966865",
    "A4": "6740efa6bdbcabfaccc3fd0ae63349ecbcd7e2cd48526e1f25e22fad43072c01",
    "D8": "1b72860ca09083d29abf51ce967c305d46842e5ca717190ded2ba90ea90868e8",
    "C16": "d4f74888fbaa640abfef31eda3762e6c07074eb38ab2273da4e39df61440d08f",
    "C4xC4":
        "7bbefc7026502697fd63bcd2f2d314f5b80c586ac4a69d2c855c5a8fe967a4e0",
    "C2xC2xC2xC2":
        "38417401b4d7e9a8181f6a0e203116c0da165a5d9894640aa21dd6004384db3e",
    "S6": "c58ad2ce3ad1fd61433107ee2f8322fb7c1a2eb7b0e010365746fa3c3d60a5eb",
    "A5": "3f43ca608444909e5a41fae832b8a2b73481d0e066d3c858aac18ce4a44019f3",
    "C6xS3":
        "2392f546416a54d1a0080b1d639b09eb45a8131e12cfde6688d6679f5d6cfbdf",
    "D20": "854a1c2116d2aea302ceb07b7ca21203de429adfbca42884557508fa5a4394b0",
    "S1": "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
    "A2": "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
    "Q8xD4":
        "d4fd272bb5c343d1f383cf8358fd69d44ed2f514e40af25d4e9757ad10430fd2",
    "perm:(1 2 3)(4 5),(1 4)":
        "b456e64ffa3b6b927d039a9c2f5ad6bf9d4a85c757cb4d3caf450c14fce9af18",
}


def test_table_digests_pinned():
    assert set(EXTENDED_SPECS) <= set(TABLE_DIGESTS)
    for spec, digest in TABLE_DIGESTS.items():
        G = build(spec)
        got = hashlib.sha256(G.mul.tobytes() + G.inv.tobytes()).hexdigest()
        assert got == digest, spec
