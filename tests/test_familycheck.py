import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordmaplab import errors
from wordmaplab.bounds import f2
from wordmaplab.errors import BudgetExceededError
from wordmaplab.familycheck import (
    FUZZ_RHOS,
    FUZZ_X_SIZES,
    FamilyInstance,
    InfeasibleParametersError,
    _pairs_reaching,
    adversarial_families,
    fuzz_instances,
    load_family,
    random_family,
    verify_lemma,
)
from wordmaplab.rng import MASK64, derive_seed

from conftest import family_oracle, family_text, save_family, seed_with_raw


def windows_instance():
    # 16 cyclic windows of width 16 on 32 points: the tight boundary case.
    sets = np.zeros((16, 32), dtype=bool)
    for row in range(16):
        for j in range(16):
            sets[row, (2 * row + j) % 32] = True
    return FamilyInstance(x_size=32, rho=Fraction(1, 2), sets=sets,
                          label="windows")


def test_instance_validation():
    ok = FamilyInstance(x_size=2, rho=Fraction(1, 2),
                        sets=np.array([[True, False]]))
    assert ok.i_size == 1
    with pytest.raises(InfeasibleParametersError):
        # too few sets: need at least rho |X| of them
        FamilyInstance(x_size=4, rho=Fraction(1, 2),
                       sets=np.array([[True, True, False, False]]))
    with pytest.raises(InfeasibleParametersError):
        # a set below the minimum size
        FamilyInstance(x_size=2, rho=Fraction(1, 2),
                       sets=np.array([[False, False]]))
    with pytest.raises(ValueError):
        FamilyInstance(x_size=3, rho=Fraction(1, 2),
                       sets=np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError):
        FamilyInstance(x_size=2, rho=Fraction(3, 2),
                       sets=np.ones((3, 2), dtype=bool))


def test_verify_lemma_saturated():
    inst = FamilyInstance(x_size=4, rho=Fraction(1),
                          sets=np.ones((4, 4), dtype=bool))
    rep = verify_lemma(inst)
    assert rep.qualifying_pairs == 16  # every ordered pair
    assert rep.passed


def test_verify_lemma_disjoint_singletons():
    inst = FamilyInstance(x_size=3, rho=Fraction(1, 3),
                          sets=np.eye(3, dtype=bool))
    rep = verify_lemma(inst)
    # only the diagonal overlaps reach the threshold
    assert rep.qualifying_pairs == 3
    assert rep.passed


def test_diagonal_always_qualifies():
    # |M ∩ M| = |M| >= rho |X| >= f2(rho) |X|, so each set pairs with itself.
    for inst in fuzz_instances(40, seed=11):
        rep = verify_lemma(inst)
        assert rep.qualifying_pairs >= inst.i_size


def test_verify_lemma_brute_force_oracle():
    inst = random_family(x_size=12, i_size=7, rho=Fraction(1, 3), seed=5)
    rep = verify_lemma(inst)
    thr = f2(inst.rho) * inst.x_size
    brute = 0
    rows = [set(np.nonzero(r)[0]) for r in inst.sets]
    for a in rows:
        for b in rows:
            brute += Fraction(len(a & b)) >= thr
    assert rep.qualifying_pairs == brute
    assert rep.overlap_threshold == thr


def test_verify_lemma_matches_int64_product():
    for inst in adversarial_families() + list(fuzz_instances(100, seed=2)):
        m = inst.sets.astype(np.int64)
        thr = f2(inst.rho) * inst.x_size
        want = int(((m @ m.T) * thr.denominator >= thr.numerator).sum())
        assert verify_lemma(inst).qualifying_pairs == want, inst.label


def test_verify_lemma_wide_ground_set():
    # Overlaps are summed in the narrowest unsigned type that holds |X|:
    # uint16 up to 2**16 - 1 and uint32 from 2**16, where an overlap of |X|
    # would wrap a uint16 to 0.  Every pair overlaps here and the threshold
    # is below 1, so all four ordered pairs qualify; at a threshold of |X|
    # only the full set's diagonal pair does.
    for x_size in (1 << 15, (1 << 16) - 1, 1 << 16):
        sets = np.zeros((2, x_size), dtype=bool)
        sets[0] = True
        sets[1, :2] = True
        inst = FamilyInstance(x_size=x_size, rho=Fraction(1, 1 << 15),
                              sets=sets)
        assert verify_lemma(inst).qualifying_pairs == 4
        assert _pairs_reaching(sets, x_size) == 1
        assert _pairs_reaching(sets, 2) == 4


def random_rows(rng, i_size, x_size):
    """i_size random nonempty subsets of range(x_size), of random sizes."""
    sets = np.zeros((i_size, x_size), dtype=bool)
    for row in sets:
        row[rng.permutation(x_size)[:rng.integers(1, x_size + 1)]] = True
    return sets


@pytest.mark.parametrize("rows_per_block", [1, 7, None])
def test_pairs_reaching_block_boundaries(monkeypatch, rows_per_block):
    # Ground sets on both sides of the 64-bit word edges cover the zero
    # padding bits; every threshold from 0 to |X| + 1 checks each overlap,
    # not only those near f2(rho) |X|.  One row per block, seven (which
    # leaves a short last block) and the default.
    rng = np.random.default_rng(8)
    for x_size in (1, 63, 64, 65, 129, 255, 256):
        for i_size in (1, 2, 13):
            if rows_per_block is not None:
                monkeypatch.setattr(errors, "BLOCK_CELLS",
                                    rows_per_block * i_size)
            sets = random_rows(rng, i_size, x_size)
            overlap = sets.astype(np.int64) @ sets.T.astype(np.int64)
            for need in range(x_size + 2):
                assert _pairs_reaching(sets, need) == \
                    int((overlap >= need).sum()), (x_size, i_size, need)
            inst = FamilyInstance(x_size=x_size, rho=Fraction(1, x_size),
                                  sets=sets)
            thr = f2(inst.rho) * x_size
            assert verify_lemma(inst).qualifying_pairs == \
                int((overlap * thr.denominator >= thr.numerator).sum())


def test_boundary_windows_pass():
    rep = verify_lemma(windows_instance())
    assert rep.passed
    # the threshold is exact: overlap f2(1/2) |X| = 32/40 < 1, so any
    # nonempty intersection qualifies here
    assert rep.overlap_threshold == Fraction(4, 5)


def test_random_family_deterministic():
    a = random_family(20, 12, Fraction(1, 2), seed=3)
    b = random_family(20, 12, Fraction(1, 2), seed=3)
    assert np.array_equal(a.sets, b.sets)
    c = random_family(20, 12, Fraction(1, 2), seed=4)
    assert not np.array_equal(a.sets, c.sets)
    # every set has exactly the minimum size
    assert (a.sets.sum(axis=1) == 10).all()


def test_random_family_matches_scalar_oracle():
    for k, inst in enumerate(fuzz_instances(300, seed=0)):
        want = family_oracle(inst.x_size, inst.i_size,
                             math.ceil(inst.rho * inst.x_size),
                             derive_seed(0, k))
        assert np.array_equal(inst.sets, want), inst.label
    # Both ends of the fuzz range of family sizes, on every grid corner.
    for x_size in FUZZ_X_SIZES:
        for rho in FUZZ_RHOS:
            k = math.ceil(rho * x_size)
            for i_size in sorted({k, x_size}):
                inst = random_family(x_size, i_size, rho, seed=x_size)
                want = family_oracle(x_size, i_size, k, x_size)
                assert np.array_equal(inst.sets, want), inst.label


def test_random_family_forced_rejection():
    # The raw draw at ``position`` is 2**64 - 1, which the Fisher-Yates
    # step it falls on rejects (no modulus 10..6 divides 2**64), so every
    # later step draws from one counter position further on.
    for position in (0, 7, 123):
        seed = seed_with_raw(MASK64, position)
        inst = random_family(10, 40, Fraction(1, 2), seed)
        assert np.array_equal(inst.sets, family_oracle(10, 40, 5, seed))


def test_random_family_infeasible():
    with pytest.raises(InfeasibleParametersError):
        random_family(10, 2, Fraction(1, 2), seed=0)
    with pytest.raises(InfeasibleParametersError):
        random_family(0, 1, Fraction(1, 2), seed=0)


def test_fuzz_instances_deterministic_and_passing():
    a = list(fuzz_instances(60, seed=2026))
    b = list(fuzz_instances(60, seed=2026))
    assert len(a) == 60
    for ia, ib in zip(a, b):
        assert np.array_equal(ia.sets, ib.sets)
        assert ia.rho == ib.rho
    assert all(verify_lemma(inst).passed for inst in a)


# Each adversarial family in order: label, |X|, rho and the SHA-256 of
# np.packbits(sets, axis=1).
ADVERSARIAL_PINS = [
    ("disjoint-singletons(x=3,rho=1/3)", 3, Fraction(1, 3),
     "1269523da5404a82c95810df1fcd3ea8701ff959b3dcec3b9b573d01a7ad07f9"),
    ("boundary-windows(x=32,rho=1/2)", 32, Fraction(1, 2),
     "f24cbc6ab8a659df7756911e7939318e71ca5cd7c2edb8b0eea51dce3b6c9224"),
    ("boundary-two-halves(x=32,rho=1/2)", 32, Fraction(1, 2),
     "5b3822ea7895aed7b478ef3d9ee62e2342c941c670110d52403c71e6dc07872f"),
    ("above-boundary-windows(x=33,rho=1/2)", 33, Fraction(1, 2),
     "d940c0d6a9371aed017bd4d03050b079cde328122db07209c5ddc29b09acc055"),
    ("below-boundary-windows(x=8,rho=1/2)", 8, Fraction(1, 2),
     "7038e46331d04f08ead9d2023550d892d5d2310e8fe0ac2779709e2b5453f7ef"),
    ("partition-blocks(x=50,rho=1/5)", 50, Fraction(1, 5),
     "9299b99e1b3c9025590a9cd7e11263399d39fa4e429544821d80cdfc93356183"),
    ("saturated(x=10,rho=1)", 10, Fraction(1),
     "45ad5eaf61ac16c0edd17af1796589e643e02f1cd3cec3d85f0682aaece86e2a"),
]


def test_adversarial_families_pinned():
    got = [(inst.label, inst.x_size, inst.rho,
            hashlib.sha256(np.packbits(inst.sets, axis=1).tobytes())
            .hexdigest())
           for inst in adversarial_families()]
    assert got == ADVERSARIAL_PINS


def test_adversarial_families_pass():
    fams = adversarial_families()
    assert len(fams) >= 5
    labels = [f.label for f in fams]
    assert len(set(labels)) == len(labels)
    for inst in fams:
        assert verify_lemma(inst).passed


def test_save_load_round_trip(tmp_path):
    inst = random_family(15, 9, Fraction(1, 3), seed=77)
    path = tmp_path / "family.txt"
    save_family(inst, path)
    back = load_family(path, label="reloaded")
    assert back.x_size == inst.x_size
    assert back.rho == inst.rho
    assert np.array_equal(back.sets, inst.sets)
    assert back.label == "reloaded"

    # Files are read with universal newlines, as the CLI reads them.
    crlf = tmp_path / "family-crlf.txt"
    with open(crlf, "w", newline="\r\n") as fh:
        fh.write(family_text(inst))
    assert b"\r\n" in crlf.read_bytes()
    again = load_family(crlf)
    assert np.array_equal(again.sets, inst.sets)


def test_load_family_errors(tmp_path, monkeypatch):
    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense header\n")
    with pytest.raises(ValueError):
        load_family(bad)

    bad.write_text("X=4 I=2 rho=1/2\n0 1\n")  # fewer lines than I
    with pytest.raises(ValueError):
        load_family(bad)

    bad.write_text("X=4 I=4 rho=1/2\n0 9\n0 1\n0 1\n0 1\n")  # out of range
    with pytest.raises(ValueError):
        load_family(bad)

    bad.write_text("X=4 I=2 rho=1/2\n0 1\n2 3\n0 2\n")  # more lines than I
    with pytest.raises(ValueError, match="line 4"):
        load_family(bad)

    bad.write_text("X=4 I=2 rho=1/2\n0 1\n2 3\n\n  \n")  # trailing blanks
    assert load_family(bad).i_size == 2

    # numpy's text reader reads a blank line as [0], which would be the
    # valid set {0} at rho = 1/4, and a lone sign as 0.
    for line in ("", " \t", "0 -", "1 +", "+", "- 1"):
        bad.write_text(f"X=4 I=2 rho=1/4\n1 2\n{line}\n")
        with pytest.raises(ValueError, match="line 3: malformed"):
            load_family(bad)

    # Only ASCII decimal integers separated by ASCII whitespace; Python's
    # int() spellings (1_0, non-ASCII digits, NBSP) are malformed too.
    for token in ("x", "1.5", "0x1", "1,2", "--2", "1e3", "1_0", "\u0661",
                  "1\u00a02", "1\x1c2"):
        bad.write_text(f"X=20 I=2 rho=1/4\n0 1 2 3 4\n0 1 2 3 4 {token}\n")
        with pytest.raises(ValueError, match="line 3: malformed"):
            load_family(bad)

    # A token beyond int64 saturates in the reader; the range check
    # rejects it.
    for token in ("9" * 30, "-" + "9" * 30, str(2 ** 63), "-1", "4"):
        bad.write_text(f"X=4 I=2 rho=1/4\n1 {token}\n2\n")
        with pytest.raises(ValueError, match="out of range"):
            load_family(bad)

    # Tabs, vertical tabs, form feeds and signed ids are ASCII whitespace
    # and decimal integers.
    bad.write_text("X=4 I=2 rho=1/2\n0\t1\n+2\x0b3\x0c-0\n")
    assert load_family(bad).sets.tolist() == [[True, True, False, False],
                                              [True, False, True, True]]

    # numpy releases from before the unmatched-data deprecation expired
    # warn and return the ids read so far, instead of raising.
    def fromstring(line, dtype, sep):
        warnings.warn("string or file could not be read to its end due to "
                      "unmatched data", DeprecationWarning)
        return np.array([0], dtype=dtype)

    bad.write_text("X=4 I=1 rho=1/4\n0 x\n")
    monkeypatch.setattr(np, "fromstring", fromstring)
    with pytest.raises(ValueError, match="line 2: malformed"):
        load_family(bad)


@st.composite
def families(draw):
    x_size = draw(st.integers(1, 24))
    rho = Fraction(1, draw(st.integers(1, 6)))
    k = math.ceil(rho * x_size)
    rows = draw(st.lists(st.sets(st.integers(0, x_size - 1), min_size=k),
                         min_size=max(k, 1), max_size=k + 6))
    sets = np.zeros((len(rows), x_size), dtype=bool)
    for row, members in zip(sets, rows):
        row[list(members)] = True
    return FamilyInstance(x_size=x_size, rho=rho, sets=sets)


@settings(max_examples=60, deadline=None)
@given(families())
def test_save_load_round_trip_property(tmp_path_factory, inst):
    path = tmp_path_factory.mktemp("family") / "family.txt"
    save_family(inst, path)
    back = load_family(path)
    assert (back.x_size, back.rho) == (inst.x_size, inst.rho)
    assert np.array_equal(back.sets, inst.sets)


def _mutate(text, draw):
    """A damaged copy of a saved family file, and whether every copy of its
    kind is invalid (a garbled line may still parse)."""
    lines = text.splitlines()
    kind = draw(st.sampled_from(["drop", "range", "junk", "header", "huge",
                                 "extra", "blank", "garble"]))
    row = draw(st.integers(1, len(lines) - 1))
    if kind == "drop":
        del lines[row]
    elif kind == "range":
        lines[row] += " " + str(draw(st.sampled_from([-1, 10 ** 6])))
    elif kind == "junk":
        lines[row] += " " + draw(st.sampled_from(["x", "1.5", "0x1", "--2",
                                                  "1e3", "½", "1,2", "-",
                                                  "+"]))
    elif kind == "header":
        lines[0] = draw(st.sampled_from([
            "", "X=4", "X=a I=2 rho=1/2", "X=4 I=2 rho=3/2", "X=0 I=2 rho=1",
            "X=4 I=-1 rho=1/2", "X=100000 I=100000 rho=1/2", "X=4 I=2 rho",
        ]))
    elif kind == "huge":
        lines[row] += " " + draw(st.sampled_from(["9" * 30, "-" + "9" * 30,
                                                  str(2 ** 63)]))
    elif kind == "extra":
        lines.append(lines[row])
    elif kind == "blank":
        lines[row] = draw(st.sampled_from(["", " ", "\t", " \t "]))
    else:
        lines[row] = draw(st.text(max_size=12))
    return "\n".join(lines) + "\n", kind != "garble"


@settings(max_examples=80, deadline=None)
@given(families(), st.data())
def test_load_family_rejects_mutations(tmp_path_factory, inst, data):
    # Only ValueError (exit 2) or BudgetExceededError (exit 3) may escape.
    text, invalid = _mutate(family_text(inst), data.draw)
    path = tmp_path_factory.mktemp("family") / "family.txt"
    with open(path, "w") as fh:
        fh.write(text)
    try:
        load_family(path, table_budget=10 ** 6)
    except (ValueError, BudgetExceededError):
        return
    assert not invalid, text
