import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wordmaplab import cli
from wordmaplab.freeword import (
    EMPTY,
    Word,
    WordParseError,
    concat,
    derived_word,
    invert,
    parse_word,
    reduce,
    substitute,
)
from wordmaplab.group import symmetric
from wordmaplab.rng import SplitMix64

from conftest import evaluate_word, random_reduced_word

# Random syllable lists, unreduced on purpose.
syllables = st.lists(
    st.tuples(st.integers(1, 4), st.integers(-3, 3).filter(bool)),
    max_size=12,
)


def seeded_words(count, length, num_vars, seed=101):
    gen = SplitMix64(seed)
    return [random_reduced_word(gen, length, num_vars) for _ in range(count)]


def test_parse_pinned():
    assert parse_word("x1*x2*x1^-1*x2^-1").syllables == (
        (1, 1), (2, 1), (1, -1), (2, -1),
    )
    assert parse_word("x1^2*x1").syllables == ((1, 3),)
    assert parse_word("x1*x1^-1") == EMPTY
    assert parse_word("") == EMPTY
    assert parse_word("  ") == EMPTY
    assert parse_word("X2^-3 x2").syllables == ((2, -2),)


def test_parse_errors_carry_position():
    for text in ("x1^0", "x0", "y1", "x1^^2", "x1*", "x1x2", "x1 * * x2", "^2"):
        with pytest.raises(WordParseError) as exc:
            parse_word(text)
        assert exc.value.position >= 0


def test_superscript_digits_are_not_numbers():
    # str.isdigit accepts superscripts, which int() rejects; a number is a
    # run of decimal digits, so each text stops where its number should
    # start.
    for text, position, what in (("x²", 1, "variable index"),
                                 ("x1^²", 3, "exponent")):
        with pytest.raises(WordParseError,
                           match=f"^expected {what} ") as exc:
            parse_word(text)
        assert exc.value.position == position


def test_str_parse_fixed_point():
    for w in seeded_words(200, 12, 4):
        assert parse_word(str(w)) == w
    assert str(EMPTY) == "1"
    assert parse_word("1") == EMPTY


def test_word_validation():
    with pytest.raises(ValueError):
        Word(((1, 0),))
    with pytest.raises(ValueError):
        Word(((0, 1),))
    with pytest.raises(ValueError):
        Word(((1, 1), (1, 2)))  # adjacent syllables must differ in variable


def test_arity_and_length():
    w = parse_word("x3*x1^-2")
    assert w.arity == 3
    assert w.length == 3
    assert EMPTY.arity == 0
    assert EMPTY.length == 0


@given(syllables)
def test_reduce_is_idempotent(raw):
    w = reduce(raw)
    assert reduce(w.syllables) == w
    assert w.length <= sum(abs(e) for _, e in raw)


def test_reduce_cascades():
    assert reduce([(1, 1), (2, 1), (2, -1), (1, -1)]) == EMPTY
    assert reduce([(1, 2), (1, -1)]).syllables == ((1, 1),)


@given(syllables)
def test_invert_cancels(raw):
    w = reduce(raw)
    assert invert(invert(w)) == w
    assert concat(w, invert(w)) == EMPTY
    assert concat(invert(w), w) == EMPTY


def test_substitute_pinned():
    w = parse_word("x1^2")
    out = substitute(w, [parse_word("x1^-1*x2")])
    assert str(out) == "x1^-1*x2*x1^-1*x2"
    with pytest.raises(ValueError):
        substitute(w, [])  # needs one image per variable


def test_substitute_respects_evaluation():
    # w(imgs(g)) must equal (w after substitution)(g); checked in S5.
    G = symmetric(5)
    gen = SplitMix64(77)
    for w in seeded_words(20, 6, 2, seed=31):
        imgs = seeded_words(2, 4, 3, seed=gen.next_u64() & 0xFFFF)
        composed = substitute(w, imgs)
        for _ in range(10):
            args = [gen.randbelow(G.n) for _ in range(3)]
            inner = [evaluate_word(img, G, args) for img in imgs]
            assert evaluate_word(composed, G, args) == evaluate_word(w, G, inner)


def test_derived_word_pinned():
    # Expected strings worked out by hand from the construction: substitute
    # x_i^-1 * y_i * z_i into w, then append w(z)^-1, w(y)^-1, w(x), reduce.
    assert derived_word(parse_word("x1")) == EMPTY
    pair = derived_word(parse_word("x1*x2"))
    assert str(pair) == "x1^-1*x3*x5*x2^-1*x4*x5^-1*x4^-1*x3^-1*x1*x2"
    assert pair.length == 10
    sq = derived_word(parse_word("x1^2"))
    assert str(sq) == "x1^-1*x2*x3*x1^-1*x2*x3^-1*x2^-2*x1^2"
    assert sq.length == 10


def test_derived_word_structure():
    for w in seeded_words(100, 10, 3, seed=404):
        v = derived_word(w)
        assert v.arity <= 3 * w.arity
        assert bool(v) == (v != EMPTY)


def test_derived_word_every_short_word():
    # Every reduced word of at most 5 letters in at most 3 variables: v has
    # at most 3d variables, for the d variables of w, and is nontrivial when
    # |w| >= 2.  Of the one-letter words, x_i gives the trivial v and
    # x_i^-1 a nontrivial one.
    letters = [(var, sign) for var in (1, 2, 3) for sign in (1, -1)]
    words = 0
    for length in range(6):
        for raw in itertools.product(letters, repeat=length):
            w = reduce(raw)
            if w.length < length:
                continue  # an adjacent x_i x_i^-1 cancelled
            words += 1
            v = derived_word(w)
            assert v.arity <= 3 * w.arity
            if length >= 2:
                assert v, str(w)
            elif length == 1:
                assert bool(v) == (raw[0][1] == -1), str(w)
    assert words == 1 + 6 + 6 * 5 + 6 * 25 + 6 * 125 + 6 * 625


def test_is_nontrivial_derived(capsys):
    # A derived word is nontrivial when it survives reduction; derive-word
    # reports the same in its ``nontrivial`` field.
    for text, expected in (("x1", False), ("x1*x2", True), ("x1^2", True)):
        assert bool(derived_word(parse_word(text))) == expected
        assert cli.run(["derive-word", "--word", text]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["derive"]["nontrivial"] is expected


def test_random_reduced_word_properties():
    gen = SplitMix64(12)
    for _ in range(100):
        w = random_reduced_word(gen, 15, 4)
        assert w.length == 15
        assert 1 <= w.arity <= 4
        assert reduce(w.syllables) == w
    assert random_reduced_word(SplitMix64(3), 8, 2) == random_reduced_word(
        SplitMix64(3), 8, 2
    )
