"""Reduced words in free generators x1, x2, ... and the derived equation.

A word is stored in run-length form: a tuple of syllables ``(var, exp)`` with
1-based variable indices, nonzero exponents, and adjacent syllables always on
distinct variables.  ``derived_word`` turns a word w of arity d into the
single word v over 3d variables whose vanishing characterises the triple
equation

    w(x1^-1 y1 z1, ..., xd^-1 yd zd) = w(x)^-1 w(y) w(z),

under the variable numbering x_i -> i, y_i -> d+i, z_i -> 2d+i.
"""

from __future__ import annotations

from dataclasses import dataclass

Syllable = tuple[int, int]


class WordParseError(ValueError):
    """Raised on malformed word text; carries the 0-based error position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Word:
    """A reduced word.  Construct via ``reduce``/``parse_word``, not raw."""

    syllables: tuple[Syllable, ...] = ()

    def __post_init__(self):
        prev = None
        for var, exp in self.syllables:
            if var < 1:
                raise ValueError(f"variable index must be >= 1, got {var}")
            if exp == 0:
                raise ValueError("zero exponent in syllable")
            if var == prev:
                raise ValueError("adjacent syllables share a variable")
            prev = var

    @property
    def arity(self) -> int:
        """Largest variable index used (0 for the empty word)."""
        return max((v for v, _ in self.syllables), default=0)

    @property
    def length(self) -> int:
        """Total letter count: sum of |exp| over syllables."""
        return sum(abs(e) for _, e in self.syllables)

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        return "*".join(
            f"x{v}" + (f"^{e}" if e != 1 else "") for v, e in self.syllables
        )

    def __bool__(self) -> bool:
        return bool(self.syllables)


EMPTY = Word()


def reduce(raw) -> Word:
    """Free reduction of a raw syllable sequence (merge, drop, cascade)."""
    stack: list[list[int]] = []
    for var, exp in raw:
        if exp == 0:
            continue
        if stack and stack[-1][0] == var:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([var, exp])
    return Word(tuple((v, e) for v, e in stack))


def invert(w: Word) -> Word:
    """Inverse word: syllables reversed with negated exponents."""
    return Word(tuple((v, -e) for v, e in reversed(w.syllables)))


def concat(*words: Word) -> Word:
    """Reduced product of words, left to right."""
    raw: list[Syllable] = []
    for w in words:
        raw.extend(w.syllables)
    return reduce(raw)


def substitute(w: Word, images: list[Word]) -> Word:
    """Replace variable i by images[i-1] everywhere, then reduce.

    ``images`` must cover every variable of w; checking is strict because a
    silent short list would shift variable meanings.
    """
    if len(images) < w.arity:
        raise ValueError(
            f"word uses x{w.arity} but only {len(images)} images given"
        )
    raw: list[Syllable] = []
    for var, exp in w.syllables:
        img = images[var - 1] if exp > 0 else invert(images[var - 1])
        for _ in range(abs(exp)):
            raw.extend(img.syllables)
    return reduce(raw)


def shift_vars(w: Word, offset: int) -> Word:
    """Rename every variable i to i + offset (stays reduced)."""
    return Word(tuple((v + offset, e) for v, e in w.syllables))


def derived_word(w: Word) -> Word:
    """The derived equation of w as a single reduced word over 3d variables.

    v = w(x^-1 y z) * w(z)^-1 * w(y)^-1 * w(x); a tuple in G^{3d} solves the
    triple equation exactly when v evaluates to the identity on it.
    """
    d = w.arity
    args = [
        reduce([(i, -1), (d + i, 1), (2 * d + i, 1)]) for i in range(1, d + 1)
    ]
    lhs = substitute(w, args)
    w_z = shift_vars(w, 2 * d)
    w_y = shift_vars(w, d)
    return concat(lhs, invert(w_z), invert(w_y), w)


def parse_word(text: str) -> Word:
    """Parse word text: terms 'x<index>' or 'x<index>^<exp>' separated by
    '*' or whitespace.  Empty, blank, or '1' input is the empty word."""
    if text.strip() == "1":
        return EMPTY
    i, n = 0, len(text)
    raw: list[Syllable] = []

    def skip_ws(j):
        while j < n and text[j].isspace():
            j += 1
        return j

    def read_uint(j, what):
        start = j
        while j < n and text[j].isdecimal():
            j += 1
        if j == start:
            raise WordParseError(f"expected {what}", start)
        return int(text[start:j]), j

    i = skip_ws(i)
    first = True
    while i < n:
        if not first:
            if text[i] == "*":
                i = skip_ws(i + 1)
            # bare whitespace already consumed acts as the separator
            if i >= n:
                raise WordParseError("dangling separator", n - 1)
        if text[i] not in ("x", "X"):
            raise WordParseError(f"expected 'x', got {text[i]!r}", i)
        var, i = read_uint(i + 1, "variable index")
        if var < 1:
            raise WordParseError("variable index must be >= 1", i - 1)
        exp = 1
        if i < n and text[i] == "^":
            i += 1
            sign = 1
            if i < n and text[i] == "-":
                sign, i = -1, i + 1
            mag, i = read_uint(i, "exponent")
            if mag == 0:
                raise WordParseError("exponent must be nonzero", i - 1)
            exp = sign * mag
        raw.append((var, exp))
        first = False
        j = skip_ws(i)
        if j == i and i < n and text[i] != "*":
            raise WordParseError(f"expected separator, got {text[i]!r}", i)
        i = j
    return reduce(raw)

