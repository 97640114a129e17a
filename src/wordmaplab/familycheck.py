"""Set-family instances and the pairwise-overlap guarantee check.

An instance is a family of subsets M_1..M_I of a ground set X with
|M_i| >= rho |X| and I >= rho |X|.  The guarantee under test: at least
f1(rho) |X|^2 ordered index pairs (diagonal included) have
|M_i ∩ M_j| >= f2(rho) |X|.  ``verify_lemma`` measures the exact pair count;
``random_family`` (seeded, vectorized partial Fisher-Yates) and
``adversarial_families`` supply fuzz and boundary instances, and
``load_family`` reads one from a one-set-per-line text file.  Every
adversarial family is a family of cyclic windows of X, one table row each.
"""

from __future__ import annotations

import math
import re
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .bounds import check_rho, f1, f2, parse_rat, rat_str
from .errors import DEFAULT_TABLE_BUDGET, check_budget, row_blocks
from .rng import SplitMix64, derive_seed, randbelow_rows


class InfeasibleParametersError(ValueError):
    """Requested family parameters violate the hypotheses."""


@dataclass(frozen=True)
class FamilyInstance:
    """A validated family: bool membership matrix of shape (I, |X|)."""

    x_size: int
    rho: Fraction
    sets: np.ndarray = field(compare=False)
    label: str = ""

    def __post_init__(self):
        rho = check_rho(self.rho)
        flags = np.asarray(self.sets, dtype=bool)
        if flags.ndim != 2 or flags.shape[1] != self.x_size:
            raise ValueError("sets must be a 2-d matrix with |X| columns")
        object.__setattr__(self, "sets", flags)
        min_size = rho * self.x_size
        if Fraction(flags.shape[0]) < min_size:
            raise InfeasibleParametersError(
                f"family has {flags.shape[0]} sets, needs >= {min_size}"
            )
        sizes = flags.sum(axis=1)
        small = np.nonzero(sizes * min_size.denominator
                           < min_size.numerator)[0]
        if small.size:
            raise InfeasibleParametersError(
                f"set {int(small[0])} has {int(sizes[small[0]])} members, "
                f"needs >= {min_size}"
            )

    @property
    def i_size(self) -> int:
        return int(self.sets.shape[0])


@dataclass(frozen=True)
class LemmaReport:
    """Exact pair census for one instance; its floors derive from rho, |X|."""

    label: str
    x_size: int
    i_size: int
    rho: Fraction
    qualifying_pairs: int

    @property
    def overlap_threshold(self) -> Fraction:
        return f2(self.rho) * self.x_size

    @property
    def required_pairs(self) -> Fraction:
        return f1(self.rho) * self.x_size ** 2

    @property
    def passed(self) -> bool:
        return Fraction(self.qualifying_pairs) >= self.required_pairs


def _pairs_reaching(sets: np.ndarray, need: int) -> int:
    """Ordered row pairs (i, j) of a bool matrix with |row_i & row_j| >=
    need.  Each overlap is a sum of popcounts of ANDed 64-bit words, an exact
    integer; rows are counted a block at a time, so the I x I overlap
    matrix is never built."""
    # Bit-pack each row, zero-padded to whole 64-bit words, into a (W, I)
    # table: word w of every row is one contiguous row.
    i_size, x_size = sets.shape
    packed = np.packbits(sets, axis=1)
    buf = np.zeros((i_size, -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    buf[:, :packed.shape[1]] = packed
    words = buf.view(np.uint64).T.copy()
    # Overlap is symmetric, so block [lo, hi) meets only the columns from lo
    # on: its own square counts once, the columns from hi on twice.  An
    # overlap is at most |X|, so it is summed in the narrowest unsigned type
    # that holds |X|.
    count = 0
    for lo, hi in row_blocks(i_size, i_size):
        shape = (hi - lo, i_size - lo)
        anded = np.empty(shape, dtype=np.uint64)
        pops = np.empty(shape, dtype=np.uint8)
        overlap = np.zeros(shape, dtype=np.min_scalar_type(x_size))
        for word in words:
            np.bitwise_and(word[lo:hi, None], word[None, lo:], out=anded)
            np.bitwise_count(anded, out=pops)
            overlap += pops
        reach = overlap >= need
        count += int(np.count_nonzero(reach[:, :hi - lo])
                     + 2 * np.count_nonzero(reach[:, hi - lo:]))
    return count


def verify_lemma(inst: FamilyInstance) -> LemmaReport:
    """Count ordered index pairs whose overlap reaches f2(rho) |X|."""
    rep = LemmaReport(label=inst.label, x_size=inst.x_size,
                      i_size=inst.i_size, rho=inst.rho, qualifying_pairs=0)
    # Overlaps are integers, so one reaches the report's threshold exactly
    # when it reaches its ceiling.
    return replace(rep, qualifying_pairs=_pairs_reaching(
        inst.sets, math.ceil(rep.overlap_threshold)))


def random_family(
    x_size: int, i_size: int, rho, seed: int
) -> FamilyInstance:
    """Family of i_size uniform subsets of the minimum size k = ceil(rho |X|).

    Set r is drawn by partial Fisher-Yates, and its j-th Fisher-Yates index
    is the (r*k + j)-th accepted draw of ``SplitMix64(seed)``, reduced mod
    |X| - j: the sets that i_size consecutive scalar samples from one stream
    would give.  All sets are drawn as one block and swapped together.
    """
    r = check_rho(rho)
    if x_size < 1:
        raise InfeasibleParametersError("need |X| >= 1")
    if Fraction(i_size) < r * x_size:
        raise InfeasibleParametersError(
            f"i_size {i_size} below rho |X| = {r * x_size}"
        )
    k = math.ceil(r * x_size)
    # One permutation of X per set, in a flat (i_size, |X|) table; swap[j]
    # holds the flat positions that step j exchanges with column j.
    offsets = randbelow_rows(seed, range(x_size, x_size - k, -1), i_size)
    base = np.arange(i_size, dtype=np.int64)[:, None] * x_size
    swap = (offsets + np.arange(k) + base).T.copy()
    perm = np.empty((i_size, x_size), dtype=np.int64)
    perm[:] = np.arange(x_size)
    flat = perm.reshape(-1)
    for j in range(k):
        picked = flat[swap[j]]
        flat[swap[j]] = perm[:, j]
        perm[:, j] = picked
    sets = np.zeros((i_size, x_size), dtype=bool)
    sets[np.arange(i_size)[:, None], perm[:, :k]] = True
    return FamilyInstance(
        x_size=x_size, rho=r, sets=sets,
        label=f"random(x={x_size},i={i_size},rho={rat_str(r)},seed={seed})",
    )


# Fuzz grid: every instance draws rho and |X| from these, plus a random
# family size between the minimum and |X|.
FUZZ_RHOS = (Fraction(1), Fraction(1, 2), Fraction(1, 3),
             Fraction(1, 5), Fraction(1, 10))
FUZZ_X_SIZES = (10, 40, 100, 300)


def fuzz_instances(count: int, seed: int) -> Iterator[FamilyInstance]:
    """Deterministic stream of random instances over the fuzz grid, drawn
    one at a time."""
    rng = SplitMix64(seed)
    for k in range(count):
        rho = FUZZ_RHOS[rng.randbelow(len(FUZZ_RHOS))]
        x_size = FUZZ_X_SIZES[rng.randbelow(len(FUZZ_X_SIZES))]
        i_min = math.ceil(rho * x_size)
        i_size = i_min + rng.randbelow(x_size - i_min + 1)
        yield random_family(x_size, i_size, rho, derive_seed(seed, k))


def _windows(x_size: int, starts, width: int) -> np.ndarray:
    """Row r holds the ``width`` points of X from ``starts[r]`` on, read
    cyclically."""
    offsets = np.arange(x_size) - np.asarray(starts)[:, None]
    return offsets % x_size < width


# Every adversarial instance is a family of cyclic windows of X:
# (label, |X|, rho, window starts, window width).
_ADVERSARIAL = (
    # Tiny ground set, pairwise disjoint singletons.
    ("disjoint-singletons(x=3,rho=1/3)", 3, Fraction(1, 3), range(3), 1),
    # rho = 1/2 boundary: |X| = 4 * 4 * 2 = 32, sets of half size.
    ("boundary-windows(x=32,rho=1/2)", 32, Fraction(1, 2), range(16), 16),
    # Same boundary but only two distinct sets: the two halves, repeated.
    ("boundary-two-halves(x=32,rho=1/2)", 32, Fraction(1, 2),
     [0, 16] * 8, 16),
    # Just above the boundary.
    ("above-boundary-windows(x=33,rho=1/2)", 33, Fraction(1, 2),
     range(17), 17),
    # Below the boundary (small-X regime) at rho = 1/2.
    ("below-boundary-windows(x=8,rho=1/2)", 8, Fraction(1, 2),
     [0, 2, 4, 6], 4),
    # Partition family: X split into 1/rho blocks, each set one block.
    ("partition-blocks(x=50,rho=1/5)", 50, Fraction(1, 5),
     [10 * (i % 5) for i in range(10)], 10),
    # Saturated family: every set is all of X at rho = 1.
    ("saturated(x=10,rho=1)", 10, Fraction(1), [0] * 10, 10),
)


def adversarial_families() -> list[FamilyInstance]:
    """Hand-built instances around the analysis' case boundary |X| =
    4 ceil(2/rho) / rho: tiny ground sets, the boundary itself, just above
    it, and families with minimal or zero off-diagonal overlap."""
    return [
        FamilyInstance(x_size=x_size, rho=rho,
                       sets=_windows(x_size, starts, width), label=label)
        for label, x_size, rho, starts, width in _ADVERSARIAL
    ]


# A sign followed by no digit, which numpy's text reader reads as 0.
_LONE_SIGN = re.compile(r"[+-](?![0-9])")


def _members(line: str, line_no: int, x_size: int) -> np.ndarray:
    """The member ids on one set line: ASCII decimal integers separated by
    ASCII whitespace, each in [0, x_size)."""
    # numpy's text reader reads a blank line as [0].
    if line.isspace() or (("-" in line or "+" in line)
                          and _LONE_SIGN.search(line)):
        raise ValueError(f"line {line_no}: malformed set line")
    try:
        members = np.fromstring(line, dtype=np.int64, sep=" ")
    except (ValueError, DeprecationWarning) as exc:
        raise ValueError(f"line {line_no}: malformed set line") from exc
    # A token beyond int64 saturates, so this check rejects it too; the
    # message quotes the token.
    bad = (members < 0) | (members >= x_size)
    if bad.any():
        raise ValueError(
            f"member index {int(line.split()[bad.argmax()])} out of range")
    return members


def load_family(path, label: str = "",
                table_budget: int = DEFAULT_TABLE_BUDGET) -> FamilyInstance:
    """Read a family file: a header 'X=<n> I=<m> rho=<num>/<den>', then one
    line of 0-based member indices per set; only blank lines may follow the
    I set lines.  The I x |X| membership matrix counts against
    ``table_budget``."""
    with open(path) as fh:
        header = fh.readline().split()
        try:
            fields = dict(part.split("=", 1) for part in header)
            x_size = int(fields["X"])
            i_size = int(fields["I"])
            rho = parse_rat(fields["rho"])
        except (KeyError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad family header: {header}") from exc
        if x_size < 1 or i_size < 1:
            raise ValueError(f"bad family header: {header} (X and I must be "
                             "positive)")
        check_budget(x_size * i_size, table_budget, "membership matrix")
        sets = np.zeros((i_size, x_size), dtype=bool)
        with warnings.catch_warnings():
            # numpy releases from before the unmatched-data deprecation
            # expired warn and return the part they read instead of raising.
            warnings.simplefilter("error", DeprecationWarning)
            for i in range(i_size):
                line = fh.readline()
                if not line:
                    raise ValueError(f"expected {i_size} set lines")
                sets[i, _members(line, i + 2, x_size)] = True
        for line_no, line in enumerate(fh, i_size + 2):
            if line.strip():
                raise ValueError(
                    f"line {line_no}: unexpected text after the {i_size} "
                    "set lines")
        return FamilyInstance(x_size=x_size, rho=rho, sets=sets, label=label)
