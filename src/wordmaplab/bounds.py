"""Exact rational bound functions.

Everything here maps an agreement proportion rho in (0, 1] to explicit
rational guarantees:

* ``f1(rho)``  - guaranteed proportion (out of |X|^2) of index pairs whose
  sets overlap heavily in the set-family estimate,
* ``f2(rho)``  - guaranteed overlap proportion (out of |X|) for those pairs,
* ``f(rho)``   - their product, the guaranteed solution density for derived
  word equations,
* ``commuting_bound(rho)`` - the commuting-probability floor eps/(2 - eps)
  with eps = f1(rho) * f2(rho).

All arithmetic is exact via ``fractions.Fraction``; floats are rejected so
inexact values can never leak into an exact comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def as_rational(value) -> Fraction:
    """Coerce to an exact Fraction; floats are refused on purpose."""
    if isinstance(value, float):
        raise TypeError("exact rational required, got float %r" % value)
    return Fraction(value)


def check_rho(rho) -> Fraction:
    """Validate an agreement proportion: exact rational in (0, 1]."""
    r = as_rational(rho)
    if not 0 < r <= 1:
        raise ValueError(f"rho must lie in (0, 1], got {r}")
    return r


def ceil_two_over(rho) -> int:
    """ceil(2 / rho), exact: math.ceil of a Fraction divides integers."""
    return math.ceil(2 / check_rho(rho))


def f1(rho) -> Fraction:
    """Pair-count bound: min(rho^2 / (12 c), rho^3 / (4 c)), c = ceil(2/rho)."""
    r = check_rho(rho)
    c = ceil_two_over(r)
    return min(r ** 2 / (12 * c), r ** 3 / (4 * c))


def f2(rho) -> Fraction:
    """Overlap bound: rho / (c (c + 1)) with c = ceil(2/rho)."""
    r = check_rho(rho)
    c = ceil_two_over(r)
    return r / (c * (c + 1))


@dataclass(frozen=True)
class BoundTriple:
    """The three bounds at a fixed rho, with their structural invariants."""

    rho: Fraction
    f1: Fraction
    f2: Fraction
    f: Fraction

    def __post_init__(self):
        for name in ("f1", "f2", "f"):
            v = getattr(self, name)
            if not 0 < v <= 1:
                raise ValueError(f"{name} out of range: {v}")
        if self.f != self.f1 * self.f2:
            raise ValueError("f must equal f1 * f2")
        # The commuting-probability argument needs eps^3 < 1/2; it holds for
        # every rho in (0, 1] and is re-checked on construction.
        if self.f ** 3 >= Fraction(1, 2):
            raise ValueError(f"f(rho)^3 must stay below 1/2, got f = {self.f}")


def f(rho) -> BoundTriple:
    """All three bounds at rho, as one validated record."""
    r = check_rho(rho)
    a, b = f1(r), f2(r)
    return BoundTriple(rho=r, f1=a, f2=b, f=a * b)


def commuting_bound(rho) -> Fraction:
    """Floor on the commuting probability: eps / (2 - eps), eps = f(rho)."""
    eps = f(rho).f
    return eps / (2 - eps)


def rat_str(q: Fraction) -> str:
    """Canonical report form: 'num/den' in lowest terms, den always shown."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def parse_rat(text: str) -> Fraction:
    """Inverse of rat_str; also accepts plain integers like '1'."""
    return Fraction(text.strip())
