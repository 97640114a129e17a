from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wordmaplab.bounds import (
    BoundTriple,
    as_rational,
    ceil_two_over,
    commuting_bound,
    f,
    f1,
    f2,
    parse_rat,
    rat_str,
)

rhos = st.fractions(min_value=Fraction(1, 10**6), max_value=1)


def test_ceil_two_over_pinned():
    assert ceil_two_over(Fraction(1)) == 2
    assert ceil_two_over(Fraction(1, 2)) == 4
    assert ceil_two_over(Fraction(3, 7)) == 5


@given(rhos)
def test_ceil_two_over_matches_fraction_ceil(rho):
    # Oracle: ceil(2 den / num) in integer arithmetic, independent of
    # math.ceil.
    num, den = rho.numerator, rho.denominator
    assert ceil_two_over(rho) == (2 * den + num - 1) // num


# Expected values recomputed by hand from the closed forms before pinning.
TABLE = {
    Fraction(1): (Fraction(1, 24), Fraction(1, 6), Fraction(1, 144)),
    Fraction(1, 2): (Fraction(1, 192), Fraction(1, 40), Fraction(1, 7680)),
    Fraction(1, 3): (Fraction(1, 648), Fraction(1, 126), Fraction(1, 81648)),
}


@pytest.mark.parametrize("rho", sorted(TABLE, reverse=True))
def test_bound_table_pinned(rho):
    want_f1, want_f2, want_f = TABLE[rho]
    triple = f(rho)
    assert (triple.f1, triple.f2, triple.f) == (want_f1, want_f2, want_f)
    assert f1(rho) == want_f1
    assert f2(rho) == want_f2


@given(rhos)
def test_bound_invariants(rho):
    triple = f(rho)
    c = ceil_two_over(rho)
    assert triple.f1 == min(rho**2 / (12 * c), rho**3 / (4 * c))
    assert triple.f2 == rho / (c * (c + 1))
    assert triple.f == triple.f1 * triple.f2
    assert 0 < triple.f2 <= rho
    assert 0 < triple.f1 < rho**2
    assert triple.f**3 < Fraction(1, 2)


@given(rhos)
def test_branch_selection(rho):
    c = ceil_two_over(rho)
    cubic = rho**3 / (4 * c)
    quadratic = rho**2 / (12 * c)
    if rho < Fraction(1, 3):
        assert f1(rho) == cubic
    elif rho > Fraction(1, 3):
        assert f1(rho) == quadratic
    else:
        assert cubic == quadratic == f1(rho)


def test_domain_errors():
    for bad in (Fraction(0), Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ValueError):
            f(bad)
    with pytest.raises(TypeError):
        f1(0.5)
    with pytest.raises(TypeError):
        as_rational(0.5)


def test_as_rational_accepts_ints_and_strings():
    assert as_rational(1) == Fraction(1)
    assert as_rational("2/3") == Fraction(2, 3)
    assert as_rational(Fraction(5, 7)) == Fraction(5, 7)


def test_triple_rejects_inconsistent_product():
    with pytest.raises(ValueError):
        BoundTriple(
            rho=Fraction(1),
            f1=Fraction(1, 24),
            f2=Fraction(1, 6),
            f=Fraction(1, 145),
        )


def test_commuting_bound_pinned():
    assert commuting_bound(Fraction(1)) == Fraction(1, 287)
    assert commuting_bound(Fraction(1, 2)) == Fraction(1, 15359)


@given(rhos)
def test_commuting_bound_below_census_bound(rho):
    eps = f(rho).f
    bound = commuting_bound(rho)
    assert bound == eps / (2 - eps)
    assert 0 < bound < eps


def test_rat_str_round_trip():
    for q in (Fraction(1), Fraction(2, 3), Fraction(0), Fraction(-5, 7)):
        assert parse_rat(rat_str(q)) == q
    assert rat_str(Fraction(1)) == "1/1"
    assert rat_str(Fraction(4, 6)) == "2/3"
